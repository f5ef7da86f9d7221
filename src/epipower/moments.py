"""Moment machinery for the exponential-Gamma interference model.

Channel amplitudes are Rayleigh(sigma), so squared gains are exponential
with rate ``lam = 1 / (2 sigma^2)``.  Aggregate interference seen by a
receiver is ``Y = sum_j p_j X_j`` where the ``X_j ~ Exp(lam)`` are the
unknown opponent gains and ``p_j`` their transmit powers.  ``Y`` is
approximated by a method-of-moments Gamma fit, which is exact (Erlang)
for equal powers.  Expectations of ``1 / (Y + eta)^k`` are evaluated by
an asymptotic central-moment expansion around ``E[Y] + eta``; the series
is truncated at the smallest-magnitude term if it starts to diverge.

All kernels accept either python floats or numpy arrays so the scalar
API and the vectorised simulation path share one set of expressions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "RayleighPrior",
    "GammaInterferenceModel",
    "SeriesValue",
    "fit_gamma_mme",
    "fit_interference",
    "gamma_from_sums",
    "int_power",
    "kth_root",
    "inverse_shifted_moment",
    "gamma_central_moments",
    "inverse_moment_value",
]

STATUS_OK = "ok"
STATUS_TRUNCATED = "truncated-at-optimal-order"

# the series order of every belief policy; on the harness's rows the
# divergence guard stops at order 3, as a Gamma's mu_4 grows like alpha^2
DEFAULT_TRUNCATION = 4


@dataclass(frozen=True)
class RayleighPrior:
    """Prior on channel amplitude; squared gain is Exp(lam), lam = 1/(2 sigma^2)."""

    sigma: float
    lam: float = field(init=False)

    def __post_init__(self) -> None:
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        two_var = 2.0 * self.sigma * self.sigma  # 0 or inf at extreme sigma
        lam = 1.0 / two_var if two_var > 0.0 else math.inf
        if not 0.0 < lam < math.inf:
            raise ValueError(f"sigma {self.sigma} gives rate 1/(2 sigma^2) = {lam}")
        object.__setattr__(self, "lam", lam)


@dataclass(frozen=True)
class GammaInterferenceModel:
    """Gamma(alpha_hat, theta_hat) surrogate for shifted aggregate interference Y + eta.

    ``eta`` is the deterministic shift added to Y wherever the model is
    consumed (own received power plus noise, or noise alone).
    """

    alpha_hat: float
    theta_hat: float
    eta: float = 0.0

    def __post_init__(self) -> None:
        if not self.alpha_hat > 0.0:
            raise ValueError(f"alpha_hat must be positive, got {self.alpha_hat}")
        if not self.theta_hat > 0.0:
            raise ValueError(f"theta_hat must be positive, got {self.theta_hat}")
        if not 0.0 <= self.eta < math.inf:
            raise ValueError(f"eta must be finite and nonnegative, got {self.eta}")

    @property
    def mean(self) -> float:
        return self.alpha_hat * self.theta_hat

    @property
    def variance(self) -> float:
        return self.alpha_hat * self.theta_hat * self.theta_hat


def fit_gamma_mme(
    powers: Sequence[float], lam: float, eta: float = 0.0
) -> GammaInterferenceModel:
    """Method-of-moments Gamma fit of Y = sum_j p_j X_j, X_j ~ Exp(lam) iid.

    ``gamma_from_sums`` of the correctly rounded sums.  Equal powers make
    the fit exact: alpha_hat equals the interferer count and Y is Erlang.

    Raises
    ------
    ValueError
        if ``powers`` is empty ("no interferers"), any entry is not
        strictly positive, or ``lam`` is not finite and strictly positive.
    """
    if len(powers) == 0:
        raise ValueError("no interferers: cannot fit an interference model")
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lam must be finite and positive, got {lam}")
    vec = [float(p) for p in powers]
    if any(not p > 0.0 for p in vec):
        raise ValueError("all interferer powers must be strictly positive")
    alpha, theta = gamma_from_sums(math.fsum(vec), math.fsum(p * p for p in vec), lam)
    return GammaInterferenceModel(alpha_hat=alpha, theta_hat=theta, eta=eta)


def gamma_from_sums(sum_p, sum_sq, lam):
    """The Gamma (alpha, theta) of Y = sum_j p_j X_j from sum(p), sum(p^2).

    Matching E[Y] = sum(p)/lam and V[Y] = sum(p^2)/lam^2 gives
    alpha = (sum p)^2 / sum(p^2) and theta = sum(p^2) / (lam sum p).
    Array-friendly; the scalar, leave-one-out and Erlang fits all use it.
    """
    alpha = sum_p * sum_p / sum_sq
    theta = sum_sq / (lam * sum_p)
    return alpha, theta


def fit_interference(
    powers: Sequence[float], lam: float, eta: float
) -> GammaInterferenceModel | None:
    """Fit helper that drops silent entries; returns None when nothing interferes.

    Callers treat None as the zero-interference bypass where
    E[1/(Y + eta)^k] is exactly eta^-k.
    """
    active = [float(p) for p in powers if p > 0.0]
    if not active:
        return None
    return fit_gamma_mme(active, lam, eta=eta)


def gamma_central_moments(alpha, theta, n_max: int) -> list:
    """Central moments 0..n_max of Gamma(alpha, theta); array-friendly.

    Uses the Gamma central-moment recurrence

        mu_0 = 1, mu_1 = 0, mu_{n+1} = n theta (mu_n + alpha theta mu_{n-1})

    whose terms are all positive, so nothing cancels even at the large
    alpha of populations of thousands, where a raw-to-central binomial
    conversion loses every digit of mu_8.  Every caller (scalar API,
    vectorised batch path) goes through this one function, so they share
    one rounding behaviour.
    """
    unit = alpha * 0.0 + 1.0  # promotes to the broadcast shape
    if n_max == 0:
        return [unit]
    mean = alpha * theta
    central = [unit, mean * 0.0]
    for n in range(1, n_max):
        central.append((n * theta) * (central[n] + mean * central[n - 1]))
    return central


@dataclass(frozen=True)
class SeriesValue:
    """Result of an asymptotic series evaluation.

    ``terms_used`` is the largest expansion order included; ``status`` is
    "truncated-at-optimal-order" when divergence onset forced an early stop.
    """

    value: float
    terms_used: int
    status: str


def int_power(x, k: int):
    """x**k for k >= 1 by repeated multiplication; each step rounds correctly.

    ``pow`` is not required to round correctly, and numpy sends 0-d and
    n-d operands to different ``pow`` implementations; a product rounds
    the same everywhere.
    """
    result = x
    for _ in range(k - 1):
        result = result * x
    return result


def kth_root(x, k: int):
    """x**(1/k) for k = 1..4, from square and cube roots.

    ``sqrt`` is correctly rounded by IEEE 754, so orders 1, 2 and 4 give
    the same bits on every platform; ``cbrt`` is libm's.
    """
    if k == 1:
        return x
    if k == 2:
        return np.sqrt(x)
    if k == 3:
        return np.cbrt(x)
    if k == 4:
        return np.sqrt(np.sqrt(x))
    raise ValueError(f"k must be 1..4, got {k}")


def inverse_moment_value(alpha, theta, eta, k: int, truncation: int):
    """E[1/(Y+eta)^k] under Gamma(alpha, theta); elementwise on arrays.

    Returns ``(value, terms_used, flagged)`` where

        value = bracket / (E[Y]+eta)^k
        bracket = sum_{n=0..T} (-1)^n C(k+n-1, n) central_n / (E[Y]+eta)^n

    is the expansion around E[Y]+eta.  The series is asymptotic, not
    convergent: once a term's magnitude stops decreasing the sum is cut
    at the smallest-magnitude term and ``flagged`` is set.  The n=1 term
    vanishes exactly (central moment 0) and is ignored by the onset
    detector.  The scalar API and the vectorised simulation path both
    funnel through this function, and it uses no ``pow``, so a scalar
    call and the matching array row round identically.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if truncation < 0:
        raise ValueError(f"truncation must be nonnegative, got {truncation}")
    alpha = np.asarray(alpha, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    eta = np.asarray(eta, dtype=np.float64)
    central = gamma_central_moments(alpha, theta, truncation)
    me = alpha * theta + eta
    inv = 1.0 / me
    total = np.broadcast_to(np.float64(1.0), me.shape).copy()
    prev_mag = np.ones_like(total)
    stopped = np.zeros(me.shape, dtype=bool)
    used = np.full(me.shape, truncation, dtype=np.int64)
    powt = np.ones_like(total)
    for n in range(1, truncation + 1):
        powt = powt * inv
        coeff = float((-1) ** n * math.comb(k + n - 1, n))
        term = coeff * central[n] * powt
        mag = np.abs(term)
        pos = mag > 0.0
        onset = pos & (mag >= prev_mag) & ~stopped
        used = np.where(onset, n - 1, used)
        stopped = stopped | onset
        total = total + np.where(stopped, 0.0, term)
        prev_mag = np.where(pos & ~stopped, mag, prev_mag)
    return total / int_power(me, k), used, stopped


def inverse_shifted_moment(
    model: GammaInterferenceModel, k: int, truncation: int = DEFAULT_TRUNCATION
) -> SeriesValue:
    """Series estimate of E[1/(Y+eta)^k] under the fitted Gamma model."""
    value, used, flagged = inverse_moment_value(
        model.alpha_hat, model.theta_hat, model.eta, k, truncation
    )
    return SeriesValue(
        value=float(value),
        terms_used=int(used),
        status=STATUS_TRUNCATED if bool(flagged) else STATUS_OK,
    )
