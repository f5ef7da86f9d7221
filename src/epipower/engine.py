"""Belief-driven power selection without channel feedback.

Each node knows its own gain, everyone's SINR targets and the gain
prior, but never observes rival gains or powers.  It therefore runs the
whole game in its head: it keeps one believed power per rival, updates
every belief by simulating that rival's feasibility test (gain
marginalised against the prior), then re-picks its own power against the
updated beliefs.  Sweeps repeat until the belief state stops moving or a
stage cap is hit.  The quantity compared against the SINR target is the
k-th root of the k-th SINR moment; higher k penalises dispersion and
yields more conservative (larger) required powers.

Belief updates within one sweep are synchronous: every rival's new
believed power is computed from the state at sweep entry, so the result
does not depend on rival ordering.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .game import NetworkState, PowerGrid
from .moments import (
    DEFAULT_TRUNCATION,
    RayleighPrior,
    fit_interference,
    gamma_from_sums,
    int_power,
    inverse_moment_value,
    inverse_shifted_moment,
    kth_root,
)

__all__ = [
    "EpistemicPolicy",
    "NodeOutcome",
    "GameOutcome",
    "NodeEngine",
    "inter_slope",
    "intra_slope",
    "leave_one_out_fits",
    "run_epistemic_game",
]

@dataclass(frozen=True)
class EpistemicPolicy:
    """Selection rule: which SINR moment to trust.

    moment_order 1 uses the plain mean; orders 2..4 compare the k-th
    root of the k-th raw moment against the target, which increasingly
    discounts hypotheses whose predicted SINR is merely high on average.
    The inverse-moment series is expanded to ``DEFAULT_TRUNCATION``.
    """

    moment_order: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.moment_order <= 4:
            raise ValueError(f"moment_order must be 1..4, got {self.moment_order}")

    def check_grid(self, n_nodes: int, p_max: float, noise_power: float, lam: float):
        """ValueError unless this policy's worst-case series is in float range.

        The worst case is ``n_nodes - 1`` interferers at p_max against noise
        alone; every other fit, leave-one-out sums included, has smaller sums.
        """
        count, p = np.float64(n_nodes - 1), np.float64(p_max)
        with np.errstate(all="ignore"):
            alpha, theta = gamma_from_sums(count * p, count * (p * p), lam)
            value, _, _ = inverse_moment_value(
                alpha, theta, noise_power, self.moment_order, DEFAULT_TRUNCATION
            )
        if count > 0 and not 0.0 < value < math.inf:
            raise ValueError(f"p_max {p_max:g} overflows the belief fit of "
                             f"{n_nodes - 1} interferers (series value {value:g})")


def inter_slope(k: int, lam: float, series_value: float) -> float:
    """Per-unit-power statistic for a rival whose gain is only known in prior.

    The k-th SINR moment is p^k (k!/lam^k) E[1/(Y+eta)^k]; its k-th root
    is linear in p with this slope.
    """
    scale = math.factorial(k) / int_power(lam, k)
    return kth_root(scale * series_value, k)


def intra_slope(k: int, gain_sq: float, series_value: float) -> float:
    """Per-unit-power statistic when the transmitter knows its own gain."""
    return gain_sq * kth_root(series_value, k)


def leave_one_out_fits(powers: Sequence[float], lam: float):
    """Indices j with an active (> 0) other entry; alpha, theta of their fits.

    Each fit is ``fit_interference`` of the entries other than j, bit for
    bit: ``math.fsum`` is correctly rounded (Shewchuk 1997), so removing
    entry j from the sums over all active entries gives the same sums.
    """
    active = [p for p in powers if p > 0.0]
    squares = [p * p for p in active]
    fitted = [j for j, p in enumerate(powers) if len(active) > (p > 0.0)]
    sum_p = [math.fsum(active + [-powers[j]]) for j in fitted]
    sum_sq = [math.fsum(squares + [-(powers[j] * powers[j])]) for j in fitted]
    return fitted, *gamma_from_sums(np.array(sum_p), np.array(sum_sq), lam)


@dataclass(frozen=True)
class NodeOutcome:
    """Terminal state of one node's local reasoning."""

    node_id: int
    power: float
    feasible: bool
    converged: bool
    stages_run: int
    eu_evaluations: int
    believed_powers: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class GameOutcome:
    """Realised joint profile once every node has reasoned independently."""

    nodes: tuple[NodeOutcome, ...]
    profile: tuple[float, ...]
    eu_evaluations: int
    converged: bool


class NodeEngine:
    """Local reasoning loop of a single node.

    The constructor deliberately accepts rivals as (id, threshold) pairs
    only; rival gains must never reach this class.  ``exhaustive=True``
    scans every grid level per update (one statistic evaluation each),
    which is what the evaluation counter reports; the default bisects
    the same linear statistic and reports the probe count instead.
    """

    def __init__(
        self,
        node_id: int,
        gain: float,
        sinr_threshold: float,
        rivals: Sequence[tuple[int, float]],
        prior: RayleighPrior,
        noise_power: float,
        grid: PowerGrid,
        policy: EpistemicPolicy,
        exhaustive: bool = False,
    ):
        if not 0.0 <= gain < math.inf:
            raise ValueError(f"gain must be finite and nonnegative, got {gain}")
        if not noise_power > 0.0:
            raise ValueError("noise_power must be positive")
        rival_ids = [r[0] for r in rivals]
        if node_id in rival_ids or len(set(rival_ids)) != len(rival_ids):
            raise ValueError("rival ids must be unique and exclude the node itself")
        self.node_id = node_id
        self.gain_sq = gain * gain
        self.sinr_threshold = float(sinr_threshold)
        self.rivals = tuple((int(i), float(t)) for i, t in rivals)
        self.prior = prior
        self.noise_power = float(noise_power)
        self.grid = grid
        self.policy = policy
        self.exhaustive = exhaustive
        self.eu_evaluations = 0
        self.own_power = grid.p_max
        self.own_feasible = True
        self.believed = {i: grid.p_max for i, _ in self.rivals}

    # -- statistic plumbing -------------------------------------------------

    def _series(self, powers: list[float], eta: float) -> float:
        k = self.policy.moment_order
        model = fit_interference(powers, self.prior.lam, eta)
        return (1.0 / int_power(eta, k) if model is None
                else inverse_shifted_moment(model, k, DEFAULT_TRUNCATION).value)

    def _update(self, slope: float, threshold: float) -> tuple[float, bool]:
        """Lowest level p with slope*p >= threshold and True; (p_max, False) if none.

        Adds the update's statistic evaluations to ``eu_evaluations``.
        """
        levels = self.grid.levels
        if self.exhaustive:
            passing = [i for i, p in enumerate(levels) if slope * p >= threshold]
            idx = passing[0] if passing else None
            self.eu_evaluations += len(levels)
        else:
            idx = self.grid.select_lowest_feasible(slope, threshold)
            self.eu_evaluations += max(1, math.ceil(math.log2(len(levels)))) + 1
        if idx is None:
            return self.grid.p_max, False
        return levels[idx], True

    # -- sweep --------------------------------------------------------------

    def step(self) -> bool:
        """Run one sweep; returns True if any belief or the own power moved."""
        entry_beliefs = dict(self.believed)
        entry_own = self.own_power
        k = self.policy.moment_order
        lam = self.prior.lam

        # rival pass: simulate each rival's feasibility test against the
        # sweep-entry state; this node's own contribution enters as the
        # known-gain shift, everyone else through the fitted model, in one
        # array series call.  A series value that is not positive clamps
        # the slope to 0, so no level passes
        eta_rival = self.gain_sq * entry_own + self.noise_power
        entry = [entry_beliefs[rid] for rid, _ in self.rivals]
        fitted, alpha, theta = leave_one_out_fits(entry, lam)
        series, _, _ = inverse_moment_value(alpha, theta, eta_rival, k, DEFAULT_TRUNCATION)
        fits = dict(zip(fitted, series.tolist()))
        bypass = 1.0 / int_power(eta_rival, k)
        new_beliefs: dict[int, float] = {}
        for j, (rid, rthr) in enumerate(self.rivals):
            value = fits.get(j, bypass)
            slope = 0.0 if value <= 0.0 else inter_slope(k, lam, value)
            new_beliefs[rid], _ = self._update(slope, rthr)
        self.believed = new_beliefs

        # own pass: re-pick own power against the refreshed beliefs
        own_interferers = [self.believed[m] for m, _ in self.rivals]
        value = self._series(own_interferers, self.noise_power)
        slope = 0.0 if value <= 0.0 else intra_slope(k, self.gain_sq, value)
        self.own_power, self.own_feasible = self._update(slope, self.sinr_threshold)
        return self.believed != entry_beliefs or self.own_power != entry_own

    def run(self, max_stages: int) -> NodeOutcome:
        if max_stages < 0:
            raise ValueError("max_stages must be nonnegative")
        stages_run, converged = 0, False
        while stages_run < max_stages and not converged:
            stages_run += 1
            converged = not self.step()
        return NodeOutcome(
            node_id=self.node_id,
            power=self.own_power,
            feasible=self.own_feasible,
            converged=converged,
            stages_run=stages_run,
            eu_evaluations=self.eu_evaluations,
            believed_powers=tuple(sorted(self.believed.items())),
        )


def run_epistemic_game(
    network: NetworkState,
    grid: PowerGrid,
    policy: EpistemicPolicy,
    prior: RayleighPrior,
    max_stages: int = 20,
    exhaustive: bool = False,
) -> GameOutcome:
    """Let every node reason in isolation, then read off the joint profile.

    There is no coupling between the per-node loops: node i's beliefs
    about rival powers evolve entirely inside node i.  The realised
    profile is simply each node's own final power; realised SINRs under
    the true gains are the caller's business.
    """
    outcomes = []
    for node in network.nodes:
        rivals = [(other.node_id, other.sinr_threshold)
                  for other in network.nodes if other.node_id != node.node_id]
        eng = NodeEngine(
            node_id=node.node_id,
            gain=node.gain,
            sinr_threshold=node.sinr_threshold,
            rivals=rivals,
            prior=prior,
            noise_power=network.noise_power,
            grid=grid,
            policy=policy,
            exhaustive=exhaustive,
        )
        outcomes.append(eng.run(max_stages))
    return GameOutcome(
        nodes=tuple(outcomes),
        profile=tuple(o.power for o in outcomes),
        eu_evaluations=sum(o.eu_evaluations for o in outcomes),
        converged=all(o.converged for o in outcomes),
    )
