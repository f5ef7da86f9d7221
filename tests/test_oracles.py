"""Cross-checks between the independent reference implementations.

The references must agree with each other before they are allowed to
arbitrate the fast expansion: quadrature of the Gamma density, the
convergent 1/eta binomial series, closed forms where they exist, and
plain Monte Carlo.
"""
import math

import numpy as np
import pytest
from scipy import special, stats

from epipower.moments import GammaInterferenceModel, fit_gamma_mme
from epipower.oracles import (
    erlang_quantiles,
    eta_series_inverse_moment,
    mc_interference_moments,
    quadrature_inverse_moment,
)


def model(alpha, theta, eta):
    return GammaInterferenceModel(alpha_hat=alpha, theta_hat=theta, eta=eta)


def test_quadrature_matches_exponential_closed_form():
    # alpha = 1 is an Exp(theta) interferer: E[1/(Y+eta)] has the
    # classic exponential-integral form exp(eta/theta) E1(eta/theta) / theta
    for theta, eta in [(1.0, 0.5), (2.0, 3.0), (0.25, 4.0)]:
        m = model(1.0, theta, eta)
        closed = math.exp(eta / theta) * special.exp1(eta / theta) / theta
        quad = quadrature_inverse_moment(m, k=1)
        assert quad == pytest.approx(closed, rel=1e-9)


def test_quadrature_agrees_with_eta_series_when_eta_dominates():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        alpha = float(rng.uniform(1.0, 30.0))
        theta = float(10.0 ** rng.uniform(-3, 3))
        k = int(rng.integers(1, 5))
        eta = float(rng.uniform(20.0, 200.0)) * alpha * theta
        m = model(alpha, theta, eta)
        a = quadrature_inverse_moment(m, k=k)
        b = eta_series_inverse_moment(m, k=k)
        assert a == pytest.approx(b, rel=1e-9)


def test_quadrature_rejects_divergent_integral():
    with pytest.raises(ValueError):
        quadrature_inverse_moment(model(0.8, 1.0, 0.0), k=1)
    with pytest.raises(ValueError):
        quadrature_inverse_moment(model(2.0, 1.0, 0.0), k=2)
    # strictly above k the integral exists even with no shift
    value = quadrature_inverse_moment(model(3.5, 1.0, 0.0), k=2)
    assert value > 0.0


def test_eta_series_rejects_small_eta():
    with pytest.raises(ValueError):
        eta_series_inverse_moment(model(2.0, 1.0, 0.0))
    with pytest.raises(RuntimeError):
        # eta well below E[Y]: the 1/eta expansion blows up
        eta_series_inverse_moment(model(4.0, 1.0, 0.1))


def test_mc_moments_match_analytic_mean_and_variance():
    powers = (0.5, 1.5, 2.0)
    lam = 0.7
    mean, var = mc_interference_moments(powers, lam, n_draws=200_000, seed=99)
    exact_mean = sum(powers) / lam
    exact_var = sum(p * p for p in powers) / lam**2
    assert mean == pytest.approx(exact_mean, rel=0.01)
    assert var == pytest.approx(exact_var, rel=0.05)


def test_erlang_quantiles_match_scipy_gamma():
    probs = np.linspace(0.01, 0.99, 99)
    q = erlang_quantiles(4, power=0.3, lam=0.5, probs=probs)
    ref = stats.gamma(a=4, scale=0.3 / 0.5).ppf(probs)
    np.testing.assert_allclose(q, ref, rtol=1e-12)


def test_references_agree_on_a_fitted_model():
    m = fit_gamma_mme((1.0, 1.0, 1.0), lam=0.5, eta=100.0)
    quad = quadrature_inverse_moment(m, k=1)
    series = eta_series_inverse_moment(m, k=1)
    assert quad == pytest.approx(series, rel=1e-9)
