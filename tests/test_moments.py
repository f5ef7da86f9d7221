"""Gamma fit, central moments, and the shifted inverse-moment series."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from epipower.moments import (
    DEFAULT_TRUNCATION,
    STATUS_OK,
    STATUS_TRUNCATED,
    GammaInterferenceModel,
    RayleighPrior,
    erlang_fit,
    fit_gamma_mme,
    fit_interference,
    gamma_central_moments,
    gamma_from_sums,
    int_power,
    inverse_moment_value,
    inverse_shifted_moment,
    kth_root,
)
from epipower.oracles import (
    erlang_quantiles,
    mc_interference_moments,
    quadrature_inverse_moment,
)

positive_powers = st.lists(
    st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=30
)


class TestRayleighPrior:
    def test_rate_from_sigma(self):
        assert RayleighPrior(sigma=1.0).lam == 0.5
        assert RayleighPrior(sigma=0.5).lam == 2.0

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            RayleighPrior(sigma=0.0)

    @pytest.mark.parametrize("sigma", [1e-200, 1e200, math.inf])
    def test_rejects_sigma_whose_rate_is_not_finite(self, sigma):
        # 2 sigma^2 underflows to 0 or overflows to inf
        with pytest.raises(ValueError, match="rate"):
            RayleighPrior(sigma=sigma)


class TestGammaFit:
    def test_equal_powers_give_erlang(self):
        m = fit_gamma_mme((1.0, 1.0, 1.0), lam=0.5)
        assert m.alpha_hat == 3.0
        assert m.theta_hat == 2.0
        assert m.mean == 6.0
        assert m.variance == 12.0

    def test_two_unequal_powers(self):
        m = fit_gamma_mme((1.0, 3.0), lam=1.0)
        assert m.alpha_hat == 1.6
        assert m.theta_hat == 2.5

    def test_single_power_is_exponential(self):
        m = fit_gamma_mme((2.0,), lam=0.5)
        assert m.alpha_hat == 1.0
        assert m.theta_hat == 4.0

    def test_fit_matches_monte_carlo(self):
        powers = (0.5, 1.5, 2.0)
        m = fit_gamma_mme(powers, lam=0.7)
        mc_mean, mc_var = mc_interference_moments(
            powers, lam=0.7, n_draws=200_000, seed=7
        )
        assert m.mean == pytest.approx(mc_mean, rel=0.01)
        assert m.variance == pytest.approx(mc_var, rel=0.05)

    def test_empty_powers_rejected(self):
        with pytest.raises(ValueError, match="no interferers"):
            fit_gamma_mme((), lam=0.5)

    def test_nonpositive_power_rejected(self):
        with pytest.raises(ValueError):
            fit_gamma_mme((1.0, 0.0), lam=0.5)
        with pytest.raises(ValueError):
            fit_gamma_mme((1.0, -2.0), lam=0.5)

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
    def test_rate_must_be_finite_and_positive(self, lam):
        # an infinite rate would fit theta_hat = 0
        with pytest.raises(ValueError, match="lam must be finite and positive"):
            fit_gamma_mme((1.0, 2.0), lam=lam)

    @pytest.mark.parametrize(
        "powers, lam",
        [
            ((1e-200,), 0.5),  # the square underflows to 0
            ((1e200,), 0.5),  # the square overflows
            ((1e308, 1e308), 0.5),  # the sum overflows inside math.fsum
            ((1e-160,), 1e-200),  # lam * sum(p) underflows to 0
            ((1e150,), 1e-300),  # theta_hat overflows
        ],
    )
    def test_sums_past_float_range_rejected(self, powers, lam):
        with pytest.raises(ValueError, match="sums leave float range"):
            fit_gamma_mme(powers, lam=lam)

    def test_fit_interference_filters_silent_nodes(self):
        m = fit_interference((0.0, 1.0, 0.0, 3.0), lam=1.0, eta=2.0)
        assert m is not None
        assert m.alpha_hat == 1.6
        assert m.theta_hat == 2.5
        assert m.eta == 2.0

    def test_gamma_from_sums_rows_match_the_fit(self):
        lists = [(1.0, 3.0), (0.3, 0.3, 7.0), (2.5,)]
        alpha, theta = gamma_from_sums(
            np.array([math.fsum(p) for p in lists]),
            np.array([math.fsum(x * x for x in p) for p in lists]),
            0.7,
        )
        for row, powers in enumerate(lists):
            m = fit_gamma_mme(powers, lam=0.7)
            assert (alpha[row], theta[row]) == (m.alpha_hat, m.theta_hat)
        assert gamma_from_sums(4.0, 10.0, 1.0) == (1.6, 2.5)

    @given(
        count=st.integers(min_value=1, max_value=500),
        power=st.floats(min_value=1e-100, max_value=1e100),
        lam=st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_erlang_fit_is_the_fit_of_equal_powers(self, count, power, lam):
        # fsum of count equal terms and the product count*p are both the
        # correctly rounded count*p, so the two fits agree bit for bit
        m = fit_gamma_mme([power] * count, lam=lam)
        assert erlang_fit(count, power, lam) == (m.alpha_hat, m.theta_hat)
        alpha, theta = erlang_fit(count, np.array([power, power]), lam)
        assert alpha.tolist() == [m.alpha_hat] * 2
        assert theta.tolist() == [m.theta_hat] * 2

    def test_fit_interference_all_silent_is_none(self):
        assert fit_interference((0.0, 0.0), lam=1.0, eta=2.0) is None
        assert fit_interference((), lam=1.0, eta=2.0) is None

    @given(powers=positive_powers, lam=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=200, deadline=None)
    def test_shape_bounded_by_interferer_count(self, powers, lam):
        m = fit_gamma_mme(powers, lam=lam)
        n = len(powers)
        # Cauchy-Schwarz pins the shape between 1 and the count
        assert 1.0 - 1e-12 <= m.alpha_hat <= n * (1.0 + 1e-12)

    @given(
        n=st.integers(min_value=1, max_value=12),
        power=st.floats(min_value=1e-3, max_value=1e3),
        lam=st.floats(min_value=1e-2, max_value=1e2),
    )
    @settings(max_examples=100, deadline=None)
    def test_equal_power_fit_matches_erlang_quantiles(self, n, power, lam):
        m = fit_gamma_mme([power] * n, lam=lam)
        probs = np.linspace(0.01, 0.99, 99)
        from scipy import special

        fitted = special.gammaincinv(m.alpha_hat, probs) * m.theta_hat
        exact = erlang_quantiles(n, power, lam, probs)
        np.testing.assert_allclose(fitted, exact, rtol=1e-9)


class TestMomentVectors:
    def test_gamma_central_moments(self):
        assert gamma_central_moments(3.0, 2.0, 3) == [1.0, 0.0, 12.0, 48.0]
        assert gamma_central_moments(1.6, 2.5, 3) == [1.0, 0.0, 10.0, 50.0]

    @given(
        alpha=st.floats(min_value=0.2, max_value=50.0),
        theta=st.floats(min_value=1e-3, max_value=1e3),
        n_max=st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_central_identities(self, alpha, theta, n_max):
        central = gamma_central_moments(alpha, theta, n_max)
        assert central[0] == 1.0
        assert central[1] == 0.0
        var = alpha * theta * theta
        assert central[2] == pytest.approx(var, rel=1e-12)
        if n_max >= 3:
            assert central[3] == pytest.approx(2.0 * alpha * theta**3, rel=1e-12)

    @pytest.mark.parametrize("alpha", [79.0, 999.0, 9999.0])
    def test_central_moments_match_exact_rational_recurrence(self, alpha):
        # the harness fits alpha up to thousands of interferers, where a
        # raw-to-central conversion cancels away every digit of mu_8
        theta = 0.37
        got = gamma_central_moments(alpha, theta, 8)
        a, t = Fraction(alpha), Fraction(theta)
        exact = [Fraction(1), Fraction(0)]
        for n in range(1, 8):
            exact.append(n * t * (exact[n] + a * t * exact[n - 1]))
        for n in range(2, 9):
            assert abs(Fraction(got[n]) - exact[n]) <= Fraction(1, 10**14) * exact[n]

    def test_central_moments_array_rows_match_scalar_calls(self):
        alphas = np.array([0.7, 3.0, 79.0, 999.0, 9999.0])
        thetas = np.array([2.5, 0.37, 1e-3, 4.0, 0.37])
        rows = gamma_central_moments(alphas, thetas, 8)
        for i in range(len(alphas)):
            scalar = gamma_central_moments(float(alphas[i]), float(thetas[i]), 8)
            assert [float(r[i]) for r in rows] == scalar



class TestInverseShiftedSeries:
    def test_frozen_fourth_order_value(self):
        m = GammaInterferenceModel(alpha_hat=3.0, theta_hat=2.0, eta=100.0)
        s = inverse_shifted_moment(m, 1, truncation=4)
        assert s.value == 0.009443711293177426
        assert s.terms_used == 4
        assert s.status == STATUS_OK

    def test_fourth_order_close_to_quadrature(self):
        m = GammaInterferenceModel(alpha_hat=3.0, theta_hat=2.0, eta=100.0)
        s = inverse_shifted_moment(m, 1, truncation=4)
        q = quadrature_inverse_moment(m, k=1)
        assert s.value == pytest.approx(q, rel=1e-6)

    def test_zeroth_order_is_inverse_mean(self):
        m = GammaInterferenceModel(alpha_hat=3.0, theta_hat=2.0, eta=100.0)
        s = inverse_shifted_moment(m, 1, truncation=0)
        assert s.value == 1.0 / 106.0
        assert s.terms_used == 0
        assert s.status == STATUS_OK

    def test_divergence_onset_truncates(self):
        # eta far below E[Y] with alpha near 1: the tail grows quickly
        m = GammaInterferenceModel(alpha_hat=1.1, theta_hat=1.0, eta=0.1)
        s = inverse_shifted_moment(m, 1, truncation=8)
        assert s.status == STATUS_TRUNCATED
        assert s.terms_used == 2
        # re-running with the reported order reproduces the value cleanly
        again = inverse_shifted_moment(m, 1, truncation=s.terms_used)
        assert again.value == s.value
        assert again.status == STATUS_OK

    def test_default_truncation(self):
        m = GammaInterferenceModel(alpha_hat=3.0, theta_hat=2.0, eta=100.0)
        assert inverse_shifted_moment(m, 1) == inverse_shifted_moment(
            m, 1, truncation=DEFAULT_TRUNCATION
        )

    def test_third_moment_against_quadrature(self):
        m = GammaInterferenceModel(alpha_hat=3.0, theta_hat=2.0, eta=100.0)
        s = inverse_shifted_moment(m, 3, truncation=4)
        q = quadrature_inverse_moment(m, k=3)
        assert s.value == pytest.approx(q, rel=2e-5)

    def test_rejects_bad_orders(self):
        m = GammaInterferenceModel(alpha_hat=3.0, theta_hat=2.0, eta=100.0)
        with pytest.raises(ValueError):
            inverse_shifted_moment(m, 0)
        with pytest.raises(ValueError):
            inverse_shifted_moment(m, 1, truncation=-1)

    @given(
        alpha=st.floats(min_value=1.0, max_value=30.0),
        theta=st.floats(min_value=1e-2, max_value=1e2),
        ratio=st.floats(min_value=20.0, max_value=200.0),
        k=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_series_tracks_quadrature_when_eta_dominates(
        self, alpha, theta, ratio, k
    ):
        eta = ratio * alpha * theta
        m = GammaInterferenceModel(alpha_hat=alpha, theta_hat=theta, eta=eta)
        s = inverse_shifted_moment(m, k, truncation=6)
        q = quadrature_inverse_moment(m, k=k)
        assert s.value == pytest.approx(q, rel=1e-4)

    @given(
        alpha=st.floats(min_value=1.0, max_value=20.0),
        theta=st.floats(min_value=0.1, max_value=10.0),
        ratio=st.floats(min_value=5.0, max_value=100.0),
        k=st.integers(min_value=1, max_value=3),
        exponent=st.integers(min_value=-3, max_value=3),
    )
    @settings(max_examples=150, deadline=None)
    @example(alpha=1.0, theta=1.0, ratio=36.41114227829364, k=3, exponent=1)
    def test_power_of_two_scale_covariance_is_bitwise(
        self, alpha, theta, ratio, k, exponent
    ):
        # rescaling (theta, eta) by 2^m commutes with rounding, so the
        # estimate must shift by exactly 2^(-m k)
        c = 2.0**exponent
        eta = ratio * alpha * theta
        base = GammaInterferenceModel(alpha_hat=alpha, theta_hat=theta, eta=eta)
        scaled = GammaInterferenceModel(
            alpha_hat=alpha, theta_hat=theta * c, eta=eta * c
        )
        a = inverse_shifted_moment(base, k, truncation=4)
        b = inverse_shifted_moment(scaled, k, truncation=4)
        assert b.value == a.value / c**k
        assert b.terms_used == a.terms_used

    @given(
        powers=positive_powers,
        lam=st.floats(min_value=1e-2, max_value=1e2),
        c=st.floats(min_value=1e-3, max_value=1e3),
        ratio=st.floats(min_value=10.0, max_value=100.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_general_scale_covariance(self, powers, lam, c, ratio):
        eta = ratio * sum(powers) / lam
        base = fit_gamma_mme(powers, lam=lam, eta=eta)
        scaled = fit_gamma_mme([p * c for p in powers], lam=lam, eta=eta * c)
        a = inverse_shifted_moment(base, 1, truncation=3)
        b = inverse_shifted_moment(scaled, 1, truncation=3)
        assert b.value == pytest.approx(a.value / c, rel=1e-12)


class TestVectorisedKernel:
    def test_array_rows_match_scalar_calls(self):
        alphas = np.array([1.0, 2.5, 7.0])
        thetas = np.array([0.5, 2.0, 1.25])
        etas = np.array([40.0, 90.0, 10.0])
        # every operand an array (the batch rival pass), a 0-d eta (its own
        # pass) and a 0-d alpha and theta against an array eta
        for alpha, theta, eta in ((alphas, thetas, etas),
                                  (alphas, thetas, np.float64(20.0)),
                                  (np.float64(2.5), np.float64(2.0), etas)):
            for k in range(1, 5):
                vec, used, flagged = inverse_moment_value(alpha, theta, eta, k, 4)
                for i in range(3):
                    s = inverse_shifted_moment(
                        GammaInterferenceModel(
                            alpha_hat=float(np.broadcast_to(alpha, 3)[i]),
                            theta_hat=float(np.broadcast_to(theta, 3)[i]),
                            eta=float(np.broadcast_to(eta, 3)[i]),
                        ),
                        k,
                        truncation=4,
                    )
                    assert vec[i] == s.value
                    assert int(used[i]) == s.terms_used
                    assert bool(flagged[i]) == (s.status == STATUS_TRUNCATED)

    def test_arguments_are_not_written(self):
        alphas = np.array([1.0, 2.5, 7.0])
        thetas = np.array([0.5, 2.0, 1.25])
        etas = np.array([40.0, 90.0, 10.0])
        before = [a.copy() for a in (alphas, thetas, etas)]
        inverse_moment_value(alphas, thetas, etas, 2, 4)
        for arg, kept in zip((alphas, thetas, etas), before):
            assert arg.tolist() == kept.tolist()

    def test_int_power_and_kth_root(self):
        x = np.array([1e-30, 0.37, 1.0, 37.41114227829364, 5e20])
        for k in range(1, 6):
            np.testing.assert_allclose(int_power(x, k), x**k, rtol=1e-15)
            # a 0-d operand rounds like the matching array row
            assert int_power(x[3:4], k)[0] == int_power(np.asarray(x[3]), k)
        for k in range(1, 5):
            np.testing.assert_allclose(int_power(kth_root(x, k), k), x, rtol=1e-14)
            assert kth_root(x[3:4], k)[0] == kth_root(np.asarray(x[3]), k)
        # a statistic that is not positive, or is NaN, roots to 0 (-0.0
        # may stay -0.0), and sqrt never sees a negative
        bad = [-1.0, -math.inf, math.nan, -0.0]
        with np.errstate(all="raise"):
            for k in range(1, 5):
                roots = [kth_root(v, k) for v in bad]
                roots += [kth_root(np.asarray(v), k) for v in bad]
                roots += kth_root(np.array(bad).reshape(2, 2), k).ravel().tolist()
                assert [float(r) for r in roots] == [0.0] * 12
        with pytest.raises(ValueError, match="k must be 1..4, got 5"):
            kth_root(x, 5)

    def test_model_requires_positive_parameters(self):
        with pytest.raises(ValueError):
            GammaInterferenceModel(alpha_hat=0.0, theta_hat=1.0)
        with pytest.raises(ValueError):
            GammaInterferenceModel(alpha_hat=1.0, theta_hat=-1.0)
        with pytest.raises(ValueError):
            GammaInterferenceModel(alpha_hat=1.0, theta_hat=1.0, eta=-0.5)

    @pytest.mark.parametrize("eta", [math.nan, math.inf])
    def test_model_rejects_nonfinite_eta(self, eta):
        with pytest.raises(ValueError, match="eta must be finite"):
            GammaInterferenceModel(alpha_hat=1.0, theta_hat=1.0, eta=eta)

    @pytest.mark.parametrize(
        "alpha, theta",
        [(math.inf, 1.0), (1.0, math.inf), (math.inf, math.inf), (math.nan, 1.0),
         (1.0, math.nan)],
    )
    def test_model_rejects_nonfinite_parameters(self, alpha, theta):
        with pytest.raises(ValueError, match="_hat must be finite and positive"):
            GammaInterferenceModel(alpha_hat=alpha, theta_hat=theta)
