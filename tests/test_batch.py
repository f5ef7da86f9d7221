"""Vectorised solver paths must reproduce the scalar objects bit for bit."""
from dataclasses import replace

import numpy as np
import pytest

from epipower import batch, config, harness
from epipower.baselines import sncpc_solve
from epipower.batch import (
    epistemic_response,
    select_lowest_feasible_batch,
    sncpc_response,
)
from epipower.engine import EpistemicPolicy, NodeEngine, run_epistemic_game
from epipower.game import NetworkState, NodeConfig, PowerGrid
from epipower.moments import RayleighPrior


def plain_scan(levels, slope, threshold):
    """Independent reference: the first level meeting the target, else -1."""
    return next((i for i, l in enumerate(levels) if slope * l >= threshold), -1)


def scalar_index(grid, slope, threshold):
    idx = grid.select_lowest_feasible(slope, threshold)
    return -1 if idx is None else idx


class TestBatchSelector:
    def test_matches_scalar_selector(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(2, 60))
            levels = np.unique(rng.uniform(0.0, 5.0, size=n))
            grid = PowerGrid(levels=tuple(float(p) for p in levels))
            slopes = np.concatenate(
                [rng.uniform(0.0, 3.0, size=32), [0.0, 1e-300, 1e300]]
            )
            threshold = float(rng.uniform(0.01, 4.0))
            got = select_lowest_feasible_batch(grid.as_array(), slopes, threshold)
            for s, g in zip(slopes, got):
                want = plain_scan(grid.levels, float(s), threshold)
                assert int(g) == want
                assert scalar_index(grid, float(s), threshold) == want

    def test_nonpositive_threshold_selects_floor(self):
        levels = np.array([0.0, 0.5, 1.0])
        got = select_lowest_feasible_batch(levels, np.array([0.0, 2.0]), 0.0)
        assert got.tolist() == [0, 0]

    @pytest.mark.parametrize("scale_exp", range(-30, 31, 5))
    def test_matches_scalar_selector_on_ulp_grids(self, scale_exp):
        # consecutive floats around threshold/slope: several levels sit
        # within rounding of the boundary, so bisection alone is not enough
        rng = np.random.default_rng(1000 + scale_exp)
        for _ in range(8):
            slope = float(rng.uniform(0.5, 2.0)) * 2.0**scale_exp
            threshold = float(rng.uniform(0.01, 4.0))
            centre = threshold / slope
            levels = [centre]
            for _ in range(12):
                levels.insert(0, float(np.nextafter(levels[0], 0.0)))
                levels.append(float(np.nextafter(levels[-1], np.inf)))
            grid = PowerGrid(levels=tuple(levels))
            slopes = slope * np.array(
                [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)]
            )
            got = select_lowest_feasible_batch(grid.as_array(), slopes, threshold)
            for s, g in zip(slopes, got):
                want = plain_scan(grid.levels, float(s), threshold)
                assert int(g) == want
                assert scalar_index(grid, float(s), threshold) == want

    def test_edge_slopes_match_scalar_selector(self):
        grid = PowerGrid.linear(11, 1.0)
        slopes = np.array([0.0, -1.0, -np.inf, np.nan, 1e-300, 1e300, np.inf, 0.6])
        node = NodeEngine(
            0, 1.0, 0.5, (), RayleighPrior(sigma=1.0), 1.0, grid,
            EpistemicPolicy(), exhaustive=True,
        )
        for threshold in (0.5, 1.0):  # at 1.0, slope 0.6 is infeasible at p_max
            want = [plain_scan(grid.levels, float(s), threshold) for s in slopes]
            with np.errstate(invalid="ignore"):
                got = select_lowest_feasible_batch(grid.as_array(), slopes, threshold)
                scalar = [scalar_index(grid, float(s), threshold) for s in slopes]
            scan = [node._update(float(s), threshold) for s in slopes]
            assert got.tolist() == want
            assert scalar == want
            assert [grid.levels.index(p) if ok else -1 for p, ok in scan] == want
        # slope +inf meets the target at level 1: inf * 0.0 at level 0 is NaN
        assert got.tolist() == [-1, -1, -1, -1, -1, 1, 1, -1]
        # the scalar selector gives the same answers for numpy scalars
        assert grid.select_lowest_feasible(np.float64(0.6), 0.5) == 9
        assert grid.select_lowest_feasible(np.float64(0.0), 0.5) is None

    def test_slope_argument_is_not_written(self):
        levels = PowerGrid.linear(11, 1.0).as_array()
        slopes = np.array([0.0, 0.3, 2.0, 50.0])
        before = slopes.copy()
        select_lowest_feasible_batch(levels, slopes, 0.5)
        assert slopes.tolist() == before.tolist()


def run_object_engines(gains, n_active, threshold, noise, grid, policy, prior, stages):
    """Scalar reference: one NodeEngine per row with uniform rival targets."""
    rivals = tuple((j + 1, threshold) for j in range(n_active - 1))
    powers, believed, feasible, converged = [], [], [], []
    for g in gains:
        eng = NodeEngine(
            node_id=0,
            gain=float(g),
            sinr_threshold=threshold,
            rivals=rivals,
            prior=prior,
            noise_power=noise,
            grid=grid,
            policy=policy,
        )
        out = eng.run(stages)
        powers.append(out.power)
        believed.append(
            out.believed_powers[0][1] if out.believed_powers else grid.p_max
        )
        feasible.append(out.feasible)
        converged.append(out.converged)
    return powers, believed, feasible, converged


class TestEpistemicParity:
    @pytest.mark.parametrize("n_active", [1, 2, 3, 5])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_bitwise_equal_to_object_loop(self, n_active, k):
        rng = np.random.default_rng(100 * n_active + k)
        gains = rng.rayleigh(scale=1.0, size=24)
        grid = PowerGrid.linear(257, 2.0)
        prior = RayleighPrior(sigma=1.0)
        policy = EpistemicPolicy(moment_order=k)
        threshold, noise, stages = 0.02, 1e-3, 3
        res = epistemic_response(
            gains, n_active, threshold, noise, grid, policy, prior, stages
        )
        powers, believed, feasible, converged = run_object_engines(
            gains, n_active, threshold, noise, grid, policy, prior, stages
        )
        assert res.powers.tolist() == powers
        assert res.believed.tolist() == believed
        assert res.feasible.tolist() == feasible
        assert res.converged.tolist() == converged

    def test_single_transmitter_bypass(self):
        gains = np.array([2.0, 0.5, 0.05])
        grid = PowerGrid.linear(101, 1.0)
        prior = RayleighPrior(sigma=1.0)
        res = epistemic_response(
            gains, 1, 0.5, 0.1, grid, EpistemicPolicy(), prior, max_stages=5
        )
        # requirement is thr * noise / g^2, rounded up to the grid
        for g, p, ok in zip(gains, res.powers, res.feasible):
            req = 0.5 * 0.1 / (g * g)
            if req <= grid.p_max:
                assert ok
                assert p == grid.levels[np.searchsorted(grid.levels, req)]
            else:
                assert not ok
                assert p == grid.p_max
        assert res.converged.all()

    def test_input_validation(self):
        grid = PowerGrid.linear(11, 1.0)
        prior = RayleighPrior(sigma=1.0)
        with pytest.raises(ValueError):
            epistemic_response(
                np.ones(3), 0, 0.5, 0.1, grid, EpistemicPolicy(), prior, 1
            )
        with pytest.raises(ValueError):
            epistemic_response(
                np.ones(3), 2, 0.0, 0.1, grid, EpistemicPolicy(), prior, 1
            )


def scaled(grid, m):
    return PowerGrid(levels=tuple(level * 2.0**m for level in grid.levels))


def grid_indices(grid, powers):
    levels = grid.as_array()
    idx = np.searchsorted(levels, powers)
    assert np.array_equal(levels[idx], powers)  # every power is a grid level
    return idx.tolist()


class TestScaleInvariance:
    """Scaling p_max and the noise together by 2^m moves no grid index.

    Every statistic is p times a slope that scales by 2^-m, so the grid
    tests see identical products.  k = 3 is left out: its root is
    np.cbrt, which is not guaranteed to be correctly rounded.
    """

    # (n_active, levels, target dB, stage cap)
    SETTINGS = [(1, 101, -10.0, 4), (2, 101, -6.0, 6), (5, 1001, -12.0, 8),
                (30, 1001, -18.0, 8), (100, 10001, -21.0, 5)]

    @pytest.mark.parametrize("m", [-10, -3, 3, 10])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_batch_indices_unchanged(self, m, k):
        rng = np.random.default_rng(40 + k)
        prior = RayleighPrior(sigma=1.0)
        policy = EpistemicPolicy(moment_order=k)
        for n_active, n_levels, thr_db, stages in self.SETTINGS:
            gains = rng.rayleigh(scale=1.0, size=256)
            grid = PowerGrid.linear(n_levels, 1.0)
            runs = [
                (g, epistemic_response(
                    gains, n_active, 10.0 ** (thr_db / 10.0), noise, g, policy,
                    prior, stages,
                ))
                for g, noise in ((grid, 1e-3), (scaled(grid, m), 1e-3 * 2.0**m))
            ]
            (g0, a), (g1, b) = runs
            assert grid_indices(g0, a.powers) == grid_indices(g1, b.powers)
            assert grid_indices(g0, a.believed) == grid_indices(g1, b.believed)
            assert a.feasible.tolist() == b.feasible.tolist()
            assert a.converged.tolist() == b.converged.tolist()
            assert a.stages_run.tolist() == b.stages_run.tolist()

    @pytest.mark.parametrize("m", [-10, -3, 3, 10])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_engine_indices_unchanged(self, m, k):
        rng = np.random.default_rng(70 + k)
        gains = rng.rayleigh(scale=1.0, size=6)
        targets_db = (-14.0, -10.0, -7.0, -14.0, -10.0, -7.0)
        grid = PowerGrid.linear(201, 1.0)
        outcomes = []
        for g, noise in ((grid, 1e-3), (scaled(grid, m), 1e-3 * 2.0**m)):
            nodes = tuple(
                NodeConfig(i, float(a), 10.0 ** (t / 10.0))
                for i, (a, t) in enumerate(zip(gains, targets_db))
            )
            out = run_epistemic_game(
                NetworkState(nodes=nodes, noise_power=noise), g,
                EpistemicPolicy(moment_order=k), RayleighPrior(sigma=1.0),
                max_stages=12,
            )
            outcomes.append([
                (
                    grid_indices(g, [n.power]),
                    grid_indices(g, [p for _, p in n.believed_powers]),
                    n.feasible, n.converged, n.stages_run,
                )
                for n in out.nodes
            ])
        assert outcomes[0] == outcomes[1]


class TestSharedPowerBatch:
    def test_matches_plain_python_loop(self):
        rng = np.random.default_rng(21)
        gains = rng.rayleigh(scale=1.0, size=(16, 3))
        grid = PowerGrid.linear(41, 2.0)
        prior = RayleighPrior(sigma=1.0)
        threshold, noise = 0.1, 0.05
        res = sncpc_response(gains, threshold, noise, grid, prior, max_iter=100)
        start = batch._sncpc_start(
            gains * gains, threshold, noise, grid.as_array(), prior.lam
        )

        def plain_loop(row, p):
            p = list(p)
            feasible = [True] * 3
            for it in range(1, 101):
                entry = list(p)
                for i in range(3):
                    mean_inter = (sum(p) - p[i]) / prior.lam
                    slope = float(gains[row, i] ** 2) / (mean_inter + noise)
                    idx = grid.select_lowest_feasible(slope, threshold)
                    p[i] = grid.p_max if idx is None else grid.levels[idx]
                    feasible[i] = idx is not None
                if p == entry:
                    break
            return p, feasible, it

        for row in range(gains.shape[0]):
            p, feasible, _ = plain_loop(row, [grid.p_max] * 3)
            assert res.powers[row].tolist() == p
            assert res.feasible[row].tolist() == feasible
            # sweeps are counted from the closed-form start
            _, _, it = plain_loop(row, start[row].tolist())
            assert res.iterations[row] == it

    def test_monotone_descent_terminates(self):
        rng = np.random.default_rng(5)
        gains = rng.rayleigh(scale=1.0, size=(64, 4))
        grid = PowerGrid.linear(201, 2.0)
        res = sncpc_response(gains, 0.05, 0.01, grid, RayleighPrior(sigma=1.0))
        assert res.converged.all()
        assert (res.powers <= grid.p_max).all()

    def test_shape_validation(self):
        grid = PowerGrid.linear(11, 1.0)
        with pytest.raises(ValueError):
            sncpc_response(np.ones(3), 0.1, 0.1, grid, RayleighPrior(sigma=1.0))


def common_target_network(gains, threshold, noise):
    return NetworkState(
        nodes=tuple(NodeConfig(i, float(g), threshold) for i, g in enumerate(gains)),
        noise_power=noise,
    )


def assert_matches_scalar_descent(res, rows, gains, threshold, noise, grid, prior):
    """Row by row, the batch kernel ends where the all-p_max scalar loop ends."""
    for row in rows:
        ref = sncpc_solve(
            common_target_network(gains[row], threshold, noise), grid, prior, 2000
        )
        assert tuple(res.powers[row].tolist()) == ref.powers, row
        assert tuple(res.feasible[row].tolist()) == ref.feasible, row
        assert bool(res.converged[row]) == ref.converged, row


# (grid, SINR target times network size, noise) cycled over the sizes
# below; a product near 1 puts the mean-interference map near singular
START_CASES = (
    (PowerGrid.linear(201, 1.0), 0.5, 1e-3),
    (PowerGrid.linear(101, 2.0, p_min=0.5), 0.9, 1e-2),
    (PowerGrid(tuple(float(p) for p in np.geomspace(1e-4, 1.0, 61))), 0.7, 1e-6),
    (PowerGrid.linear(1001, 1.0), 0.98, 1e-4),
)
PRIOR = RayleighPrior(sigma=1.0)
FIG5_LOADS = (20, 30, 40, 50, 60, 70, 80, 90)


def figure5_spec(pct):
    """The default figure-5 point at one load, cut to one 256-trial chunk."""
    base = config.load_run_config(5, env={}).spec
    spec = replace(base, interference_fraction=pct / 100.0, trials=256)
    return spec, harness._chunk_gains(spec, 0)


class TestSncpcStart:
    """The closed-form start must not change where the descent ends."""

    @pytest.mark.parametrize("n", range(1, 61))
    def test_matches_scalar_descent(self, n):
        grid, load, noise = START_CASES[n % len(START_CASES)]
        threshold = load / n
        rng = np.random.default_rng(n)
        gains = rng.rayleigh(1.0, (8, n))
        gains[4:] *= 10.0 ** rng.uniform(-3.0, 3.0, (4, n))
        gains[6, 0] = 1e-200  # squared gain underflows to 0: never feasible
        gains[7, -1] = 1e200  # squared gain overflows: slope +inf
        with np.errstate(over="ignore", invalid="ignore"):
            res = sncpc_response(gains, threshold, noise, grid, PRIOR, max_iter=2000)
            assert_matches_scalar_descent(
                res, range(len(gains)), gains, threshold, noise, grid, PRIOR
            )
        # the start clips at the grid floor, so p_min > 0 grids need no restart
        assert not res.restarted.any()

    @pytest.mark.parametrize("pct", FIG5_LOADS)
    def test_figure5_rows_match_scalar_descent(self, pct):
        spec, gains = figure5_spec(pct)
        res = sncpc_response(
            gains, spec.sinr_threshold, spec.noise_power, spec.grid, spec.prior,
            spec.sncpc_max_iter,
        )
        # the slowest rows are the near-singular tail; add a spread of others
        order = np.argsort(res.iterations, kind="stable")
        rows = np.concatenate([order[-3:], order[:: len(order) // 5]])
        assert_matches_scalar_descent(
            res, rows, gains, spec.sinr_threshold, spec.noise_power, spec.grid,
            spec.prior,
        )

    @pytest.mark.parametrize("pct", FIG5_LOADS)
    def test_start_bounds_figure5_fixed_points(self, pct):
        spec, gains = figure5_spec(pct)
        start = batch._sncpc_start(
            gains * gains, spec.sinr_threshold, spec.noise_power,
            spec.grid.as_array(), spec.prior.lam,
        )
        res = sncpc_response(
            gains, spec.sinr_threshold, spec.noise_power, spec.grid, spec.prior,
            spec.sncpc_max_iter,
        )
        assert (start >= res.powers).all()
        assert not res.restarted.any()
        assert res.converged.all()

    @pytest.mark.parametrize("pct", (20, 50, 80))
    def test_forced_restart_changes_nothing(self, pct, monkeypatch):
        spec, gains = figure5_spec(pct)
        args = (gains, spec.sinr_threshold, spec.noise_power, spec.grid, spec.prior)
        res = sncpc_response(*args, spec.sncpc_max_iter)
        monkeypatch.setattr(
            batch, "_sncpc_start", lambda g2, *_: np.full(g2.shape, spec.grid.p_min)
        )
        low = sncpc_response(*args, spec.sncpc_max_iter)
        # from the grid floor every node rises, so every trial restarts
        assert low.restarted.all()
        np.testing.assert_array_equal(low.powers, res.powers)
        np.testing.assert_array_equal(low.feasible, res.feasible)
        np.testing.assert_array_equal(low.converged, res.converged)
        # a restarted trial counts only its sweeps from all-p_max
        for row in (np.argmin(low.iterations), np.argmax(low.iterations)):
            ref = sncpc_solve(
                common_target_network(
                    gains[row], spec.sinr_threshold, spec.noise_power
                ),
                spec.grid, spec.prior, spec.sncpc_max_iter,
            )
            assert low.iterations[row] == ref.iterations
