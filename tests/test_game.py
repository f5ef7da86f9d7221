"""Power grid, SINR geometry, and the full-information equilibrium solver."""
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epipower import game
from epipower.game import (
    NetworkState,
    NodeConfig,
    NonConvergenceError,
    PowerGrid,
    best_response_sweeps,
    nash_deviation_scan,
    select_lowest_feasible_batch,
    sinr,
    solve_nash_full_csi,
)


def two_node_network(noise=1.0):
    return NetworkState(
        nodes=(NodeConfig(0, 0.2, 0.8), NodeConfig(1, 0.1, 0.4)),
        noise_power=noise,
    )


def closed_form_pair(network):
    """Continuous equilibrium of the linear threshold system g_i^2 p_i =
    gamma_i (g_j^2 p_j + noise), solved exactly."""
    g2 = network.gains_sq()
    gam = np.array([n.sinr_threshold for n in network.nodes])
    a = np.array([[g2[0], -gam[0] * g2[1]], [-gam[1] * g2[0], g2[1]]])
    b = gam * network.noise_power
    return np.linalg.solve(a, b)


class TestPowerGrid:
    def test_linear_construction(self):
        grid = PowerGrid.linear(11, 1.0)
        assert len(grid) == 11
        assert grid.p_min == 0.0
        assert grid.p_max == 1.0
        assert grid.levels[5] == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerGrid(levels=())
        with pytest.raises(ValueError):
            PowerGrid(levels=(-0.1, 0.5))
        with pytest.raises(ValueError):
            PowerGrid(levels=(0.0, 0.5, 0.5))
        with pytest.raises(ValueError):
            PowerGrid.linear(1, 1.0)
        with pytest.raises(ValueError):
            PowerGrid.linear(5, 0.0)

    def test_as_array_is_cached_and_read_only(self):
        grid = PowerGrid.linear(11, 1.0)
        arr = grid.as_array()
        assert grid.as_array() is arr
        assert arr.tolist() == list(grid.levels)
        with pytest.raises(ValueError):
            arr[0] = 0.5

    def test_pickle_leaves_cached_array_behind(self):
        grid = PowerGrid.linear(10001, 1.0)
        grid.as_array()
        assert "_array" in grid.__dict__
        blob = pickle.dumps(grid)
        back = pickle.loads(blob)
        assert "_array" not in back.__dict__
        assert back == grid
        assert hash(back) == hash(grid)
        # about 90 KB: the levels tuple, not a second copy as an array
        assert len(blob) < len(pickle.dumps(grid.levels)) + 1024

    def test_select_lowest_feasible_examples(self):
        grid = PowerGrid.linear(11, 1.0)
        # slope 2: need p >= 0.5 for the statistic to reach 1
        assert grid.select_lowest_feasible(2.0, 1.0) == 5
        assert grid.select_lowest_feasible(2.0, 1.99) == 10
        assert grid.select_lowest_feasible(2.0, 2.01) is None
        # nonpositive target is met by the lowest level, silent or not
        assert grid.select_lowest_feasible(2.0, 0.0) == 0
        assert grid.select_lowest_feasible(0.0, 0.0) == 0
        # dead channel can never meet a positive target
        assert grid.select_lowest_feasible(0.0, 1.0) is None

    def test_tiny_slope_raises_no_warning(self):
        # threshold/slope overflows to inf here; the index must still be exact
        grid = PowerGrid.linear(11, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert grid.select_lowest_feasible(1e-300, 0.5) is None
            assert grid.select_lowest_feasible(5e-324, 0.5) is None
            assert grid.select_lowest_feasible(1e-300, 1e10) is None
            # numpy scalars, as the best-response sweep passes them
            for slope in (np.float64(5e-324), np.float64(1e-300)):
                assert grid.select_lowest_feasible(slope, 0.5) is None
                assert grid.select_lowest_feasible(slope, np.float64(0.5)) is None
            assert grid.select_lowest_feasible(5e-324, np.float64(0.5)) is None

    @given(
        n=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**31),
        slope=st.floats(min_value=0.0, max_value=1e3),
        threshold=st.floats(min_value=-1.0, max_value=1e3),
    )
    @settings(max_examples=300, deadline=None)
    def test_selection_matches_exhaustive_scan(self, n, seed, slope, threshold):
        rng = np.random.default_rng(seed)
        levels = np.sort(rng.uniform(0.0, 10.0, size=n))
        levels = np.unique(levels)
        grid = PowerGrid(levels=tuple(float(p) for p in levels))
        got = grid.select_lowest_feasible(slope, threshold)
        want = None
        if threshold <= 0.0:
            want = 0
        elif slope > 0.0:
            for i, p in enumerate(grid.levels):
                if slope * p >= threshold:
                    want = i
                    break
        assert got == want


def _linear_grid(n_levels, p_max, p_min_frac):
    return PowerGrid.linear(n_levels, p_max, p_min_frac * p_max)


def _geometric_grid(n_levels, lowest, ratio):
    levels = np.geomspace(lowest, lowest * ratio, n_levels)
    return PowerGrid(levels=tuple(float(p) for p in levels))


GRIDS = st.one_of(
    st.builds(
        _linear_grid,
        st.integers(min_value=2, max_value=10001),
        st.floats(min_value=1e-3, max_value=1e3),
        st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=0.9)),
    ),
    st.builds(
        _geometric_grid,
        st.integers(min_value=2, max_value=300),
        st.floats(min_value=1e-6, max_value=1.0),
        st.floats(min_value=2.0, max_value=1e6),
    ),
    # one level; a span whose scale overflows; a top step that overflows
    st.sampled_from([
        PowerGrid((0.5,)),
        PowerGrid((0.0, 5e-324)),
        PowerGrid((0.0, 1e308, 1.7e308)),
    ]),
)


def grid_keys(levels):
    """Every level and its two neighbouring floats, plus the extremes."""
    lo, hi = float(levels[0]), float(levels[-1])  # Python floats overflow quietly
    extremes = [-np.inf, -1.0, lo / 2, 0.0, 2.0 * hi, 1e308, np.inf]
    return np.concatenate([
        levels, np.nextafter(levels, np.inf), np.nextafter(levels, -np.inf),
        extremes,
    ])


class TestCeilIndex:
    """game._ceil_index is levels.searchsorted(x, side="left"), exactly."""

    @given(grid=GRIDS)
    @settings(max_examples=150, deadline=None)
    def test_equals_searchsorted_without_warnings(self, grid):
        levels = grid.as_array()
        keys = grid_keys(levels)
        want = levels.searchsorted(keys, side="left")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = game._ceil_index(levels, keys)
            assert got.dtype == np.int64
            assert np.array_equal(got, want)
            # n-d keys keep their shape
            cube = game._ceil_index(levels, keys[None, :, None])
            assert cube.shape == (1, keys.size, 1)
            assert np.array_equal(cube.ravel(), want)
            # the guess alone never warns either, and stays within 0..n
            guess = game._ceil_guess(levels, keys)
            assert guess.min() >= 0 and guess.max() <= len(levels)

    @pytest.mark.parametrize("n_levels", [1001, 10001])
    def test_guess_alone_is_right_on_a_linear_grid(self, n_levels):
        # the exact check behind the guess would hide a broken guess, at
        # the bisection's cost: pin the guess itself
        levels = PowerGrid.linear(n_levels, 1.0).as_array()
        keys = np.random.default_rng(14).uniform(0.0, 1.0, 100_000)
        hits = game._ceil_guess(levels, keys) == levels.searchsorted(keys)
        assert hits.mean() >= 0.999


class TestNetworkGeometry:
    def test_sinr_example(self):
        net = NetworkState(
            nodes=(NodeConfig(0, 1.0, 0.1), NodeConfig(1, 1.0, 0.1)),
            noise_power=1.0,
        )
        assert sinr(net, (3.0, 1.0), 0) == 1.5
        assert sinr(net, (3.0, 1.0), 1) == 0.25

    def test_profile_length_checked(self):
        net = two_node_network()
        with pytest.raises(ValueError):
            sinr(net, (1.0,), 0)

    @given(
        scale=st.floats(min_value=1e-6, max_value=1e6),
        p0=st.floats(min_value=0.0, max_value=10.0),
        p1=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_sinr_scale_invariance(self, scale, p0, p1):
        net = two_node_network(noise=1.0)
        scaled = two_node_network(noise=scale)
        base = sinr(net, (p0, p1), 0)
        moved = sinr(scaled, (p0 * scale, p1 * scale), 0)
        assert moved == pytest.approx(base, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            NodeConfig(-1, 1.0, 0.5)
        with pytest.raises(ValueError):
            NodeConfig(0, -0.1, 0.5)
        with pytest.raises(ValueError):
            NodeConfig(0, 1.0, 0.0)
        for gain in (np.nan, np.inf):
            with pytest.raises(ValueError, match="gain must be finite"):
                NodeConfig(0, gain, 0.5)
        NodeConfig(0, 0.0, 0.5)  # dead channel is legal
        node = NodeConfig(0, 1.0, 0.5)
        with pytest.raises(ValueError):
            NetworkState(nodes=(), noise_power=1.0)
        with pytest.raises(ValueError):
            NetworkState(nodes=(node,), noise_power=0.0)
        with pytest.raises(ValueError):
            NetworkState(nodes=(node, node), noise_power=1.0)
        with pytest.raises(ValueError):
            NetworkState(
                nodes=(NodeConfig(1, 1.0, 0.5), NodeConfig(0, 1.0, 0.5)),
                noise_power=1.0,
            )


def full_csi_sweep(net, grid, start):
    """One full-CSI sweep from ``start``: (powers, feasible).

    Node 0 updates first, so its response sees the start profile."""
    powers, feasible, rounds, _ = best_response_sweeps(
        net, grid, start, net.gains_sq(), 1.0, max_rounds=1
    )
    assert rounds == 1
    return powers, feasible


class TestBestResponse:
    def test_lone_node(self):
        net = NetworkState(nodes=(NodeConfig(0, 1.0, 0.5),), noise_power=1.0)
        grid = PowerGrid.linear(11, 1.0)
        powers, feasible = full_csi_sweep(net, grid, (0.0,))
        assert powers == (0.5,) and grid.levels.index(powers[0]) == 5
        assert feasible == (True,)

    def test_interference_raises_requirement(self):
        net = NetworkState(
            nodes=(NodeConfig(0, 1.0, 0.5), NodeConfig(1, 1.0, 0.5)),
            noise_power=1.0,
        )
        grid = PowerGrid.linear(21, 2.0)
        quiet, _ = full_csi_sweep(net, grid, (0.0, 0.0))
        loud, loud_feasible = full_csi_sweep(net, grid, (0.0, 2.0))
        assert quiet[0] == 0.5
        assert loud[0] == 1.5  # -> 0.5 * (2 + 1)
        assert loud_feasible[0]

    def test_infeasible_falls_back_to_max(self):
        net = NetworkState(nodes=(NodeConfig(0, 0.1, 10.0),), noise_power=1.0)
        grid = PowerGrid.linear(11, 1.0)
        powers, feasible = full_csi_sweep(net, grid, (0.0,))
        assert powers[0] == grid.p_max
        assert not feasible[0]

    def test_dead_channel_is_infeasible(self):
        net = NetworkState(
            nodes=(NodeConfig(0, 1.0, 0.5), NodeConfig(1, 0.0, 0.5)),
            noise_power=1.0,
        )
        grid = PowerGrid.linear(11, 1.0)
        powers, feasible = full_csi_sweep(net, grid, (0.0, 0.0))
        assert not feasible[1]
        assert powers[1] == grid.p_max

    @given(
        rival=st.floats(min_value=0.0, max_value=5.0),
        bump=st.floats(min_value=0.0, max_value=5.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_response_monotone_in_interference(self, rival, bump):
        net = NetworkState(
            nodes=(NodeConfig(0, 0.6, 0.7), NodeConfig(1, 0.9, 0.3)),
            noise_power=0.5,
        )
        grid = PowerGrid.linear(101, 10.0)
        low, _ = full_csi_sweep(net, grid, (0.0, rival))
        high, _ = full_csi_sweep(net, grid, (0.0, rival + bump))
        assert high[0] >= low[0]


class TestNashSolver:
    def test_matches_closed_form_on_fine_grid(self):
        net = two_node_network()
        exact = closed_form_pair(net)
        grid = PowerGrid.linear(12001, 120.0)  # step 0.01
        res = solve_nash_full_csi(net, grid)
        assert res.feasible == (True, True)
        np.testing.assert_allclose(res.powers, exact, atol=0.0101)
        assert nash_deviation_scan(net, grid, res.powers) == []

    def test_coarse_grid_settles_near_closed_form(self):
        net = two_node_network()
        exact = closed_form_pair(net)
        grid = PowerGrid.linear(1201, 120.0)  # step 0.1
        res = solve_nash_full_csi(net, grid)
        # coupling through the rounded rival power can cost a step or two
        np.testing.assert_allclose(res.powers, exact, atol=0.25)
        assert nash_deviation_scan(net, grid, res.powers) == []

    def test_refinement_tightens_the_gap(self):
        net = two_node_network()
        exact = closed_form_pair(net)
        coarse = solve_nash_full_csi(net, PowerGrid.linear(1201, 120.0))
        fine = solve_nash_full_csi(net, PowerGrid.linear(12001, 120.0))
        gap_coarse = np.abs(np.asarray(coarse.powers) - exact).max()
        gap_fine = np.abs(np.asarray(fine.powers) - exact).max()
        assert gap_fine < gap_coarse

    def test_single_node_closed_form(self):
        net = NetworkState(nodes=(NodeConfig(0, 0.5, 0.2),), noise_power=2.0)
        grid = PowerGrid.linear(101, 10.0)
        res = solve_nash_full_csi(net, grid)
        # needs p >= 0.2 * 2 / 0.25 = 1.6
        assert res.powers == (1.6,)
        assert res.feasible == (True,)

    def test_symmetric_network_symmetric_point(self):
        net = NetworkState(
            nodes=(NodeConfig(0, 0.3, 0.2), NodeConfig(1, 0.3, 0.2)),
            noise_power=1.0,
        )
        grid = PowerGrid.linear(2001, 200.0)
        res = solve_nash_full_csi(net, grid)
        assert res.powers[0] == res.powers[1]
        assert nash_deviation_scan(net, grid, res.powers) == []

    def test_infeasible_node_saturates_and_others_adapt(self):
        net = NetworkState(
            nodes=(NodeConfig(0, 1.0, 0.5), NodeConfig(1, 0.0, 0.5)),
            noise_power=1.0,
        )
        grid = PowerGrid.linear(11, 1.0)
        res = solve_nash_full_csi(net, grid)
        # the dead node transmits at max but adds no interference
        assert res.feasible == (True, False)
        assert res.powers == (0.5, 1.0)

    def test_round_cap_raises_with_trace(self):
        net = two_node_network()
        grid = PowerGrid.linear(1201, 120.0)
        with pytest.raises(NonConvergenceError) as err:
            solve_nash_full_csi(net, grid, max_rounds=1)
        assert str(err.value) == "no best-response fixed point within 1 rounds"

    def test_trace_is_deterministic(self):
        net = two_node_network()
        grid = PowerGrid.linear(1201, 120.0)
        a = solve_nash_full_csi(net, grid)
        b = solve_nash_full_csi(net, grid)
        assert a == b

    def test_deviation_scan_flags_wasteful_power(self):
        net = two_node_network()
        grid = PowerGrid.linear(1201, 120.0)
        res = solve_nash_full_csi(net, grid)
        wasteful = (grid.p_max, res.powers[1])
        moves = nash_deviation_scan(net, grid, wasteful)
        assert any(i == 0 and level < grid.p_max for i, level in moves)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_random_networks_reach_certified_equilibria(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        nodes = tuple(
            NodeConfig(i, float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.05, 0.3)))
            for i in range(n)
        )
        net = NetworkState(nodes=nodes, noise_power=1.0)
        grid = PowerGrid.linear(41, 20.0)
        res = solve_nash_full_csi(net, grid)
        assert nash_deviation_scan(net, grid, res.powers) == []

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        p_min=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1.0)),
    )
    @settings(max_examples=150, deadline=None)
    def test_profile_is_the_one_selectors_choice(self, seed, p_min):
        # the sweep selects with the scalar routine; every node of the
        # returned profile must sit where the array selector puts it for
        # its final slope
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        gains = rng.uniform(0.2, 2.0, n)
        dead, huge = rng.choice(n, size=2, replace=False)
        gains[dead] = 0.0
        gains[huge] = 1e200  # squared gain overflows: slope +inf
        thresholds = 10.0 ** rng.uniform(-2.0, 0.5, n)  # mixed targets
        nodes = tuple(
            NodeConfig(i, float(g), float(t))
            for i, (g, t) in enumerate(zip(gains, thresholds))
        )
        net = NetworkState(nodes=nodes, noise_power=float(rng.uniform(0.01, 1.0)))
        grid = PowerGrid.linear(
            int(rng.integers(2, 60)), p_min + float(rng.uniform(1.0, 20.0)), p_min
        )
        levels = grid.as_array()
        with np.errstate(over="ignore", invalid="ignore"):
            res = solve_nash_full_csi(net, grid, max_rounds=n * len(grid) + 1)
            g2 = net.gains_sq()
            wp = g2 * np.asarray(res.powers)
            for i, node in enumerate(nodes):
                slope = g2[i] / ((wp.sum() - wp[i]) + net.noise_power)
                thr = node.sinr_threshold
                idx = int(select_lowest_feasible_batch(levels, np.array([slope]), thr)[0])
                if idx < 0:
                    assert res.powers[i] == grid.p_max and not res.feasible[i]
                else:
                    assert res.powers[i] == levels[idx] and res.feasible[i]


def reference_scan(network, grid, powers):
    """The deviation scan as one scalar test per (node, level): the
    scalar reference.  A level is feasible when slope * level >= target,
    with slope = g_i^2 / (sum_{j != i} g_j^2 p_j + noise), the inequality
    the Nash solver tests.  A deviation is profitable if it is feasible
    and cheaper than a feasible own level, or, from an infeasible own
    level, feasible or higher."""
    profile = [float(p) for p in powers]
    g2 = network.gains_sq()
    received = g2 * np.asarray(profile)
    total = received.sum()
    improvements = []
    for i, node in enumerate(network.nodes):
        slope = float(g2[i] / ((total - received[i]) + network.noise_power))
        own_feasible = slope * profile[i] >= node.sinr_threshold
        for level in grid.levels:
            feasible = slope * level >= node.sinr_threshold
            if own_feasible:
                better = feasible and level < profile[i]
            else:
                better = feasible or level > profile[i]
            if better:
                improvements.append((i, level))
    return improvements


class TestDeviationScan:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=40),
        n_levels=st.integers(min_value=2, max_value=1001),
        p_min=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1.0)),
        noise=st.floats(min_value=1e-3, max_value=10.0),
        solved=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_scalar_reference(
        self, seed, n, n_levels, p_min, noise, solved
    ):
        rng = np.random.default_rng(seed)
        gains = 2.0 - rng.uniform(0.0, 2.0, n)  # in (0, 2]
        thresholds = 10.0 ** rng.uniform(-3.0, 0.5, n)
        net = NetworkState(
            nodes=tuple(
                NodeConfig(i, float(g), float(t))
                for i, (g, t) in enumerate(zip(gains, thresholds))
            ),
            noise_power=noise,
        )
        grid = PowerGrid.linear(
            n_levels, p_min + float(rng.uniform(0.5, 20.0)), p_min
        )
        levels = grid.as_array()
        if solved:
            powers = solve_nash_full_csi(
                net, grid, max_rounds=n * n_levels + 1
            ).powers
        else:
            powers = tuple(rng.choice(levels, n).tolist())
        scan = nash_deviation_scan(net, grid, powers)
        assert scan == reference_scan(net, grid, powers)
        if solved:
            # the scan tests the solver's own inequality
            assert scan == []

    @pytest.mark.parametrize("gain", [0.0, 1e-170])  # 1e-170 squared is 0
    def test_zero_squared_gain_certifies_at_p_max(self, gain):
        net = NetworkState(
            nodes=(NodeConfig(0, gain, 1.0), NodeConfig(1, 1.0, 1.0)),
            noise_power=1.0,
        )
        grid = PowerGrid.linear(11, 10.0)
        res = solve_nash_full_csi(net, grid)
        assert res.powers == (10.0, 1.0) and res.feasible == (False, True)
        assert nash_deviation_scan(net, grid, res.powers) == []
        # below p_max every higher level ranks above it
        assert nash_deviation_scan(net, grid, (8.0, 1.0)) == [(0, 9.0), (0, 10.0)]

    def test_knife_edge_target_certifies(self):
        # at p = 3, g^2*p/noise equals the target while the solver's
        # (g^2/noise)*p rounds one ulp below it; the scan tests the latter
        net = NetworkState(
            nodes=(NodeConfig(0, 1.0, 10.0 ** (7.701212547196625 / 10.0)),),
            noise_power=10.0 ** (-2.93 / 10.0),
        )
        grid = PowerGrid.linear(11, 10.0)
        res = solve_nash_full_csi(net, grid)
        assert res.powers == (4.0,)
        assert sinr(net, (3.0,), 0) == net.nodes[0].sinr_threshold
        assert nash_deviation_scan(net, grid, res.powers) == []

    def test_profile_length_must_match(self):
        with pytest.raises(ValueError, match="length"):
            nash_deviation_scan(two_node_network(), PowerGrid.linear(11, 1.0), (0.5,))
