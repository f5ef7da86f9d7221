"""Power grid, SINR geometry, and the full-information equilibrium solver."""
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epipower.game import (
    BestResponse,
    NetworkState,
    NodeConfig,
    NonConvergenceError,
    PowerGrid,
    best_response_full_csi,
    nash_deviation_scan,
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

    def test_index_of(self):
        grid = PowerGrid.linear(11, 1.0)
        assert grid.index_of(0.0) == 0
        assert grid.index_of(1.0) == 10
        with pytest.raises(ValueError, match="not a grid level"):
            grid.index_of(0.55)

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

    def test_ceil_to_grid(self):
        grid = PowerGrid(levels=(0.0, 0.3, 0.7, 1.0))
        assert grid.ceil_to_grid(0.3) == 0.3
        assert grid.ceil_to_grid(0.31) == 0.7
        assert grid.ceil_to_grid(-5.0) == 0.0
        assert grid.ceil_to_grid(1.0001) is None

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


class TestBestResponse:
    def test_lone_node(self):
        net = NetworkState(nodes=(NodeConfig(0, 1.0, 0.5),), noise_power=1.0)
        grid = PowerGrid.linear(11, 1.0)
        br = best_response_full_csi(net, grid, (0.0,), 0)
        assert br == BestResponse(power=0.5, index=5, feasible=True)

    def test_interference_raises_requirement(self):
        net = NetworkState(
            nodes=(NodeConfig(0, 1.0, 0.5), NodeConfig(1, 1.0, 0.5)),
            noise_power=1.0,
        )
        grid = PowerGrid.linear(21, 2.0)
        quiet = best_response_full_csi(net, grid, (0.0, 0.0), 0)
        loud = best_response_full_csi(net, grid, (0.0, 2.0), 0)
        assert quiet.power == 0.5
        assert loud.power == 1.5  # -> 0.5 * (2 + 1)
        assert loud.feasible

    def test_infeasible_falls_back_to_max(self):
        net = NetworkState(nodes=(NodeConfig(0, 0.1, 10.0),), noise_power=1.0)
        grid = PowerGrid.linear(11, 1.0)
        br = best_response_full_csi(net, grid, (0.0,), 0)
        assert br.power == grid.p_max
        assert not br.feasible

    def test_dead_channel_is_infeasible(self):
        net = NetworkState(
            nodes=(NodeConfig(0, 1.0, 0.5), NodeConfig(1, 0.0, 0.5)),
            noise_power=1.0,
        )
        grid = PowerGrid.linear(11, 1.0)
        br = best_response_full_csi(net, grid, (0.0, 0.0), 1)
        assert not br.feasible
        assert br.power == grid.p_max

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
        low = best_response_full_csi(net, grid, (0.0, rival), 0)
        high = best_response_full_csi(net, grid, (0.0, rival + bump), 0)
        assert high.index >= low.index


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
        assert len(err.value.trace) == 2  # start plus one sweep

    def test_trace_is_deterministic(self):
        net = two_node_network()
        grid = PowerGrid.linear(1201, 120.0)
        a = solve_nash_full_csi(net, grid)
        b = solve_nash_full_csi(net, grid)
        assert a.trace == b.trace
        assert a.trace[0] == (0.0, 0.0)
        assert a.trace[-1] == a.powers

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
