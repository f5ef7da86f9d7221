"""Equal-allocation and shared-power iteration used as comparison points."""
import numpy as np
import pytest

from epipower.baselines import epa_profile, sncpc_solve
from epipower.game import NetworkState, NodeConfig, PowerGrid
from epipower.moments import RayleighPrior

PRIOR = RayleighPrior(sigma=1.0)  # lam = 0.5 exactly
GRID = PowerGrid.linear(21, 2.0)


def net(*specs, noise=1.0):
    return NetworkState(
        nodes=tuple(NodeConfig(i, g, t) for i, (g, t) in enumerate(specs)),
        noise_power=noise,
    )


class TestEqualAllocation:
    def test_profile_is_constant(self):
        network = net((1.0, 0.3), (0.5, 0.3), (0.8, 0.3))
        assert epa_profile(network, GRID) == (2.0, 2.0, 2.0)


class TestSharedPowerIteration:
    def test_lone_node_closed_form(self):
        network = net((0.5, 0.2), noise=2.0)
        res = sncpc_solve(network, GRID, PRIOR)
        # no rivals to average over: p = thr * noise / g^2 = 1.6 on the grid
        assert res.powers == (1.6,)
        assert res.feasible == (True,)
        assert res.converged
        assert res.iterations == 2  # one move, one confirming sweep

    def test_symmetric_pair_settles_on_fixed_point(self):
        network = net((1.0, 0.3), (1.0, 0.3))
        res = sncpc_solve(network, GRID, PRIOR)
        assert res.powers == (0.9, 0.9)
        assert res.converged
        assert res.iterations == 4
        # certify: each power is the cheapest level covering the
        # prior-mean interference of the other
        for i in (0, 1):
            required = 0.3 * (res.powers[1 - i] / PRIOR.lam + 1.0) / 1.0
            assert res.powers[i] == GRID.levels[np.searchsorted(GRID.levels, required)]

    def test_descent_from_full_power(self):
        # every iterate from the all-max seed only lowers interference,
        # so the fixed point sits below the seed
        network = net((1.0, 0.3), (1.0, 0.3), (0.9, 0.3))
        res = sncpc_solve(network, GRID, PRIOR)
        assert res.converged
        assert all(p <= GRID.p_max for p in res.powers)

    def test_heterogeneous_targets(self):
        network = net((1.0, 0.3), (0.8, 0.5))
        res = sncpc_solve(network, GRID, PRIOR)
        assert res.powers == (1.5, 2.0)
        assert res.feasible == (True, False)
        assert res.converged
        # node 1 would need 0.5 * (1.5/0.5 + 1) / 0.64 = 3.125 > p_max
        required = 0.5 * (res.powers[0] / PRIOR.lam + 1.0) / 0.64
        assert required > GRID.p_max

    def test_heterogeneous_targets_infinite_slope(self):
        # a squared gain that overflows gives slope +inf; inf * 0.0 at the
        # zero level is NaN, so the selector's predicate skips it
        network = net((1e200, 0.3), (1.0, 0.5))
        with np.errstate(over="ignore", invalid="ignore"):
            res = sncpc_solve(network, GRID, PRIOR)
        assert res.powers[0] == GRID.levels[1]
        assert res.feasible[0]

    def test_fixed_point_property_heterogeneous(self):
        network = net((1.1, 0.25), (0.9, 0.4), (1.3, 0.1))
        res = sncpc_solve(network, GRID, PRIOR)
        assert res.converged
        for i, node in enumerate(network.nodes):
            others = sum(res.powers) - res.powers[i]
            required = node.sinr_threshold * (
                others / PRIOR.lam + network.noise_power
            ) / node.gain_sq
            if res.feasible[i]:
                ceil = GRID.levels[np.searchsorted(GRID.levels, required)]
                assert res.powers[i] == ceil
            else:
                assert required > GRID.p_max
                assert res.powers[i] == GRID.p_max

    def test_infeasible_node_saturates(self):
        network = net((0.1, 5.0))
        res = sncpc_solve(network, GRID, PRIOR)
        assert res.powers == (GRID.p_max,)
        assert res.feasible == (False,)
        assert res.converged
        assert res.iterations == 1

    def test_round_cap_reported(self):
        network = net((1.0, 0.3), (1.0, 0.3))
        res = sncpc_solve(network, GRID, PRIOR, max_iter=1)
        assert not res.converged
        assert res.iterations == 1

    def test_first_round_ignores_rival_gains(self):
        # powers are shared, gains are not: after one sweep the first
        # node's choice must not depend on what the rival's channel is
        seen = set()
        for rival_gain in (0.2, 1.7):
            network = net((1.0, 0.3), (rival_gain, 0.3))
            res = sncpc_solve(network, GRID, PRIOR, max_iter=1)
            seen.add(res.powers[0])
        assert seen == {1.5}
