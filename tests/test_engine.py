"""The per-node belief loop: rival simulation, own selection, convergence."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epipower.engine import (
    EpistemicPolicy,
    NodeEngine,
    inter_slope,
    intra_slope,
    run_epistemic_game,
)
from epipower.game import NetworkState, NodeConfig, PowerGrid
from epipower.moments import (
    RayleighPrior,
    STATUS_TRUNCATED,
    fit_interference,
    int_power,
    inverse_shifted_moment,
    kth_root,
)

PRIOR = RayleighPrior(sigma=1.0)  # lam = 0.5 exactly
GRID = PowerGrid.linear(101, 10.0)


def engine(policy=None, gain=0.8, threshold=0.3, rivals=((1, 0.5),), **kw):
    return NodeEngine(
        node_id=0,
        gain=gain,
        sinr_threshold=threshold,
        rivals=rivals,
        prior=PRIOR,
        noise_power=1.0,
        grid=GRID,
        policy=policy or EpistemicPolicy(moment_order=1),
        **kw,
    )


def replay_own_slope(out, gain, k):
    """Final own-pass slope of an outcome, rebuilt from its believed powers."""
    model = fit_interference([p for _, p in out.believed_powers], PRIOR.lam, 1.0)
    value = inverse_shifted_moment(model, k, 4).value
    return 0.0 if value <= 0.0 else intra_slope(k, gain * gain, value)


class TestSlopes:
    def test_first_order_forms(self):
        assert inter_slope(1, 0.5, 0.2) == (1.0 / 0.5) * 0.2
        assert intra_slope(1, 0.64, 0.2) == 0.64 * 0.2

    def test_second_order_forms(self):
        assert inter_slope(2, 1.0, 0.5) == pytest.approx(1.0, rel=1e-15)
        assert intra_slope(2, 0.5, 0.25) == 0.25

    def test_moment_order_raises_slope_for_exponential(self):
        # zero-interference bypass: E[1/(Y+eta)^k] = eta^-k, so the slope
        # is (k!)^(1/k) / (lam eta), strictly increasing in k
        eta, lam = 2.0, 0.5
        slopes = [inter_slope(k, lam, eta**-k) for k in range(1, 5)]
        assert slopes == sorted(slopes)
        assert len(set(slopes)) == 4
        assert slopes[0] == 1.0 / (lam * eta)
        assert slopes[1] == pytest.approx(math.sqrt(2.0) / (lam * eta), rel=1e-15)

    def test_rate_power_is_a_product_not_pow(self):
        # at this sigma libm's lam**4 and the product lam*lam*lam*lam differ
        # by an ulp, and the slope follows the product like the rest of the
        # moment kernel
        lam = RayleighPrior(sigma=0.6628).lam
        assert lam**4 != int_power(lam, 4)
        slope = inter_slope(4, lam, 0.3)
        assert slope == kth_root(24 / int_power(lam, 4) * 0.3, 4)
        assert slope != kth_root(24 / lam**4 * 0.3, 4)


class TestPolicy:
    def test_defaults(self):
        assert EpistemicPolicy().moment_order == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            EpistemicPolicy(moment_order=0)

    def test_orders_above_four_rejected(self):
        # kth_root has no order-5 root, and no policy label asks for one
        with pytest.raises(ValueError, match="moment_order must be 1..4, got 5"):
            EpistemicPolicy(moment_order=5)


class TestSingleSweep:
    def test_rival_belief_matches_hand_calculation(self):
        eng = engine()
        eng.step()
        # the lone rival sees eta = g^2 p_max + noise = 7.4 and no other
        # interferers, so its statistic slope is (1/lam) / eta
        eta = 0.8 * 0.8 * GRID.p_max + 1.0
        slope = (1.0 / PRIOR.lam) / eta
        required = 0.5 / slope  # 1.85 -> next level up
        assert eng.believed[1] == GRID.levels[np.searchsorted(GRID.levels, required)]
        assert eng.believed[1] == pytest.approx(1.9)
        exact = inter_slope(1, PRIOR.lam, 1.0 / eta)
        assert exact == pytest.approx(slope, rel=1e-15)
        assert eng.believed[1] == GRID.levels[GRID.select_lowest_feasible(exact, 0.5)]

    def test_own_power_replays_from_public_pieces(self):
        eng = engine()
        eng.step()
        model = fit_interference([eng.believed[1]], PRIOR.lam, 1.0)
        series = inverse_shifted_moment(model, 1, 4)
        slope = intra_slope(1, 0.8 * 0.8, series.value)
        idx = GRID.select_lowest_feasible(slope, 0.3)
        assert eng.own_power == GRID.levels[idx]
        assert eng.own_power == pytest.approx(1.4)
        # eta = E[Y] = 3.8 is deep in the divergent zone: the series must
        # have been cut at its optimal order and say so
        assert series.status == STATUS_TRUNCATED

    def test_second_moment_is_more_permissive_on_rivals(self):
        first = engine(EpistemicPolicy(moment_order=1))
        second = engine(EpistemicPolicy(moment_order=2))
        first.step()
        second.step()
        assert second.believed[1] <= first.believed[1]
        # closed form: slope sqrt(2)/(lam eta) -> p = thr lam eta / sqrt(2)
        eta = 0.8 * 0.8 * GRID.p_max + 1.0
        required = 0.5 * PRIOR.lam * eta / math.sqrt(2.0)
        assert second.believed[1] == GRID.levels[np.searchsorted(GRID.levels, required)]

    def test_rival_order_does_not_matter(self):
        rivals = ((1, 0.5), (2, 0.2), (3, 0.9))
        fwd = engine(rivals=rivals)
        rev = engine(rivals=tuple(reversed(rivals)))
        for _ in range(2):
            fwd.step()
            rev.step()
        assert fwd.believed == rev.believed
        assert fwd.own_power == rev.own_power

    def test_zero_rival_engine_is_deterministic(self):
        eng = engine(rivals=())
        eng.step()
        # no interferers: requirement is exactly thr * noise / g^2 = 0.46875
        required = 0.3 * 1.0 / 0.64
        assert eng.own_power == GRID.levels[np.searchsorted(GRID.levels, required)]
        assert eng.own_power == 0.5


class TestConvergence:
    def test_two_node_fixed_point(self):
        out = engine().run(20)
        assert out.converged
        assert out.stages_run == 4
        assert out.power == pytest.approx(0.9)
        assert out.believed_powers == ((1, pytest.approx(0.4)),)
        assert out.feasible

    def test_probe_accounting(self):
        out = engine().run(20)
        probes = max(1, math.ceil(math.log2(len(GRID)))) + 1
        # every sweep updates the one rival belief and the own power
        assert out.eu_evaluations == out.stages_run * 2 * probes
        assert out.eu_evaluations == 64  # 4 stages x 2 updates x 8 probes

    def test_exhaustive_counts_every_level(self):
        out = engine(exhaustive=True).run(20)
        assert out.stages_run == 4
        assert out.eu_evaluations == out.stages_run * 2 * len(GRID)

    def test_exhaustive_and_bisection_agree(self):
        fast = engine().run(20)
        slow = engine(exhaustive=True).run(20)
        assert fast.power == slow.power
        assert fast.believed_powers == slow.believed_powers
        # every selection, sweep by sweep
        pair = [engine(), engine(exhaustive=True)]
        for _ in range(20):
            moved = [eng.step() for eng in pair]
            assert moved[0] == moved[1]
            assert pair[0].believed == pair[1].believed
            assert pair[0].own_power == pair[1].own_power
            if not moved[0]:
                break

    def test_stage_cap_reported(self):
        out = engine().run(1)
        assert not out.converged
        assert out.stages_run == 1
        capped = engine().run(0)
        assert not capped.converged
        assert capped.stages_run == 0
        assert capped.power == GRID.p_max  # untouched seed

    def test_seeded_at_full_power(self):
        eng = engine(rivals=((1, 0.5), (2, 0.2)))
        assert eng.own_power == GRID.p_max
        assert eng.believed == {1: GRID.p_max, 2: GRID.p_max}

    def test_infeasible_target_flagged(self):
        out = engine(gain=0.05, threshold=5.0).run(20)
        assert not out.feasible
        assert out.power == GRID.p_max
        # the final own test passes at no level, not even p_max
        slope = replay_own_slope(out, 0.05, 1)
        assert GRID.select_lowest_feasible(slope, 5.0) is None

    def test_dead_channel_never_feasible(self):
        out = engine(gain=0.0).run(5)
        assert not out.feasible
        assert out.power == GRID.p_max

    def test_runs_are_reproducible(self):
        a = engine(rivals=((1, 0.5), (2, 0.2))).run(10)
        b = engine(rivals=((1, 0.5), (2, 0.2))).run(10)
        assert a == b

    @given(
        gain=st.floats(min_value=0.1, max_value=2.0),
        threshold=st.floats(min_value=0.01, max_value=1.0),
        k=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_feasible_outcomes_meet_their_own_test(self, gain, threshold, k):
        out = engine(
            EpistemicPolicy(moment_order=k),
            gain=gain,
            threshold=threshold,
        ).run(30)
        slope = replay_own_slope(out, gain, k)
        if out.feasible:
            assert slope * out.power >= threshold
            # and the next level down would not have passed
            idx = GRID.levels.index(out.power)
            if idx > 0:
                assert slope * GRID.levels[idx - 1] < threshold
        else:
            assert not slope * GRID.p_max >= threshold


class TestEngineValidation:
    def test_rejects_self_and_duplicate_rivals(self):
        with pytest.raises(ValueError):
            engine(rivals=((0, 0.5),))
        with pytest.raises(ValueError):
            engine(rivals=((1, 0.5), (1, 0.2)))

    def test_rejects_bad_scalars(self):
        with pytest.raises(ValueError):
            engine(gain=-0.1)
        for gain in (math.nan, math.inf):
            with pytest.raises(ValueError, match="gain must be finite"):
                engine(gain=gain)
        with pytest.raises(ValueError):
            NodeEngine(
                node_id=0,
                gain=1.0,
                sinr_threshold=0.3,
                rivals=(),
                prior=PRIOR,
                noise_power=0.0,
                grid=GRID,
                policy=EpistemicPolicy(),
            )

    def test_max_stages_validated(self):
        with pytest.raises(ValueError):
            engine().run(-1)


class TestJointGame:
    def network(self):
        return NetworkState(
            nodes=(
                NodeConfig(0, 0.8, 0.3),
                NodeConfig(1, 1.1, 0.5),
                NodeConfig(2, 0.6, 0.2),
            ),
            noise_power=1.0,
        )

    def test_profile_collects_independent_runs(self):
        net = self.network()
        policy = EpistemicPolicy(moment_order=1)
        game = run_epistemic_game(net, GRID, policy, PRIOR, max_stages=20)
        assert len(game.nodes) == 3
        assert game.profile == tuple(o.power for o in game.nodes)
        assert game.converged == all(o.converged for o in game.nodes)
        assert game.eu_evaluations == sum(o.eu_evaluations for o in game.nodes)
        # each node reasons about exactly the other ids
        for node, outcome in zip(net.nodes, game.nodes):
            assert outcome.node_id == node.node_id
            believed_ids = [i for i, _ in outcome.believed_powers]
            expected = [n.node_id for n in net.nodes if n.node_id != node.node_id]
            assert believed_ids == expected

    def test_node_runs_do_not_couple(self):
        net = self.network()
        policy = EpistemicPolicy(moment_order=2)
        game = run_epistemic_game(net, GRID, policy, PRIOR, max_stages=20)
        solo = NodeEngine(
            node_id=1,
            gain=1.1,
            sinr_threshold=0.5,
            rivals=((0, 0.3), (2, 0.2)),
            prior=PRIOR,
            noise_power=1.0,
            grid=GRID,
            policy=policy,
        ).run(20)
        assert game.nodes[1] == solo

    def test_beliefs_do_not_see_rival_gains(self):
        # two networks differing only in rival gains must produce the
        # same reasoning for node 0
        a = NetworkState(
            nodes=(NodeConfig(0, 0.8, 0.3), NodeConfig(1, 0.1, 0.5)),
            noise_power=1.0,
        )
        b = NetworkState(
            nodes=(NodeConfig(0, 0.8, 0.3), NodeConfig(1, 1.9, 0.5)),
            noise_power=1.0,
        )
        policy = EpistemicPolicy(moment_order=1)
        ga = run_epistemic_game(a, GRID, policy, PRIOR, max_stages=10)
        gb = run_epistemic_game(b, GRID, policy, PRIOR, max_stages=10)
        assert ga.nodes[0] == gb.nodes[0]
