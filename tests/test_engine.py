"""The per-node belief loop: rival simulation, own selection, convergence."""
import math

import pytest
from hypothesis import given, settings, strategies as st

from epipower.engine import (
    FLAG_INFEASIBLE,
    ROLE_RIVAL,
    ROLE_SELF,
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
    inverse_shifted_moment,
)

PRIOR = RayleighPrior.from_rate(0.5)
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
        policy=policy or EpistemicPolicy(moment_order=1, truncation=4),
        **kw,
    )


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


class TestPolicy:
    def test_defaults(self):
        p = EpistemicPolicy()
        assert p.moment_order == 1
        assert p.truncation == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            EpistemicPolicy(moment_order=0)
        with pytest.raises(ValueError):
            EpistemicPolicy(truncation=-1)


class TestSingleSweep:
    def test_rival_belief_matches_hand_calculation(self):
        eng = engine()
        eng.step(1)
        # the lone rival sees eta = g^2 p_max + noise = 7.4 and no other
        # interferers, so its statistic slope is (1/lam) / eta
        eta = 0.8 * 0.8 * GRID.p_max + 1.0
        slope = (1.0 / PRIOR.lam) / eta
        required = 0.5 / slope  # 1.85 -> next level up
        assert eng.believed[1] == GRID.ceil_to_grid(required)
        assert eng.believed[1] == pytest.approx(1.9)
        rec = eng.updates[0]
        assert rec.role == ROLE_RIVAL
        assert rec.target == 1
        assert rec.eta == eta
        assert rec.slope == pytest.approx(slope, rel=1e-15)

    def test_own_power_replays_from_public_pieces(self):
        eng = engine()
        eng.step(1)
        model = fit_interference([eng.believed[1]], PRIOR.lam, 1.0)
        series = inverse_shifted_moment(model, 1, 4)
        slope = intra_slope(1, 0.8 * 0.8, series.value)
        rec = eng.updates[1]
        assert rec.role == ROLE_SELF
        assert rec.slope == slope
        assert rec.evidence == eng.own_power
        idx = GRID.select_lowest_feasible(slope, 0.3)
        assert eng.own_power == GRID.levels[idx]
        assert eng.own_power == pytest.approx(1.4)
        # eta = E[Y] = 3.8 is deep in the divergent zone: the series must
        # have been cut at its optimal order and say so
        assert STATUS_TRUNCATED in rec.flags

    def test_second_moment_is_more_permissive_on_rivals(self):
        first = engine(EpistemicPolicy(moment_order=1, truncation=4))
        second = engine(EpistemicPolicy(moment_order=2, truncation=4))
        first.step(1)
        second.step(1)
        assert second.believed[1] <= first.believed[1]
        # closed form: slope sqrt(2)/(lam eta) -> p = thr lam eta / sqrt(2)
        eta = 0.8 * 0.8 * GRID.p_max + 1.0
        required = 0.5 * PRIOR.lam * eta / math.sqrt(2.0)
        assert second.believed[1] == GRID.ceil_to_grid(required)

    def test_eta_split_between_roles(self):
        eng = engine(rivals=((1, 0.5), (2, 0.2), (3, 0.9)))
        for stage in (1, 2, 3):
            eng.step(stage)
        for rec in eng.updates:
            if rec.role == ROLE_RIVAL:
                # own transmission is always part of what a rival sees
                assert rec.eta > eng.noise_power
            else:
                assert rec.eta == eng.noise_power

    def test_rival_order_does_not_matter(self):
        rivals = ((1, 0.5), (2, 0.2), (3, 0.9))
        fwd = engine(rivals=rivals)
        rev = engine(rivals=tuple(reversed(rivals)))
        for stage in (1, 2):
            fwd.step(stage)
            rev.step(stage)
        assert fwd.believed == rev.believed
        assert fwd.own_power == rev.own_power

    def test_zero_rival_engine_is_deterministic(self):
        eng = engine(rivals=())
        eng.step(1)
        # no interferers: requirement is exactly thr * noise / g^2 = 0.46875
        assert eng.own_power == GRID.ceil_to_grid(0.3 * 1.0 / 0.64)
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
        assert all(rec.evaluations == probes for rec in out.updates)
        assert out.eu_evaluations == sum(rec.evaluations for rec in out.updates)
        assert out.eu_evaluations == 64  # 4 stages x 2 updates x 8 probes

    def test_exhaustive_counts_every_level(self):
        out = engine(exhaustive=True).run(20)
        assert all(rec.evaluations == len(GRID) for rec in out.updates)
        assert all(rec.n_hypotheses == len(GRID) for rec in out.updates)

    def test_exhaustive_and_bisection_agree(self):
        fast = engine().run(20)
        slow = engine(exhaustive=True).run(20)
        assert fast.power == slow.power
        assert fast.believed_powers == slow.believed_powers
        assert [r.evidence for r in fast.updates] == [
            r.evidence for r in slow.updates
        ]

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
        last_self = [r for r in out.updates if r.role == ROLE_SELF][-1]
        assert FLAG_INFEASIBLE in last_self.flags
        assert not last_self.feasible

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
            EpistemicPolicy(moment_order=k, truncation=4),
            gain=gain,
            threshold=threshold,
        ).run(30)
        last_self = [r for r in out.updates if r.role == ROLE_SELF][-1]
        if out.feasible:
            assert last_self.slope * out.power >= threshold
            # and the next level down would not have passed
            idx = GRID.index_of(out.power)
            if idx > 0:
                assert last_self.slope * GRID.levels[idx - 1] < threshold


class TestEngineValidation:
    def test_rejects_self_and_duplicate_rivals(self):
        with pytest.raises(ValueError):
            engine(rivals=((0, 0.5),))
        with pytest.raises(ValueError):
            engine(rivals=((1, 0.5), (1, 0.2)))

    def test_rejects_bad_scalars(self):
        with pytest.raises(ValueError):
            engine(gain=-0.1)
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
        policy = EpistemicPolicy(moment_order=1, truncation=4)
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
        policy = EpistemicPolicy(moment_order=2, truncation=4)
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
        policy = EpistemicPolicy(moment_order=1, truncation=4)
        ga = run_epistemic_game(a, GRID, policy, PRIOR, max_stages=10)
        gb = run_epistemic_game(b, GRID, policy, PRIOR, max_stages=10)
        assert ga.nodes[0] == gb.nodes[0]
