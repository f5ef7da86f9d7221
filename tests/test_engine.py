"""The per-node belief loop: rival simulation, own selection, convergence."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from epipower import engine as engine_module
from epipower.engine import (
    EpistemicPolicy,
    NodeEngine,
    inter_slope,
    intra_slope,
    leave_one_out_fits,
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


# beliefs spread over many binades, silent entries and a few repeated values
belief_values = st.one_of(
    st.just(0.0),
    st.sampled_from([0.1, 1.0 / 3.0, 2.0]),
    st.builds(
        math.ldexp,
        st.floats(min_value=0.5, max_value=1.0, exclude_max=True),
        st.integers(min_value=-300, max_value=300),
    ),
)


def replay_rival_pass(eng):
    """A sweep's rival beliefs, one rival at a time from public pieces."""
    k = eng.policy.moment_order
    lam = eng.prior.lam
    eta = eng.gain_sq * eng.own_power + eng.noise_power
    expected = {}
    for rid, threshold in eng.rivals:
        others = [eng.believed[m] for m, _ in eng.rivals if m != rid]
        model = fit_interference(others, lam, eta)
        if model is None:
            value = 1.0 / int_power(eta, k)
        else:
            value = inverse_shifted_moment(model, k, 4).value
        slope = 0.0 if value <= 0.0 else inter_slope(k, lam, value)
        idx = eng.grid.select_lowest_feasible(slope, threshold)
        expected[rid] = eng.grid.p_max if idx is None else eng.grid.levels[idx]
    return expected


def random_engines(n_nodes, k, grid, exhaustive, seed):
    """Every node's engine for one network with mixed SINR targets."""
    rng = np.random.default_rng(seed)
    gains = rng.rayleigh(1.0, n_nodes)
    targets = rng.choice([0.05, 0.2, 0.5], n_nodes)
    return [
        NodeEngine(
            node_id=i,
            gain=float(gains[i]),
            sinr_threshold=float(targets[i]),
            rivals=[(j, float(targets[j])) for j in range(n_nodes) if j != i],
            prior=PRIOR,
            noise_power=1.0,
            grid=grid,
            policy=EpistemicPolicy(moment_order=k),
            exhaustive=exhaustive,
        )
        for i in range(n_nodes)
    ]


class TestRivalPass:
    @given(
        powers=st.lists(belief_values, min_size=1, max_size=4),
        lam=st.floats(min_value=1e-3, max_value=1e3),
    )
    @example(powers=[0.1, 0.1, 0.1], lam=0.5)
    @example(powers=[2.0, 2.0, 1.0 / 3.0, 2.0], lam=0.7)
    @example(powers=[0.0, 1e-150, 1e150], lam=0.5)
    @example(powers=[0.0, 0.0, 3.0], lam=0.5)
    @settings(max_examples=300, deadline=None)
    def test_leave_one_out_fit_is_the_fit_of_the_others(self, powers, lam):
        fitted, alpha, theta = leave_one_out_fits(powers, lam)
        expected = []
        for j in range(len(powers)):
            model = fit_interference(powers[:j] + powers[j + 1 :], lam, 0.0)
            if model is not None:
                expected.append((j, model.alpha_hat, model.theta_hat))
        assert fitted == [j for j, _, _ in expected]
        assert list(zip(fitted, alpha.tolist(), theta.tolist())) == expected

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "n_nodes, p_min, exhaustive",
        [(2, 0.0, False), (3, 0.0, True), (3, 0.5, False), (50, 0.5, False),
         (50, 0.0, True)],
    )
    def test_step_replays_one_rival_at_a_time(self, k, n_nodes, p_min, exhaustive):
        grid = PowerGrid.linear(101, 10.0, p_min)
        stages = 6 if n_nodes < 50 else 2
        probes = len(grid) if exhaustive else math.ceil(math.log2(len(grid))) + 1
        for eng in random_engines(n_nodes, k, grid, exhaustive, seed=n_nodes + k):
            for _ in range(stages):
                expected = replay_rival_pass(eng)
                before = eng.eu_evaluations
                moved = eng.step()
                assert eng.believed == expected
                assert eng.eu_evaluations - before == n_nodes * probes
                if not moved:
                    break

    def test_silent_rivals_take_the_bypass(self):
        # a zero target puts a rival's belief on the grid's 0 level, where
        # it drops out of every other rival's fit; rival 1 then has no
        # active others
        grid = PowerGrid.linear(101, 10.0)
        for k in (1, 4):
            eng = engine(EpistemicPolicy(k), rivals=((1, 0.5), (2, 0.0), (3, 0.0)))
            for _ in range(3):
                expected = replay_rival_pass(eng)
                eng.step()
                assert eng.believed == expected
            assert eng.believed[2] == eng.believed[3] == grid.p_min == 0.0

    def test_one_series_call_per_sweep(self, monkeypatch):
        # the rival pass evaluates every rival's series in one array call,
        # and the own pass keeps the traced scalar pieces
        calls = {"array": 0, "own": 0}
        array_series = engine_module.inverse_moment_value
        own_series = engine_module.inverse_shifted_moment

        def count_array(*args):
            calls["array"] += 1
            return array_series(*args)

        def count_own(*args):
            calls["own"] += 1
            return own_series(*args)

        monkeypatch.setattr(engine_module, "inverse_moment_value", count_array)
        monkeypatch.setattr(engine_module, "inverse_shifted_moment", count_own)
        n_nodes = 12
        network = NetworkState(
            nodes=tuple(
                NodeConfig(i, 0.5 + 0.1 * i, (0.05, 0.2)[i % 2]) for i in range(n_nodes)
            ),
            noise_power=1.0,
        )
        game = run_epistemic_game(
            network, GRID, EpistemicPolicy(moment_order=2), PRIOR, max_stages=20
        )
        stages = sum(o.stages_run for o in game.nodes)
        assert stages > n_nodes
        assert 0 < calls["array"] <= stages < stages * (n_nodes - 1)
        assert calls["own"] == stages
