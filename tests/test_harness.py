"""Monte Carlo scenario runner: seeding, conditioning, metrics, sweeps."""
import math
from dataclasses import replace

import numpy as np
import pytest

from epipower.engine import EpistemicPolicy, NodeEngine
from epipower.game import PowerGrid
from epipower.harness import (
    CHUNK_TRIALS,
    POLICY_LABELS,
    ScenarioSpec,
    policy_spec,
    run_scenario,
    sweep,
)

SMALL_GRID = PowerGrid.linear(101, 1.0)


def population_spec(**kw):
    defaults = dict(
        grid=SMALL_GRID,
        n_nodes=6,
        sinr_threshold=0.05,
        noise_power=0.01,
        interference_fraction=1.0,
        max_stages=8,
        trials=64,
        seed=3,
    )
    defaults.update(kw)
    return ScenarioSpec(**defaults)


class TestSpecValidation:
    def test_counts_and_ranges(self):
        with pytest.raises(ValueError):
            population_spec(n_nodes=0)
        with pytest.raises(ValueError):
            population_spec(trials=0)
        with pytest.raises(ValueError):
            population_spec(interference_fraction=-0.1)
        with pytest.raises(ValueError):
            population_spec(interference_fraction=1.1)
        with pytest.raises(ValueError):
            population_spec(solver="genie")
        with pytest.raises(ValueError):
            population_spec(seed=-1)
        with pytest.raises(ValueError):
            population_spec(workers=0)
        with pytest.raises(ValueError):
            population_spec(conditioned_gain=0.0)

    def test_epa_level_must_be_a_grid_level(self):
        # SMALL_GRID steps by 0.01 up to 1.0
        for level in (1.005, 2.0, -0.01):
            with pytest.raises(ValueError, match="epa_level"):
                population_spec(epa_level=level)
        assert population_spec(epa_level=0.25).epa_level == 0.25
        assert population_spec(epa_level=1.0).epa_level == 1.0

    def test_sncpc_sweep_cap_must_be_positive(self):
        # with no sweep every trial would report its untouched start
        for cap in (0, -3):
            with pytest.raises(ValueError, match="sncpc_max_iter"):
                population_spec(solver="sncpc", sncpc_max_iter=cap)
        assert population_spec(sncpc_max_iter=1).sncpc_max_iter == 1

    def test_zero_active_rejected(self):
        with pytest.raises(ValueError, match="no transmitters"):
            population_spec(interference_fraction=0.0)

    def test_active_count_arithmetic(self):
        assert population_spec(n_nodes=100).active_count == 100
        assert population_spec(n_nodes=100, interference_fraction=0.2).active_count == 20
        # ceil: 15.5 percent of 100 rounds up
        assert (
            population_spec(n_nodes=100, interference_fraction=0.155).active_count
            == 16
        )
        # conditioned scenarios add the fixed node on top of the draw,
        # capped by the population
        assert (
            population_spec(n_nodes=100, conditioned_gain=1.0).active_count == 100
        )
        assert (
            population_spec(
                n_nodes=100, conditioned_gain=1.0, interference_fraction=0.2
            ).active_count
            == 21
        )
        assert population_spec(n_nodes=1, conditioned_gain=1.0).active_count == 1


class TestDeterministicScenarios:
    def test_lone_conditioned_node_is_exact(self):
        # one transmitter, known gain 1, target 1, noise 1: it needs
        # exactly power 1 on the {0,1,2} grid and always succeeds
        spec = ScenarioSpec(
            grid=PowerGrid.linear(3, 2.0),
            n_nodes=1,
            sinr_threshold=1.0,
            noise_power=1.0,
            conditioned_gain=1.0,
            trials=4,
            seed=0,
        )
        m = run_scenario(spec)
        assert m.coverage == 1.0
        assert m.outage == 0.0
        assert m.avg_power == 0.5  # level 1 out of p_max 2
        assert m.ci_halfwidth == 0.0
        assert m.power_ci == 0.0
        assert not m.warning

    def test_single_trial_has_zero_ci(self):
        spec = population_spec(trials=1)
        m = run_scenario(spec)
        assert m.trials_run == 1
        assert m.ci_halfwidth == 0.0
        assert m.power_ci == 0.0

    def test_equal_allocation_reports_full_power(self):
        spec = population_spec(solver="epa")
        m = run_scenario(spec)
        assert m.avg_power == 1.0  # default level is the grid top
        assert m.power_ci == 0.0

    def test_outage_is_complement(self):
        m = run_scenario(population_spec())
        assert m.outage == 1.0 - m.coverage


class TestReplay:
    def test_conditioned_run_matches_object_engines(self):
        spec = ScenarioSpec(
            grid=SMALL_GRID,
            n_nodes=3,
            sinr_threshold=0.02,
            noise_power=1e-3,
            conditioned_gain=0.6,
            policy=EpistemicPolicy(moment_order=2, truncation=4),
            max_stages=2,
            trials=8,
            seed=7,
        )
        got = run_scenario(spec)

        cov, pwr = [], []
        for trial in range(spec.trials):
            rng = np.random.default_rng(np.random.SeedSequence([spec.seed, trial]))
            amps = rng.rayleigh(spec.rayleigh_sigma, spec.n_nodes)
            amps[0] = spec.conditioned_gain
            order = 1 + rng.permutation(spec.n_nodes - 1)
            gains = np.concatenate([[amps[0]], amps[order[: spec.active_count - 1]]])

            powers = []
            for g in gains:
                eng = NodeEngine(
                    node_id=0,
                    gain=float(g),
                    sinr_threshold=spec.sinr_threshold,
                    rivals=tuple(
                        (j + 1, spec.sinr_threshold)
                        for j in range(spec.active_count - 1)
                    ),
                    prior=spec.prior,
                    noise_power=spec.noise_power,
                    grid=spec.grid,
                    policy=spec.policy,
                )
                powers.append(eng.run(spec.max_stages).power)

            received = gains * gains * np.asarray(powers)
            interference = received.sum() - received[0]
            realized = received[0] / (interference + spec.noise_power)
            cov.append(1.0 if realized >= spec.sinr_threshold else 0.0)
            pwr.append(powers[0])

        assert got.coverage == float(np.asarray(cov).mean())
        assert got.avg_power == float(np.asarray(pwr).mean()) / spec.grid.p_max

    def test_same_spec_same_bytes(self):
        a = run_scenario(population_spec())
        b = run_scenario(population_spec())
        assert a == b

    def test_different_seeds_decorrelate(self):
        a = run_scenario(population_spec(seed=1))
        b = run_scenario(population_spec(seed=2))
        assert a.avg_power != b.avg_power


class TestAggregation:
    def test_ci_shrinks_with_trials(self):
        small = run_scenario(population_spec(trials=300))
        large = run_scenario(population_spec(trials=1200))
        assert small.ci_halfwidth > 0.0
        ratio = small.ci_halfwidth / large.ci_halfwidth
        assert 1.5 < ratio < 2.5

    def test_worker_count_does_not_change_bytes(self):
        spec = population_spec(trials=CHUNK_TRIALS * 2 + 40)
        serial = run_scenario(replace(spec, workers=1))
        parallel = run_scenario(replace(spec, workers=3))
        assert serial == parallel

    def test_stage_cap_fraction_reported(self):
        tight = run_scenario(population_spec(max_stages=1))
        loose = run_scenario(population_spec(max_stages=12))
        assert 0.0 <= loose.stage_cap_fraction <= tight.stage_cap_fraction <= 1.0
        assert loose.stage_cap_fraction == 0.0

    def test_unconverged_solver_raises_warning_flag(self):
        spec = population_spec(solver="sncpc", sncpc_max_iter=1)
        m = run_scenario(spec)
        assert m.solver_failure_fraction > 0.01
        assert m.warning
        healthy = run_scenario(population_spec(solver="sncpc"))
        assert healthy.solver_failure_fraction == 0.0
        assert not healthy.warning


class TestSweeps:
    def test_policy_labels(self):
        assert POLICY_LABELS == ("M1", "M2", "M3", "M4", "EPA", "SNCPC")
        base = population_spec()
        for order in (1, 2, 3, 4):
            spec = policy_spec(base, f"M{order}")
            assert spec.solver == "epistemic"
            assert spec.policy.moment_order == order
        assert policy_spec(base, "EPA").solver == "epa"
        assert policy_spec(base, "SNCPC").solver == "sncpc"
        with pytest.raises(ValueError):
            policy_spec(base, "M0X")

    def test_conditioned_sweep_rows(self):
        base = population_spec(trials=16, n_nodes=4)
        rows = sweep(base, (("gain", (0.5, 1.0)), ("threshold_db", (-24.0, -18.0))))
        assert list(rows[0]) == ["gain", "threshold_db", "metrics"]
        assert [(r["gain"], r["threshold_db"]) for r in rows] == [
            (0.5, -24.0),
            (0.5, -18.0),
            (1.0, -24.0),
            (1.0, -18.0),
        ]
        direct = run_scenario(
            replace(base, conditioned_gain=0.5, sinr_threshold=10.0 ** (-2.4))
        )
        assert rows[0]["metrics"] == direct

    def test_population_sweep_rows(self):
        base = population_spec(trials=16, n_nodes=5)
        axes = (("interference_pct", (40.0, 80.0)), ("policy", ("M1", "EPA")))
        rows = sweep(base, axes)
        assert [(r["interference_pct"], r["policy"]) for r in rows] == [
            (40.0, "M1"),
            (40.0, "EPA"),
            (80.0, "M1"),
            (80.0, "EPA"),
        ]
        direct = run_scenario(
            policy_spec(replace(base, interference_fraction=0.4), "M1")
        )
        assert rows[0]["metrics"] == direct

    def test_sweep_threshold_conversion(self):
        # -30 dB is a power ratio of 1e-3
        base = population_spec(trials=8, n_nodes=3)
        rows = sweep(base, (("gain", (1.0,)), ("threshold_db", (-30.0,))))
        direct = run_scenario(
            replace(base, conditioned_gain=1.0, sinr_threshold=1e-3)
        )
        assert rows[0]["metrics"] == direct
