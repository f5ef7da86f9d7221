"""Monte Carlo scenario runner: seeding, conditioning, metrics, sweeps."""
import math
from dataclasses import replace

import numpy as np
import pytest

from epipower import harness
from epipower.batch import epistemic_response
from epipower.engine import EpistemicPolicy, NodeEngine
from epipower.game import PowerGrid
from epipower.harness import (
    CHUNK_TRIALS,
    POLICY_LABELS,
    ScenarioSpec,
    _chunk_gains,
    _trial_seed_words,
    _TrialSeed,
    db_to_linear,
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
        with pytest.raises(ValueError, match="unknown policy label 'genie'"):
            population_spec(label="genie")
        with pytest.raises(ValueError):
            population_spec(seed=-1)
        with pytest.raises(ValueError):
            population_spec(workers=0)
        with pytest.raises(ValueError):
            population_spec(conditioned_gain=0.0)
        with pytest.raises(ValueError, match="finite square"):
            population_spec(conditioned_gain=1e200)

    def test_trial_index_fits_one_seed_word(self):
        # numpy spells trial 2**32 as two entropy words; the chunk seeding
        # hashes the trial index as one
        assert population_spec(trials=2**32).trials == 2**32
        with pytest.raises(ValueError, match=r"trials must be at most 2\*\*32"):
            population_spec(trials=2**32 + 1)

    @pytest.mark.parametrize("sigma", [0.0, 1e-200, 1e200])
    def test_sigma_must_give_a_finite_gain_rate(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            population_spec(rayleigh_sigma=sigma)

    def test_sncpc_sweep_cap_must_be_positive(self):
        # with no sweep every trial would report its untouched start
        for cap in (0, -3):
            with pytest.raises(ValueError, match="sncpc_max_iter"):
                population_spec(label="SNCPC", sncpc_max_iter=cap)
        assert population_spec(sncpc_max_iter=1).sncpc_max_iter == 1

    @pytest.mark.parametrize("label", ["M1", "M2", "M3", "M4"])
    def test_belief_label_rejects_a_grid_its_fit_overflows(self, label):
        # five interferers at p_max = 1e200: p_max^2 overflows and the
        # Gamma fit turns NaN
        with pytest.raises(ValueError, match="overflows the belief fit"):
            population_spec(label=label, grid=PowerGrid.linear(11, 1e200))
        # the own-gain comparators never fit a Gamma model
        for other in ("EPA", "SNCPC"):
            population_spec(label=other, grid=PowerGrid.linear(11, 1e200))
        # a lone node has no interferers to fit
        population_spec(label=label, n_nodes=1, grid=PowerGrid.linear(11, 1e200))

    @pytest.mark.parametrize("label", ["M1", "M2", "M3", "M4"])
    def test_belief_label_rejects_a_grid_its_fit_underflows(self, label):
        # one interferer at the lowest level, 1e-162: its square underflows,
        # while five at p_max = 1e-159 fit
        tiny = PowerGrid.linear(1001, 1e-159)
        with pytest.raises(ValueError, match="lowest level 1e-162 underflows"):
            population_spec(label=label, grid=tiny)
        # below about 1e-162 the top end underflows first
        with pytest.raises(ValueError, match="p_max 1e-170 underflows"):
            population_spec(label=label, grid=PowerGrid.linear(2, 1e-170))
        # the no-interferer bypass 1/noise^k overflows, even for a lone node
        for n_nodes in (1, 6):
            with pytest.raises(ValueError, match=r"noise power \S+ overflows"):
                population_spec(label=label, n_nodes=n_nodes, noise_power=4e-320,
                                grid=PowerGrid.linear(11, 1.0))
        for other in ("EPA", "SNCPC"):
            population_spec(label=other, grid=tiny, noise_power=4e-320)

    def test_belief_grid_bound_is_the_series_range(self):
        # at p_max = 1e100 the fit itself is finite, but M1's fourth central
        # moment overflows (series value NaN) and so does M4's
        # (E[Y] + eta)^4 (series value 0); at 1e50 every label runs
        huge = PowerGrid.linear(11, 1e100)
        with pytest.raises(ValueError, match="series value nan"):
            population_spec(label="M1", grid=huge)
        with pytest.raises(ValueError, match="series value 0"):
            population_spec(label="M4", grid=huge)
        grid = PowerGrid.linear(11, 1e50)
        for label in ("M1", "M2", "M3", "M4"):
            assert population_spec(label=label, grid=grid).grid is grid

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
        spec = population_spec(label="EPA")
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
            label="M2",
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


def replay_gains(spec, chunk_index):
    """One chunk's amplitudes, one ``default_rng(SeedSequence([seed, trial]))``
    per trial: the per-trial reference for the chunk seeding."""
    start = chunk_index * CHUNK_TRIALS
    rows = []
    for trial in range(start, min(start + CHUNK_TRIALS, spec.trials)):
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, trial]))
        amps = rng.rayleigh(spec.rayleigh_sigma, spec.n_nodes)
        if spec.conditioned_gain is None:
            rows.append(amps[rng.permutation(spec.n_nodes)[: spec.active_count]])
        else:
            rivals = 1 + rng.permutation(spec.n_nodes - 1)[: spec.active_count - 1]
            rows.append(np.concatenate([[spec.conditioned_gain], amps[rivals]]))
    return np.asarray(rows)


SEEDS = (0, 42, 2**32 - 1, 2**32, 2**96 + 1, 2**128 + 7)
TRIALS = np.array([0, 1, 511, 512, 2**32 - 1], dtype=np.uint32)


class TestChunkSeeding:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_seed_words_match_seed_sequence(self, seed):
        words = _trial_seed_words(seed, TRIALS)
        for row, trial in zip(words, TRIALS.tolist()):
            ref = np.random.SeedSequence([seed, trial]).generate_state(4, np.uint64)
            assert row.tolist() == ref.tolist()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_pcg64_state_matches_the_seeded_generator(self, seed):
        words = _trial_seed_words(seed, TRIALS)
        for row, trial in zip(words, TRIALS.tolist()):
            ref = np.random.PCG64(np.random.SeedSequence([seed, trial])).state
            assert np.random.PCG64(_TrialSeed(row)).state == ref

    def test_trial_seed_gives_only_pcg64s_words(self):
        seed = _TrialSeed(_trial_seed_words(42, TRIALS)[0])
        with pytest.raises(ValueError, match="four uint64 words"):
            seed.generate_state(8, np.uint32)

    @pytest.mark.parametrize(
        "spec, chunk_index",
        [
            # n_active == n_nodes
            (population_spec(trials=CHUNK_TRIALS), 0),
            # 80% load; the last chunk holds 76 trials
            (population_spec(n_nodes=100, interference_fraction=0.8, trials=1100), 2),
            (population_spec(n_nodes=9, conditioned_gain=0.7, trials=600), 1),
            (population_spec(rayleigh_sigma=2.5, interference_fraction=0.5), 0),
            (population_spec(seed=2**40, trials=700), 1),
            # the last trial index that fits one seed word
            (population_spec(trials=2**32), 2**32 // CHUNK_TRIALS - 1),
            # entropy of five words, one more than numpy's pool holds
            (population_spec(n_nodes=9, conditioned_gain=0.7, seed=2**100), 0),
        ],
    )
    def test_chunk_matches_per_trial_generators(self, spec, chunk_index):
        got = _chunk_gains(spec, chunk_index)
        ref = replay_gains(spec, chunk_index)
        assert got.shape == ref.shape == (len(ref), spec.active_count)
        assert got.tobytes() == ref.tobytes()


class TestAggregation:
    def test_ci_shrinks_with_trials(self):
        small = run_scenario(population_spec(trials=300))
        large = run_scenario(population_spec(trials=1200))
        assert small.ci_halfwidth > 0.0
        ratio = small.ci_halfwidth / large.ci_halfwidth
        assert 1.5 < ratio < 2.5

    def test_worker_count_does_not_change_bytes(self, monkeypatch):
        # pinned cores keep the three-worker run on a process pool on any host
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
        spec = population_spec(trials=CHUNK_TRIALS * 2 + 40)
        serial = run_scenario(replace(spec, workers=1))
        parallel = run_scenario(replace(spec, workers=3))
        assert serial == parallel

    @staticmethod
    def serial_pool(monkeypatch, cores):
        """Pin the core count and swap in a pool that maps serially.

        A pool forks every worker at its first submit, so the count it is
        asked for is the count it starts; the returned list records it.
        """
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cores)
        return started

    @pytest.mark.parametrize("requested", [2, 10**6])
    def test_pool_gets_at_most_one_worker_per_chunk(self, monkeypatch, requested):
        started = self.serial_pool(monkeypatch, cores=64)
        spec = population_spec(trials=CHUNK_TRIALS * 2 + 40)  # three chunks
        assert run_scenario(replace(spec, workers=requested)) == run_scenario(spec)
        assert started == [min(requested, 3)]

    @pytest.mark.parametrize("cores, expected", [(2, [2]), (1, []), (None, [])])
    def test_pool_gets_at_most_one_worker_per_core(self, monkeypatch, cores, expected):
        # one core, or a count the host cannot tell, runs without a pool
        started = self.serial_pool(monkeypatch, cores)
        spec = population_spec(trials=CHUNK_TRIALS * 2 + 40)  # three chunks
        assert run_scenario(replace(spec, workers=10**6)) == run_scenario(spec)
        assert started == expected

    def test_single_chunk_runs_without_a_pool(self, monkeypatch):
        monkeypatch.setattr(harness, "ProcessPoolExecutor", None)
        run_scenario(population_spec(trials=CHUNK_TRIALS, workers=8))

    def test_stage_cap_fraction_reported(self):
        tight = run_scenario(population_spec(max_stages=1))
        loose = run_scenario(population_spec(max_stages=12))
        assert 0.0 <= loose.stage_cap_fraction <= tight.stage_cap_fraction <= 1.0
        assert loose.stage_cap_fraction == 0.0

    @pytest.mark.parametrize("spec", [
        population_spec(trials=CHUNK_TRIALS + 40, max_stages=1),  # two chunks
        population_spec(n_nodes=9, conditioned_gain=0.7, max_stages=1),
    ])
    def test_stage_cap_fraction_counts_every_row(self, spec):
        # every active node's belief loop is a row, the fixed node's too
        capped = 0
        for chunk in range(math.ceil(spec.trials / CHUNK_TRIALS)):
            gains = _chunk_gains(spec, chunk)
            res = epistemic_response(
                gains.ravel(), spec.active_count, spec.sinr_threshold,
                spec.noise_power, spec.grid, spec.policy, spec.prior,
                spec.max_stages,
            )
            capped += int((~res.converged).sum())
        assert capped > 0
        fraction = run_scenario(spec).stage_cap_fraction
        assert fraction == capped / (spec.trials * spec.active_count)

    def test_unconverged_solver_raises_warning_flag(self):
        spec = population_spec(label="SNCPC", sncpc_max_iter=1)
        m = run_scenario(spec)
        assert m.solver_failure_fraction > 0.01
        assert m.warning
        healthy = run_scenario(population_spec(label="SNCPC"))
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
        for label in ("M0X", "M7"):
            with pytest.raises(ValueError, match="expected one of"):
                policy_spec(base, label)

    @pytest.mark.parametrize(
        "label, solver, order",
        [
            ("M1", "epistemic", 1),
            ("M2", "epistemic", 2),
            ("M3", "epistemic", 3),
            ("M4", "epistemic", 4),
            # the comparators report moment order 1, which they never read
            ("EPA", "epa", 1),
            ("SNCPC", "sncpc", 1),
        ],
    )
    def test_label_names_solver_and_moment_order(self, label, solver, order):
        spec = population_spec(label=label)
        assert spec.solver == solver
        assert spec.policy == EpistemicPolicy(moment_order=order)
        assert policy_spec(population_spec(), label) == population_spec(label=label)

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


class TestDbToLinear:
    @pytest.mark.parametrize("db", [-4000.0, -120.0, -24.0, -5.23, 0.0, 3.0, 3080.0])
    def test_same_bits_as_the_power_expression(self, db):
        assert db_to_linear(db) == 10.0 ** (db / 10.0)

    @pytest.mark.parametrize("db", [3090.0, 4000.0, 1e300, math.inf, math.nan])
    def test_nonfinite_power_is_a_value_error(self, db):
        with pytest.raises(ValueError, match="dB is out of range"):
            db_to_linear(db)
