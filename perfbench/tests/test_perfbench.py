"""The benchmark's own checks: tracing is invisible and the gate is live.

    python3 -m pytest perfbench/tests -q
"""
import json
import time
from dataclasses import replace

import pytest

import run
import tracing
import workloads
from epipower import harness

BENCHMARK_JSON = workloads.REFERENCE_PATH.parents[1] / "BENCHMARK.json"


def small_items(seed=3):
    """A cheap mix of every item kind: short Monte Carlo points, few networks."""
    belief = workloads.build_items("belief", seed)
    base = workloads.build_items("baselines", seed, workers=1)
    scenarios = [
        replace(i, args={"spec": replace(i.args["spec"], trials=300)}, trials=300)
        for i in (belief[1], belief[2], base[0], base[1])
    ]
    picked = [i for i in belief + base if i.name in ("game_N10", "nash_00", "sncpc_00")]
    return scenarios + picked


def test_wrappers_are_restored_even_after_an_error():
    originals = [
        (owner, attr, getattr(owner, attr)) for owner, attr, _, _ in tracing.WRAPPED
    ]
    with pytest.raises(RuntimeError, match="boom"):
        with tracing.Tracer():
            for owner, attr, original in originals:
                assert getattr(owner, attr) is not original
            raise RuntimeError("boom")
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original


def test_tracing_does_not_change_results():
    items = small_items()
    plain = workloads.run_pass(items, time.perf_counter)
    with tracing.Tracer() as tracer:
        tracer.recording = True
        root = tracer.open("bench.pass")
        traced = workloads.run_pass(items, time.perf_counter)
        tracer.close(root)
    assert all(r.error is None for r in plain + traced)
    digests = [workloads.pass_digests(items, r) for r in (plain, traced)]
    assert workloads.differing_items(items, *digests) == []
    names = {s[1] for s in tracer.spans}
    assert {
        "harness.run_scenario",
        "batch.epistemic_response",
        "batch.sncpc_response",
        "moments.inverse_moment_value",
        "engine.run_epistemic_game",
        "game.select_lowest_feasible",
        "game.solve_nash_full_csi",
        "baselines.sncpc_solve",
    } <= names
    # the reported self times partition the pass: they add up to its wall time
    metrics = run.layer_metrics(tracing.layer_totals(tracer.spans, root))
    self_sum = sum(metrics[name] for name in run.SELF_METRICS)
    assert self_sum == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert set(metrics) <= set(run.PER_LAYER)


def test_self_times_subtract_direct_children():
    spans = [
        [0, "root", 0.0, 10.0, None, None, None],
        [1, "a", 1.0, 5.0, 0, "x", None],
        [2, "b", 2.0, 3.0, 1, "x", None],
        [3, "b", 6.0, 9.0, 0, "y", None],
    ]
    assert tracing.self_times(spans) == [3.0, 3.0, 1.0, 3.0]
    totals = tracing.layer_totals(spans, root=1)
    assert set(totals) == {"a", "b"}
    assert totals["b"]["calls"] == 1


def test_gate_trips_on_a_corrupted_reference_value():
    items = workloads.build_items("baselines", workloads.REFERENCE_SEED, workers=1)
    epa = next(i for i in items if i.name == "fig5_70pct_EPA")
    (result,) = workloads.run_pass([epa], time.perf_counter)
    reference = workloads.load_reference()
    assert workloads.check_item(epa, result.output, reference) == []

    corrupted = json.loads(json.dumps(reference))
    coverage = float.fromhex(corrupted[epa.name]["coverage"])
    corrupted[epa.name]["coverage"] = (coverage + coverage * 2.0**-52).hex()
    problems = workloads.check_item(epa, result.output, corrupted)
    assert problems and "frozen reference" in problems[0]

    checker = run.Checker([epa], workloads.REFERENCE_SEED)
    checker.reference = corrupted
    checker.check([result])
    assert (checker.attempted, checker.failed) == (1, 1)


def test_invariant_checks_catch_a_broken_scenario_result():
    spec = workloads.build_items("baselines", 0, workers=1)[1].args["spec"]
    good = harness.ScenarioMetrics(
        coverage=0.25, outage=0.75, avg_power=1.0, ci_halfwidth=0.0, power_ci=0.0,
        trials_run=spec.trials, warning=False, stage_cap_fraction=0.0,
        solver_failure_fraction=0.0,
    )
    assert workloads._check_scenario(spec, good) == []
    assert workloads._check_scenario(spec, replace(good, outage=0.7))
    assert workloads._check_scenario(spec, replace(good, avg_power=0.5))
    assert workloads._check_scenario(spec, replace(good, warning=True))


def test_a_raised_item_counts_as_failed(monkeypatch):
    items = small_items()[:2]

    def broken(spec):
        raise RuntimeError("solver exploded")

    monkeypatch.setattr(harness, "run_scenario", broken)
    results = workloads.run_pass(items, time.perf_counter)
    assert all(r.error is not None for r in results)
    checker = run.Checker(items, seed=3)
    checker.check(results)
    assert (checker.attempted, checker.failed) == (2, 2)


def test_same_seed_builds_the_same_inputs():
    def inputs(seed):
        return [
            (i.name, i.trials, repr(i.args.get("network")), repr(i.args.get("spec")))
            for workload in workloads.WORKLOADS
            for i in workloads.build_items(workload, seed)
        ]

    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)
    specs = [i.args["spec"] for i in workloads.build_items("belief", 9)]
    assert {s.seed for s in specs} == {9}


def test_warmup_shrinks_points_and_keeps_one_network_per_kind():
    belief = workloads.warmup_items(workloads.build_items("belief", 4))
    assert [i.name for i in belief] == [
        "fig3_g0.5_-24dB_M1", "fig5_80pct_M1", "fig5_80pct_M4", "game_N10"
    ]
    points = [i.args["spec"].trials for i in belief if i.kind == "scenario"]
    assert points == [workloads.WARMUP_TRIALS] * 3
    base = workloads.warmup_items(workloads.build_items("baselines", 4))
    assert [i.name for i in base][-2:] == ["nash_00", "sncpc_00"]


def test_metric_tables_match_benchmark_json():
    bench = json.loads(BENCHMARK_JSON.read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
