"""epipower benchmark: time a workload end to end, or trace it layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload belief --seed 42 --seconds 56 --trace 0

``--trace 0`` makes an untimed warm-up pass over shrunk items, then
repeats timed passes over the workload's items for about ``--seconds``
seconds and reports the end-to-end metrics (medians over passes).
``--trace 1`` warms up the same way, then runs one untraced and one
traced pass (plus a serial traced pass for ``baselines``) and reports
the per-layer metrics; the spans go to ``perfbench/out/``.  Every item output is
checked; the last stdout line is the JSON result, and any failed item
makes the exit code 1.  Without ``src/epipower`` next to this directory
it exits with 1 before printing a result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CLOCK = time.perf_counter

if __name__ == "__main__" and not (SRC / "epipower" / "__init__.py").is_file():
    sys.exit(f"epipower sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402
import scipy  # noqa: E402
import tracing  # noqa: E402  (tracing and workloads import epipower)
import workloads  # noqa: E402

SETUP_PROBES = 9  # timed fresh-interpreter set-ups per run, after one untimed
PROBE_TIMEOUT_S = 60
# peak RSS is read over the warm-up and this many timed passes: the
# allocator's high-water mark creeps up by ~1 MB with every further pass,
# which would make it depend on how many passes fit in --seconds
RSS_PASSES = 2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "trials_per_s": "1/s",
    "slowest_item_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

# per-layer metric -> unit
PER_LAYER = {
    "config.load_run_config.s": "s",
    "harness.run_scenario.calls": "count",
    "harness.run_scenario.s": "s",
    "harness.self.s": "s",
    "harness.pool_overhead.s": "s",
    "batch.epistemic_response.calls": "count",
    "batch.epistemic_response.s": "s",
    "batch.epistemic_response.self.s": "s",
    "batch.epistemic.rows": "count",
    "batch.epistemic.stages_mean": "stages/row",
    "batch.epistemic.converged_frac": "fraction",
    "batch.sncpc_response.calls": "count",
    "batch.sncpc_response.s": "s",
    "batch.sncpc_response.self.s": "s",
    "batch.sncpc.iterations_mean": "iter/trial",
    "batch.sncpc.iterations_max": "count",
    "batch.sncpc.failed_frac": "fraction",
    "batch.select_lowest_feasible_batch.calls": "count",
    "batch.select_lowest_feasible_batch.s": "s",
    "batch.select_lowest_feasible_batch.rows_per_call": "rows/call",
    "moments.inverse_moment_value.calls": "count",
    "moments.inverse_moment_value.s": "s",
    "moments.inverse_moment_value.rows": "count",
    "moments.series.flagged_frac": "fraction",
    "moments.series.terms_used_mean": "terms/row",
    "moments.fit_interference.calls": "count",
    "moments.fit_interference.s": "s",
    "moments.inverse_shifted_moment.calls": "count",
    "moments.inverse_shifted_moment.s": "s",
    "game.select_lowest_feasible.calls": "count",
    "game.select_lowest_feasible.s": "s",
    "game.solve_nash_full_csi.s": "s",
    "game.solve_nash_full_csi.self.s": "s",
    "game.nash.rounds_mean": "rounds/solve",
    "game.nash_deviation_scan.s": "s",
    "engine.run_epistemic_game.s": "s",
    "engine.self.s": "s",
    "engine.eu_evaluations": "count",
    "baselines.sncpc_solve.s": "s",
    "baselines.sncpc.iterations_mean": "iter/solve",
    "bench.self.s": "s",
    "trace.wall_s": "s",
    "trace.overhead.s": "s",
}

# the per-layer self times of a traced pass; they add up to trace.wall_s
SELF_METRICS = (
    "bench.self.s",
    "harness.self.s",
    "batch.epistemic_response.self.s",
    "batch.sncpc_response.self.s",
    "batch.select_lowest_feasible_batch.s",
    "moments.inverse_moment_value.s",
    "moments.fit_interference.s",
    "moments.inverse_shifted_moment.s",
    "game.select_lowest_feasible.s",
    "game.solve_nash_full_csi.self.s",
    "game.nash_deviation_scan.s",
    "engine.self.s",
    "baselines.sncpc_solve.s",
)


def _git_sha() -> str:
    """HEAD of this checkout, or "unknown" outside a git working tree."""
    if not (ROOT / ".git").exists():  # never pick up an enclosing repository
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _src_sha256() -> str:
    """Content hash of the package sources; identifies code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "epipower").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, items, passes: int) -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": passes,
        "items": [workloads.describe(i) for i in items],
        "trials_per_pass": workloads.trials_of(items),
    }


def setup_probe(workload: str, seed: int) -> float:
    """Wall time of one fresh interpreter running the set-up probe."""
    cmd = [
        sys.executable,
        str(HERE / "setup_probe.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
    ]
    start = CLOCK()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
    # wait() with a timeout polls in sleeps of up to 50 ms, which would
    # round every probe up to the next poll; a watchdog kills a hung one
    watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = CLOCK() - start
    if code != 0:
        raise RuntimeError(f"set-up probe exited with {code}")
    return elapsed


def own_peak_rss_mb() -> float:
    """Peak RSS of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Peak RSS of the largest child reaped so far, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class Checker:
    """Runs the correctness gate on each pass and tallies failed items."""

    def __init__(self, items, seed: int):
        self.items = items
        self.reference = (
            workloads.load_reference() if seed == workloads.REFERENCE_SEED else None
        )
        self.attempted = 0
        self.failed = 0

    def check(self, results) -> None:
        for item, res in zip(self.items, results):
            self.attempted += 1
            if res.error is not None:
                self.failed += 1
                continue
            problems = workloads.check_item(item, res.output, self.reference)
            if problems:
                self.failed += 1
                for line in problems:
                    print(f"item {item.name}: {line}", file=sys.stderr)

    def mismatch(self, a, b, what: str) -> None:
        """Count items whose digests differ between two passes as failed."""
        for name in workloads.differing_items(self.items, a, b):
            self.failed += 1
            print(f"item {name}: output differs between {what}", file=sys.stderr)


def timed_pass(items, on_item=None):
    start = CLOCK()
    results = workloads.run_pass(items, CLOCK, on_item)
    return CLOCK() - start, results


def run_untraced(args):
    """Timed passes for about ``args.seconds``; end-to-end metrics."""
    items = workloads.build_items(args.workload, args.seed)
    checker = Checker(items, args.seed)
    trials = workloads.trials_of(items)
    workloads.run_pass(workloads.warmup_items(items), CLOCK)
    walls, slowest, setups, first = [], [], [], None
    untimed_probe = 0.0
    begin = CLOCK()
    while True:
        wall, results = timed_pass(items)
        checker.check(results)
        walls.append(wall)
        slowest.append(max(r.seconds for r in results))
        digests = workloads.pass_digests(items, results)
        del results  # a pass's outputs must not stay alive into the next pass
        if len(walls) <= RSS_PASSES:
            own_rss = own_peak_rss_mb()
        if first is None:
            first = digests
            # pool workers are children too; take their peak before any probe
            children_rss = children_peak_rss_mb()
            untimed_probe = setup_probe(args.workload, args.seed)  # a warm-up
        else:
            checker.mismatch(first, digests, "passes")
        # set-up probes run between passes, spread over the run, so their
        # median sees the same machine as the passes; --seconds excludes them
        elapsed = CLOCK() - begin - untimed_probe - sum(setups)
        while len(setups) < SETUP_PROBES * min(1.0, elapsed / args.seconds):
            setups.append(setup_probe(args.workload, args.seed))
        if elapsed + statistics.median(walls) > args.seconds:
            break
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(args.workload, args.seed))
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "trials_per_s": statistics.median(trials / w for w in walls),
        "slowest_item_s": statistics.median(slowest),
        "peak_rss_mb": own_rss + children_rss,
        "ok_frac": 1.0 - checker.failed / checker.attempted,
    }
    return checker, metrics, END_TO_END, provenance(args, items, len(walls)), None


def run_traced(args):
    """Untraced pass, traced pass(es) and the per-layer metrics they give."""
    with tracing.Tracer() as tracer:
        tracer.recording = True
        items = workloads.build_items(args.workload, args.seed)
        tracer.recording = False
        setup_spans = len(tracer.spans)
        checker = Checker(items, args.seed)

        workloads.run_pass(workloads.warmup_items(items), CLOCK)
        plain_wall, plain = timed_pass(items)
        checker.check(plain)
        traced_wall, traced, root = _traced_pass(tracer, items, checker)
        plain_digests = workloads.pass_digests(items, plain)
        traced_digests = workloads.pass_digests(items, traced)
        checker.mismatch(plain_digests, traced_digests, "untraced and traced passes")
        pool_overhead = 0.0
        if args.workload == "baselines":
            # the serial pass is the one decomposed: its spans all live here
            serial_items = workloads.build_items(args.workload, args.seed, workers=1)
            _, serial, root = _traced_pass(tracer, serial_items, checker)
            serial_digests = workloads.pass_digests(serial_items, serial)
            checker.mismatch(plain_digests, serial_digests, "pool and serial passes")
            pool_overhead = _point_seconds(items, traced) - 0.5 * _point_seconds(
                serial_items, serial
            )

    spans = tracer.spans
    metrics = layer_metrics(tracing.layer_totals(spans, root))
    config_s = sum(s[3] - s[2] for s in spans[:setup_spans])
    metrics["config.load_run_config.s"] = config_s
    metrics["harness.pool_overhead.s"] = pool_overhead
    metrics["trace.overhead.s"] = traced_wall - plain_wall
    prov = provenance(args, items, 1)
    return checker, metrics, PER_LAYER, prov, tracer


def _point_seconds(items, results) -> float:
    """Time spent in the Monte Carlo points of a pass, the items a pool runs."""
    return sum(r.seconds for i, r in zip(items, results) if i.kind == "scenario")


def _traced_pass(tracer, items, checker):
    def on_item(name):
        tracer.item = name

    tracer.recording = True
    root = tracer.open("bench.pass")
    try:
        wall, results = timed_pass(items, on_item)
    finally:
        tracer.close(root)
        tracer.recording = False
        tracer.item = None
    checker.check(results)  # untraced: the check's own kernel calls are not the pass's
    return wall, results, root


def layer_metrics(totals) -> dict:
    """Per-layer metrics from the spans under one traced pass."""

    def get(name):
        agg = totals.get(name)
        return agg if agg is not None else tracing.empty_totals()

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    run = get("harness.run_scenario")
    m["harness.run_scenario.calls"] = run["calls"]
    m["harness.run_scenario.s"] = run["s"]
    m["harness.self.s"] = run["self_s"]

    epi = get("batch.epistemic_response")
    rows = epi["counts"].get("rows", 0)
    m["batch.epistemic_response.calls"] = epi["calls"]
    m["batch.epistemic_response.s"] = epi["s"]
    m["batch.epistemic_response.self.s"] = epi["self_s"]
    m["batch.epistemic.rows"] = rows
    m["batch.epistemic.stages_mean"] = ratio(epi["counts"].get("stages", 0), rows)
    m["batch.epistemic.converged_frac"] = ratio(epi["counts"].get("converged", 0), rows)

    sn = get("batch.sncpc_response")
    trials = sn["counts"].get("trials", 0)
    m["batch.sncpc_response.calls"] = sn["calls"]
    m["batch.sncpc_response.s"] = sn["s"]
    m["batch.sncpc_response.self.s"] = sn["self_s"]
    m["batch.sncpc.iterations_mean"] = ratio(sn["counts"].get("iterations", 0), trials)
    m["batch.sncpc.iterations_max"] = sn["counts"].get("iterations_max", 0)
    m["batch.sncpc.failed_frac"] = ratio(sn["counts"].get("failed", 0), trials)

    sel = get("batch.select_lowest_feasible_batch")
    m["batch.select_lowest_feasible_batch.calls"] = sel["calls"]
    m["batch.select_lowest_feasible_batch.s"] = sel["s"]
    m["batch.select_lowest_feasible_batch.rows_per_call"] = ratio(
        sel["counts"].get("rows", 0), sel["calls"]
    )

    ser = get("moments.inverse_moment_value")
    srows = ser["counts"].get("rows", 0)
    m["moments.inverse_moment_value.calls"] = ser["calls"]
    m["moments.inverse_moment_value.s"] = ser["s"]
    m["moments.inverse_moment_value.rows"] = srows
    m["moments.series.flagged_frac"] = ratio(ser["counts"].get("flagged", 0), srows)
    m["moments.series.terms_used_mean"] = ratio(ser["counts"].get("terms_used", 0), srows)

    for name in (
        "moments.fit_interference",
        "moments.inverse_shifted_moment",
        "game.select_lowest_feasible",
    ):
        m[f"{name}.calls"] = get(name)["calls"]
        m[f"{name}.s"] = get(name)["s"]

    nash = get("game.solve_nash_full_csi")
    m["game.solve_nash_full_csi.s"] = nash["s"]
    m["game.solve_nash_full_csi.self.s"] = nash["self_s"]
    m["game.nash.rounds_mean"] = ratio(nash["counts"].get("rounds", 0), nash["calls"])
    m["game.nash_deviation_scan.s"] = get("game.nash_deviation_scan")["s"]

    eng = get("engine.run_epistemic_game")
    m["engine.run_epistemic_game.s"] = eng["s"]
    m["engine.self.s"] = eng["self_s"]
    m["engine.eu_evaluations"] = eng["counts"].get("eu_evaluations", 0)

    solve = get("baselines.sncpc_solve")
    m["baselines.sncpc_solve.s"] = solve["s"]
    m["baselines.sncpc.iterations_mean"] = ratio(
        solve["counts"].get("iterations", 0), solve["calls"]
    )

    root = get("bench.pass")
    m["bench.self.s"] = root["self_s"]
    m["trace.wall_s"] = root["s"]
    return m


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    runner = run_traced if args.trace else run_untraced
    checker, metrics, units, prov, tracer = runner(args)
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json", prov)
    print(json.dumps({"provenance": prov}))
    correct = checker.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
