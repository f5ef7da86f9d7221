"""Workload items for the epipower benchmark, their runner and their checks.

An item is one unit a user waits on: a Monte Carlo figure point (run
through ``harness.run_scenario``) or one explicit network handed to a
scalar solver.  Every input is derived from the workload seed, so the
same seed always builds the same items.

The runner calls the package through module attributes
(``harness.run_scenario``, ``engine.run_epistemic_game`` ...), which is
where the tracer substitutes its wrappers.
"""
from __future__ import annotations

import json
import sys
import traceback
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from epipower import baselines, batch, config, engine, game, harness

WORKLOADS = ("belief", "baselines")

# seed whose outputs are frozen in reference.json
REFERENCE_SEED = 42
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

NASH_NETWORKS = 40
SNCPC_NETWORKS = 20
SNCPC_NODES = 40
GAME_SIZES = (10, 25, 50)
WARMUP_TRIALS = 512  # one harness chunk


@dataclass
class Item:
    """One timed unit of a pass: a figure point or one explicit network."""

    name: str
    kind: str  # "scenario", "game", "nash" or "sncpc"
    trials: int
    args: dict = field(default_factory=dict)


@dataclass
class ItemResult:
    name: str
    seconds: float
    output: object = None
    error: str | None = None


def _figure_spec(figure: int, seed: int) -> harness.ScenarioSpec:
    """Figure defaults with the workload seed, resolved the way the CLI does."""
    return config.load_run_config(figure, env={"SEED": str(seed)}).spec


def _population_point(base, pct: float, label: str, workers: int):
    spec = replace(base, interference_fraction=pct / 100.0, workers=workers)
    return harness.policy_spec(spec, label)


def _scenario(name: str, spec: harness.ScenarioSpec) -> Item:
    return Item(name=name, kind="scenario", trials=spec.trials, args={"spec": spec})


def build_items(workload: str, seed: int, workers: int | None = None) -> list[Item]:
    """The fixed item list of one workload at one seed.

    ``workers`` overrides the pool size of Monte Carlo items; results
    are identical bytes for any worker count.
    """
    if workload == "belief":
        f3 = _figure_spec(3, seed)
        f5 = _figure_spec(5, seed)
        w = 1 if workers is None else workers
        point3 = replace(
            f3, conditioned_gain=0.5, sinr_threshold=10.0 ** (-24.0 / 10.0), workers=w
        )
        games, _ = _network_items(f5, seed)
        return [
            _scenario("fig3_g0.5_-24dB_M1", point3),
            _scenario("fig5_80pct_M1", _population_point(f5, 80.0, "M1", w)),
            _scenario("fig5_80pct_M4", _population_point(f5, 80.0, "M4", w)),
        ] + games
    if workload == "baselines":
        f5 = _figure_spec(5, seed)
        w = 2 if workers is None else workers
        _, solves = _network_items(f5, seed)
        return [
            _scenario(f"fig5_{pct}pct_{label}", _population_point(f5, pct, label, w))
            for pct in (70, 80)
            for label in ("SNCPC", "EPA")
        ] + solves
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def _network_items(f5: harness.ScenarioSpec, seed: int):
    """Explicit networks drawn from the seed for the scalar solvers.

    Returns the belief games (figure-5 grid and target) and the
    comparator solves (Nash with deviation scans, mixed-target S-NCPC),
    all from one stream so each network is the same in either list.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))
    games = []
    for n in GAME_SIZES:
        gains = rng.rayleigh(f5.rayleigh_sigma, n)
        network = game.NetworkState(
            nodes=tuple(
                game.NodeConfig(i, float(g), f5.sinr_threshold)
                for i, g in enumerate(gains)
            ),
            noise_power=f5.noise_power,
        )
        games.append(
            Item(f"game_N{n}", "game", 1, {"network": network, "spec": f5})
        )
    solves = []
    nash_grid = game.PowerGrid.linear(1001, 20.0)
    for j in range(NASH_NETWORKS):
        n = int(rng.integers(2, 5))
        network = game.NetworkState(
            nodes=tuple(
                game.NodeConfig(
                    i, float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.05, 0.3))
                )
                for i in range(n)
            ),
            noise_power=1.0,
        )
        solves.append(
            Item(f"nash_{j:02d}", "nash", 1, {"network": network, "grid": nash_grid})
        )
    targets_db = (-23.0, -20.0, -17.0)
    for j in range(SNCPC_NETWORKS):
        gains = rng.rayleigh(f5.rayleigh_sigma, SNCPC_NODES)
        thr = rng.choice(targets_db, SNCPC_NODES)
        network = game.NetworkState(
            nodes=tuple(
                game.NodeConfig(i, float(g), 10.0 ** (t / 10.0))
                for i, (g, t) in enumerate(zip(gains, thr))
            ),
            noise_power=f5.noise_power,
        )
        solves.append(
            Item(f"sncpc_{j:02d}", "sncpc", 1, {"network": network, "spec": f5})
        )
    return games, solves


def warmup_items(items: list[Item]) -> list[Item]:
    """A cheap pass that runs every code path of ``items`` once.

    Figure points shrink to one chunk of trials; of the explicit
    networks, the first of each kind runs.  Its results are neither
    timed nor checked.
    """
    warm, kinds = [], set()
    for item in items:
        if item.kind == "scenario":
            spec = replace(item.args["spec"], trials=min(item.trials, WARMUP_TRIALS))
            warm.append(_scenario(item.name, spec))
        elif item.kind not in kinds:
            kinds.add(item.kind)
            warm.append(item)
    return warm


def run_item(item: Item):
    """Run one item through the package's public entry points."""
    a = item.args
    if item.kind == "scenario":
        return harness.run_scenario(a["spec"])
    if item.kind == "game":
        spec = a["spec"]
        return engine.run_epistemic_game(
            a["network"], spec.grid, spec.policy, spec.prior, max_stages=spec.max_stages
        )
    if item.kind == "nash":
        res = game.solve_nash_full_csi(a["network"], a["grid"])
        scan = game.nash_deviation_scan(a["network"], a["grid"], res.powers)
        return res, scan
    if item.kind == "sncpc":
        spec = a["spec"]
        return baselines.sncpc_solve(
            a["network"], spec.grid, spec.prior, max_iter=spec.sncpc_max_iter
        )
    raise ValueError(f"unknown item kind {item.kind!r}")


def run_pass(items: list[Item], clock: Callable[[], float], on_item=None):
    """Time every item once; an item that raises is kept as a failed result."""
    results = []
    for item in items:
        if on_item is not None:
            on_item(item.name)
        start = clock()
        try:
            output = run_item(item)
        except Exception:  # one failing item must not hide the others
            seconds = clock() - start
            err = traceback.format_exc()
            print(f"item {item.name} raised:\n{err}", file=sys.stderr)
            results.append(ItemResult(item.name, seconds, error=err))
            continue
        results.append(ItemResult(item.name, clock() - start, output))
    return results


# -- correctness ---------------------------------------------------------------


def digest(item: Item, output) -> dict:
    """Exact, JSON-ready summary of an item's output (floats as hex)."""
    if item.kind == "scenario":
        return {
            f.name: _exact(getattr(output, f.name)) for f in fields(output)
        }
    if item.kind == "game":
        return {"profile": [float(p).hex() for p in output.profile]}
    if item.kind == "nash":
        res, scan = output
        return {
            "powers": [float(p).hex() for p in res.powers],
            "rounds": res.rounds,
            "scan": [[i, float(p).hex()] for i, p in scan],
        }
    return {
        "powers": [float(p).hex() for p in output.powers],
        "iterations": output.iterations,
        "converged": output.converged,
    }


def _exact(value):
    return float(value).hex() if isinstance(value, float) else value


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def check_item(item: Item, output, reference: dict | None) -> list[str]:
    """Problems with one item's output; an empty list means it passes.

    ``reference`` maps item names to frozen digests and is given only at
    the reference seed.
    """
    problems = []
    if item.kind == "scenario":
        problems += _check_scenario(item.args["spec"], output)
    elif item.kind == "game":
        problems += _check_game(item, output)
    elif item.kind == "nash":
        if output[1]:
            problems.append(f"deviation scan found {len(output[1])} profitable moves")
    else:
        problems += _check_sncpc(item, output)
    if reference is not None:
        want = reference.get(item.name)
        got = digest(item, output)
        if want != got:
            problems.append(f"differs from frozen reference: {got} != {want}")
    return problems


def _check_scenario(spec: harness.ScenarioSpec, m: harness.ScenarioMetrics):
    problems = []
    if m.outage != 1.0 - m.coverage:
        problems.append("outage != 1 - coverage")
    if m.trials_run != spec.trials:
        problems.append(f"trials_run {m.trials_run} != {spec.trials}")
    if not 0.0 <= m.coverage <= 1.0:
        problems.append(f"coverage {m.coverage} outside [0, 1]")
    if spec.solver == "epa" and m.avg_power != 1.0:
        problems.append(f"EPA avg_power {m.avg_power} != 1.0")
    if m.warning:
        problems.append(
            f"S-NCPC failure fraction {m.solver_failure_fraction} above the 1% warning"
        )
    return problems


def _check_game(item: Item, out) -> list[str]:
    """The scalar engine is the reference: the batch kernel must match it."""
    network, spec = item.args["network"], item.args["spec"]
    gains = np.asarray([n.gain for n in network.nodes])
    res = batch.epistemic_response(
        gains,
        n_active=len(network),
        sinr_threshold=spec.sinr_threshold,
        noise_power=network.noise_power,
        grid=spec.grid,
        policy=spec.policy,
        prior=spec.prior,
        max_stages=spec.max_stages,
    )
    if tuple(float(p) for p in res.powers) != out.profile:
        return ["game profile differs from batch.epistemic_response"]
    return []


def _check_sncpc(item: Item, out) -> list[str]:
    """Converged, and every node sits on its exhaustive-scan best response."""
    network, spec = item.args["network"], item.args["spec"]
    if not out.converged:
        return [f"S-NCPC did not converge in {out.iterations} iterations"]
    levels = spec.grid.as_array()
    p = np.asarray(out.powers)
    lam = spec.prior.lam
    for i, node in enumerate(network.nodes):
        slope = node.gain_sq / ((p.sum() - p[i]) / lam + network.noise_power)
        ok = np.nonzero(slope * levels >= node.sinr_threshold)[0]
        want = levels[ok[0]] if ok.size else levels[-1]
        if p[i] != want:
            return [f"node {i} at {p[i]} but its best response is {want}"]
    return []


def pass_digests(items: list[Item], results: list[ItemResult]) -> list:
    """Exact summaries of a pass's outputs; None where an item raised."""
    return [
        None if r.error else digest(item, r.output) for item, r in zip(items, results)
    ]


def differing_items(items: list[Item], a: list, b: list) -> list[str]:
    """Items whose digests differ between two passes; raised items are skipped."""
    return [
        item.name
        for item, da, db in zip(items, a, b)
        if da is not None and db is not None and da != db
    ]


def trials_of(items: list[Item]) -> int:
    return sum(item.trials for item in items)


def describe(item: Item) -> dict:
    """Provenance view of an item: what it runs and how many trials."""
    if item.kind != "scenario":
        return {"name": item.name, "kind": item.kind, "trials": item.trials}
    spec = item.args["spec"]
    return {
        "name": item.name,
        "kind": item.kind,
        "trials": spec.trials,
        "solver": spec.solver,
        "moment_order": spec.policy.moment_order,
        "load": spec.interference_fraction,
        "levels": len(spec.grid),
        "max_stages": spec.max_stages,
        "workers": spec.workers,
        "seed": spec.seed,
    }

