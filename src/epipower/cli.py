"""Command line front end.

Exit codes: 0 on success, 1 when a solver fails to converge or a Monte
Carlo run exceeds its solver-failure budget, 2 on usage or config
errors.
"""
from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__
from .baselines import epa_profile, sncpc_solve
from .config import ConfigError, figure_defaults, load_run_config
from .engine import EpistemicPolicy, run_epistemic_game
from .game import (
    NetworkState,
    NodeConfig,
    NonConvergenceError,
    PowerGrid,
    nash_deviation_scan,
    sinr,
    solve_nash_full_csi,
)
from .harness import run_scenario, sweep
from .moments import (
    RayleighPrior,
    fit_gamma_mme,
    inverse_shifted_moment,
)

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_USAGE = 2


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats: {text!r}")


def _db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _fmt(x: float | str) -> str:
    return x if isinstance(x, str) else f"{x:.9g}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epipower",
        description=(
            "Distributed uplink power control under channel uncertainty: "
            "moment fits, game solvers and Monte Carlo sweeps."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser(
        "fit-gamma", help="moment-match a Gamma model to an interferer power list"
    )
    fit.add_argument("--powers", type=_float_list, required=True,
                     help="comma separated interferer powers")
    rate = fit.add_mutually_exclusive_group()
    rate.add_argument("--rate", "--lambda", dest="rate", type=float, default=None,
                      help="exponential rate of squared gains (default 0.5)")
    rate.add_argument("--sigma", type=float, default=None,
                      help="Rayleigh scale of amplitudes (rate = 1/(2 sigma^2))")
    fit.add_argument("--eta", type=float, default=0.0,
                     help="deterministic shift added to the interference")
    fit.add_argument("--moment", type=int, default=1,
                     help="order k of E[1/(Y+eta)^k] to report (needs eta > 0)")
    fit.add_argument("--truncation", type=int, default=4,
                     help="expansion order of the inverse-moment series")

    solve = sub.add_parser("solve", help="solve one small network explicitly")
    solve.add_argument("scheme", choices=["nash", "epistemic", "epa", "sncpc"])
    solve.add_argument("--gains", type=_float_list, required=True,
                       help="true channel amplitudes, one per node")
    solve.add_argument("--thresholds-db", type=_float_list, required=True,
                       help="per-node SINR targets in dB")
    solve.add_argument("--noise-db", type=float, default=0.0,
                       help="noise power in dB (linear 10^(x/10))")
    solve.add_argument("--sigma", type=float, default=1.0,
                       help="Rayleigh scale of the gain prior")
    solve.add_argument("--grid-levels", type=int, default=1201)
    solve.add_argument("--p-max", type=float, default=120.0)
    solve.add_argument("--max-stages", type=int, default=50,
                       help="sweep cap for epistemic / round cap for nash, sncpc")
    solve.add_argument("--moment-order", type=int, default=1)
    solve.add_argument("--truncation", type=int, default=4)
    solve.add_argument("--epa-level", type=float, default=None)
    solve.add_argument("--exhaustive", action="store_true",
                       help="scan every grid level per update (reports true "
                            "hypothesis-evaluation counts)")

    fig = sub.add_parser("figure", help="run one of the canned Monte Carlo sweeps")
    fig.add_argument("number", type=int, choices=[3, 4, 5, 6])
    fig.add_argument("--out", required=True, help="CSV output path")
    fig.add_argument("--config", default=None, help="INI file overriding defaults")
    fig.add_argument("--workers", type=int, default=None,
                     help="process count (overrides config)")
    fig.add_argument("--print-defaults", action="store_true",
                     help="show the resolved defaults for this figure and exit")

    sub.add_parser("selftest", help="run a quick internal consistency battery")
    return parser


# -- fit-gamma ---------------------------------------------------------------


def _cmd_fit_gamma(args) -> int:
    if args.rate is not None:
        lam = args.rate
    elif args.sigma is not None:
        lam = RayleighPrior(sigma=args.sigma).lam
    else:
        lam = 0.5
    try:
        model = fit_gamma_mme(args.powers, lam=lam, eta=args.eta)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"alpha_hat = {_fmt(model.alpha_hat)}")
    print(f"theta_hat = {_fmt(model.theta_hat)}")
    print(f"mean      = {_fmt(model.mean)}")
    print(f"variance  = {_fmt(model.variance)}")
    if args.eta > 0.0:
        sv = inverse_shifted_moment(model, k=args.moment, truncation=args.truncation)
        print(
            f"E[1/(Y+eta)^{args.moment}] = {_fmt(sv.value)} "
            f"(terms={sv.terms_used}, {sv.status})"
        )
    return EXIT_OK


# -- solve -------------------------------------------------------------------


def _build_network(args) -> tuple[NetworkState, PowerGrid]:
    if len(args.gains) != len(args.thresholds_db):
        raise ValueError("--gains and --thresholds-db must have equal length")
    nodes = tuple(
        NodeConfig(
            node_id=i,
            gain=g,
            sinr_threshold=_db_to_linear(t),
        )
        for i, (g, t) in enumerate(zip(args.gains, args.thresholds_db))
    )
    network = NetworkState(nodes=nodes, noise_power=_db_to_linear(args.noise_db))
    grid = PowerGrid.linear(n_levels=args.grid_levels, p_max=args.p_max)
    return network, grid


def _print_profile(network: NetworkState, powers, feasible) -> None:
    for node, p, ok in zip(network.nodes, powers, feasible):
        realized = sinr(network, list(powers), node.node_id)
        print(
            f"node {node.node_id}: power={_fmt(p)} feasible={ok} "
            f"realized_sinr={_fmt(realized)} target={_fmt(node.sinr_threshold)}"
        )


def _cmd_solve(args) -> int:
    try:
        network, grid = _build_network(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    prior = RayleighPrior(sigma=args.sigma)

    if args.scheme == "nash":
        try:
            result = solve_nash_full_csi(network, grid, max_rounds=args.max_stages)
        except NonConvergenceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_SOLVER
        _print_profile(network, result.powers, result.feasible)
        deviations = nash_deviation_scan(network, grid, result.powers)
        print(f"rounds = {result.rounds}")
        print(f"profitable_deviations = {len(deviations)}")
        return EXIT_OK

    if args.scheme == "epistemic":
        policy = EpistemicPolicy(
            moment_order=args.moment_order, truncation=args.truncation
        )
        outcome = run_epistemic_game(
            network,
            grid,
            policy,
            prior,
            max_stages=args.max_stages,
            exhaustive=args.exhaustive,
        )
        feasible = [n.feasible for n in outcome.nodes]
        _print_profile(network, outcome.profile, feasible)
        for n in outcome.nodes:
            print(
                f"node {n.node_id}: stages={n.stages_run} "
                f"converged={n.converged} evaluations={n.eu_evaluations}"
            )
        print(f"total_evaluations = {outcome.eu_evaluations}")
        return EXIT_OK if outcome.converged else EXIT_SOLVER

    if args.scheme == "epa":
        level = args.epa_level if args.epa_level is not None else grid.p_max
        try:
            powers = epa_profile(network, grid, level)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        _print_profile(network, powers, [True] * len(network))
        return EXIT_OK

    result = sncpc_solve(network, grid, prior, max_iter=args.max_stages)
    _print_profile(network, result.powers, result.feasible)
    print(f"iterations = {result.iterations}")
    print(f"converged = {result.converged}")
    return EXIT_OK if result.converged else EXIT_SOLVER


# -- figure ------------------------------------------------------------------


def _write_csv(path: str, comment_lines, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in comment_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


# reported metric -> (value field, CI field) of ScenarioMetrics
_METRIC_FIELDS = {
    "avg_power": ("avg_power", "power_ci"),
    "coverage": ("coverage", "ci_halfwidth"),
    "outage": ("outage", "ci_halfwidth"),
}


def _cmd_figure(args) -> int:
    if args.print_defaults:
        for section, kv in figure_defaults(args.number).items():
            print(f"[{section}]")
            for key, value in kv.items():
                print(f"{key} = {value}")
            print()
        return EXIT_OK
    try:
        cfg = load_run_config(
            args.number, path=args.config, workers_override=args.workers
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    comments = [
        f"figure = {args.number}",
        f"metric = {cfg.metric}",
        *cfg.stamp_lines(),
    ]
    columns = [column for column, _ in cfg.axes]
    fields = _METRIC_FIELDS[cfg.metric]
    rows = sweep(cfg.spec, cfg.axes)
    out_rows = [
        [_fmt(row[c]) for c in columns]
        + [_fmt(getattr(row["metrics"], f)) for f in fields]
        for row in rows
    ]
    _write_csv(args.out, comments, columns + ["metric", "ci"], out_rows)
    print(f"wrote {len(out_rows)} rows to {args.out}")
    for row in rows:
        m = row["metrics"]
        if m.stage_cap_fraction > 0.0:
            keys = {k: v for k, v in row.items() if k != "metrics"}
            print(
                f"note: stage cap reached for {m.stage_cap_fraction:.1%} "
                f"of reasoning rows at {keys}"
            )
    if any(row["metrics"].warning for row in rows):
        print(
            "warning: solver failure fraction exceeded 1% at one or more points",
            file=sys.stderr,
        )
        return EXIT_SOLVER
    return EXIT_OK


# -- selftest ----------------------------------------------------------------


def _cmd_selftest(_args) -> int:
    from .oracles import quadrature_inverse_moment

    checks: list[tuple[str, bool]] = []

    model = fit_gamma_mme([1.0, 1.0, 1.0], lam=0.5)
    checks.append(("erlang fit alpha", model.alpha_hat == 3.0))
    checks.append(("erlang fit theta", model.theta_hat == 2.0))

    shifted = model.with_eta(100.0)
    series = inverse_shifted_moment(shifted, 1, truncation=4)
    quad = quadrature_inverse_moment(shifted, k=1)
    rel = abs(series.value - quad) / quad
    checks.append(("series vs quadrature", rel < 1e-6))

    nodes = (
        NodeConfig(node_id=0, gain=0.2, sinr_threshold=0.8),
        NodeConfig(node_id=1, gain=0.1, sinr_threshold=0.4),
    )
    network = NetworkState(nodes=nodes, noise_power=1.0)
    grid = PowerGrid.linear(n_levels=1201, p_max=120.0)
    result = solve_nash_full_csi(network, grid)
    exact = np.linalg.solve(
        np.array([[0.04, -0.8 * 0.01], [-0.4 * 0.04, 0.01]]),
        np.array([0.8, 0.4]),
    )
    close = all(abs(p - e) < 1.0 for p, e in zip(result.powers, exact))
    empty = not nash_deviation_scan(network, grid, result.powers)
    checks.append(("two-node equilibrium near closed form", close))
    checks.append(("no profitable deviation", empty))

    failures = 0
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}: {name}")
        failures += 0 if ok else 1
    return EXIT_OK if failures == 0 else EXIT_SOLVER


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "fit-gamma":
        return _cmd_fit_gamma(args)
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "figure":
        return _cmd_figure(args)
    return _cmd_selftest(args)


if __name__ == "__main__":
    sys.exit(main())
