"""Command line front end.

Exit codes: 0 on success, 1 when a solver fails to converge, a Nash
profile has a profitable deviation or a Monte Carlo run exceeds its
solver-failure budget, 2 on usage or config errors.
"""
from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__
from .baselines import sncpc_solve
from .config import FIGURES, ConfigError, figure_defaults, load_run_config
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
from .harness import _POLICIES, CHUNK_TRIALS, POLICY_LABELS, db_to_linear, sweep
from .moments import (
    DEFAULT_TRUNCATION,
    RayleighPrior,
    fit_gamma_mme,
    inverse_shifted_moment,
)

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_USAGE = 2

# the figure labels plus full-information Nash, which only solve plays
_SOLVE_LABELS = (*POLICY_LABELS, "NASH")


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats: {text!r}")


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
                      help="exponential rate of squared gains (default: "
                           "the rate of --sigma)")
    rate.add_argument("--sigma", type=float, default=None,
                      help="Rayleigh scale of amplitudes, rate = 1/(2 sigma^2) "
                           "(default 1)")
    fit.add_argument("--eta", type=float, default=0.0,
                     help="deterministic shift added to the interference")
    fit.add_argument("--moment", type=int, default=None,
                     help="order k of E[1/(Y+eta)^k] to report (default 1)")
    fit.add_argument("--truncation", type=int, default=None,
                     help=f"series expansion order (default {DEFAULT_TRUNCATION})")

    solve = sub.add_parser("solve", help="solve one small network explicitly")
    solve.add_argument("label", help="the policy: " + ", ".join(_SOLVE_LABELS))
    solve.add_argument("--gains", type=_float_list, required=True,
                       help="true channel amplitudes, one per node")
    solve.add_argument("--thresholds-db", type=_float_list, required=True,
                       help="per-node SINR targets in dB")
    solve.add_argument("--noise-db", type=float, default=0.0,
                       help="noise power in dB (linear 10^(x/10))")
    solve.add_argument("--sigma", type=float, default=None,
                       help="M1..M4 and SNCPC only: Rayleigh scale of the gain "
                            "prior (default 1)")
    solve.add_argument("--grid-levels", type=int, default=1201)
    solve.add_argument("--p-max", type=float, default=120.0)
    solve.add_argument("--max-stages", type=int, default=None,
                       help="M1..M4 only: belief depth, the cap on reasoning "
                            "sweeps (default 50)")
    solve.add_argument("--exhaustive", action="store_true",
                       help="M1..M4 only: scan every grid level per update "
                            "(reports true hypothesis-evaluation counts)")

    fig = sub.add_parser("figure", help="run one of the canned Monte Carlo sweeps")
    fig.add_argument("number", type=int, choices=FIGURES)
    fig.add_argument("--out", help="CSV output path (required to run the sweep)")
    fig.add_argument("--config", default=None, help="INI file overriding defaults")
    fig.add_argument("--workers", type=int, default=1,
                     help=f"process count, at most one per {CHUNK_TRIALS}-trial "
                          "chunk and per core; cannot change the output")
    fig.add_argument("--print-defaults", action="store_true",
                     help="show every key this figure accepts with its default "
                          "and exit")

    sub.add_parser("selftest", help="run a quick internal consistency battery")
    return parser


# -- fit-gamma ---------------------------------------------------------------


def _cmd_fit_gamma(args) -> int:
    try:
        if args.rate is not None:
            lam = args.rate
        else:
            lam = RayleighPrior(sigma=1.0 if args.sigma is None else args.sigma).lam
        if not args.eta > 0.0 and (args.moment, args.truncation) != (None, None):
            raise ValueError("--moment and --truncation need --eta > 0")
        model = fit_gamma_mme(args.powers, lam=lam, eta=args.eta)
        moment = 1 if args.moment is None else args.moment
        truncation = DEFAULT_TRUNCATION if args.truncation is None else args.truncation
        if args.eta > 0.0:
            with np.errstate(all="ignore"):
                sv = inverse_shifted_moment(model, moment, truncation)
            if not 0.0 < sv.value < math.inf:
                raise ValueError(f"E[1/(Y+eta)^{moment}] = {sv.value:g} "
                                 "is outside float range")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"alpha_hat = {_fmt(model.alpha_hat)}")
    print(f"theta_hat = {_fmt(model.theta_hat)}")
    print(f"mean      = {_fmt(model.mean)}")
    print(f"variance  = {_fmt(model.variance)}")
    if args.eta > 0.0:
        print(
            f"E[1/(Y+eta)^{moment}] = {_fmt(sv.value)} "
            f"(terms={sv.terms_used}, {sv.status})"
        )
    return EXIT_OK


# -- solve -------------------------------------------------------------------


def _build_network(args) -> tuple[NetworkState, PowerGrid]:
    if len(args.gains) != len(args.thresholds_db):
        raise ValueError("--gains and --thresholds-db must have equal length")
    nodes = tuple(
        NodeConfig(node_id=i, gain=g, sinr_threshold=db_to_linear(t))
        for i, (g, t) in enumerate(zip(args.gains, args.thresholds_db))
    )
    for node in nodes:
        if node.gain_sq == np.inf:
            raise ValueError(f"gain {node.gain:g}: its square is beyond float range")
    network = NetworkState(nodes=nodes, noise_power=db_to_linear(args.noise_db))
    grid = PowerGrid.linear(n_levels=args.grid_levels, p_max=args.p_max)
    return network, grid


def _print_profile(network: NetworkState, powers, feasible=None) -> None:
    """One line per node; ``feasible`` defaults to the realised SINR test."""
    realized = sinr(network.gains_sq(), powers, network.noise_power).tolist()
    for i, (node, p) in enumerate(zip(network.nodes, powers)):
        ok = realized[i] >= node.sinr_threshold if feasible is None else feasible[i]
        print(
            f"node {node.node_id}: power={_fmt(p)} feasible={ok} "
            f"realized_sinr={_fmt(realized[i])} target={_fmt(node.sinr_threshold)}"
        )


def _cmd_solve(args) -> int:
    try:
        if args.label not in _SOLVE_LABELS:
            raise ValueError(
                f"unknown policy label {args.label!r}; expected one of {_SOLVE_LABELS}"
            )
        solver, moment_order = _POLICIES.get(args.label, ("nash", None))
        for option, given, readers in (
            ("--max-stages", args.max_stages is not None, ("epistemic",)),
            ("--exhaustive", args.exhaustive, ("epistemic",)),
            ("--sigma", args.sigma is not None, ("epistemic", "sncpc")),
        ):
            if given and solver not in readers:
                raise ValueError(f"{args.label} does not read {option}")
        network, grid = _build_network(args)
        prior = RayleighPrior(sigma=1.0 if args.sigma is None else args.sigma)
        max_stages = 50 if args.max_stages is None else args.max_stages
        if max_stages < 1:
            raise ValueError(f"--max-stages must be at least 1, got {max_stages}")
        if solver == "epistemic":
            EpistemicPolicy(moment_order).check_grid(
                len(network), grid, network.noise_power, prior.lam
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if solver == "nash":
        try:
            result = solve_nash_full_csi(network, grid)
        except NonConvergenceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_SOLVER
        _print_profile(network, result.powers, result.feasible)
        deviations = nash_deviation_scan(network, grid, result.powers)
        print(f"rounds = {result.rounds}")
        print(f"profitable_deviations = {len(deviations)}")
        return EXIT_SOLVER if deviations else EXIT_OK

    if solver == "epistemic":
        outcome = run_epistemic_game(
            network,
            grid,
            EpistemicPolicy(moment_order),
            prior,
            max_stages=max_stages,
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

    if solver == "epa":
        # the harness scores EPA by realised SINR, so feasible is that test
        _print_profile(network, (grid.p_max,) * len(network))
        return EXIT_OK

    result = sncpc_solve(network, grid, prior)
    _print_profile(network, result.powers, result.feasible)
    print(f"iterations = {result.iterations}")
    print(f"converged = {result.converged}")
    return EXIT_OK if result.converged else EXIT_SOLVER


# -- figure ------------------------------------------------------------------


def _cmd_figure(args) -> int:
    if args.print_defaults:
        for section, kv in figure_defaults(args.number).items():
            print(f"[{section}]")
            for key, value in kv.items():
                print(f"{key} = {value}")
            print()
        return EXIT_OK
    if args.out is None:
        print("error: the following arguments are required: --out", file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg = load_run_config(args.number, args.config, workers_override=args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    comments = [f"figure = {args.number}", f"metric = {cfg.metric}", *cfg.stamp_lines()]
    columns = [column for column, _ in cfg.axes]
    try:
        # opened before the first point runs, so a bad path costs no run
        fh = open(args.out, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    with fh:
        rows = sweep(cfg.spec, cfg.axes)
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns + ["metric", "ci"]) + "\n")
        for row in rows:
            cells = [row[c] for c in columns]
            cells += [getattr(row["metrics"], f) for f in (cfg.metric, cfg.metric_ci)]
            fh.write(",".join(map(_fmt, cells)) + "\n")
    print(f"wrote {len(rows)} rows to {args.out}")
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

    shifted = fit_gamma_mme([1.0, 1.0, 1.0], lam=0.5, eta=100.0)
    checks.append(("erlang fit alpha", shifted.alpha_hat == 3.0))
    checks.append(("erlang fit theta", shifted.theta_hat == 2.0))

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
    args = build_parser().parse_args(argv)
    commands = {"fit-gamma": _cmd_fit_gamma, "solve": _cmd_solve, "figure": _cmd_figure}
    return commands.get(args.command, _cmd_selftest)(args)


if __name__ == "__main__":
    sys.exit(main())
