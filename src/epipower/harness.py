"""Monte Carlo evaluation of the power-control schemes.

One trial draws fresh Rayleigh amplitudes for the whole population,
picks the transmitting subset, lets every transmitter choose its power
by the configured scheme, then scores the realised SINRs against the
target.  Two scenario shapes are supported:

* conditioned: node 0 gets a fixed, known amplitude and is the only
  node scored (its rivals are drawn and active, but only node 0's
  coverage and power enter the metrics);
* population: the active subset is drawn from everyone and metrics
  average over all active nodes.

Trials are processed in fixed-size chunks whose RNG streams depend only
on (master seed, trial index), so results are identical bytes no matter
how many worker processes are used.
"""
from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .batch import epistemic_response, sncpc_response
from .engine import EpistemicPolicy
from .game import PowerGrid
from .moments import RayleighPrior

__all__ = [
    "CHUNK_TRIALS",
    "ScenarioSpec",
    "ScenarioMetrics",
    "run_scenario",
    "sweep",
    "POLICY_LABELS",
]

CHUNK_TRIALS = 512

SOLVER_EPISTEMIC = "epistemic"
SOLVER_EPA = "epa"
SOLVER_SNCPC = "sncpc"
_SOLVERS = (SOLVER_EPISTEMIC, SOLVER_EPA, SOLVER_SNCPC)

# labels accepted in sweep policy lists
POLICY_LABELS = ("M1", "M2", "M3", "M4", "EPA", "SNCPC")


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything one Monte Carlo evaluation point depends on."""

    grid: PowerGrid
    n_nodes: int = 100
    rayleigh_sigma: float = 1.0
    noise_power: float = 1e-12
    sinr_threshold: float = 0.01
    interference_fraction: float = 1.0
    solver: str = SOLVER_EPISTEMIC
    policy: EpistemicPolicy = field(default_factory=EpistemicPolicy)
    max_stages: int = 1
    epa_level: float | None = None
    sncpc_max_iter: int = 2000
    trials: int = 10000
    seed: int = 42
    conditioned_gain: float | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be at least 1")
        if not self.rayleigh_sigma > 0.0:
            raise ValueError("rayleigh_sigma must be positive")
        if not self.noise_power > 0.0:
            raise ValueError("noise_power must be positive")
        if not self.sinr_threshold > 0.0:
            raise ValueError("sinr_threshold must be positive")
        if not 0.0 <= self.interference_fraction <= 1.0:
            raise ValueError("interference_fraction must be in [0, 1]")
        if self.solver not in _SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.max_stages < 1:
            raise ValueError("max_stages must be at least 1")
        if self.sncpc_max_iter < 1:
            raise ValueError("sncpc_max_iter must be at least 1")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.conditioned_gain is not None and not self.conditioned_gain > 0.0:
            raise ValueError("conditioned_gain must be positive")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.epa_level is not None:
            try:
                self.grid.index_of(self.epa_level)
            except ValueError as exc:
                msg = f"epa_level {exc} ([baselines] epa_level_linear)"
                raise ValueError(msg) from None
        if self.active_count < 1:
            raise ValueError(
                "scenario has no transmitters; raise "
                "interference_fraction or n_nodes"
            )

    @property
    def conditioned(self) -> bool:
        return self.conditioned_gain is not None

    @property
    def active_count(self) -> int:
        """Number of simultaneous transmitters in every trial."""
        drawn = math.ceil(self.interference_fraction * self.n_nodes)
        if self.conditioned_gain is not None:
            return 1 + min(drawn, self.n_nodes - 1)
        return min(drawn, self.n_nodes)

    @property
    def prior(self) -> RayleighPrior:
        return RayleighPrior(sigma=self.rayleigh_sigma)


@dataclass(frozen=True)
class ScenarioMetrics:
    """Aggregated result of one evaluation point."""

    coverage: float
    outage: float
    avg_power: float
    ci_halfwidth: float
    power_ci: float
    trials_run: int
    warning: bool
    stage_cap_fraction: float
    solver_failure_fraction: float


def _chunk_gains(spec: ScenarioSpec, chunk_index: int) -> np.ndarray:
    """Amplitudes of the active transmitters, one row per trial in the chunk.

    Each trial owns an independent generator keyed by (seed, trial), so
    chunk boundaries and worker scheduling cannot leak into the draws.
    In conditioned scenarios column 0 is the fixed desired node.
    """
    start = chunk_index * CHUNK_TRIALS
    stop = min(start + CHUNK_TRIALS, spec.trials)
    n_active = spec.active_count
    out = np.empty((stop - start, n_active), dtype=np.float64)
    for trial in range(start, stop):
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, trial]))
        amps = rng.rayleigh(spec.rayleigh_sigma, spec.n_nodes)
        if spec.conditioned_gain is not None:
            amps[0] = spec.conditioned_gain
            rivals = 1 + rng.permutation(spec.n_nodes - 1)[: n_active - 1]
            out[trial - start, 0] = amps[0]
            out[trial - start, 1:] = amps[rivals]
        else:
            chosen = rng.permutation(spec.n_nodes)[:n_active]
            out[trial - start] = amps[chosen]
    return out


def _run_chunk(spec: ScenarioSpec, chunk_index: int):
    """Solve one chunk; returns per-trial coverage and power plus counters."""
    gains = _chunk_gains(spec, chunk_index)
    n_trials, n_active = gains.shape
    capped_rows = 0
    failed_trials = 0

    if spec.solver == SOLVER_EPISTEMIC:
        res = epistemic_response(
            gains.ravel(),
            n_active=n_active,
            sinr_threshold=spec.sinr_threshold,
            noise_power=spec.noise_power,
            grid=spec.grid,
            policy=spec.policy,
            prior=spec.prior,
            max_stages=spec.max_stages,
        )
        powers = res.powers.reshape(gains.shape)
        capped_rows = int((~res.converged).sum())
    elif spec.solver == SOLVER_EPA:
        level = spec.epa_level if spec.epa_level is not None else spec.grid.p_max
        powers = np.full(gains.shape, float(level))
    else:
        res = sncpc_response(
            gains,
            sinr_threshold=spec.sinr_threshold,
            noise_power=spec.noise_power,
            grid=spec.grid,
            prior=spec.prior,
            max_iter=spec.sncpc_max_iter,
        )
        powers = res.powers
        failed_trials = int((~res.converged).sum())

    received = gains * gains * powers
    total = received.sum(axis=1, keepdims=True)
    realized = received / ((total - received) + spec.noise_power)
    covered = realized >= spec.sinr_threshold

    if spec.conditioned_gain is not None:
        trial_cov = covered[:, 0].astype(np.float64)
        trial_pwr = powers[:, 0].copy()
    else:
        trial_cov = covered.mean(axis=1)
        trial_pwr = powers.mean(axis=1)
    return trial_cov, trial_pwr, capped_rows, failed_trials, n_trials * n_active


def run_scenario(spec: ScenarioSpec) -> ScenarioMetrics:
    """Run all trials of one evaluation point and aggregate the metrics.

    The per-trial series is assembled in chunk order whatever the worker
    count, so a given spec always produces identical bytes.
    """
    n_chunks = math.ceil(spec.trials / CHUNK_TRIALS)
    worker = partial(_run_chunk, spec)
    if spec.workers <= 1 or n_chunks == 1:
        parts = [worker(c) for c in range(n_chunks)]
    else:
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            parts = list(pool.map(worker, range(n_chunks)))

    cov = np.concatenate([p[0] for p in parts])
    pwr = np.concatenate([p[1] for p in parts])
    capped = sum(p[2] for p in parts)
    failed = sum(p[3] for p in parts)
    total_rows = sum(p[4] for p in parts)

    coverage = float(cov.mean())
    # powers are reported as a fraction of the top grid level
    avg_power = float(pwr.mean()) / spec.grid.p_max
    if spec.trials < 2:
        ci = 0.0
        power_ci = 0.0
    else:
        root_trials = math.sqrt(spec.trials)
        ci = 1.96 * float(cov.std(ddof=1)) / root_trials
        power_ci = 1.96 * float(pwr.std(ddof=1)) / root_trials / spec.grid.p_max
    failure_fraction = failed / spec.trials
    return ScenarioMetrics(
        coverage=coverage,
        outage=1.0 - coverage,
        avg_power=avg_power,
        ci_halfwidth=ci,
        power_ci=power_ci,
        trials_run=spec.trials,
        warning=failure_fraction > 0.01,
        stage_cap_fraction=(capped / total_rows) if total_rows else 0.0,
        solver_failure_fraction=failure_fraction,
    )


def policy_spec(base: ScenarioSpec, label: str) -> ScenarioSpec:
    """Specialise a base spec to one of the sweep policy labels."""
    if label.startswith("M") and label[1:].isdigit():
        order = int(label[1:])
        return replace(
            base,
            solver=SOLVER_EPISTEMIC,
            policy=replace(base.policy, moment_order=order),
        )
    if label == "EPA":
        return replace(base, solver=SOLVER_EPA)
    if label == "SNCPC":
        return replace(base, solver=SOLVER_SNCPC)
    raise ValueError(f"unknown policy label {label!r}")


# swept CSV column -> how one value of it specialises a spec
_AXES = {
    "gain": lambda spec, v: replace(spec, conditioned_gain=v),
    "threshold_db": lambda spec, v: replace(spec, sinr_threshold=10.0 ** (v / 10.0)),
    "interference_pct": lambda spec, v: replace(spec, interference_fraction=v / 100.0),
    "policy": policy_spec,
}


def sweep(base: ScenarioSpec, axes: tuple[tuple[str, tuple], ...]) -> list[dict]:
    """Metrics at every point of the product of named axes, first axis outermost.

    ``axes`` holds (column, values) pairs with columns from ``_AXES``.
    The same master seed is reused at every point, so curves differ only
    through the parameters under sweep, not through resampling noise.
    """
    columns = [column for column, _ in axes]
    rows = []
    for point in itertools.product(*(values for _, values in axes)):
        spec = base
        for column, value in zip(columns, point):
            spec = _AXES[column](spec, value)
        rows.append({**dict(zip(columns, point)), "metrics": run_scenario(spec)})
    return rows
