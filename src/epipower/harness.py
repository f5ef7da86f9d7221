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
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .batch import epistemic_response, sncpc_response
from .engine import EpistemicPolicy
from .game import MAX_SWEEPS, PowerGrid, sinr
from .moments import RayleighPrior

__all__ = [
    "CHUNK_TRIALS",
    "db_to_linear",
    "ScenarioSpec",
    "ScenarioMetrics",
    "run_scenario",
    "sweep",
    "POLICY_LABELS",
]

CHUNK_TRIALS = 512

# policy label -> (solver, moment order); the comparators ignore the order
_POLICIES = {
    "M1": ("epistemic", 1),
    "M2": ("epistemic", 2),
    "M3": ("epistemic", 3),
    "M4": ("epistemic", 4),
    "EPA": ("epa", 1),
    "SNCPC": ("sncpc", 1),
}
POLICY_LABELS = tuple(_POLICIES)


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything one Monte Carlo evaluation point depends on.

    ``label`` names the policy (one of ``POLICY_LABELS``); ``solver`` and
    ``policy`` are read from it.  EPA transmits at the grid's p_max.
    """

    grid: PowerGrid
    n_nodes: int = 100
    rayleigh_sigma: float = 1.0
    noise_power: float = 1e-12
    sinr_threshold: float = 0.01
    interference_fraction: float = 1.0
    label: str = "M1"
    max_stages: int = 1
    sncpc_max_iter: int = MAX_SWEEPS
    trials: int = 10000
    seed: int = 42
    conditioned_gain: float | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be at least 1")
        self.prior  # raises unless the gain rate 1/(2 sigma^2) is finite
        if not self.noise_power > 0.0:
            raise ValueError("noise_power must be positive")
        if not self.sinr_threshold > 0.0:
            raise ValueError("sinr_threshold must be positive")
        if not 0.0 <= self.interference_fraction <= 1.0:
            raise ValueError("interference_fraction must be in [0, 1]")
        if self.label not in _POLICIES:
            raise ValueError(
                f"unknown policy label {self.label!r}; expected one of {POLICY_LABELS}"
            )
        if self.max_stages < 1:
            raise ValueError("max_stages must be at least 1")
        if self.solver == "epistemic":
            self.policy.check_grid(
                self.n_nodes, self.grid, self.noise_power, self.prior.lam
            )
        if self.sncpc_max_iter < 1:
            raise ValueError("sncpc_max_iter must be at least 1")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.trials > 2**32:
            # each trial index must be one 32-bit word of its seed's entropy
            raise ValueError("trials must be at most 2**32")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.conditioned_gain is not None and not (
            0.0 < self.conditioned_gain
            and self.conditioned_gain * self.conditioned_gain < math.inf
        ):
            raise ValueError("conditioned_gain must be positive with a finite square")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.active_count < 1:
            raise ValueError(
                "scenario has no transmitters; raise "
                "interference_fraction or n_nodes"
            )

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

    @property
    def solver(self) -> str:
        return _POLICIES[self.label][0]

    @property
    def policy(self) -> EpistemicPolicy:
        return EpistemicPolicy(moment_order=_POLICIES[self.label][1])


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


# numpy's SeedSequence with its default pool of four 32-bit words (NEP 19;
# numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_XSHIFT = np.uint32(16)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hashmix(init: int, mult: int):
    """numpy's ``hashmix``; each call consumes the next hash constant."""
    hash_const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> _XSHIFT)


def _trial_seed_words(seed: int, trials: np.ndarray) -> np.ndarray:
    """``SeedSequence([seed, t]).generate_state(4, np.uint64)``, one row per t.

    numpy's algorithm run on uint32 columns, one lane per trial; uint32
    arithmetic wraps as numpy's does.  The entropy is the seed's 32-bit
    words, least significant first, then the trial index, which is one
    word because ``ScenarioSpec`` keeps trial indices below 2**32.
    """
    n_words = max(1, -(-seed.bit_length() // 32))  # 0 is one word, [0]
    entropy = [
        np.full(trials.shape, (seed >> 32 * k) & _MASK32, dtype=np.uint32)
        for k in range(n_words)
    ]
    entropy.append(trials.astype(np.uint32))
    hashmix = _hashmix(_INIT_A, _MULT_A)
    zero = np.zeros(trials.shape, dtype=np.uint32)
    pool = [
        hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)
    ]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state: eight uint32 outputs cycling over the pool, read as
    # four little-endian uint64 words
    hashmix = _hashmix(_INIT_B, _MULT_B)
    out = np.stack([hashmix(pool[k % _POOL_SIZE]) for k in range(8)], axis=1)
    return out.astype("<u4").view("<u8")


class _TrialSeed(ISeedSequence):
    """``SeedSequence([seed, t])`` as PCG64 reads it: one ``_trial_seed_words`` row."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, np.dtype(dtype)) != (_POOL_SIZE, np.uint64):
            raise ValueError("a trial seed holds only PCG64's four uint64 words")
        return self.words


def _chunk_gains(spec: ScenarioSpec, chunk_index: int) -> np.ndarray:
    """Amplitudes of the active transmitters, one row per trial in the chunk.

    Trial t draws from ``default_rng(SeedSequence([seed, t]))``, so chunk
    boundaries and worker scheduling cannot leak into the draws.  The
    chunk hashes all its trial seeds in one numpy pass, and numpy seeds
    each trial's PCG64 from its row.  A trial draws one amplitude per
    node, shuffles them in place and keeps the first ``n_active``:
    ``Generator.shuffle`` makes the same swaps from the same draws as
    indexing by ``Generator.permutation``.  In conditioned scenarios
    column 0 is the fixed desired node and only the others are shuffled.
    """
    start = chunk_index * CHUNK_TRIALS
    stop = min(start + CHUNK_TRIALS, spec.trials)
    n_active = spec.active_count
    out = np.empty((stop - start, n_active), dtype=np.float64)
    words = _trial_seed_words(spec.seed, np.arange(start, stop, dtype=np.uint32))
    conditioned = spec.conditioned_gain is not None
    for row, trial_words in enumerate(words):
        rng = np.random.default_rng(_TrialSeed(trial_words))
        amps = rng.rayleigh(spec.rayleigh_sigma, spec.n_nodes)
        rng.shuffle(amps[1:] if conditioned else amps)
        out[row] = amps[:n_active]
    if conditioned:
        out[:, 0] = spec.conditioned_gain
    return out


def _run_chunk(spec: ScenarioSpec, chunk_index: int):
    """Solve one chunk; returns per-trial coverage and power plus counters."""
    gains = _chunk_gains(spec, chunk_index)
    n_active = gains.shape[1]
    capped_rows = 0
    failed_trials = 0

    if spec.solver == "epistemic":
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
    elif spec.solver == "epa":
        powers = np.full(gains.shape, spec.grid.p_max)
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

    covered = sinr(gains * gains, powers, spec.noise_power) >= spec.sinr_threshold
    # a conditioned point scores node 0 alone; a one-column mean is a copy
    scored = 1 if spec.conditioned_gain is not None else n_active
    return (covered[:, :scored].mean(axis=1), powers[:, :scored].mean(axis=1),
            capped_rows, failed_trials)


def run_scenario(spec: ScenarioSpec) -> ScenarioMetrics:
    """Run all trials of one evaluation point and aggregate the metrics.

    The per-trial series is assembled in chunk order whatever the worker
    count, so a given spec always produces identical bytes.
    """
    n_chunks = math.ceil(spec.trials / CHUNK_TRIALS)
    # a pool forks all its workers at the first submit: one per chunk and
    # per core at most
    workers = min(spec.workers, n_chunks, os.cpu_count() or 1)
    worker = partial(_run_chunk, spec)
    if workers == 1:
        parts = [worker(c) for c in range(n_chunks)]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(worker, range(n_chunks)))

    cov = np.concatenate([p[0] for p in parts])
    pwr = np.concatenate([p[1] for p in parts])
    capped = sum(p[2] for p in parts)
    failed = sum(p[3] for p in parts)

    coverage = float(cov.mean())
    # powers are reported as a fraction of the top grid level
    avg_power = float(pwr.mean()) / spec.grid.p_max
    if spec.trials < 2:
        ci = power_ci = 0.0
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
        stage_cap_fraction=capped / (spec.trials * spec.active_count),
        solver_failure_fraction=failure_fraction,
    )


def policy_spec(base: ScenarioSpec, label: str) -> ScenarioSpec:
    """Specialise a base spec to one of the sweep policy labels."""
    return replace(base, label=label)


def db_to_linear(db: float) -> float:
    """10^(db/10); a dB value whose power is not finite is a ValueError."""
    try:
        linear = 10.0 ** (db / 10.0)
    except OverflowError:
        linear = math.inf
    if not linear < math.inf:
        raise ValueError(f"{db} dB is out of range")
    return linear


# swept CSV column -> how one value of it specialises a spec
_AXES = {
    "gain": lambda spec, v: replace(spec, conditioned_gain=v),
    "threshold_db": lambda spec, v: replace(spec, sinr_threshold=db_to_linear(v)),
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
