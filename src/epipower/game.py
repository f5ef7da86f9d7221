"""Uplink power-control game with complete channel knowledge.

Each node transmits at a power drawn from a finite grid and wants the
cheapest level whose SINR at the shared receiver clears its threshold.
Utilities are lexicographic: feasibility first, then lower power.  One
Gauss–Seidel best-response sweep (Yates 1995) serves both comparators:
the complete-information solver plays it against the rivals' true gains,
and S-NCPC is the same sweep against the prior-mean gain.  An exhaustive
deviation scan certifies the full-CSI fixed point.
"""
from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "PowerGrid",
    "NodeConfig",
    "NetworkState",
    "select_lowest_feasible_batch",
    "sinr",
    "best_response_sweeps",
    "solve_nash_full_csi",
    "NashResult",
    "nash_deviation_scan",
    "NonConvergenceError",
    "MAX_SWEEPS",
]

# The comparators' cap on best-response sweeps (Nash rounds, S-NCPC
# iterations): at seed 42 the near-singular S-NCPC rows of the default
# figure 5 need up to 1,448 sweeps (30% load, 10k trials).
MAX_SWEEPS = 2000


@dataclass(frozen=True)
class PowerGrid:
    """Finite ascending set of allowed transmit powers."""

    levels: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.levels) < 1:
            raise ValueError("grid needs at least one level")
        if any(p < 0.0 for p in self.levels):
            raise ValueError("grid levels must be nonnegative")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("grid levels must be strictly increasing")

    @classmethod
    def linear(cls, n_levels: int, p_max: float, p_min: float = 0.0) -> "PowerGrid":
        if n_levels < 2:
            raise ValueError("linear grid needs at least two levels")
        if not p_min < p_max < np.inf:
            raise ValueError("p_max must be finite and exceed p_min")
        pts = np.linspace(p_min, p_max, n_levels)
        return cls(levels=tuple(float(p) for p in pts))

    @property
    def p_max(self) -> float:
        return self.levels[-1]

    @property
    def p_min(self) -> float:
        return self.levels[0]

    def __len__(self) -> int:
        return len(self.levels)

    @functools.cached_property
    def _array(self) -> np.ndarray:
        arr = np.asarray(self.levels, dtype=np.float64)
        arr.flags.writeable = False
        return arr

    def __getstate__(self) -> dict:
        # the cached array stays out of pickles: pool tasks ship grids per chunk
        return {"levels": self.levels}

    def as_array(self) -> np.ndarray:
        """The levels as a read-only float64 array, built once per grid."""
        return self._array

    def select_lowest_feasible(self, slope: float, threshold: float) -> int | None:
        """Index of the lowest level p with slope*p >= threshold, else None."""
        return _lowest_feasible(self.levels, slope, threshold)


def _lowest_feasible(levels: tuple, slope: float, threshold: float) -> int | None:
    """Lowest index with slope*levels[idx] >= threshold; None if none.

    ``select_lowest_feasible_batch`` for one slope, in Python floats, which
    divide by a tiny slope to inf silently (numpy's float64 warns).  The
    sweep calls it, not the traced method, so perfbench counts its time once.
    """
    slope, threshold = float(slope), float(threshold)
    if threshold <= 0.0:
        return 0
    if not slope > 0.0:
        return None
    idx = bisect.bisect_left(levels, threshold / slope)
    while idx > 0 and slope * levels[idx - 1] >= threshold:
        idx -= 1
    while idx < len(levels) and not slope * levels[idx] >= threshold:
        idx += 1
    return idx if idx < len(levels) else None


def _ceil_guess(levels: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Interpolated guess at ``levels.searchsorted(x)``, as an int64 array.

    ceil((clip(x, lo, hi + step/2) - lo) * (n - 1) / (hi - lo)), with lo,
    hi and n read from ``levels``: the first probe of interpolation search
    (Perl, Itai & Avni 1978), which on an evenly spaced grid misses only
    keys within rounding of a level.  The clip keeps every product finite
    for keys up to inf, and the half step caps the guess at n.  A grid of
    one level, or whose scale or top is not finite, guesses 0 everywhere.
    """
    n = len(levels)
    lo, hi = float(levels[0]), float(levels[-1])
    scale = (n - 1) / (hi - lo) if n > 1 else 0.0
    top = hi + 0.5 / scale if scale > 0.0 else np.inf
    if not (scale < np.inf and top < np.inf):
        return np.zeros(np.shape(x), dtype=np.int64)
    t = np.maximum(x, lo)
    np.minimum(t, top, out=t)
    t -= lo
    t *= scale
    return np.ceil(t, out=t).astype(np.int64)


def _ceil_index(levels: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``levels.searchsorted(x, side="left")`` from an interpolated start.

    A row keeps ``_ceil_guess`` when it brackets the key,
    levels[idx - 1] < x <= levels[idx] (idx 0 and n are open ends), and
    only the rows that miss are bisected.  On a linear grid almost none
    miss, so a row costs O(1) in place of log2(n) probes; any other
    increasing grid stays exact at about the bisection's cost.  ``x`` (not
    0-d) must not hold NaN.  Returns an int64 array of x's shape.
    """
    n = len(levels)
    idx = _ceil_guess(levels, x)
    probe = np.empty(x.shape)
    idx -= 1
    levels.take(idx, mode="clip", out=probe)
    miss = (probe >= x) & (idx >= 0)
    idx += 1
    levels.take(idx, mode="clip", out=probe)
    miss |= (probe < x) & (idx < n)
    if np.count_nonzero(miss):
        idx[miss] = levels.searchsorted(x[miss], side="left")
    return idx


def select_lowest_feasible_batch(
    levels: np.ndarray, slope: np.ndarray, threshold: float
) -> np.ndarray:
    """Per-row lowest grid index with slope*level >= threshold; -1 if none.

    The array grid selector; ``_lowest_feasible`` is its scalar form.
    ``levels`` is a nonnegative increasing grid (``PowerGrid.as_array()``)
    and ``slope`` an array of one or more dimensions, only read.
    ``_ceil_index`` places the required power ``threshold/slope`` on the
    grid: an interpolated start, checked per row, with bisection only for
    the rows it misses (on the linear grids of the benchmark workloads,
    none of 21M rows).  The guard then steps each row down, then up, until
    the predicate holds at the index and fails just below it, so the index
    is exact however far rounding moved the start.  The up-guard negates
    the predicate rather than testing ``<``, so a NaN product (slope +inf
    at level 0) counts as infeasible.  Slopes that are not positive (zero,
    negative, NaN) give -1; a nonpositive threshold gives 0 for every row.
    """
    slope = np.asarray(slope, dtype=np.float64)
    if threshold <= 0.0:
        return np.zeros(slope.shape, dtype=np.int64)
    # the S-NCPC sweep calls this once per node at a few hundred rows, where
    # numpy's Python-level wrappers (np.full, ndarray.any) are about a fifth
    # of a call; hence the method calls and count_nonzero
    n_levels = len(levels)
    req = np.empty(slope.shape)
    req.fill(np.inf)
    np.divide(threshold, slope, out=req, where=slope > 0.0)
    idx = _ceil_index(levels, req)
    # the predicate is monotone in the level, so each loop stops at the
    # boundary; both usually finish after one pass that moves no row
    while True:
        down = (idx > 0) & (slope * levels.take(idx - 1, mode="clip") >= threshold)
        if not np.count_nonzero(down):
            break
        idx -= down
    while True:
        up = (idx < n_levels) & ~(slope * levels.take(idx, mode="clip") >= threshold)
        if not np.count_nonzero(up):
            break
        idx += up
    idx[idx >= n_levels] = -1
    return idx


@dataclass(frozen=True)
class NodeConfig:
    """Identity, channel gain and QoS target of one transmitter."""

    node_id: int
    gain: float
    sinr_threshold: float

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ValueError("node_id must be nonnegative")
        if not 0.0 <= self.gain < np.inf:
            raise ValueError(f"gain must be finite and nonnegative, got {self.gain}")
        if not self.sinr_threshold > 0.0:
            raise ValueError(
                f"sinr_threshold must be positive, got {self.sinr_threshold}"
            )

    @property
    def gain_sq(self) -> float:
        return self.gain * self.gain


@dataclass(frozen=True)
class NetworkState:
    """A set of transmitters sharing one receiver, plus the noise floor."""

    nodes: tuple[NodeConfig, ...]
    noise_power: float

    def __post_init__(self) -> None:
        if len(self.nodes) < 1:
            raise ValueError("network needs at least one node")
        if not self.noise_power > 0.0:
            raise ValueError("noise_power must be positive")
        ids = [n.node_id for n in self.nodes]
        if ids != sorted(set(ids)):
            raise ValueError("node ids must be unique and ascending")

    def __len__(self) -> int:
        return len(self.nodes)

    def gains_sq(self) -> np.ndarray:
        return np.asarray([n.gain_sq for n in self.nodes], dtype=np.float64)


def sinr(g2: np.ndarray, powers: np.ndarray, noise_power: float) -> np.ndarray:
    """Realised SINR of every node; the last axis of both arrays indexes nodes.

    Node i receives g2_i p_i against the others' sum plus noise, so a
    (trials, nodes) pair scores every trial at once.  Raises ValueError
    when ``g2`` and ``powers`` disagree on the node axis.
    """
    if np.shape(g2)[-1:] != np.shape(powers)[-1:]:
        raise ValueError("power profile length must match the network")
    received = np.multiply(g2, powers, dtype=np.float64)
    total = received.sum(axis=-1, keepdims=True)
    return received / ((total - received) + noise_power)


class NonConvergenceError(RuntimeError):
    """Best-response iteration hit its round cap without a fixed point."""


@dataclass(frozen=True)
class NashResult:
    powers: tuple[float, ...]
    feasible: tuple[bool, ...]
    rounds: int


def best_response_sweeps(
    network: NetworkState, grid: PowerGrid, start: Sequence[float],
    weights: np.ndarray, scale: float, max_rounds: int,
) -> tuple[tuple[float, ...], tuple[bool, ...], int, bool]:
    """Gauss–Seidel best-response sweeps; (powers, feasible, rounds, converged).

    Node i assumes the interference sum_{j != i} weights_j p_j / scale and
    takes the cheapest grid level whose SINR meets its target, or p_max,
    marked infeasible, when none does.  Nodes update in id order, each
    seeing the updates before it; an unchanged sweep is a fixed point.
    Full CSI weighs rivals by their true squared gains (scale 1); S-NCPC
    puts every rival gain at its prior mean (weights 1, scale lam).
    """
    g2 = network.gains_sq()
    thr = [n.sinr_threshold for n in network.nodes]
    powers = np.array(start, dtype=np.float64)
    wp = weights * powers
    feasible = np.ones(len(network), dtype=bool)
    rounds, converged = 0, False
    while rounds < max_rounds and not converged:
        rounds += 1
        entry = powers.copy()
        for i in range(len(network)):
            slope = g2[i] / ((wp.sum() - wp[i]) / scale + network.noise_power)
            idx = _lowest_feasible(grid.levels, slope, thr[i])
            feasible[i] = idx is not None
            powers[i] = grid.levels[idx] if feasible[i] else grid.p_max
            wp[i] = weights[i] * powers[i]
        converged = np.array_equal(powers, entry)
    return tuple(powers.tolist()), tuple(feasible.tolist()), rounds, converged


def solve_nash_full_csi(
    network: NetworkState,
    grid: PowerGrid,
    max_rounds: int = MAX_SWEEPS,
) -> NashResult:
    """Full-CSI best-response sweeps from the all-lowest profile.

    From the all-lowest start the powers are nondecreasing (raising any
    power only raises everyone else's interference, hence their
    requirement), so the sweeps settle on the grid in finitely many
    rounds; simultaneous updates, by contrast, can orbit a fixed point in
    a two-cycle.  The fixed point is a Nash equilibrium of the grid game.
    Raises NonConvergenceError if none appears in max_rounds.
    """
    start = [grid.p_min] * len(network)
    powers, feasible, rounds, converged = best_response_sweeps(
        network, grid, start, network.gains_sq(), 1.0, max_rounds
    )
    if not converged:
        raise NonConvergenceError(
            f"no best-response fixed point within {max_rounds} rounds"
        )
    return NashResult(powers, feasible, rounds)


def nash_deviation_scan(
    network: NetworkState,
    grid: PowerGrid,
    powers: Sequence[float],
) -> list[tuple[int, float]]:
    """Exhaustively search all unilateral grid deviations that beat a profile.

    A level is feasible for node i when slope_i * level >= target, with
    slope_i = g_i^2 / (sum_{j != i} g_j^2 p_j + noise): the inequality
    ``best_response_sweeps`` tests with weights g^2 and scale 1, rounded
    the same way, so a fixed point of the solver certifies.  Levels are
    ranked by the solver's own preference: a feasible level beats an
    infeasible one; among feasible levels the lower power wins, among
    infeasible ones the higher.  Its best response is the solver's: the
    cheapest feasible level, or p_max when none is.  A deviation is
    profitable if it ranks above the node's power in the profile; an
    empty result certifies a Nash point of the grid game.  A zero (or
    underflowed) squared gain makes every level infeasible, and p_max
    stays its best response.  Exhaustive on purpose: every level of
    every node.  Returns (node, level) pairs by node, then by ascending
    level.
    """
    profile = np.asarray(powers, dtype=np.float64)
    if profile.shape != (len(network),):
        raise ValueError("power profile length must match the network")
    levels = grid.as_array()
    g2 = network.gains_sq()
    received = g2 * profile
    slopes = g2 / ((received.sum() - received) + network.noise_power)
    improvements: list[tuple[int, float]] = []
    for i, node in enumerate(network.nodes):
        feasible = slopes[i] * levels >= node.sinr_threshold
        if slopes[i] * profile[i] >= node.sinr_threshold:
            better = feasible & (levels < profile[i])
        else:
            better = feasible | (levels > profile[i])
        improvements.extend((i, grid.levels[j]) for j in np.flatnonzero(better))
    return improvements
