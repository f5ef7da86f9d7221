"""Uplink power-control game with complete channel knowledge.

Each node transmits at a power drawn from a finite grid and wants the
cheapest level whose SINR at the shared receiver clears its threshold.
Utilities are lexicographic: feasibility first, then lower power.  The
complete-information solver iterates synchronous best responses; an
exhaustive deviation scan certifies the fixed point.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "PowerGrid",
    "NodeConfig",
    "NetworkState",
    "select_lowest_feasible_batch",
    "sinr",
    "BestResponse",
    "best_response_full_csi",
    "solve_nash_full_csi",
    "NashResult",
    "nash_deviation_scan",
    "NonConvergenceError",
]


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
        if not p_max > p_min:
            raise ValueError("p_max must exceed p_min")
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

    def index_of(self, power: float) -> int:
        arr = self.as_array()
        idx = int(np.searchsorted(arr, power))
        if idx >= len(arr) or arr[idx] != power:
            raise ValueError(f"{power} is not a grid level")
        return idx

    def ceil_to_grid(self, power: float) -> float | None:
        """Smallest level >= power, or None if power exceeds the grid."""
        arr = self.as_array()
        idx = int(np.searchsorted(arr, power, side="left"))
        if idx >= len(arr):
            return None
        return self.levels[idx]

    def select_lowest_feasible(self, slope: float, threshold: float) -> int | None:
        """Index of the lowest level p with slope*p >= threshold, else None."""
        # threshold/slope overflows for a tiny slope; the index is still exact
        with np.errstate(over="ignore"):
            idx = int(select_lowest_feasible_batch(self._array, slope, threshold))
        return None if idx < 0 else idx


def select_lowest_feasible_batch(
    levels: np.ndarray, slope: np.ndarray, threshold: float
) -> np.ndarray:
    """Per-row lowest grid index with slope*level >= threshold; -1 if none.

    The one grid selector: ``PowerGrid.select_lowest_feasible`` is its
    scalar form.  ``levels`` is a nonnegative increasing grid
    (``PowerGrid.as_array()``).  Bisection on the required power
    ``threshold/slope`` gives a start; the guard then steps each row down,
    then up, until the predicate slope*level >= threshold (the one the
    exhaustive scan in ``engine.NodeEngine`` uses) holds at the index and
    fails just below it, so the index is exact however far rounding moved
    the start.  The up-guard negates the predicate rather than testing
    ``<``, so a NaN product (slope +inf at level 0) counts as infeasible.
    Slopes that are not positive (zero, negative, NaN) give -1, a
    nonpositive threshold gives 0 for every row, and ``slope`` is only
    read.  A 0-d slope gives a 0-d index.
    """
    slope = np.asarray(slope, dtype=np.float64)
    if threshold <= 0.0:
        return np.zeros(slope.shape, dtype=np.int64)
    # the S-NCPC sweep calls this once per node at a few hundred rows, where
    # numpy's Python-level wrappers (np.full, np.searchsorted, ndarray.any)
    # are about a fifth of a call; hence the method calls and count_nonzero
    n_levels = len(levels)
    req = np.empty(slope.shape)
    req.fill(np.inf)
    np.divide(threshold, slope, out=req, where=slope > 0.0)
    idx = np.asarray(levels.searchsorted(req, side="left"))
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
        if self.gain < 0.0:
            raise ValueError(f"gain must be nonnegative, got {self.gain}")
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


def sinr(network: NetworkState, powers: Sequence[float], node_index: int) -> float:
    """Received SINR of one node under a full power profile."""
    g2 = network.gains_sq()
    p = np.asarray(powers, dtype=np.float64)
    if p.shape != (len(network),) :
        raise ValueError("power profile length must match the network")
    received = g2 * p
    interference = float(received.sum() - received[node_index])
    return float(received[node_index] / (interference + network.noise_power))


class BestResponse(NamedTuple):
    power: float
    index: int
    feasible: bool


def best_response_full_csi(
    network: NetworkState,
    grid: PowerGrid,
    powers: Sequence[float],
    node_index: int,
) -> BestResponse:
    """Cheapest grid power meeting the node's SINR target given rivals' powers.

    SINR is linear in own power (slope g^2 / (I + noise)), so the
    bisection selector applies.  If even p_max falls short the node
    transmits at p_max and is marked infeasible.
    """
    node = network.nodes[node_index]
    g2 = network.gains_sq()
    p = np.asarray(powers, dtype=np.float64)
    received = g2 * p
    interference = float(received.sum() - received[node_index])
    slope = node.gain_sq / (interference + network.noise_power)
    idx = grid.select_lowest_feasible(slope, node.sinr_threshold)
    if idx is None:
        return BestResponse(power=grid.p_max, index=len(grid) - 1, feasible=False)
    return BestResponse(power=grid.levels[idx], index=idx, feasible=True)


class NonConvergenceError(RuntimeError):
    """Best-response iteration hit its round cap without a fixed point."""

    def __init__(self, message: str, trace: list[tuple[float, ...]]):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class NashResult:
    powers: tuple[float, ...]
    feasible: tuple[bool, ...]
    rounds: int
    trace: tuple[tuple[float, ...], ...]


def solve_nash_full_csi(
    network: NetworkState,
    grid: PowerGrid,
    max_rounds: int = 200,
) -> NashResult:
    """Sequential best-response sweeps from the all-lowest profile.

    Nodes update one at a time in id order, each seeing the already
    updated powers of earlier nodes.  From the all-lowest start the
    powers are nondecreasing (raising any power only raises everyone
    else's interference, hence their requirement), so the sweep settles
    on the grid in finitely many rounds; simultaneous updates, by
    contrast, can orbit a fixed point in a two-cycle.  An unchanged full
    sweep is a fixed point of every single-node best response, i.e. a
    Nash equilibrium of the grid game.  Raises NonConvergenceError (with
    the visited trace attached) if no fixed point appears in max_rounds.
    """
    n = len(network)
    profile = [grid.p_min] * n
    trace: list[tuple[float, ...]] = [tuple(profile)]
    feasible = [True] * n
    for rounds in range(1, max_rounds + 1):
        changed = False
        for i in range(n):
            response = best_response_full_csi(network, grid, profile, i)
            if response.power != profile[i]:
                changed = True
            profile[i] = response.power
            feasible[i] = response.feasible
        trace.append(tuple(profile))
        if not changed:
            return NashResult(
                powers=tuple(profile),
                feasible=tuple(feasible),
                rounds=rounds,
                trace=tuple(trace),
            )
    raise NonConvergenceError(
        f"no best-response fixed point within {max_rounds} rounds", trace
    )


def nash_deviation_scan(
    network: NetworkState,
    grid: PowerGrid,
    powers: Sequence[float],
) -> list[tuple[int, float]]:
    """Exhaustively search all unilateral grid deviations that beat a profile.

    Utility is lexicographic: first get SINR as close to the target as
    possible (capped there, so overshoot earns nothing), then minimise
    power.  This is exactly the preference whose best response is "the
    cheapest feasible level, or p_max when none is".  A deviation counts
    as profitable if it raises the capped SINR, or holds it at a lower
    power.  Empty result certifies a Nash point of the grid game.
    Exhaustive on purpose; cost is len(grid) * n^2 SINR evaluations.
    """
    profile = [float(p) for p in powers]
    improvements: list[tuple[int, float]] = []
    for i, node in enumerate(network.nodes):
        cur_capped = min(sinr(network, profile, i), node.sinr_threshold)
        for level in grid.levels:
            if level == profile[i]:
                continue
            candidate = list(profile)
            candidate[i] = level
            cand_capped = min(sinr(network, candidate, i), node.sinr_threshold)
            if cand_capped > cur_capped:
                improvements.append((i, level))
            elif cand_capped == cur_capped and level < profile[i]:
                improvements.append((i, level))
    return improvements
