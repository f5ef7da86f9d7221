"""Reference strategies the belief-driven scheme is judged against."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .batch import BatchIterativeResult, sncpc_response
from .game import NetworkState, PowerGrid
from .moments import RayleighPrior

__all__ = ["epa_profile", "sncpc_solve", "SncpcResult"]


def epa_profile(
    network: NetworkState, grid: PowerGrid, level: float
) -> tuple[float, ...]:
    """Equal power allocation: every node transmits at the agreed grid level."""
    grid.index_of(float(level))
    return tuple(float(level) for _ in network.nodes)


@dataclass(frozen=True)
class SncpcResult:
    powers: tuple[float, ...]
    feasible: tuple[bool, ...]
    converged: bool
    iterations: int


def sncpc_solve(
    network: NetworkState,
    grid: PowerGrid,
    prior: RayleighPrior,
    max_iter: int = 200,
) -> SncpcResult:
    """Single-network convenience wrapper around the vectorised iteration.

    Nodes exchange transmit powers but not gains; each one suppresses
    the unknown interference by its prior mean.  Per-node thresholds may
    differ here (the batch path assumes a common one), so the iteration
    is done inline when they do.
    """
    gains = np.asarray([[n.gain for n in network.nodes]])
    thresholds = {n.sinr_threshold for n in network.nodes}
    if len(thresholds) == 1:
        res: BatchIterativeResult = sncpc_response(
            gains,
            sinr_threshold=next(iter(thresholds)),
            noise_power=network.noise_power,
            grid=grid,
            prior=prior,
            max_iter=max_iter,
        )
        return SncpcResult(
            powers=tuple(float(p) for p in res.powers[0]),
            feasible=tuple(bool(f) for f in res.feasible[0]),
            converged=bool(res.converged[0]),
            iterations=int(res.iterations[0]),
        )

    # heterogeneous targets: same mean-interference response, scalar loop,
    # same one-node-at-a-time schedule as the batch path
    levels = grid.as_array()
    g2 = gains[0] * gains[0]
    powers = np.full(len(network), grid.p_max)
    feasible = np.ones(len(network), dtype=bool)
    iterations = 0
    converged = False
    thr = np.asarray([n.sinr_threshold for n in network.nodes])
    for it in range(1, max_iter + 1):
        entry = powers.copy()
        for i in range(len(network)):
            mean_inter = (powers.sum() - powers[i]) / prior.lam
            slope = g2[i] / (mean_inter + network.noise_power)
            idx = int(np.searchsorted(slope * levels, thr[i], side="left"))
            while idx > 0 and slope * levels[idx - 1] >= thr[i]:
                idx -= 1
            while idx < len(levels) and not slope * levels[idx] >= thr[i]:
                idx += 1
            if idx >= len(levels):
                powers[i] = grid.p_max
                feasible[i] = False
            else:
                powers[i] = levels[idx]
                feasible[i] = True
        iterations = it
        if np.array_equal(powers, entry):
            converged = True
            break
    return SncpcResult(
        powers=tuple(float(p) for p in powers),
        feasible=tuple(bool(f) for f in feasible),
        converged=converged,
        iterations=iterations,
    )
