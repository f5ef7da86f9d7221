"""Reference strategies the belief-driven scheme is judged against."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """All-p_max Gauss–Seidel descent for one network, the scalar reference.

    Nodes exchange transmit powers but not gains; each one suppresses
    the unknown interference by its prior mean and takes the cheapest
    grid level meeting its own target (targets may differ per node).
    Nodes update one at a time in index order from all-p_max, the
    schedule ``batch.sncpc_response`` descends with; that kernel starts
    from a closed-form profile instead and is checked against this loop.
    """
    gains = np.asarray([n.gain for n in network.nodes])
    levels = grid.as_array()
    g2 = gains * gains
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
