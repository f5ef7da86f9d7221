"""Reference strategies the belief-driven scheme is judged against.

S-NCPC is the full-CSI Gauss–Seidel best-response sweep of ``game``
played against the prior-mean gain.  EPA, every node at p_max, needs no
solver: the harness and ``solve EPA`` write that profile directly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import MAX_SWEEPS, NetworkState, PowerGrid, best_response_sweeps
from .moments import RayleighPrior

__all__ = ["sncpc_solve", "SncpcResult"]


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
    max_iter: int = MAX_SWEEPS,
) -> SncpcResult:
    """All-p_max S-NCPC descent for one network, the scalar reference.

    Nodes exchange transmit powers but not gains, so each one puts every
    rival gain at its prior mean: this is the full-CSI best-response
    sweep (``game.best_response_sweeps``) with weights 1 and scale lam,
    started from all-p_max (targets may differ per node).
    ``batch.sncpc_response`` descends with the same schedule from a
    closed-form profile instead and is checked against this loop.
    """
    start = np.full(len(network), grid.p_max)
    powers, feasible, iterations, converged = best_response_sweeps(
        network, grid, start, np.ones(len(network)), prior.lam, max_iter
    )
    return SncpcResult(powers, feasible, converged, iterations)
