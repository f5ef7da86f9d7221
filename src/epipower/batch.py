"""Vectorised solvers used by the Monte Carlo harness.

With a common SINR target for every node, the per-node reasoning loop
of ``engine.NodeEngine`` collapses to two scalars per node: its own
power and one shared believed rival power.  Every rival update inside a
sweep sees the same interferer multiset (all other rivals at the shared
belief), so beliefs that start uniform stay uniform, and the fitted
model is an exact Erlang.  That lets thousands of independent per-node
loops run as flat numpy rows.

Row semantics: one row = one node's private reasoning in one trial.
Rows never interact; coupling happens only when the caller evaluates
realised SINRs from the final powers.

The arithmetic here mirrors ``engine``/``moments`` expression by
expression so a row and the equivalent object-path run select the same
grid indices; tests assert that equality.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import EpistemicPolicy
from .game import PowerGrid, select_lowest_feasible_batch
from .moments import RayleighPrior, int_power, inverse_moment_value, kth_root

__all__ = [
    "BatchEpistemicResult",
    "epistemic_response",
    "BatchIterativeResult",
    "sncpc_response",
]


def _erlang_params(count: int, power: np.ndarray, lam: float):
    """Moment-matched (alpha, theta) for `count` equal-power interferers.

    Written with the same expressions as the general fit so the equal
    powers case rounds identically to summing the expanded list.
    """
    sum_p = count * power
    sum_sq = count * (power * power)
    alpha = sum_p * sum_p / sum_sq
    theta = sum_sq / (lam * sum_p)
    return alpha, theta


@dataclass(frozen=True)
class BatchEpistemicResult:
    """Terminal per-row state of the flattened reasoning loops."""

    powers: np.ndarray
    believed: np.ndarray
    feasible: np.ndarray
    converged: np.ndarray
    stages_run: np.ndarray


def epistemic_response(
    gains: np.ndarray,
    n_active: int,
    sinr_threshold: float,
    noise_power: float,
    grid: PowerGrid,
    policy: EpistemicPolicy,
    prior: RayleighPrior,
    max_stages: int,
) -> BatchEpistemicResult:
    """Run the belief loop for every row of `gains` under one shared target.

    ``gains[r]`` is the row-node's own amplitude; the network has
    ``n_active`` transmitters total, all with the same threshold, which
    is what justifies the uniform-belief reduction.  A single
    transmitter has no rivals and reduces to deterministic feasibility
    against the noise floor.
    """
    if n_active < 1:
        raise ValueError("need at least one active node")
    if not sinr_threshold > 0.0:
        raise ValueError("sinr_threshold must be positive")
    gains = np.asarray(gains, dtype=np.float64)
    n_rows = gains.shape[0]
    levels = grid.as_array()
    k = policy.moment_order
    trunc = policy.truncation
    lam = prior.lam
    scale = math.factorial(k) / lam**k
    g2 = gains * gains

    n_rival_others = n_active - 2  # interferers in a simulated rival's test
    n_own_others = n_active - 1

    powers = np.full(n_rows, grid.p_max, dtype=np.float64)
    believed = np.full(n_rows, grid.p_max, dtype=np.float64)
    feasible = np.ones(n_rows, dtype=bool)
    converged = np.zeros(n_rows, dtype=bool)
    stages_run = np.zeros(n_rows, dtype=np.int64)

    rows = np.arange(n_rows)
    for stage in range(1, max_stages + 1):
        if rows.size == 0:
            break
        p = powers[rows]
        e = believed[rows]
        g2r = g2[rows]

        if n_own_others == 0:
            # no rivals at all: beliefs are vacuous, the self test is
            # the same zero-interference bypass the object path uses
            e_new = e
            series_o = np.full(p.shape, 1.0 / int_power(noise_power, k))
        else:
            # rival pass (one shared belief update stands in for every rival)
            eta_rival = g2r * p + noise_power
            if n_rival_others == 0:
                series_r = 1.0 / int_power(eta_rival, k)
            else:
                alpha, theta = _erlang_params(n_rival_others, e, lam)
                series_r, _, _ = inverse_moment_value(
                    alpha, theta, eta_rival, k, trunc
                )
            pos = series_r > 0.0
            slope_r = np.where(
                pos, kth_root(scale * np.where(pos, series_r, 1.0), k), 0.0
            )
            idx_e = select_lowest_feasible_batch(levels, slope_r, sinr_threshold)
            e_new = levels[idx_e]  # index -1 (infeasible) is the last level, p_max

            # own pass against refreshed beliefs
            alpha, theta = _erlang_params(n_own_others, e_new, lam)
            series_o, _, _ = inverse_moment_value(
                alpha, theta, noise_power, k, trunc
            )
        pos = series_o > 0.0
        slope_o = np.where(pos, g2r * kth_root(np.where(pos, series_o, 1.0), k), 0.0)
        idx_p = select_lowest_feasible_batch(levels, slope_o, sinr_threshold)
        p_new = levels[idx_p]

        changed = (e_new != e) | (p_new != p)
        powers[rows] = p_new
        believed[rows] = e_new
        feasible[rows] = idx_p >= 0
        stages_run[rows] = stage
        converged[rows] = ~changed
        rows = rows[changed]

    return BatchEpistemicResult(
        powers=powers,
        believed=believed,
        feasible=feasible,
        converged=converged,
        stages_run=stages_run,
    )


@dataclass(frozen=True)
class BatchIterativeResult:
    """Outcome of a per-trial synchronous best-response iteration."""

    powers: np.ndarray  # (trials, nodes)
    feasible: np.ndarray
    converged: np.ndarray  # (trials,)
    iterations: np.ndarray


def sncpc_response(
    gains: np.ndarray,
    sinr_threshold: float,
    noise_power: float,
    grid: PowerGrid,
    prior: RayleighPrior,
    max_iter: int = 200,
) -> BatchIterativeResult:
    """Mean-interference power control: rivals' powers are shared, gains are not.

    Each node replaces the unknown interference by its prior mean,
    sum_j p_j / lam over the actual current profile, and picks the
    cheapest grid level meeting the target against that proxy.  Nodes
    update one at a time in index order (vectorised across trials); from
    the all-max start each update can only lower the interference others
    see, so powers descend monotonically onto a fixed point and the
    simultaneous-update two-cycles cannot occur.  Rows (trials) are
    coupled only through their own columns.  Each column update is one
    ``select_lowest_feasible_batch`` call over the trials still moving.
    """
    gains = np.asarray(gains, dtype=np.float64)
    if gains.ndim != 2:
        raise ValueError("gains must be (trials, nodes)")
    n_trials, n_nodes = gains.shape
    levels = grid.as_array()
    g2 = gains * gains
    lam = prior.lam

    powers = np.full((n_trials, n_nodes), grid.p_max, dtype=np.float64)
    feasible = np.ones((n_trials, n_nodes), dtype=bool)
    converged = np.zeros(n_trials, dtype=bool)
    iterations = np.zeros(n_trials, dtype=np.int64)

    rows = np.arange(n_trials)
    for it in range(1, max_iter + 1):
        if rows.size == 0:
            break
        p = powers[rows]
        ok = np.empty(p.shape, dtype=bool)
        changed = np.zeros(rows.size, dtype=bool)
        total = p.sum(axis=1)
        for i in range(n_nodes):
            old = p[:, i]
            slope = g2[rows, i] / ((total - old) / lam + noise_power)
            idx = select_lowest_feasible_batch(levels, slope, sinr_threshold)
            p_new = levels[idx]  # index -1 (infeasible) is p_max
            total = total - old + p_new
            changed |= p_new != old
            p[:, i] = p_new
            ok[:, i] = idx >= 0
        powers[rows] = p
        feasible[rows] = ok
        iterations[rows] = it
        converged[rows] = ~changed
        rows = rows[changed]

    return BatchIterativeResult(
        powers=powers, feasible=feasible, converged=converged, iterations=iterations
    )
