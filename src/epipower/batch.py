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

from dataclasses import dataclass

import numpy as np

from .engine import EpistemicPolicy, inter_slope
from .game import MAX_SWEEPS, PowerGrid, _ceil_index, select_lowest_feasible_batch
from .moments import (
    DEFAULT_TRUNCATION,
    RayleighPrior,
    erlang_fit,
    int_power,
    inverse_moment_value,
    kth_root,
)

__all__ = [
    "BatchEpistemicResult",
    "epistemic_response",
    "BatchIterativeResult",
    "sncpc_response",
]


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
    lam = prior.lam
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
            series_o = np.full(1, 1.0 / int_power(noise_power, k))
            slot = np.zeros(p.shape, dtype=np.intp)
        else:
            # rival pass (one shared belief update stands in for every rival)
            eta_rival = g2r * p + noise_power
            if n_rival_others == 0:
                series_r = 1.0 / int_power(eta_rival, k)
            else:
                alpha, theta = erlang_fit(n_rival_others, e, lam)
                series_r, _, _ = inverse_moment_value(
                    alpha, theta, eta_rival, k, DEFAULT_TRUNCATION
                )
            slope_r = inter_slope(k, lam, series_r)
            idx_e = select_lowest_feasible_batch(levels, slope_r, sinr_threshold)
            e_new = levels[idx_e]  # index -1 (infeasible) is the last level, p_max

            # own pass against refreshed beliefs: its series depends on the
            # believed level alone, so it runs once per level reached, and
            # row r reads slot[r] of that list
            reached = np.zeros(levels.size, dtype=bool)
            reached[idx_e] = True  # -1 marks p_max, as in levels[idx_e]
            slot = np.cumsum(reached)[idx_e] - 1
            alpha, theta = erlang_fit(n_own_others, levels[reached], lam)
            series_o, _, _ = inverse_moment_value(
                alpha, theta, noise_power, k, DEFAULT_TRUNCATION
            )
        slope_o = g2r * kth_root(series_o, k)[slot]
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
    """Outcome of a per-trial Gauss–Seidel best-response iteration."""

    powers: np.ndarray  # (trials, nodes)
    feasible: np.ndarray
    converged: np.ndarray  # (trials,)
    iterations: np.ndarray
    restarted: np.ndarray  # (trials,) the closed-form start was abandoned


# cap on Newton steps for the start's total power (figure-5 rows settle in
# at most 8); every iterate is a valid start, so the cap is safe
_START_NEWTON_STEPS = 12


def _sncpc_start(
    g2: np.ndarray, sinr_threshold: float, noise_power: float,
    levels: np.ndarray, lam: float,
) -> np.ndarray:
    """Grid powers at or above the greatest S-NCPC fixed point, per trial.

    Node i's continuous response to the others is
    p_i = a_i (S - p_i) + b_i, with S the total power, a_i = gamma/(lam g_i^2)
    and b_i = gamma sigma/g_i^2.  Raise b_i to
    c_i = b_i + delta (1 + a_i (n - 1)), delta the grid's largest gap, and
    add p_min to cover the floor; the capped solution per node is then
    min(p_max, w_i (S + sigma lam + delta (n - 2)) + delta + p_min) with
    w_i = a_i/(1+a_i).  Its total F(S) is concave in S, so Newton from
    S = n p_max falls monotonically onto the greatest root of F(S) = S and
    every iterate stays at or above it.  The margin makes the grid ceiling
    of that point a super-solution lying above the greatest grid fixed
    point: the sweep cannot raise it, and descends to the same point as
    from all-p_max (Yates 1995; Tarski 1955).  The ceiling comes from
    ``game._ceil_index``: an interpolated index per node, checked against
    its neighbours, with bisection only where the check fails.
    """
    n = g2.shape[1]
    p_max = levels[-1]
    delta = float(np.diff(levels).max(initial=0.0))
    w = sinr_threshold / (sinr_threshold + lam * g2)  # 1 at g = 0, 0 at g = inf
    shift = noise_power * lam + delta * (n - 2)
    lift = delta + levels[0]
    total = np.full(g2.shape[0], n * p_max)
    x = np.empty_like(w)
    free = np.empty(w.shape, dtype=bool)
    for _ in range(_START_NEWTON_STEPS):
        np.multiply(w, (total + shift)[:, None], out=x)
        x += lift
        np.less(x, p_max, out=free)
        np.minimum(x, p_max, out=x)
        gap = x.sum(axis=1) - total  # F(S) - S, negative above the root
        dgap = np.sum(w, axis=1, where=free) - 1.0
        move = (gap < 0.0) & (dgap < 0.0)
        if not np.count_nonzero(move):
            break
        total -= np.divide(gap, dgap, out=np.zeros_like(gap), where=move)
    return levels.take(_ceil_index(levels, x), out=x)


def sncpc_response(
    gains: np.ndarray,
    sinr_threshold: float,
    noise_power: float,
    grid: PowerGrid,
    prior: RayleighPrior,
    max_iter: int = MAX_SWEEPS,
) -> BatchIterativeResult:
    """Mean-interference power control: rivals' powers are shared, gains are not.

    Each node replaces the unknown interference by its prior mean,
    sum_j p_j / lam over the actual current profile, and picks the
    cheapest grid level meeting the target against that proxy.  Nodes
    update one at a time in index order (vectorised across trials), so
    from any profile that the first sweep does not raise, powers descend
    monotonically onto a fixed point and the simultaneous-update
    two-cycles cannot occur.  Rows (trials) are coupled only through
    their own columns.  Each column update is one
    ``select_lowest_feasible_batch`` call over the trials still moving.

    The descent starts from ``_sncpc_start``, a closed-form profile at
    or above the greatest fixed point (a margin of one grid gap per
    node covers the grid rounding), and so ends on the same powers as
    the all-p_max descent of ``baselines.sncpc_solve`` in about half the
    sweeps.  A trial whose power rises anywhere in the first sweep is
    flagged ``restarted`` and run again from all-p_max; that sweep is
    not counted.  ``iterations`` and ``max_iter`` count sweeps from the
    start the trial descended from.
    """
    gains = np.asarray(gains, dtype=np.float64)
    if gains.ndim != 2:
        raise ValueError("gains must be (trials, nodes)")
    n_trials, n_nodes = gains.shape
    levels = grid.as_array()
    g2 = gains * gains
    lam = prior.lam

    powers = _sncpc_start(g2, sinr_threshold, noise_power, levels, lam)
    feasible = np.ones((n_trials, n_nodes), dtype=bool)
    converged = np.zeros(n_trials, dtype=bool)
    iterations = np.zeros(n_trials, dtype=np.int64)
    restarted = np.zeros(n_trials, dtype=bool)

    rows = np.arange(n_trials if max_iter > 0 else 0)
    it = 0
    while rows.size:
        it += 1
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
        if it == 1:  # rows is every trial, and powers still holds the start
            restarted = (p > powers).any(axis=1)
            p[restarted] = grid.p_max
            changed |= restarted
        swept = it - restarted[rows]
        powers[rows] = p
        feasible[rows] = ok
        iterations[rows] = swept
        converged[rows] = ~changed
        rows = rows[changed & (swept < max_iter)]

    return BatchIterativeResult(
        powers=powers,
        feasible=feasible,
        converged=converged,
        iterations=iterations,
        restarted=restarted,
    )
