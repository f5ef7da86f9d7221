"""Belief-driven power selection without channel feedback.

Each node knows its own gain, everyone's SINR targets and the gain
prior, but never observes rival gains or powers.  It therefore runs the
whole game in its head: it keeps one believed power per rival, updates
every belief by simulating that rival's feasibility test (gain
marginalised against the prior), then re-picks its own power against the
updated beliefs.  Sweeps repeat until the belief state stops moving or a
stage cap is hit.  The quantity compared against the SINR target is the
k-th root of the k-th SINR moment; higher k penalises dispersion and
yields more conservative (larger) required powers.

Belief updates within one sweep are synchronous: every rival's new
believed power is computed from the state at sweep entry, so the result
does not depend on rival ordering.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .game import NetworkState, PowerGrid
from .moments import (
    RayleighPrior,
    SeriesValue,
    fit_interference,
    int_power,
    inverse_shifted_moment,
    kth_root,
)

__all__ = [
    "EpistemicPolicy",
    "UpdateRecord",
    "NodeOutcome",
    "GameOutcome",
    "NodeEngine",
    "inter_slope",
    "intra_slope",
    "run_epistemic_game",
]

ROLE_RIVAL = "rival-belief"
ROLE_SELF = "self-power"

FLAG_NEGATIVE_CLAMPED = "negative-moment-clamped"
FLAG_INFEASIBLE = "no-feasible-level"


@dataclass(frozen=True)
class EpistemicPolicy:
    """Selection rule: which SINR moment to trust and how deep to expand it.

    moment_order 1 uses the plain mean; orders 2..4 compare the k-th
    root of the k-th raw moment against the target, which increasingly
    discounts hypotheses whose predicted SINR is merely high on average.
    """

    moment_order: int = 1
    truncation: int = 4

    def __post_init__(self) -> None:
        if self.moment_order < 1:
            raise ValueError(f"moment_order must be >= 1, got {self.moment_order}")
        if self.truncation < 0:
            raise ValueError(f"truncation must be >= 0, got {self.truncation}")


def inter_slope(k: int, lam: float, series_value: float) -> float:
    """Per-unit-power statistic for a rival whose gain is only known in prior.

    The k-th SINR moment is p^k (k!/lam^k) E[1/(Y+eta)^k]; its k-th root
    is linear in p with this slope.
    """
    scale = math.factorial(k) / lam**k
    return kth_root(scale * series_value, k)


def intra_slope(k: int, gain_sq: float, series_value: float) -> float:
    """Per-unit-power statistic when the transmitter knows its own gain."""
    return gain_sq * kth_root(series_value, k)


@dataclass(frozen=True)
class UpdateRecord:
    """One belief or own-power update inside a sweep."""

    stage: int
    role: str
    target: int
    eta: float
    slope: float
    evidence: float
    feasible: bool
    evaluations: int
    n_hypotheses: int
    flags: tuple[str, ...]


@dataclass(frozen=True)
class NodeOutcome:
    """Terminal state of one node's local reasoning."""

    node_id: int
    power: float
    feasible: bool
    converged: bool
    stages_run: int
    eu_evaluations: int
    believed_powers: tuple[tuple[int, float], ...]
    updates: tuple[UpdateRecord, ...]


@dataclass(frozen=True)
class GameOutcome:
    """Realised joint profile once every node has reasoned independently."""

    nodes: tuple[NodeOutcome, ...]
    profile: tuple[float, ...]
    eu_evaluations: int
    converged: bool


class NodeEngine:
    """Local reasoning loop of a single node.

    The constructor deliberately accepts rivals as (id, threshold) pairs
    only; rival gains must never reach this class.  ``exhaustive=True``
    scans every grid level per update (one statistic evaluation each),
    which is what the evaluation counter reports; the default bisects
    the same linear statistic and reports the probe count instead.
    """

    def __init__(
        self,
        node_id: int,
        gain: float,
        sinr_threshold: float,
        rivals: Sequence[tuple[int, float]],
        prior: RayleighPrior,
        noise_power: float,
        grid: PowerGrid,
        policy: EpistemicPolicy,
        exhaustive: bool = False,
    ):
        if gain < 0.0:
            raise ValueError("gain must be nonnegative")
        if not noise_power > 0.0:
            raise ValueError("noise_power must be positive")
        rival_ids = [r[0] for r in rivals]
        if node_id in rival_ids or len(set(rival_ids)) != len(rival_ids):
            raise ValueError("rival ids must be unique and exclude the node itself")
        self.node_id = node_id
        self.gain_sq = gain * gain
        self.sinr_threshold = float(sinr_threshold)
        self.rivals = tuple((int(i), float(t)) for i, t in rivals)
        self.prior = prior
        self.noise_power = float(noise_power)
        self.grid = grid
        self.policy = policy
        self.exhaustive = exhaustive
        self.eu_evaluations = 0
        self.updates: list[UpdateRecord] = []
        self.own_power = grid.p_max
        self.own_feasible = True
        self.believed = {i: grid.p_max for i, _ in self.rivals}

    # -- statistic plumbing -------------------------------------------------

    def _series(self, powers: list[float], eta: float) -> SeriesValue:
        k = self.policy.moment_order
        model = fit_interference(powers, self.prior.lam, eta)
        if model is None:
            return SeriesValue(value=1.0 / int_power(eta, k), terms_used=0, status="ok")
        return inverse_shifted_moment(model, k, self.policy.truncation)

    def _select(self, slope: float, threshold: float) -> tuple[int | None, int]:
        """Lowest feasible grid index for statistic slope*p, plus evaluation count."""
        levels = self.grid.levels
        if self.exhaustive:
            chosen = None
            for idx, level in enumerate(levels):
                if chosen is None and slope * level >= threshold:
                    chosen = idx
            return chosen, len(levels)
        idx = self.grid.select_lowest_feasible(slope, threshold)
        probes = max(1, math.ceil(math.log2(len(levels)))) + 1
        return idx, probes

    def _update(
        self, stage: int, role: str, target: int, slope: float,
        threshold: float, eta: float, flags: tuple[str, ...],
    ) -> tuple[float, bool]:
        idx, evals = self._select(slope, threshold)
        self.eu_evaluations += evals
        if idx is None:
            power, feasible = self.grid.p_max, False
            flags = flags + (FLAG_INFEASIBLE,)
        else:
            power, feasible = self.grid.levels[idx], True
        self.updates.append(
            UpdateRecord(
                stage=stage,
                role=role,
                target=target,
                eta=eta,
                slope=slope,
                evidence=power,
                feasible=feasible,
                evaluations=evals,
                n_hypotheses=len(self.grid),
                flags=flags,
            )
        )
        return power, feasible

    # -- sweep --------------------------------------------------------------

    def step(self, stage: int) -> bool:
        """Run one sweep; returns True if any belief or the own power moved."""
        entry_beliefs = dict(self.believed)
        entry_own = self.own_power
        k = self.policy.moment_order
        lam = self.prior.lam

        # rival pass: simulate each rival's feasibility test against the
        # sweep-entry state; this node's own contribution enters as the
        # known-gain shift, everyone else through the fitted model
        eta_rival = self.gain_sq * entry_own + self.noise_power
        new_beliefs: dict[int, float] = {}
        for rid, rthr in self.rivals:
            others = [entry_beliefs[m] for m, _ in self.rivals if m != rid]
            series = self._series(others, eta_rival)
            flags: tuple[str, ...] = ()
            if series.status != "ok":
                flags = (series.status,)
            if series.value <= 0.0:
                slope = 0.0
                flags = flags + (FLAG_NEGATIVE_CLAMPED,)
            else:
                slope = inter_slope(k, lam, series.value)
            power, _ = self._update(
                stage, ROLE_RIVAL, rid, slope, rthr, eta_rival, flags
            )
            new_beliefs[rid] = power
        self.believed = new_beliefs

        # own pass: re-pick own power against the refreshed beliefs
        own_interferers = [self.believed[m] for m, _ in self.rivals]
        series = self._series(own_interferers, self.noise_power)
        flags = ()
        if series.status != "ok":
            flags = (series.status,)
        if series.value <= 0.0:
            slope = 0.0
            flags = flags + (FLAG_NEGATIVE_CLAMPED,)
        else:
            slope = intra_slope(k, self.gain_sq, series.value)
        self.own_power, self.own_feasible = self._update(
            stage, ROLE_SELF, self.node_id, slope, self.sinr_threshold,
            self.noise_power, flags,
        )
        return self.believed != entry_beliefs or self.own_power != entry_own

    def run(self, max_stages: int) -> NodeOutcome:
        if max_stages < 0:
            raise ValueError("max_stages must be nonnegative")
        converged = False
        stages_run = 0
        for stage in range(1, max_stages + 1):
            changed = self.step(stage)
            stages_run = stage
            if not changed:
                converged = True
                break
        return NodeOutcome(
            node_id=self.node_id,
            power=self.own_power,
            feasible=self.own_feasible,
            converged=converged,
            stages_run=stages_run,
            eu_evaluations=self.eu_evaluations,
            believed_powers=tuple(sorted(self.believed.items())),
            updates=tuple(self.updates),
        )


def run_epistemic_game(
    network: NetworkState,
    grid: PowerGrid,
    policy: EpistemicPolicy,
    prior: RayleighPrior,
    max_stages: int = 20,
    exhaustive: bool = False,
) -> GameOutcome:
    """Let every node reason in isolation, then read off the joint profile.

    There is no coupling between the per-node loops: node i's beliefs
    about rival powers evolve entirely inside node i.  The realised
    profile is simply each node's own final power; realised SINRs under
    the true gains are the caller's business.
    """
    outcomes = []
    for node in network.nodes:
        rivals = [
            (other.node_id, other.sinr_threshold)
            for other in network.nodes
            if other.node_id != node.node_id
        ]
        eng = NodeEngine(
            node_id=node.node_id,
            gain=node.gain,
            sinr_threshold=node.sinr_threshold,
            rivals=rivals,
            prior=prior,
            noise_power=network.noise_power,
            grid=grid,
            policy=policy,
            exhaustive=exhaustive,
        )
        outcomes.append(eng.run(max_stages))
    return GameOutcome(
        nodes=tuple(outcomes),
        profile=tuple(o.power for o in outcomes),
        eu_evaluations=sum(o.eu_evaluations for o in outcomes),
        converged=all(o.converged for o in outcomes),
    )
