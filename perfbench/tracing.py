"""Layer-by-layer tracing of epipower, done from the benchmark's side.

``Tracer`` replaces a layer's public function at the name its caller
looks it up (``harness.epistemic_response``, ``batch.inverse_moment_value``,
``PowerGrid.select_lowest_feasible`` ...) with a wrapper that records a
span, and puts every original back on exit.  Spans stay in memory as
``(id, name, start, end, parent, item, counts)`` and are written out once
the run ends.  Nothing inside ``src/`` is changed.

Pool workers forked from a traced process inherit the wrappers and
record into their own copy of the span list, which is discarded: they
pay the tracing cost, but only the calling process's spans are kept.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np

from epipower import baselines, batch, config, engine, game, harness

CLOCK = time.perf_counter


def _rows(a) -> int:
    return int(np.size(a))


def _count_epistemic(res):
    return {
        "rows": _rows(res.powers),
        "stages": int(res.stages_run.sum()),
        "converged": int(res.converged.sum()),
    }


def _count_sncpc(res):
    return {
        "trials": _rows(res.iterations),
        "iterations": int(res.iterations.sum()),
        "iterations_max": int(res.iterations.max(initial=0)),
        "failed": int((~res.converged).sum()),
    }


def _count_select_batch(res):
    return {"rows": _rows(res)}


def _count_series(res):
    value, used, flagged = res
    return {
        "rows": _rows(value),
        "terms_used": int(np.sum(used)),
        "flagged": int(np.sum(flagged)),
    }


def _count_nash(res):
    return {"rounds": res.rounds}


def _count_game(res):
    return {"eu_evaluations": res.eu_evaluations}


def _count_sncpc_solve(res):
    return {"iterations": res.iterations}


# (owner, attribute, span name, counter): each layer is wrapped at the
# name its caller resolves at call time
WRAPPED = (
    (config, "load_run_config", "config.load_run_config", None),
    (harness, "run_scenario", "harness.run_scenario", None),
    (harness, "epistemic_response", "batch.epistemic_response", _count_epistemic),
    (harness, "sncpc_response", "batch.sncpc_response", _count_sncpc),
    (
        batch,
        "select_lowest_feasible_batch",
        "batch.select_lowest_feasible_batch",
        _count_select_batch,
    ),
    (batch, "inverse_moment_value", "moments.inverse_moment_value", _count_series),
    (engine, "fit_interference", "moments.fit_interference", None),
    (engine, "inverse_shifted_moment", "moments.inverse_shifted_moment", None),
    (game.PowerGrid, "select_lowest_feasible", "game.select_lowest_feasible", None),
    (game, "solve_nash_full_csi", "game.solve_nash_full_csi", _count_nash),
    (game, "nash_deviation_scan", "game.nash_deviation_scan", None),
    (engine, "run_epistemic_game", "engine.run_epistemic_game", _count_game),
    (baselines, "sncpc_solve", "baselines.sncpc_solve", _count_sncpc_solve),
)


class Tracer:
    """Span recorder plus the wrappers that feed it.

    Use as a context manager: entering installs every wrapper in
    ``WRAPPED``, leaving restores the originals even if the body raised.
    Recording is on only while ``recording`` is true, so the same
    process can run untraced and traced passes back to back.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.recording = False
        self.item: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, name, counter in WRAPPED:
                self._wrap(owner, attr, name, counter)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, owner, attr, name, counter) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return original(*args, **kwargs)
            sid = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(sid)
            if counter is not None:
                tracer.spans[sid][6] = counter(result)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put back every original, last wrapped first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, CLOCK(), None, parent, self.item, None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][3] = CLOCK()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed out of order (open: {popped})")

    def dump(self, path, provenance: dict) -> None:
        """Write every span as one JSON document."""
        keys = ("id", "name", "start", "end", "parent", "item", "counts")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "provenance": provenance,
                    "fields": keys,
                    "spans": self.spans,
                },
                handle,
            )


def empty_totals() -> dict:
    return {"calls": 0, "s": 0.0, "self_s": 0.0, "counts": defaultdict(int)}


def self_times(spans: list[list]) -> list[float]:
    """Per-span duration minus the time its direct children cover."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] is not None:
            own[s[4]] -= s[3] - s[2]
    return own


def layer_totals(spans: list[list], root: int | None = None) -> dict:
    """Per span name: calls, total seconds, self seconds and summed counters.

    With ``root`` given, only that span's descendants (and itself) count.
    """
    keep = _descendants(spans, root) if root is not None else None
    own = self_times(spans)
    out: dict = defaultdict(empty_totals)
    for s in spans:
        if keep is not None and s[0] not in keep:
            continue
        agg = out[s[1]]
        agg["calls"] += 1
        agg["s"] += s[3] - s[2]
        agg["self_s"] += own[s[0]]
        for key, value in (s[6] or {}).items():
            if key.endswith("_max"):
                agg["counts"][key] = max(agg["counts"][key], value)
            else:
                agg["counts"][key] += value
    return out


def _descendants(spans: list[list], root: int) -> set[int]:
    keep = {root}
    for s in spans[root + 1 :]:  # children are always opened after their parent
        if s[4] in keep:
            keep.add(s[0])
    return keep
