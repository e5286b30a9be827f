"""Spans and counters around calls into isingbp, installed from outside.

`installed(tracer)` rebinds the module attributes that callers look up at
call time (for example `general.gs_maxsum_sweep`, which `gs_solve` calls
through its module globals) to wrappers that record a span per call, and
restores the originals on exit.  No source file is edited, and nothing is
installed unless a tracer is.  Spans stay in memory as
`[name, start, end, parent]` lists, where `parent` is the index of the
enclosing span or -1, so self times can be derived afterwards.  Counts
come from the objects the calls return.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """fn inside a span called `name`; count(counts, result) runs after."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            span = [name, time.perf_counter(), 0.0, parent]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if count is not None:
                count(self.counts, result)
            return result

        return traced


def _solution_counts(prefix):
    def count(counts, sol):
        counts[prefix + ".iterations"] += sol.iterations
        counts[prefix + ".converged"] += bool(sol.converged)
    return count


def _gs_counts(counts, res):
    counts["gs.round_wins"] += res.chosen.startswith("round-")


def _bp_counts(counts, result):
    report = result[1]
    counts["bp.iterations"] += report.iterations
    counts["bp.converged"] += bool(report.converged)


def targets():
    """(owner, attribute, span name, counter) for every traced call site."""
    from isingbp import exact, general, meanfield, runner, symmetric
    from isingbp.instance import ClassicalGraph

    mf_count, ss_count = _solution_counts("mf"), _solution_counts("ss")
    return [
        (runner, "mf_maxsum_solve", "mf.solve", mf_count),
        (meanfield, "mf_maxsum_solve", "mf.solve", mf_count),  # gs seed
        (runner, "ss_maxsum_solve", "ss.solve", ss_count),
        (symmetric, "ss_maxsum_solve", "ss.solve", ss_count),  # gs seed
        (runner, "gs_solve", "gs.solve", _gs_counts),
        (general, "gs_maxsum_sweep", "gs.sweep", None),
        (general, "gs_weights", "gs.weights", None),
        (general, "gs_resample", "gs.resample", None),
        (general, "init_spaces", "gs.init_spaces", None),
        (general, "bp_fixed_point", "bp.fixed_point", _bp_counts),
        (general, "observables", "bp.observables", None),
        (runner, "observables", "bp.observables", None),
        (exact, "ground_state", "exact.solve", _solution_counts("exact")),
        (exact, "apply_h", "exact.apply_h", None),
        (ClassicalGraph, "__init__", "graph.build", None),
    ]


@contextmanager
def installed(tracer: Tracer):
    saved = []
    try:
        for owner, attr, name, count in targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[idx]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, counts, passes: int = 1) -> dict[str, float]:
    """Per-layer totals over all recorded calls, divided by `passes` (the
    number of passes over the workload's cells the spans cover)."""
    total, calls, own = defaultdict(float), defaultdict(float), defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        total[span[0]] += (span[2] - span[1]) / passes
        calls[span[0]] += 1 / passes
        own[span[0]] += self_s / passes
    counts = {name: value / passes for name, value in counts.items()}
    counts = defaultdict(float, counts)
    return {
        "gs.sweep_calls": calls["gs.sweep"],
        "gs.sweep_s": total["gs.sweep"],
        "gs.sweep_ms": 1e3 * _ratio(total["gs.sweep"], calls["gs.sweep"]),
        "gs.resample_s": total["gs.resample"],
        "gs.init_spaces_s": total["gs.init_spaces"],
        "gs.weights_s": total["gs.weights"],
        "gs.self_s": own["gs.solve"],
        "gs.round_win_ratio": _ratio(counts["gs.round_wins"], calls["gs.solve"]),
        "mf.solve_s": total["mf.solve"],
        "mf.sweeps": counts["mf.iterations"],
        "mf.converged_ratio": _ratio(counts["mf.converged"], calls["mf.solve"]),
        "ss.solve_s": total["ss.solve"],
        "ss.sweeps": counts["ss.iterations"],
        "ss.converged_ratio": _ratio(counts["ss.converged"], calls["ss.solve"]),
        "bp.fixed_point_calls": calls["bp.fixed_point"],
        "bp.fixed_point_s": total["bp.fixed_point"],
        "bp.iterations": counts["bp.iterations"],
        "bp.converged_ratio": _ratio(counts["bp.converged"], calls["bp.fixed_point"]),
        "bp.observables_calls": calls["bp.observables"],
        "bp.observables_s": total["bp.observables"],
        "exact.solve_s": total["exact.solve"],
        "exact.lanczos_iters": counts["exact.iterations"],
        "exact.converged_ratio": _ratio(counts["exact.converged"], calls["exact.solve"]),
        "exact.apply_h_calls": calls["exact.apply_h"],
        "exact.apply_h_s": total["exact.apply_h"],
        "exact.apply_h_ms": 1e3 * _ratio(total["exact.apply_h"], calls["exact.apply_h"]),
        "graph.builds": calls["graph.build"],
        "graph.build_s": total["graph.build"],
        "runner.self_s": own["runner.run_cell"],
    }
