"""Correctness gate over the cells of one workload pass.

A cell is a `Cell(method, h, seconds, record, error)`, where `record` is
the `ResultRecord` that `runner.run_cell` returned, or None if it raised.
"""

from __future__ import annotations

import math
from typing import NamedTuple

SLACK = 1e-9


class Cell(NamedTuple):
    method: str
    h: float
    seconds: float
    record: object
    error: str | None


def row(cell: Cell) -> list | None:
    """The cell's CSV row without time_ms, the part promised to reproduce."""
    return None if cell.record is None else cell.record.row()[:-1]


def _energies(cells, h) -> dict:
    return {c.method: c.record.E_per_spin for c in cells
            if c.h == h and c.record is not None}


def failures(cells, tree_ordering: bool) -> dict[int, str]:
    """Index of each failed cell -> reason.

    A cell fails when it raised or returned a non-finite energy.  On a tree
    every energy is a bound, so at each field the exact cell must converge
    and E0 <= gs <= min(mf, ss) must hold; a broken ordering fails gs.
    """
    out = {}
    for i, c in enumerate(cells):
        if c.error is not None:
            out[i] = c.error
        elif not math.isfinite(c.record.E_per_spin):
            out[i] = f"non-finite energy {c.record.E_per_spin}"
    if not tree_ordering:
        return out
    index = {(c.method, c.h): i for i, c in enumerate(cells)}
    for h in sorted({c.h for c in cells}):
        e = _energies(cells, h)
        if not {"mf", "ss", "gs", "exact"} <= set(e):
            continue
        ex = cells[index["exact", h]]
        if not ex.record.converged:
            out.setdefault(index["exact", h], f"exact did not converge at h={h}")
        if not (e["exact"] <= e["gs"] + SLACK
                and e["gs"] <= min(e["mf"], e["ss"]) + SLACK):
            out.setdefault(index["gs", h], f"ordering E0 <= gs <= min(mf, ss) "
                                           f"broken at h={h}: {e}")
    return out


def bound_violations(cells, n: int, tol: float) -> int:
    """mf/ss/gs cells below the exact energy at their field by more than the
    Lanczos tolerance (which is relative to max(1, |E0|) in total energy)."""
    count = 0
    for h in sorted({c.h for c in cells}):
        e = _energies(cells, h)
        if "exact" not in e:
            continue
        margin = tol * max(1.0 / n, abs(e["exact"]))
        count += sum(e[m] < e["exact"] - margin for m in ("mf", "ss", "gs") if m in e)
    return count


def mismatches(first, again) -> dict[int, str]:
    """Indices of cells whose rows differ between two runs of the same inputs."""
    return {i: f"row changed between repeats: {row(a)} != {row(b)}"
            for i, (a, b) in enumerate(zip(first, again)) if row(a) != row(b)}
