"""Symmetric parameter grids and deterministic arg-max tie-breaking."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Uniform symmetric grid {-half_count*step, ..., 0, ..., half_count*step}.

    cap truncates the grid to |value| <= cap (used to bound couplings on
    loopy graphs, where large |K| is both useless and unsafe).
    """

    step: float
    half_count: int
    cap: float | None = None

    def __post_init__(self):
        if self.step <= 0 or self.half_count < 0:
            raise ValueError("grid needs step > 0 and half_count >= 0")
        if self.cap is not None and self.cap < 0:
            raise ValueError("cap must be >= 0")

    @cached_property
    def values(self) -> np.ndarray:
        """The grid values, computed once per grid and read-only."""
        v = self.step * np.arange(-self.half_count, self.half_count + 1)
        if self.cap is not None:
            v = v[np.abs(v) <= self.cap + 1e-12]
        v.setflags(write=False)
        return v

    @property
    def size(self) -> int:
        return self.values.size

    def snap(self, x):
        """Nearest grid value(s) to x."""
        v = self.values
        idx = np.clip(np.rint((np.asarray(x) - v[0]) / self.step), 0, v.size - 1)
        return v[idx.astype(np.int64)]


def tiebreak_order(values: np.ndarray) -> np.ndarray:
    """Indices of values sorted by (|v|, v): zero, then -step before +step."""
    values = np.asarray(values)
    return np.lexsort((values, np.abs(values)))


def argmax_tiebreak(table: np.ndarray, values: np.ndarray) -> int:
    """Arg-max over a table indexed by grid values.

    Ties go to the smallest |value| and then to the negative one, so
    repeated runs extract identical configurations.
    """
    order = tiebreak_order(values)
    return int(order[np.argmax(table[order])])
