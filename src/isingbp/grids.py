"""Symmetric parameter grids, deterministic arg-max tie-breaking, option
checks and the message normalization of the MaxSum solvers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral, Real

import numpy as np


def check_positive(name: str, value) -> None:
    """Reject a value that is not a finite real number > 0: nan and bool fail."""
    if isinstance(value, bool) or not (isinstance(value, Real) and 0 < value < math.inf):
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


def check_count(name: str, value, least: int) -> None:
    """Reject a value that is not an integer >= least: bool fails."""
    if isinstance(value, bool) or not (isinstance(value, Integral) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


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
        check_positive("grid step", self.step)
        check_count("grid half_count", self.half_count, 0)
        if self.cap is not None and (isinstance(self.cap, bool) or not (
                isinstance(self.cap, Real) and self.cap >= 0)):
            raise ValueError(f"cap must be a number >= 0, got {self.cap!r}")

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


def _normalized(new: np.ndarray) -> np.ndarray:
    """Shift each message (row) of new in place to max zero; returns new."""
    new -= new.max(axis=1, keepdims=True)
    return new

