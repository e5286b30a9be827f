"""Method dispatch: evaluate solvers over a field grid on one instance.

Each (method, field) cell gets its own deterministic seed derived from the
base seed, so runs reproduce regardless of execution order.  Cells run
one after another in the calling thread.
"""

from __future__ import annotations

import inspect
import time
import zlib

import numpy as np

from . import exact as exact_mod
from .classical_bp import observables  # noqa: F401  (perfbench/tracing.py wraps it)
from .general import GSConfig, gs_solve
from .grids import Grid
from .homogeneous import HomogConfig, homog_from_instance
from .instance import QuantumInstance
from .meanfield import mf_maxsum_solve
from .records import ResultRecord
from .symmetric import ss_maxsum_solve


def cell_seed(base_seed: int, method: str, h: float | None) -> int:
    tag = f"{base_seed}:{method}:{'own' if h is None else format(h, '.12g')}"
    return zlib.crc32(tag.encode()) & 0x7FFFFFFF


def _coerce(value: str):
    low = value.lower()
    if low in ("true", "false"):
        return low == "true"
    if low in ("none", "null"):
        return None
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value


def parse_overrides(pairs) -> dict:
    """key=value strings -> typed dict (ints, floats, bools, none, str)."""
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ValueError(f"override {pair!r} is not key=value")
        key, _, value = pair.partition("=")
        out[key.strip()] = _coerce(value.strip())
    return out


def _options(target, overrides: dict) -> dict:
    """overrides, checked against the keyword parameters of target (a
    solver function or a config dataclass).  The instance and the seed
    come from the cell, never from overrides, and a solver's grid comes
    from its step and half keys (_grid_override), never as a Grid."""
    allowed = set(inspect.signature(target).parameters) - {"inst", "seed", "grid"}
    unknown = set(overrides) - allowed
    if unknown:
        raise ValueError(f"unknown {target.__name__} options: {sorted(unknown)}")
    return overrides


def _grid_override(options: dict, step_key: str, half_key: str,
                   cap_key: str | None = None) -> dict:
    """Pop grid-shaped options (step, half and cap) out of options; returns
    {"grid": Grid} when any of them was given, else {}."""
    step, half = options.pop(step_key, None), options.pop(half_key, None)
    cap = options.pop(cap_key, None)
    if step is None and half is None and cap is None:
        return {}
    if step is None or half is None:
        raise ValueError(f"{step_key} and {half_key} must be given together")
    return {"grid": Grid(float(step), half, cap=cap)}


# Per-method adapters: (instance, seed, options) -> Solution.  They look
# the solvers up as module globals at call time, so a caller may rebind
# them (to trace them, say).

def _mf(work, seed, options):
    grid = _grid_override(options, "delta_b", "half_b")
    return mf_maxsum_solve(work, seed=seed, **grid,
                           **_options(mf_maxsum_solve, options))


def _ss(work, seed, options):
    grid = _grid_override(options, "delta_k", "half_k", cap_key="k_cap")
    return ss_maxsum_solve(work, **grid, **_options(ss_maxsum_solve, options))


def _gs(work, seed, options):
    return gs_solve(work, GSConfig(**_options(GSConfig, options), seed=seed))


def _homog(work, seed, options):
    return homog_from_instance(work, HomogConfig(**_options(HomogConfig, options)))


def _exact(work, seed, options):
    ground_state = exact_mod.ground_state
    return ground_state(work, seed=seed, **_options(ground_state, options))


_ADAPTERS = {"mf": _mf, "ss": _ss, "gs": _gs, "homog": _homog, "exact": _exact}
METHODS = tuple(_ADAPTERS)


def run_cell(inst: QuantumInstance, name: str, method: str, h: float | None,
             seed: int, overrides: dict | None = None) -> ResultRecord:
    """Evaluate one method at one uniform field value.

    h=None keeps the instance's own (possibly nonuniform) fields."""
    if method not in _ADAPTERS:
        raise ValueError(f"unknown method {method!r}")
    work = inst if h is None else inst.with_uniform_field(h)
    if h is None:
        uniform = np.allclose(work.fields, work.fields[0]) if work.n else True
        h_report = float(work.fields[0]) if uniform else float("nan")
    else:
        h_report = float(h)
    t0 = time.perf_counter()
    sol = _ADAPTERS[method](work, seed, dict(overrides or {}))
    dt = (time.perf_counter() - t0) * 1000.0
    return ResultRecord(instance=name, seed=seed, method=method, h=h_report,
                        E_per_spin=sol.energy / work.n, m_x=sol.m_x, q_z=sol.q_z,
                        converged=sol.converged, iters=sol.iterations,
                        time_ms=dt, energy_kind=sol.energy_kind)


def run_grid(inst: QuantumInstance, name: str, methods, h_values,
             base_seed: int = 0, overrides: dict | None = None):
    """All (method, h) cells; overrides maps method -> option dict.

    An empty h_values list runs each method once on the instance's own
    fields."""
    hs = [None] if not h_values else [float(h) for h in h_values]
    return [run_cell(inst, name, method, h, cell_seed(base_seed, method, h),
                     (overrides or {}).get(method))
            for method in methods for h in hs]
