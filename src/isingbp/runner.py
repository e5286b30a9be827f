"""Method dispatch: evaluate solvers over a field grid on one instance.

Each (method, field) cell gets its own deterministic seed derived from the
base seed, so runs reproduce regardless of execution order.  Cells run in
a thread pool when ISINGBP_THREADS asks for more than one worker.
"""

from __future__ import annotations

import inspect
import os
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields as dc_fields

import numpy as np

from . import exact as exact_mod
from .classical_bp import ParameterSet, observables
from .general import GSConfig, gs_solve
from .homogeneous import HomogConfig, homog_from_instance
from .instance import ClassicalGraph, QuantumInstance
from .meanfield import mf_maxsum_solve
from .records import ResultRecord
from .symmetric import ss_maxsum_solve

METHODS = ("mf", "ss", "gs", "homog", "exact")


class SolverError(RuntimeError):
    """A method failed on a cell it should have handled."""


def thread_count() -> int:
    raw = os.environ.get("ISINGBP_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


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


def _filter_config(cls, overrides: dict):
    names = {f.name for f in dc_fields(cls)}
    unknown = set(overrides) - names
    if unknown:
        raise ValueError(f"unknown {cls.__name__} options: {sorted(unknown)}")
    return cls(**overrides)


def _check_kwargs(fn, overrides: dict):
    allowed = set(inspect.signature(fn).parameters) - {"inst"}
    unknown = set(overrides) - allowed
    if unknown:
        raise ValueError(f"unknown {fn.__name__} options: {sorted(unknown)}")


def _grid_override(overrides: dict, step_key: str, half_key: str):
    """Pop grid-shaped overrides (delta_*/half_*) into a Grid, if given."""
    from .grids import Grid

    step = overrides.pop(step_key, None)
    half = overrides.pop(half_key, None)
    cap = overrides.pop("k_cap", None) if step_key == "delta_k" else None
    if step is None and half is None and cap is None:
        return None
    if step is None or half is None:
        raise ValueError(f"{step_key} and {half_key} must be given together")
    return Grid(float(step), int(half), cap=cap)


def run_cell(inst: QuantumInstance, name: str, method: str, h: float | None,
             seed: int, overrides: dict | None = None) -> ResultRecord:
    """Evaluate one method at one uniform field value.

    h=None keeps the instance's own (possibly nonuniform) fields."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    overrides = dict(overrides or {})
    work = inst if h is None else inst.with_uniform_field(h)
    if h is None:
        uniform = np.allclose(work.fields, work.fields[0]) if work.n else True
        h_report = float(work.fields[0]) if uniform else float("nan")
    else:
        h_report = float(h)
    h_zero = not np.any(work.fields)
    t0 = time.perf_counter()

    if method == "mf":
        grid = _grid_override(overrides, "delta_b", "half_b")
        if grid is not None:
            overrides["grid"] = grid
        _check_kwargs(mf_maxsum_solve, overrides)
        sol = mf_maxsum_solve(work, seed=seed, **overrides)
        sz = np.tanh(2.0 * sol.b)
        sx = 1.0 / np.cosh(2.0 * sol.b)
        rec = dict(E_per_spin=sol.energy / work.n,
                   m_x=None if h_zero else float(np.mean(sx)),
                   q_z=float(np.mean(sz * sz)), converged=sol.converged,
                   iters=sol.iterations)
    elif method == "ss":
        grid = _grid_override(overrides, "delta_k", "half_k")
        if grid is not None:
            overrides["grid"] = grid
        _check_kwargs(ss_maxsum_solve, overrides)
        sol = ss_maxsum_solve(work, seed=seed, **overrides)
        graph = ClassicalGraph.from_instance(work)
        obs = observables(work, graph, ParameterSet(np.zeros(work.n), sol.k),
                          np.zeros(2 * graph.m))
        rec = dict(E_per_spin=sol.energy / work.n, m_x=obs.m_x,
                   q_z=obs.q_z, converged=sol.converged, iters=sol.iterations)
    elif method == "gs":
        cfg = _filter_config(GSConfig, {**overrides, "seed": seed})
        sol = gs_solve(work, cfg)
        rec = dict(E_per_spin=sol.energy / work.n, m_x=sol.m_x, q_z=sol.q_z,
                   converged=sol.converged, iters=sol.iterations)
    elif method == "homog":
        cfg = _filter_config(HomogConfig, overrides)
        point = homog_from_instance(work, cfg)
        rec = dict(E_per_spin=point.energy, m_x=point.m_x,
                   q_z=point.m_z ** 2, converged=point.converged, iters=1)
    else:  # exact
        _check_kwargs(exact_mod.ground_state, overrides)
        gs = exact_mod.ground_state(work, seed=seed, **overrides)
        # the state is parity-even, so every <sigma_i^z> is 0
        rec = dict(E_per_spin=gs.energy / work.n,
                   m_x=None if h_zero else float(np.mean(gs.sigma_x)),
                   q_z=0.0,
                   converged=gs.converged, iters=gs.iterations)

    dt = (time.perf_counter() - t0) * 1000.0
    return ResultRecord(instance=name, seed=seed, method=method, h=h_report,
                        time_ms=dt, **rec)


def run_grid(inst: QuantumInstance, name: str, methods, h_values,
             base_seed: int = 0, overrides: dict | None = None):
    """All (method, h) cells; overrides maps method -> option dict.

    An empty h_values list runs each method once on the instance's own
    fields."""
    overrides = overrides or {}
    hs = [None] if not h_values else [float(h) for h in h_values]
    cells = [(m, h) for m in methods for h in hs]

    def work(cell):
        method, h = cell
        return run_cell(inst, name, method, h, cell_seed(base_seed, method, h),
                        overrides.get(method))

    workers = thread_count()
    if workers > 1 and len(cells) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(work, cells))
    else:
        results = [work(c) for c in cells]
    return results
