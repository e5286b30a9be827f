"""One benchmark process: set up a workload, run and time its cells, check them.

    python3 perfbench/measure.py setup --workload NAME --seed N
    python3 perfbench/measure.py run --workload NAME --seed N --seconds S \
        --trace 0|1 [--spans PATH]

`perfbench/run.py` starts this in a fresh, single-threaded process with
the checkout's `src/` on PYTHONPATH.  The last line of output is one JSON
object.

`run` is a closed loop of one cell at a time.  A unit is one pass over
the workload's cells, in run_grid order with cell_seed, on the instance
presented under (seed, unit).  Units start until `seconds` have passed.
Then the inputs are run again: without tracing, one cell of unit 0
picked by the seed, whose time is the lower of its two runs; with
tracing, every unit with spans installed.  The repeat must reproduce
every row.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time


def _setup(workload: str, seed: int):
    t0 = time.perf_counter()
    import isingbp  # noqa: F401  (the import is part of set-up time)
    from workloads import WORKLOADS, build_instance

    w = WORKLOADS[workload]
    inst = build_instance(w, seed)
    return time.perf_counter() - t0, w, inst


def _run_unit(w, inst, seed, cell_fn, cells):
    from checks import Cell
    from isingbp.runner import cell_seed

    out = []
    for method, h in cells:
        t0 = time.perf_counter()
        try:
            rec = cell_fn(inst, w.name, method, h, cell_seed(seed, method, h),
                          w.overrides.get(method))
            err = None
        except Exception as exc:  # a failing cell is a result, not a crash
            rec, err = None, f"{type(exc).__name__}: {exc}"
        out.append(Cell(method, h, time.perf_counter() - t0, rec, err))
    return out


def _seconds(unit, methods=None) -> float:
    return sum(c.seconds for c in unit if methods is None or c.method in methods)


def _provenance() -> dict:
    import numpy as np

    import isingbp

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "threads_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "ISINGBP_THREADS")},
        "isingbp": os.path.relpath(os.path.dirname(isingbp.__file__)),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, spans_path):
    setup_s, w, inst0 = _setup(workload, seed)
    import checks
    from isingbp import runner
    from tracing import Tracer, installed, layer_metrics
    from workloads import build_instance

    cells = w.cells()
    insts, units = [inst0], []
    deadline = time.perf_counter() + seconds
    while True:
        units.append(_run_unit(w, insts[-1], seed, runner.run_cell, cells))
        if time.perf_counter() >= deadline:
            break
        insts.append(build_instance(w, seed, len(insts)))

    failed = {}
    for k, unit in enumerate(units):
        for i, why in checks.failures(unit, w.tree_ordering).items():
            failed[k, i] = why
    result = {}
    if trace:
        tracer = Tracer()
        with installed(tracer):
            cell_fn = tracer.wrap("runner.run_cell", runner.run_cell)
            repeats = [_run_unit(w, inst, seed, cell_fn, cells) for inst in insts]
        for k, (unit, again) in enumerate(zip(units, repeats)):
            for i, why in checks.mismatches(unit, again).items():
                failed.setdefault((k, i), why)
        attempted = 2 * len(units) * len(cells)
        result["layers"] = layer_metrics(tracer.spans, tracer.counts, len(units))
        result["layers"]["trace.overhead_s"] = (
            sum(map(_seconds, repeats)) - sum(map(_seconds, units))) / len(units)
        if spans_path:
            with open(spans_path, "w") as f:
                json.dump({"spans": tracer.spans, "counts": tracer.counts}, f)
    else:
        pick = seed % len(cells)
        again = _run_unit(w, inst0, seed, runner.run_cell, [cells[pick]])
        for why in checks.mismatches([units[0][pick]], again).values():
            failed.setdefault((0, pick), why)
        # the repeat is a second sample of that cell's time: keep the lower
        units[0][pick] = units[0][pick]._replace(
            seconds=min(units[0][pick].seconds, again[0].seconds))
        attempted = len(units) * len(cells) + 1

    first = units[0]
    energies = {}
    for m in w.methods:
        vals = [c.record.E_per_spin for c in first if c.method == m and c.record is not None]
        energies[m] = statistics.fmean(vals) if vals else 0.0
    exact_tol = w.overrides.get("exact", {}).get("tol", 1e-8)
    result.update({
        "setup_s": setup_s,
        "units": len(units),
        "method_s": {m: [_seconds(u, {m}) for u in units] for m in w.methods},
        "wall_s": [_seconds(u) for u in units],
        "energies": energies,
        "bound_violations": checks.bound_violations(first, inst0.n, exact_tol),
        "attempted": attempted,
        "failed": len(failed),
        "failures": [f"unit {k} cell {cells[i]}: {why}"
                     for (k, i), why in sorted(failed.items())],
        "rows": [checks.row(c) for c in first],
        "cell_s": [[c.seconds for c in u] for u in units],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": _provenance(),
    })
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        out = {"setup_s": _setup(args.workload, args.seed)[0]}
    else:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                      args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
