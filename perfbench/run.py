"""isingbp benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload chain_compare --seed 42 --seconds 14 --trace 0

The workloads and metrics are listed in BENCHMARK.json at the root of the
checkout.  This script benchmarks the checkout it sits in: every
measurement runs in a fresh child process (perfbench/measure.py) that
imports isingbp from the checkout's src/ with OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and ISINGBP_THREADS set to 1.  Set-up time is the median
over several such processes.

It prints each metric by name and unit, then, as the last line, one JSON
object with the keys correct, attempted, failed and metrics.  With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
are the per-layer ones from a second, traced pass over the same inputs.
The full record (provenance, every metric, failures, the CSV rows of the
first unit) goes to <out>/<workload>-seed<seed>-trace<t>.json, and the
spans of a traced run next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 8  # plus the measuring process itself
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "ISINGBP_THREADS")
METHODS = ("mf", "ss", "gs", "exact")


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _measure(args: list, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "measure.py"), *args]
    proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited with {proc.returncode}:\n"
                           f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_E"):
        return "J/spin"
    if name.endswith(("_ratio", "failed_cells")):
        return "ratio"
    return "count"


def end_to_end(setups: list, res: dict) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(res["wall_s"]),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def cell_metrics(res: dict) -> dict:
    """Per-method times and energies, bound violations and the failed share;
    0 for a method the workload does not run."""
    out = {}
    for m in METHODS:
        out[f"cell.{m}_s"] = statistics.median(res["method_s"].get(m, [0.0]))
    for m in METHODS:
        out[f"cell.{m}_E"] = res["energies"].get(m, 0.0)
    out["cell.bound_violations"] = res["bound_violations"]
    out["cell.failed_cells"] = res["failed"] / res["attempted"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", default=str(HERE / "out"),
                        help="directory for the run record (default perfbench/out)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "isingbp" / "__init__.py").is_file():
        print(f"no isingbp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.monotonic()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [_measure(["setup", *common], 60.0)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        run_args = ["run", *common, "--seconds", str(args.seconds),
                    "--trace", str(args.trace)]
        if args.trace:
            run_args += ["--spans", f"{stem}.spans.json"]
        res = _measure(run_args, TIME_LIMIT_S - (time.monotonic() - start))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])

    e2e = end_to_end(setups, res)
    extra = cell_metrics(res)
    layers = {**res.get("layers", {}), **extra}
    metrics = layers if args.trace else e2e
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _commit(), "units": res["units"],
        "setup_samples_s": setups, "unit_method_s": res["method_s"],
        "cell_s": res["cell_s"], "end_to_end": e2e, "per_layer": layers,
        "failures": res["failures"], "rows": res["rows"],
        "provenance": res["provenance"],
    }
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} units={res['units']} "
          f"commit={record['commit'][:12]} {json.dumps(res['provenance'])}")
    for name, value in {**e2e, **extra, **res.get("layers", {})}.items():
        print(f"{name:24s} {value:14.6g} {unit_of(name)}")
    for line in res["failures"]:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
