"""Record the benchmark's baseline: every workload at its default seed,
untraced and traced, into perfbench/baseline/.

    python3 perfbench/baseline.py

The default seed of a workload is the generator seed of its instance.
Runs last as long as BENCHMARK.json's run_seconds.  Prints one markdown
row per workload and run mode.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from workloads import WORKLOADS  # noqa: E402

SHOWN = ("setup_s", "wall_s", "peak_rss_mb", "cell.mf_s", "cell.ss_s", "cell.gs_s",
         "cell.exact_s", "cell.gs_E", "cell.bound_violations", "gs.sweep_ms",
         "bp.iterations", "exact.apply_h_ms", "trace.overhead_s")


def main() -> int:
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    out = HERE / "baseline"
    print("| workload | seed | trace | units | " + " | ".join(SHOWN) + " |")
    print("|---" * (len(SHOWN) + 4) + "|")
    for w in WORKLOADS.values():
        for trace in (0, 1):
            subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", w.name,
                            "--seed", str(w.instance_seed), "--seconds", str(seconds),
                            "--trace", str(trace), "--out", str(out)],
                           check=True, stdout=subprocess.DEVNULL)
            rec = json.loads((out / f"{w.name}-seed{w.instance_seed}-trace{trace}.json")
                             .read_text())
            values = {**rec["end_to_end"], **rec["per_layer"]}
            cols = [f"{values[k]:.4g}" if k in values else "" for k in SHOWN]
            print(f"| {w.name} | {w.instance_seed} | {trace} | {rec['units']} | "
                  + " | ".join(cols) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
