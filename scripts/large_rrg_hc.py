#!/usr/bin/env python3
"""Locate the overlap-vanishing field of a large random regular spin glass.

Runs the joint solver over a field grid on one +-J random regular graph
and reports q_z per field plus the first field where it drops below the
threshold.  The defaults keep the run to a few minutes; at the full size
(--n 1000) one field took 7.9-9.3 s (the example below, on a 2-vCPU
Xeon with one thread).  --seed draws the graph and, unless --solver-seed
is given, seeds the solver too.  Each row also holds the solver's MaxSum
sweeps over all rounds, the peak resident memory of the process so far
and a short sha256 digest of the solution (energy, b, k, nu), so two
builds can be compared row by row.

Example:
    python3 scripts/large_rrg_hc.py --n 200 --h-min 1.6 --h-max 2.4 \
        --steps 5 --csv spin_glass_scan.csv

One n=1000 solve at h=2.0 (instance 77, solver seed 3):
    python3 scripts/large_rrg_hc.py --n 1000 --seed 77 --solver-seed 3 \
        --h-min 2.0 --h-max 2.0 --steps 1
"""

import argparse
import hashlib
import resource
import sys
import time

import numpy as np

from isingbp import GSConfig, generate_rrg, gs_solve


def _digest(res) -> str:
    """First 12 hex digits of the sha256 of the energy, b, k and nu bytes."""
    h = hashlib.sha256(np.float64(res.energy).tobytes())
    for x in (res.b, res.k, res.nu):
        h.update(np.ascontiguousarray(x, dtype=np.float64).tobytes())
    return h.hexdigest()[:12]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--degree", type=int, default=3)
    ap.add_argument("--seed", type=int, default=77)
    ap.add_argument("--solver-seed", type=int, default=None,
                    help="seed of the solver (default: --seed)")
    ap.add_argument("--h-min", type=float, default=1.6)
    ap.add_argument("--h-max", type=float, default=2.4)
    ap.add_argument("--steps", type=int, default=5)
    ap.add_argument("--space-size", type=int, default=12)
    ap.add_argument("--rounds", type=int, default=8)
    ap.add_argument("--k-cap", type=float, default=1.5)
    ap.add_argument("--threshold", type=float, default=0.05,
                    help="q_z below this counts as vanished")
    ap.add_argument("--csv", default="-")
    args = ap.parse_args()
    solver_seed = args.seed if args.solver_seed is None else args.solver_seed

    inst = generate_rrg(args.n, args.degree, law="pm_one", h=1.0,
                        seed=args.seed)
    out = sys.stdout if args.csv == "-" else open(args.csv, "w", newline="")
    out.write("h,E_per_spin,q_z,m_x,chosen,converged,sweeps,time_s,"
              "peak_rss_mb,digest\n")
    vanished = None
    for h in np.linspace(args.h_min, args.h_max, args.steps):
        t0 = time.perf_counter()
        res = gs_solve(inst.with_uniform_field(float(h)),
                       GSConfig(space_size=args.space_size,
                                outer_rounds=args.rounds,
                                k_cap=args.k_cap, seed=solver_seed))
        dt = time.perf_counter() - t0
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out.write(f"{h:.6g},{res.energy / inst.n:.10g},{res.q_z:.6g},"
                  f"{'' if res.m_x is None else f'{res.m_x:.6g}'},"
                  f"{res.chosen},{str(res.converged).lower()},"
                  f"{res.iterations},{dt:.1f},"
                  f"{rss:.1f},{_digest(res)}\n")
        out.flush()
        if vanished is None and res.q_z < args.threshold:
            vanished = float(h)
    if out is not sys.stdout:
        out.close()
    if vanished is None:
        print("overlap never vanished on this grid", file=sys.stderr)
    else:
        print(f"overlap vanishes near h = {vanished:.3g}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
