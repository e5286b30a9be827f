"""Command line front end: generate instances, run solvers, compare methods.

Exit codes: 0 success, 1 bad input (arguments, files, instance contents),
2 solver failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .instance import (
    InstanceError,
    GenerationError,
    generate_chain,
    generate_rrg,
    load_instance,
    save_instance,
)
from .records import write_csv, write_jsonl
from .runner import METHODS, parse_overrides, run_grid

LAWS = ("ferro", "pm_one", "gaussian")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isingbp",
        description="Variational cavity solvers for transverse-field Ising models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("topology", choices=("chain", "rrg"))
    gen.add_argument("--n", type=int, required=True, help="number of spins")
    gen.add_argument("--degree", type=int, default=3,
                     help="degree for rrg (ignored for chain)")
    gen.add_argument("--law", choices=LAWS, default="ferro",
                     help="coupling distribution")
    gen.add_argument("--h", type=float, default=0.0, help="uniform field")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output JSON path")

    run = sub.add_parser("run", help="run one method on an instance")
    run.add_argument("--method", required=True, choices=METHODS)
    cmp_ = sub.add_parser("compare", help="run several methods side by side")
    cmp_.add_argument("--methods", default="mf,ss,gs",
                      help="comma-separated subset of " + ",".join(METHODS))
    for cmd, target in ((run, "--method"), (cmp_, "gs, which must be in --methods")):
        cmd.add_argument("--instance", required=True)
        cmd.add_argument("--h", default="",
                         help="comma-separated field values and lo:hi:count "
                              "ranges (np.linspace); empty keeps the "
                              "instance's own fields")
        cmd.add_argument("--seed", type=int, default=0,
                         help="base seed; every cell's solver seed derives "
                              "from it")
        cmd.add_argument("--set", action="append", default=[],
                         metavar="KEY=VALUE",
                         help=f"option override for {target} (repeatable)")
        cmd.add_argument("--csv", default="-",
                         help="CSV output path, - for stdout")
        cmd.add_argument("--jsonl", help="JSONL output path")
    return parser


def _parse_h(text: str) -> list[float]:
    """Comma-separated field values and lo:hi:count ranges (np.linspace)."""
    out = []
    for tok in (text or "").split(","):
        lo, *rest = tok.split(":")
        if not rest:
            out.extend([float(lo)] if lo.strip() else [])
        elif len(rest) == 2 and int(rest[1]) >= 1:
            out.extend(np.linspace(float(lo), float(rest[0]), int(rest[1])).tolist())
        else:
            raise ValueError(f"field range {tok!r} is not lo:hi:count, count >= 1")
    return out


def _emit(records, args, config: dict) -> None:
    if args.csv == "-":
        write_csv(records, sys.stdout)
    else:
        with open(args.csv, "w", newline="") as f:
            write_csv(records, f)
    if args.jsonl:
        with open(args.jsonl, "w") as f:
            write_jsonl(records, f, config)


def _cmd_gen(args) -> int:
    if args.topology == "chain":
        inst = generate_chain(args.n, law=args.law, h=args.h, seed=args.seed)
    else:
        inst = generate_rrg(args.n, args.degree, law=args.law, h=args.h,
                            seed=args.seed)
    Path(args.out).write_text(save_instance(inst))
    print(f"wrote {args.out}: n={inst.n} m={inst.m}")
    return 0


def _cmd_run(args, methods, target: str) -> int:
    """Run every (method, h) cell; the --set options go to target."""
    inst = load_instance(Path(args.instance).read_text())
    h_values = _parse_h(args.h)
    overrides = parse_overrides(args.set)
    if overrides and target not in methods:
        raise ValueError(f"--set options go to {target}, which is not "
                         f"among the methods {methods}")
    name = Path(args.instance).name
    records = run_grid(inst, name, methods, h_values,
                       base_seed=args.seed, overrides={target: overrides})
    config = {
        "instance": args.instance, "methods": list(methods),
        "h": h_values, "seed": args.seed, "overrides": overrides,
    }
    _emit(records, args, config)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "run":
            return _cmd_run(args, [args.method], args.method)
        methods = [m.strip() for m in args.methods.split(",") if m.strip()]
        bad = [m for m in methods if m not in METHODS]
        if bad:
            print(f"unknown methods: {bad}", file=sys.stderr)
            return 1
        return _cmd_run(args, methods, "gs")
    except (InstanceError, GenerationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # solver-level failure
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
