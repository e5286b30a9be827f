"""Command line front end: generate instances, run solvers, compare methods.

Exit codes: 0 success, 1 bad input (arguments, files, instance contents),
2 solver failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

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
    run.add_argument("--instance", required=True)
    run.add_argument("--method", required=True, choices=METHODS)
    run.add_argument("--h", default="",
                     help="comma-separated field values; empty keeps the "
                          "instance's own fields")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="solver option override (repeatable)")
    run.add_argument("--csv", default="-", help="CSV output path, - for stdout")
    run.add_argument("--jsonl", help="JSONL output path")

    cmp_ = sub.add_parser("compare", help="run several methods side by side")
    cmp_.add_argument("--instance", required=True)
    cmp_.add_argument("--methods", default="mf,ss,gs",
                      help="comma-separated subset of " + ",".join(METHODS))
    cmp_.add_argument("--h", default="",
                      help="comma-separated field values; empty keeps the "
                           "instance's own fields")
    cmp_.add_argument("--seed", type=int, default=0)
    cmp_.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                      help="gs option override (repeatable)")
    cmp_.add_argument("--csv", default="-", help="CSV output path, - for stdout")
    cmp_.add_argument("--jsonl", help="JSONL output path")
    return parser


def _parse_h(text: str) -> list[float]:
    text = (text or "").strip()
    if not text:
        return []
    return [float(tok) for tok in text.split(",") if tok.strip()]


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


def _cmd_run(args, methods) -> int:
    inst = load_instance(Path(args.instance).read_text())
    h_values = _parse_h(args.h)
    overrides = parse_overrides(args.set)
    per_method = {m: dict(overrides) if m == "gs" or len(methods) == 1 else {}
                  for m in methods}
    name = Path(args.instance).name
    records = run_grid(inst, name, methods, h_values,
                       base_seed=args.seed, overrides=per_method)
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
            return _cmd_run(args, [args.method])
        methods = [m.strip() for m in args.methods.split(",") if m.strip()]
        bad = [m for m in methods if m not in METHODS]
        if bad:
            print(f"unknown methods: {bad}", file=sys.stderr)
            return 1
        return _cmd_run(args, methods)
    except (InstanceError, GenerationError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # solver-level failure
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
