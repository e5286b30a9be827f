"""Fixed regression set: run_grid rows on the three benchmark instances.

Every method runs on the instance of a perfbench workload, at that
workload's fields and with its overrides; one more gs case runs the
convolution inner max on the rrg_glass instance, and one ss case runs on
a Gaussian 4-regular graph.  Each CSV row but time_ms must equal the
checked-in tests/data/regression_rows.csv.  A change that moves any
printed digit of any solver output fails here.

The same records check what each energy_kind claims: a "bound" energy
lies at or above the ground energy E0, and the loopy rrg_glass ss and gs
energies, some of which fall below E0, say "bethe".

The file was written by this module's generator at a commit whose outputs
are the reference, and is rewritten only when a change is meant to move
the numbers:

    PYTHONPATH=src python tests/test_regression.py > tests/data/regression_rows.csv
"""

import csv
import io
import sys
from pathlib import Path

import pytest

from isingbp import generate_chain, generate_rrg, ground_state
from isingbp.records import CSV_COLUMNS
from isingbp.runner import run_grid

DATA = Path(__file__).resolve().parent / "data" / "regression_rows.csv"
EXACT = {"tol": 1e-4}

# (name, instance builder, methods, fields, overrides), as in
# perfbench/workloads.py but on the generated labels
CASES = [
    ("chain_compare", lambda: generate_chain(14, "gaussian", 1.0, 42),
     ("mf", "ss", "gs", "exact"), (0.3, 1.0, 2.5),
     {"gs": {"outer_rounds": 12}, "exact": EXACT}),
    ("rrg_glass", lambda: generate_rrg(12, 3, "pm_one", 1.0, 7),
     ("mf", "ss", "gs", "exact"), (0.5, 1.5, 3.0),
     {"gs": {"k_cap": 2.0, "outer_rounds": 4}, "exact": EXACT}),
    ("rrg_scan", lambda: generate_rrg(30, 3, "pm_one", 1.0, 77),
     ("gs",), (2.0,),
     {"gs": {"space_size": 12, "outer_rounds": 8, "k_cap": 1.5}}),
    # no workload runs the convolution inner max; this pins its sweeps
    ("rrg_glass_conv", lambda: generate_rrg(12, 3, "pm_one", 1.0, 7),
     ("gs",), (1.5,),
     {"gs": {"inner": "convolution", "space_size": 3, "outer_rounds": 3,
             "k_cap": 2.0}}),
    # workload sites have degree <= 3; this pins ss composing three fronts
    ("rrg4_ss", lambda: generate_rrg(12, 4, "gaussian", 1.0, 7), ("ss",), (1.0,),
     {}),
]


def case_records() -> dict:
    """name -> (instance, run_grid records) for every case."""
    out = {}
    for name, build, methods, fields, overrides in CASES:
        inst = build()
        out[name] = inst, run_grid(inst, name, methods, fields, overrides=overrides)
    return out


def regression_rows(cases: dict) -> list[list[str]]:
    rows = [CSV_COLUMNS[:-1]]
    for _, records in cases.values():
        rows.extend(rec.row()[:-1] for rec in records)
    return rows


@pytest.fixture(scope="module")
def cases():
    return case_records()


def test_rows_match_the_checked_in_file(cases):
    expected = list(csv.reader(io.StringIO(DATA.read_text())))
    assert regression_rows(cases) == expected


def test_bound_energies_lie_above_e0(cases):
    for name in ("chain_compare", "rrg_glass"):
        inst, records = cases[name]
        e0 = {h: ground_state(inst.with_uniform_field(h)).energy / inst.n
              for h in {rec.h for rec in records}}
        for rec in records:
            if rec.energy_kind == "bound":
                assert rec.E_per_spin >= e0[rec.h] - 1e-9, rec
            else:
                assert rec.energy_kind == "bethe", rec
    glass = [rec for rec in cases["rrg_glass"][1] if rec.method in ("ss", "gs")]
    assert len(glass) == 6 and all(rec.energy_kind == "bethe" for rec in glass)


if __name__ == "__main__":
    csv.writer(sys.stdout, lineterminator="\n").writerows(
        regression_rows(case_records()))
