"""Fixed regression set: run_grid rows on the three benchmark instances.

Every method runs on the instance of a perfbench workload, at that
workload's fields and with its overrides; one more gs case runs the
convolution inner max on the rrg_glass instance, and one ss case runs on
a Gaussian 4-regular graph.  Each CSV row but time_ms must equal the
checked-in tests/data/regression_rows.csv.  A change that moves any
printed digit of any solver output fails here.

The file was written by this module's generator at a commit whose outputs
are the reference, and is rewritten only when a change is meant to move
the numbers:

    PYTHONPATH=src python tests/test_regression.py > tests/data/regression_rows.csv
"""

import csv
import io
import sys
from pathlib import Path

from isingbp import generate_chain, generate_rrg
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


def regression_rows() -> list[list[str]]:
    rows = [CSV_COLUMNS[:-1]]
    for name, build, methods, fields, overrides in CASES:
        records = run_grid(build(), name, methods, fields, overrides=overrides)
        rows.extend(rec.row()[:-1] for rec in records)
    return rows


def test_rows_match_the_checked_in_file():
    expected = list(csv.reader(io.StringIO(DATA.read_text())))
    assert regression_rows() == expected


if __name__ == "__main__":
    csv.writer(sys.stdout, lineterminator="\n").writerows(regression_rows())
