"""Tests of the benchmark itself: the correctness gate, the self-time
arithmetic, and that tracing leaves isingbp exactly as it found it.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import measure
import tracing
import workloads
from checks import Cell
from isingbp.records import ResultRecord

ROOT = Path(__file__).resolve().parents[2]


def _cell(method, h, energy, converged=True, iters=1):
    rec = ResultRecord(instance="t", seed=0, method=method, h=h, E_per_spin=energy,
                       m_x=0.5, q_z=0.1, converged=converged, iters=iters,
                       time_ms=1.0)
    return Cell(method, h, 0.001, rec, None)


def _tree_cells(exact=-1.5, gs=-1.4, mf=-1.3, ss=-1.35, converged=True):
    return [_cell("mf", 1.0, mf), _cell("ss", 1.0, ss), _cell("gs", 1.0, gs),
            _cell("exact", 1.0, exact, converged)]


def test_gate_passes_a_good_tree_record():
    assert checks.failures(_tree_cells(), tree_ordering=True) == {}


@pytest.mark.parametrize("energies", [
    {"gs": -1.6},             # below the ground energy
    {"gs": -1.3, "ss": -1.35},  # worse than a seed
    {"mf": -1.45},            # mf beats gs
])
def test_gate_fails_gs_on_broken_tree_ordering(energies):
    out = checks.failures(_tree_cells(**energies), tree_ordering=True)
    assert list(out) == [2]


def test_gate_ignores_ordering_off_trees():
    assert checks.failures(_tree_cells(gs=-1.6), tree_ordering=False) == {}


def test_gate_fails_unconverged_exact_on_trees():
    assert list(checks.failures(_tree_cells(converged=False), True)) == [3]


def test_gate_fails_raised_and_non_finite_cells():
    cells = [Cell("mf", 1.0, 0.0, None, "ValueError: boom"), _cell("ss", 1.0, math.nan)]
    assert sorted(checks.failures(cells, tree_ordering=False)) == [0, 1]


def test_gate_fails_rows_that_change_between_repeats():
    first = _tree_cells()
    again = _tree_cells(gs=-1.400001)  # rows print 10 significant digits
    same_but_slower = [c._replace(seconds=9.0) for c in first]
    assert list(checks.mismatches(first, again)) == [2]
    assert checks.mismatches(first, same_but_slower) == {}


def test_bound_violations_count_cells_below_e0_beyond_tolerance():
    cells = _tree_cells(exact=-1.0, gs=-1.5, ss=-1.00005, mf=-0.9)
    assert checks.bound_violations(cells, n=10, tol=1e-4) == 1


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],   # overlaps a: together they cover 1..6
        ["c", 1.5, 2.0, 1],   # grandchild: counts against a only
        ["d", 9.0, 12.0, 0],  # runs past the parent: clipped at 10
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.5, 3.0, 0.5, 3.0])


def test_layer_metrics_divide_totals_by_passes():
    spans = [["runner.run_cell", 0.0, 4.0, -1], ["gs.solve", 0.5, 3.5, 0],
             ["gs.sweep", 1.0, 2.0, 1], ["gs.sweep", 2.0, 2.5, 1]]
    layers = tracing.layer_metrics(spans, {"gs.round_wins": 1}, passes=2)
    assert layers["gs.sweep_calls"] == 1
    assert layers["gs.sweep_s"] == pytest.approx(0.75)
    assert layers["gs.sweep_ms"] == pytest.approx(750.0)
    assert layers["gs.self_s"] == pytest.approx(0.75)
    assert layers["runner.self_s"] == pytest.approx(0.5)
    assert layers["gs.round_win_ratio"] == 1.0


def _snapshot():
    import isingbp
    from isingbp.instance import ClassicalGraph

    mods = [m for name, m in sys.modules.items() if name.startswith("isingbp")]
    snap = {(m.__name__, k): id(v) for m in mods for k, v in vars(m).items()}
    snap.update({("ClassicalGraph", k): id(v) for k, v in vars(ClassicalGraph).items()})
    assert isingbp
    return snap


@pytest.fixture
def tiny(monkeypatch):
    w = workloads.Workload(
        name="tiny", topology="chain", n=6, law="gaussian", instance_seed=3,
        methods=("mf", "ss", "gs", "exact"), fields=(0.5, 2.0),
        overrides={"gs": {"outer_rounds": 2, "space_size": 4}, "exact": {"tol": 1e-6}},
        tree_ordering=True,
    )
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", w)
    return w


def test_untraced_run_changes_no_module_attribute(tiny):
    before = _snapshot()
    res = measure.measure("tiny", seed=5, seconds=0.0, trace=False, spans_path=None)
    assert _snapshot() == before
    assert res["failed"] == 0 and "layers" not in res
    assert res["attempted"] == res["units"] * len(tiny.cells()) + 1


def test_traced_run_restores_attributes_and_reports_every_layer(tiny, tmp_path):
    before = _snapshot()
    spans = tmp_path / "spans.json"
    res = measure.measure("tiny", seed=5, seconds=0.0, trace=True, spans_path=str(spans))
    assert _snapshot() == before
    assert res["failed"] == 0
    names = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert {n for n in names if not n.startswith("cell.")} == set(res["layers"])
    assert res["layers"]["exact.lanczos_iters"] > 0
    assert res["layers"]["gs.sweep_calls"] > 0
    assert json.loads(spans.read_text())["spans"]


def test_seeds_relabel_the_same_physics():
    from isingbp.exact import ground_state

    w = workloads.WORKLOADS["rrg_glass"]
    a, b = workloads.build_instance(w, 1), workloads.build_instance(w, 2)
    assert workloads.build_instance(w, 1) == a
    assert not np.array_equal(a.edge_index, b.edge_index)
    assert not np.array_equal(a.couplings, b.couplings)
    e_a = ground_state(a.with_uniform_field(1.5)).energy
    e_b = ground_state(b.with_uniform_field(1.5)).energy
    assert e_a == pytest.approx(e_b, abs=1e-9)


def test_printed_metrics_match_benchmark_json():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    res = {"wall_s": [2.0, 1.0, 3.0], "method_s": {"gs": [1.0, 0.5, 2.0]},
           "peak_rss_mb": 80.0, "energies": {"gs": -1.2}, "bound_violations": 0,
           "failed": 0, "attempted": 4}
    e2e = run.end_to_end([0.3, 0.1, 0.2], res)
    assert e2e["setup_s"] == 0.2 and e2e["wall_s"] == 2.0
    layers = {**tracing.layer_metrics([], {}), "trace.overhead_s": 0.0,
              **run.cell_metrics(res)}
    for key, metrics in (("end_to_end", e2e), ("per_layer", layers)):
        assert [m["name"] for m in spec[key]] == list(metrics)
        assert all(m["unit"] == run.unit_of(m["name"]) for m in spec[key])
