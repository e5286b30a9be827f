"""Result records, serialization, and the method-dispatch runner."""

import csv
import functools
import io
import json

import numpy as np
import pytest

from isingbp import (
    GSConfig,
    HomogConfig,
    QuantumInstance,
    generate_chain,
    generate_rrg,
    ground_state,
    gs_solve,
    homog_from_instance,
    mf_maxsum_solve,
    ss_maxsum_solve,
)
from isingbp.records import (
    CSV_COLUMNS,
    ResultRecord,
    config_digest,
    write_csv,
    write_jsonl,
)
from isingbp.runner import (
    METHODS,
    cell_seed,
    parse_overrides,
    run_cell,
    run_grid,
)


def _record(**kw):
    base = dict(instance="x.json", seed=1, method="mf", h=0.5,
                E_per_spin=-1.25, m_x=0.5, q_z=0.25, converged=True,
                iters=10, time_ms=3.25)
    base.update(kw)
    return ResultRecord(**base)


def test_csv_column_order():
    assert CSV_COLUMNS == ["instance", "seed", "method", "h", "E_per_spin",
                           "m_x", "q_z", "converged", "iters", "time_ms"]


def test_row_formatting():
    row = _record(m_x=None, converged=False, E_per_spin=-1.0 / 3.0).row()
    assert row[CSV_COLUMNS.index("m_x")] == ""
    assert row[CSV_COLUMNS.index("converged")] == "false"
    assert row[CSV_COLUMNS.index("E_per_spin")] == "-0.3333333333"
    assert row[CSV_COLUMNS.index("instance")] == "x.json"


def test_write_csv():
    buf = io.StringIO()
    write_csv([_record(), _record(method="ss")], buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 3
    assert rows[2][2] == "ss"


def test_write_jsonl_echoes_config():
    buf = io.StringIO()
    config = {"methods": ["mf"], "h": [0.5]}
    write_jsonl([_record(), _record(h=1.0, energy_kind="bound")], buf, config)
    lines = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert len(lines) == 2
    for line in lines:
        assert line["config"] == config
        assert line["digest"] == config_digest(config)
        assert line["energy_kind"] in ("bound", "bethe")
    assert lines[1]["h"] == 1.0
    assert lines[1]["energy_kind"] == "bound"


def test_config_digest_stable():
    a = config_digest({"x": 1, "y": [2, 3]})
    b = config_digest({"y": [2, 3], "x": 1})
    assert a == b and len(a) == 12
    assert config_digest({"x": 2, "y": [2, 3]}) != a


def test_cell_seed_distinct_and_stable():
    s = cell_seed(7, "mf", 0.5)
    assert s == cell_seed(7, "mf", 0.5)
    assert s != cell_seed(7, "ss", 0.5)
    assert s != cell_seed(7, "mf", 1.0)
    assert cell_seed(7, "mf", None) != cell_seed(7, "mf", 0.0)
    assert 0 <= s < 2 ** 31


def test_parse_overrides_types():
    out = parse_overrides(["a=1", "b=1.5", "c=true", "d=none", "e=chain",
                           "f=False"])
    assert out == {"a": 1, "b": 1.5, "c": True, "d": None, "e": "chain",
                   "f": False}
    with pytest.raises(ValueError):
        parse_overrides(["missing-equals"])


def test_run_cell_mf_deterministic():
    inst = generate_chain(6, law="gaussian", h=0.0, seed=3)
    a = run_cell(inst, "c6", "mf", 0.8, seed=5)
    b = run_cell(inst, "c6", "mf", 0.8, seed=5)
    assert a.method == "mf" and a.h == 0.8 and a.instance == "c6"
    assert a.converged and a.E_per_spin < 0
    assert (a.E_per_spin, a.m_x, a.q_z, a.iters) == \
        (b.E_per_spin, b.m_x, b.q_z, b.iters)


def test_run_cell_exact_matches_ground_state():
    inst = generate_chain(5, law="gaussian", h=0.0, seed=1)
    rec = run_cell(inst, "c5", "exact", 0.7, seed=9)
    ref = ground_state(inst.with_uniform_field(0.7), seed=9)
    assert np.isclose(rec.E_per_spin, ref.energy / 5, atol=1e-12)
    assert rec.converged
    # the exact state is parity-even, so q_z is 0 by symmetry
    assert rec.q_z == 0.0
    assert rec.iters == ref.iterations
    assert rec.row()[CSV_COLUMNS.index("converged")] == "true"


def test_run_cell_own_fields_and_zero_field():
    inst = QuantumInstance(n=3, edge_index=[[0, 1], [1, 2]],
                           couplings=[1.0, -0.5],
                           fields=[0.2, 0.4, 0.6], seed=0)
    rec = run_cell(inst, "mixed", "mf", None, seed=1)
    assert np.isnan(rec.h)

    cold = run_cell(inst, "cold", "mf", 0.0, seed=1)
    assert cold.m_x is None
    assert cold.row()[CSV_COLUMNS.index("m_x")] == ""


# each method's run_cell options and the direct solver call they amount to
_DIRECT = {
    "mf": ({}, lambda inst, seed: mf_maxsum_solve(inst, seed=seed)),
    "ss": ({}, lambda inst, seed: ss_maxsum_solve(inst)),
    "gs": ({"outer_rounds": 2},
           lambda inst, seed: gs_solve(inst, GSConfig(outer_rounds=2, seed=seed))),
    "homog": ({"delta": 0.05},
              lambda inst, seed: homog_from_instance(inst, HomogConfig(delta=0.05))),
    "exact": ({}, lambda inst, seed: ground_state(inst, seed=seed)),
}


@pytest.mark.parametrize("method", METHODS)
def test_run_cell_reports_the_solution(method):
    inst = generate_rrg(8, 3, law="ferro", h=1.0, seed=0)
    options, solve = _DIRECT[method]
    rec = run_cell(inst, "rrg", method, None, seed=6, overrides=options)
    sol = solve(inst, 6)
    assert rec.E_per_spin == sol.energy / inst.n
    assert (rec.m_x, rec.q_z, rec.converged, rec.iters, rec.energy_kind) == \
        (sol.m_x, sol.q_z, sol.converged, sol.iterations, sol.energy_kind)


def test_run_cell_homog():
    inst = generate_rrg(8, 3, law="ferro", h=1.0, seed=0)
    rec = run_cell(inst, "rrg", "homog", None, seed=0,
                   overrides={"delta": 0.05})
    assert rec.converged
    assert rec.E_per_spin < -1.0
    assert rec.iters == 1


def test_run_cell_rejects_bad_input():
    inst = generate_chain(4, law="ferro", h=1.0, seed=0)
    with pytest.raises(ValueError):
        run_cell(inst, "x", "bogus", 1.0, seed=0)
    with pytest.raises(ValueError):
        run_cell(inst, "x", "mf", 1.0, seed=0, overrides={"nope": 1})
    with pytest.raises(ValueError):
        run_cell(inst, "x", "gs", 1.0, seed=0, overrides={"nope": 1})
    with pytest.raises(ValueError):
        run_cell(inst, "x", "exact", 1.0, seed=0, overrides={"nope": 1})
    with pytest.raises(ValueError):
        run_cell(inst, "x", "mf", 1.0, seed=0, overrides={"delta_b": 0.1})


@pytest.mark.parametrize("method", ["mf", "ss", "gs", "exact", "homog"])
def test_seed_is_not_an_option(method):
    # every solver seed comes from the cell, so an override is an input error
    inst = generate_rrg(4, 3, law="ferro", h=1.0, seed=0)
    with pytest.raises(ValueError, match="unknown .* options: \\['seed'\\]"):
        run_cell(inst, "x", method, 1.0, seed=0, overrides={"seed": 3})


def test_ss_grid_override_takes_the_cap():
    inst = generate_chain(4, law="gaussian", h=1.0, seed=0)
    capped = run_cell(inst, "x", "ss", 0.5, seed=0,
                      overrides={"delta_k": 0.1, "half_k": 20, "k_cap": 0.3})
    assert capped.converged
    with pytest.raises(ValueError, match="given together"):
        run_cell(inst, "x", "ss", 0.5, seed=0, overrides={"k_cap": 0.3})
    with pytest.raises(ValueError, match="unknown"):
        run_cell(inst, "x", "mf", 0.5, seed=0,
                 overrides={"delta_b": 0.1, "half_b": 20, "k_cap": 0.3})


def test_run_cell_calls_rebound_solvers(monkeypatch):
    # callers (the benchmark's tracer) rebind the runner's solver globals
    import isingbp.runner as runner

    calls = []
    original = runner.mf_maxsum_solve

    @functools.wraps(original)  # as the tracer wraps: options check against it
    def spy(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(runner, "mf_maxsum_solve", spy)
    inst = generate_chain(4, law="ferro", h=1.0, seed=0)
    run_cell(inst, "x", "mf", 0.5, seed=7, overrides={"max_iters": 50})
    assert calls == [{"seed": 7, "max_iters": 50}]


def test_run_grid_layout():
    inst = generate_chain(5, law="gaussian", h=0.3, seed=2)
    recs = run_grid(inst, "c5", ["mf", "ss"], [0.5, 1.5], base_seed=3)
    assert [(r.method, r.h) for r in recs] == [
        ("mf", 0.5), ("mf", 1.5), ("ss", 0.5), ("ss", 1.5)]
    assert all(r.seed == cell_seed(3, r.method, r.h) for r in recs)

    own = run_grid(inst, "c5", ["mf"], [], base_seed=3)
    assert len(own) == 1 and own[0].h == 0.3
