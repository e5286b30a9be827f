"""Command line round trips and exit codes."""

import csv
import dataclasses
import functools
import inspect
import io
import json

import numpy as np
import pytest

import isingbp.exact
import isingbp.runner
from isingbp import (
    GSConfig,
    HomogConfig,
    Solution,
    cli,
    generate_chain,
    ground_state,
    load_instance,
    mf_maxsum_solve,
    ss_maxsum_solve,
)
from isingbp.grids import Grid
from isingbp.records import CSV_COLUMNS, config_digest
from isingbp.runner import run_cell

# The --set surface, key by key, each with a valid value: an option that
# a caller sets goes here, in plain view, or it is a module constant.
SET_KEYS = {
    "mf": {"delta_b": 0.02, "half_b": 150, "max_iters": 1000},
    "ss": {"delta_k": 0.01, "half_k": 200, "k_cap": 1.0, "max_iters": 1000},
    "gs": {"delta_b": 0.05, "half_b": 60, "delta_k": 0.05, "half_k": 40,
           "delta_nu": 0.05, "half_nu": 120, "k_cap": 1.0, "space_size": 20,
           "outer_rounds": 30, "inner": "exhaustive"},
    "homog": {"delta": 0.01, "mf_only": False},
    "exact": {"tol": 1e-8, "max_iters": 200000},
}
# keys that were options once and are module constants now (a solver's
# grid comes from its step and half keys)
RETIRED_KEYS = {
    "mf": ["eps", "patience", "grid"],
    "ss": ["eps", "grid"],
    "gs": ["tol_init", "tol_decay", "tol_floor", "max_sweeps", "sweep_tol",
           "delta_m", "bp_eps", "bp_max_iters", "bp_restarts",
           "resample_fraction", "proposal_radius_bins", "conv_x_step",
           "conv_y_bins"],
    "homog": ["b_max", "k_max", "damping", "max_iters", "fp_tol",
              "newton_steps", "residual_tol"],
    "exact": [],
}


def _gen(tmp_path, *extra):
    path = tmp_path / "inst.json"
    args = ["gen", "chain", "--n", "5", "--law", "gaussian", "--h", "0.5",
            "--seed", "3", "--out", str(path), *extra]
    assert cli.main(args) == 0
    return path


def _parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


def test_gen_writes_loadable_instance(tmp_path, capsys):
    path = _gen(tmp_path)
    out = capsys.readouterr().out
    assert "n=5 m=4" in out
    inst = load_instance(path.read_text())
    assert inst.n == 5 and inst.m == 4
    assert np.all(inst.fields == 0.5)


def test_gen_rrg(tmp_path):
    path = tmp_path / "rrg.json"
    assert cli.main(["gen", "rrg", "--n", "10", "--degree", "3",
                     "--law", "pm_one", "--out", str(path)]) == 0
    inst = load_instance(path.read_text())
    assert np.all(np.bincount(inst.edge_index.ravel(), minlength=10) == 3)


def test_run_stdout_csv(tmp_path, capsys):
    path = _gen(tmp_path)
    capsys.readouterr()
    assert cli.main(["run", "--instance", str(path), "--method", "mf",
                     "--h", "0.5,1.5"]) == 0
    rows = _parse_csv(capsys.readouterr().out)
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 3
    assert {r[3] for r in rows[1:]} == {"0.5", "1.5"}


def test_run_csv_and_jsonl_files(tmp_path):
    path = _gen(tmp_path)
    out_csv = tmp_path / "out.csv"
    out_jsonl = tmp_path / "out.jsonl"
    assert cli.main(["run", "--instance", str(path), "--method", "ss",
                     "--h", "1.0", "--csv", str(out_csv),
                     "--jsonl", str(out_jsonl)]) == 0
    rows = _parse_csv(out_csv.read_text())
    assert len(rows) == 2 and rows[1][2] == "ss"
    lines = [json.loads(x) for x in out_jsonl.read_text().splitlines()]
    assert len(lines) == 1
    assert lines[0]["digest"] == config_digest(lines[0]["config"])
    assert lines[0]["config"]["methods"] == ["ss"]


def test_compare_all_fast_methods(tmp_path, capsys):
    path = _gen(tmp_path)
    capsys.readouterr()
    assert cli.main(["compare", "--instance", str(path),
                     "--methods", "mf,ss,exact", "--h", "0.8"]) == 0
    rows = _parse_csv(capsys.readouterr().out)
    assert [r[2] for r in rows[1:]] == ["mf", "ss", "exact"]
    energies = [float(r[4]) for r in rows[1:]]
    # variational bound visible straight from the table
    assert energies[0] >= energies[2] - 1e-9


def test_run_gs_with_overrides(tmp_path, capsys):
    path = _gen(tmp_path)
    capsys.readouterr()
    assert cli.main(["run", "--instance", str(path), "--method", "gs",
                     "--h", "0.5", "--set", "space_size=6",
                     "--set", "outer_rounds=2", "--set", "inner=convolution"]) == 0
    rows = _parse_csv(capsys.readouterr().out)
    assert rows[1][2] == "gs"
    assert float(rows[1][4]) < 0


def test_own_fields_when_h_empty(tmp_path, capsys):
    path = _gen(tmp_path)
    capsys.readouterr()
    assert cli.main(["run", "--instance", str(path), "--method", "mf"]) == 0
    rows = _parse_csv(capsys.readouterr().out)
    assert len(rows) == 2
    assert rows[1][3] == "0.5"


@pytest.mark.parametrize("args", [
    ["run", "--instance", "/nonexistent/x.json", "--method", "mf"],
    ["compare", "--instance", "IGNORED", "--methods", "mf,bogus"],
    ["gen", "rrg", "--n", "5", "--degree", "3", "--out", "/tmp/odd.json"],
    # bad --set values fail before any solve
    ["run", "--instance", "IGNORED", "--method", "gs", "--set", "delta_b=nan"],
    ["run", "--instance", "IGNORED", "--method", "gs", "--set", "delta_nu=inf"],
    ["run", "--instance", "IGNORED", "--method", "gs", "--set", "space_size=2.5"],
    ["run", "--instance", "IGNORED", "--method", "mf", "--set", "grid=3"],
    ["run", "--instance", "IGNORED", "--method", "mf", "--set", "delta_b=nan",
     "--set", "half_b=10"],
    ["run", "--instance", "IGNORED", "--method", "ss", "--set", "delta_k=0.1",
     "--set", "half_k=2.5"],
    ["run", "--instance", "IGNORED", "--method", "exact", "--set", "tol=nan"],
    ["run", "--instance", "IGNORED", "--method", "exact", "--set", "tol=-1"],
    ["run", "--instance", "IGNORED", "--method", "exact", "--set", "max_iters=2.5"],
    ["run", "--instance", "IGNORED", "--method", "mf", "--set", "max_iters=-1"],
    ["run", "--instance", "IGNORED", "--method", "mf", "--set", "max_iters=2.5"],
    ["run", "--instance", "IGNORED", "--method", "ss", "--set", "max_iters=0"],
    ["run", "--instance", "IGNORED", "--method", "gs", "--set", "delta_b=abc"],
    ["run", "--instance", "IGNORED", "--method", "gs", "--set", "k_cap=abc"],
    ["run", "--instance", "RRG", "--method", "homog", "--set", "mf_only=abc"],
    ["run", "--instance", "RRG", "--method", "homog", "--set", "delta=0"],
])
def test_bad_input_exits_one(args, tmp_path):
    args = args.copy()
    if args[2] == "IGNORED":
        args[2] = str(_gen(tmp_path))
    elif args[2] == "RRG":
        # a regular ferromagnet, on which homog runs without the bad value
        args[2] = str(tmp_path / "rrg.json")
        assert cli.main(["gen", "rrg", "--n", "6", "--degree", "3", "--law",
                         "ferro", "--h", "1.0", "--seed", "3", "--out", args[2]]) == 0
        assert cli.main(args[:-2]) == 0
    assert cli.main(args + ["--h", "1.0"]) == 1


def test_bad_h_and_bad_override_exit_one(tmp_path):
    path = _gen(tmp_path)
    assert cli.main(["run", "--instance", str(path), "--method", "mf",
                     "--h", "0.1,junk"]) == 1
    assert cli.main(["run", "--instance", str(path), "--method", "gs",
                     "--h", "0.5", "--set", "not_an_option=1"]) == 1
    assert cli.main(["run", "--instance", str(path), "--method", "mf",
                     "--h", "0.5", "--set", "not_an_option=1"]) == 1


@pytest.mark.parametrize("flag", ["--instance", "--csv", "--jsonl"])
def test_directory_path_is_bad_input(tmp_path, capsys, flag):
    # open() on a directory raises IsADirectoryError, an OSError: bad input,
    # not a solver failure (a second --instance replaces the first)
    assert cli.main(["run", "--method", "mf", "--h", "0.5", "--instance",
                     str(_gen(tmp_path)), flag, str(tmp_path)]) == 1
    assert "solver failure" not in capsys.readouterr().err


def test_h_ranges_expand_with_linspace(tmp_path, capsys):
    path = _gen(tmp_path)
    capsys.readouterr()
    assert cli.main(["run", "--instance", str(path), "--method", "mf",
                     "--h", "0.5:1.5:3,2.0", "--seed", "4"]) == 0
    ranged = _parse_csv(capsys.readouterr().out)
    assert [float(r[3]) for r in ranged[1:]] == [0.5, 1.0, 1.5, 2.0]
    assert cli.main(["run", "--instance", str(path), "--method", "mf",
                     "--h", "0.5,1.0,1.5,2.0", "--seed", "4"]) == 0
    listed = _parse_csv(capsys.readouterr().out)
    assert [r[:-1] for r in ranged] == [r[:-1] for r in listed]


@pytest.mark.parametrize("h", ["1:2:0", "1:2:-3", "1:2", "1:2:3:4", "0.5:1:x",
                               ":", "0.1,1:2:0"])
def test_bad_h_range_exits_one(tmp_path, h):
    # never an empty list: that would silently mean the instance's own fields
    path = _gen(tmp_path)
    assert cli.main(["run", "--instance", str(path), "--method", "mf",
                     "--h", h]) == 1


@pytest.mark.parametrize("method", ["mf", "gs", "exact"])
def test_seed_override_is_bad_input(tmp_path, method):
    path = _gen(tmp_path)
    assert cli.main(["run", "--instance", str(path), "--method", method,
                     "--h", "0.5", "--set", "seed=3"]) == 1


def test_compare_overrides_need_gs(tmp_path, capsys):
    path = _gen(tmp_path)
    assert cli.main(["compare", "--instance", str(path), "--methods",
                     "mf,exact", "--h", "0.5", "--set", "tol=1e-2",
                     "--set", "bogus=1"]) == 1
    assert "gs" in capsys.readouterr().err
    assert cli.main(["compare", "--instance", str(path), "--methods",
                     "mf,gs", "--h", "0.5", "--set", "space_size=4",
                     "--set", "outer_rounds=2"]) == 0
    rows = _parse_csv(capsys.readouterr().out)
    assert [r[2] for r in rows[1:]] == ["mf", "gs"]


def test_unknown_flag_exits_one():
    assert cli.main(["run", "--no-such-flag"]) == 1
    assert cli.main(["--help"]) == 0


def test_solver_failure_exits_two(tmp_path, monkeypatch):
    path = _gen(tmp_path)

    def boom(*args, **kwargs):
        raise RuntimeError("numerical blowup")

    monkeypatch.setattr(cli, "run_grid", boom)
    assert cli.main(["run", "--instance", str(path), "--method", "mf"]) == 2


def test_set_surface_is_frozen():
    def params(solver):
        return set(inspect.signature(solver).parameters) - {"inst", "seed"}

    assert sum(map(len, SET_KEYS.values())) == 21
    assert params(mf_maxsum_solve) == {"grid", "max_iters"}
    assert params(ss_maxsum_solve) == {"grid", "max_iters"}
    assert {f.name for f in dataclasses.fields(GSConfig)} == set(SET_KEYS["gs"]) | {"seed"}
    assert {f.name for f in dataclasses.fields(HomogConfig)} == set(SET_KEYS["homog"])
    assert params(ground_state) == set(SET_KEYS["exact"])


@pytest.mark.parametrize("method", sorted(SET_KEYS))
def test_set_keys_reach_the_solver(method, monkeypatch):
    calls = []
    result = Solution(energy=-1.0, m_x=0.5, q_z=0.0, converged=True,
                      iterations=1, energy_kind="bound")
    for owner, name in ((isingbp.runner, "mf_maxsum_solve"),
                        (isingbp.runner, "ss_maxsum_solve"),
                        (isingbp.runner, "gs_solve"),
                        (isingbp.runner, "homog_from_instance"),
                        (isingbp.exact, "ground_state")):
        # wrapped, so the options check still sees the solver's signature
        @functools.wraps(getattr(owner, name))
        def stub(*args, **kwargs):
            calls.append((args[1:], kwargs))
            return result
        monkeypatch.setattr(owner, name, stub)

    inst = generate_chain(3, law="ferro", h=1.0, seed=0)
    run_cell(inst, "x", method, 0.5, seed=4, overrides=dict(SET_KEYS[method]))
    keys = SET_KEYS[method]
    grids = {"mf": Grid(0.02, 150), "ss": Grid(0.01, 200, cap=1.0)}
    if method == "mf":
        expected = ((), dict(seed=4, grid=grids[method], max_iters=1000))
    elif method == "ss":  # ss takes no seed
        expected = ((), dict(grid=grids[method], max_iters=1000))
    elif method == "exact":
        expected = ((), dict(seed=4, **keys))
    else:
        config = GSConfig(**keys, seed=4) if method == "gs" else HomogConfig(**keys)
        expected = ((config,), {})
    assert calls == [expected]
    for key in RETIRED_KEYS[method]:
        with pytest.raises(ValueError, match="unknown"):
            run_cell(inst, "x", method, 0.5, seed=4, overrides={key: 1})


def test_retired_keys_exit_one(tmp_path, capsys):
    path = _gen(tmp_path)
    for method, keys in RETIRED_KEYS.items():
        for key in keys:
            assert cli.main(["run", "--instance", str(path), "--method", method,
                             "--h", "0.5", "--set", f"{key}=1"]) == 1
            assert "unknown" in capsys.readouterr().err
