"""Command line round trips and exit codes."""

import csv
import io
import json

import numpy as np
import pytest

from isingbp import cli, load_instance
from isingbp.records import CSV_COLUMNS, config_digest


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
])
def test_bad_input_exits_one(args, tmp_path):
    if args[2] == "IGNORED":
        args = args.copy()
        args[2] = str(_gen(tmp_path))
    assert cli.main(args) == 1


def test_bad_h_and_bad_override_exit_one(tmp_path):
    path = _gen(tmp_path)
    assert cli.main(["run", "--instance", str(path), "--method", "mf",
                     "--h", "0.1,junk"]) == 1
    assert cli.main(["run", "--instance", str(path), "--method", "gs",
                     "--h", "0.5", "--set", "not_an_option=1"]) == 1
    assert cli.main(["run", "--instance", str(path), "--method", "mf",
                     "--h", "0.5", "--set", "not_an_option=1"]) == 1


def test_unknown_flag_exits_one():
    assert cli.main(["run", "--no-such-flag"]) == 1
    assert cli.main(["--help"]) == 0


def test_solver_failure_exits_two(tmp_path, monkeypatch):
    path = _gen(tmp_path)

    def boom(*args, **kwargs):
        raise RuntimeError("numerical blowup")

    monkeypatch.setattr(cli, "run_grid", boom)
    assert cli.main(["run", "--instance", str(path), "--method", "mf"]) == 2
