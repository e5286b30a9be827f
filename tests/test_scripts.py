"""The experiment scripts run end to end on tiny settings."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args, header", [
    ("homog_phase.py", ["--steps", "2", "--delta", "0.1"],
     ["h", "b", "k", "nu", "E_per_spin", "m_z", "m_x", "converged"]),
    ("large_rrg_hc.py", ["--n", "12", "--steps", "1", "--rounds", "1",
                         "--space-size", "4"],
     ["h", "E_per_spin", "q_z", "m_x", "chosen", "converged", "sweeps",
      "time_s", "peak_rss_mb", "digest"]),
])
def test_script_writes_its_csv(script, args, header):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert rows[0] == header
    assert len(rows) > 1 and all(len(r) == len(header) for r in rows[1:])


def test_solver_seed_defaults_to_the_instance_seed():
    # the same solve twice gives the same digest, and --solver-seed equal
    # to --seed changes nothing
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    base = [sys.executable, str(ROOT / "scripts" / "large_rrg_hc.py"), "--n", "12",
            "--steps", "1", "--rounds", "1", "--space-size", "4", "--seed", "5"]
    digests = []
    for extra in ([], ["--solver-seed", "5"]):
        proc = subprocess.run(base + extra, capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.DictReader(io.StringIO(proc.stdout)))
        assert len(rows) == 1 and len(rows[0]["digest"]) == 12
        assert float(rows[0]["peak_rss_mb"]) > 0
        assert int(rows[0]["sweeps"]) > 0
        digests.append(rows[0]["digest"])
    assert digests[0] == digests[1]
