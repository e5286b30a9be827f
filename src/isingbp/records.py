"""Result rows and their CSV / JSONL serialization."""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Iterable

CSV_COLUMNS = [
    "instance", "seed", "method", "h", "E_per_spin",
    "m_x", "q_z", "converged", "iters", "time_ms",
]


@dataclass
class ResultRecord:
    """One (instance, method, field) evaluation, ready for tabulation."""

    instance: str
    seed: int
    method: str
    h: float
    E_per_spin: float
    m_x: float | None
    q_z: float
    converged: bool
    iters: int
    time_ms: float
    # Solution.energy_kind, in JSONL but not in the CSV; a record that does
    # not say claims no bound
    energy_kind: str = "bethe"

    def row(self) -> list:
        data = asdict(self)
        out = []
        for col in CSV_COLUMNS:
            v = data[col]
            if v is None:
                out.append("")
            elif isinstance(v, bool):
                out.append(str(v).lower())
            elif isinstance(v, float):
                out.append(format(v, ".10g"))
            else:
                out.append(str(v))
        return out


def config_digest(config: dict) -> str:
    """Short stable fingerprint of a parameter dictionary."""
    blob = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def write_csv(records: Iterable[ResultRecord], stream) -> None:
    writer = csv.writer(stream)
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow(rec.row())


def write_jsonl(records: Iterable[ResultRecord], stream,
                config: dict | None = None) -> None:
    """One JSON object per record, each echoing the run configuration."""
    config = config or {}
    digest = config_digest(config)
    for rec in records:
        payload = asdict(rec)
        payload["config"] = config
        payload["digest"] = digest
        stream.write(json.dumps(payload, sort_keys=True) + "\n")
