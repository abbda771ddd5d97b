"""Output check for one benchmark run; its failures feed `failed`/`attempted`.

A run holds one or more sessions (one results row each). Problems that
concern the whole run fail every session in it; a failed session is
counted, never dropped.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

DRIFT_MARGIN = 0.10  # incremental minus batch accuracy, acceptance criterion 4


@dataclass(frozen=True)
class Expected:
    """What a correct run of a workload leaves in its output directory."""

    sessions: tuple[tuple[str, str], ...]  # (selector, mode) per results row
    paired: bool = False  # batch and incremental on one partition


@dataclass
class Verdict:
    attempted: int
    failed_rows: set[int] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    csv_sha256: str | None = None
    rows: list[dict] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failed_rows)

    def fail(self, rows, problem: str) -> None:
        self.failed_rows.update(rows)
        self.problems.append(problem)


def check_run(expected: Expected, out_dir: Path, exit_code: int,
              reference_sha256: str | None) -> Verdict:
    """Check one run's files; `reference_sha256` is results.csv of an earlier run."""
    verdict = Verdict(attempted=len(expected.sessions))
    every = range(verdict.attempted)
    if exit_code != 0:
        verdict.fail(every, f"exit code {exit_code}")
        return verdict
    csv_path = out_dir / "results.csv"
    if not csv_path.is_file():
        verdict.fail(every, "results.csv missing")
        return verdict
    data = csv_path.read_bytes()
    verdict.csv_sha256 = hashlib.sha256(data).hexdigest()
    rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
    verdict.rows = rows
    got = [(row.get("selector"), row.get("mode")) for row in rows]
    if got != list(expected.sessions):
        verdict.fail(every, f"results rows {got} != expected {list(expected.sessions)}")
        return verdict
    if reference_sha256 is not None and verdict.csv_sha256 != reference_sha256:
        verdict.fail(every, "results.csv differs from an earlier run of this seed")
    try:
        json_rows = json.loads((out_dir / "results.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        verdict.fail(every, f"results.json unreadable: {exc}")
        json_rows = None
    if json_rows is not None and len(json_rows) != len(rows):
        verdict.fail(every, "results.json and results.csv disagree on row count")
    if len({row["partition_checksum"] for row in rows}) != 1:
        verdict.fail(every, "partition checksums differ across rows")
    for k, row in enumerate(rows):
        stem = f"{row['dataset']}_{row['selector']}_{row['mode']}"
        for suffix in (".session.json", ".roc.tsv"):
            if not (out_dir / (stem + suffix)).is_file():
                verdict.fail([k], f"{stem}{suffix} missing")
        if row["halted"]:
            verdict.fail([k], f"{stem} halted: {row['halted']}")
        accuracy, mcc = _number(row["accuracy"]), _number(row["mcc"])
        if not 0.0 <= accuracy <= 1.0:
            verdict.fail([k], f"{stem} accuracy {row['accuracy']!r} out of range")
        if not -1.0 <= mcc <= 1.0:
            verdict.fail([k], f"{stem} mcc {row['mcc']!r} out of range")
    if expected.paired:
        batch, incremental = (_number(row["accuracy"]) for row in rows)
        if not incremental - batch >= DRIFT_MARGIN:
            verdict.fail(every, f"drift gain {incremental - batch:.4f} < {DRIFT_MARGIN}")
    return verdict


def _number(text: str) -> float:
    """Parsed float, or NaN for anything non-numeric or non-finite."""
    try:
        value = float(text)
    except ValueError:
        return math.nan
    return value if math.isfinite(value) else math.nan
