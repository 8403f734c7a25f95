"""Machine-readable run reports and deterministic CSV/JSON writers.

All numbers are serialized with ``repr``, the shortest representation
that round-trips, so identical inputs yield byte-identical files.  No
timestamps or environment-dependent values are written.  ``report.json``
is strict JSON: a non-finite measurement is a failed outcome whose number
is written as ``null``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "measured": _finite_or_none(self.measured),
            "tolerance": _finite_or_none(self.tolerance),
            "detail": self.detail,
        }


def _finite_or_none(value: float):
    return value if math.isfinite(value) else None


@dataclass
class RunReport:
    kind: str
    config_hash: str
    package_version: str
    outcomes: list = field(default_factory=list)
    artifacts: list = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION

    @property
    def passed(self) -> bool:
        return all(o.passed for o in self.outcomes)

    def add(self, name, passed, measured, tolerance, detail="") -> CheckOutcome:
        """Record one outcome; a non-finite number fails it, whatever ``passed`` says."""
        measured, tolerance = float(measured), float(tolerance)
        non_finite = [
            f"non-finite {label} ({value!r})"
            for label, value in (("measurement", measured), ("tolerance", tolerance))
            if not math.isfinite(value)
        ]
        if non_finite:
            passed = False
            detail = "; ".join(non_finite + ([detail] if detail else []))
        outcome = CheckOutcome(name, bool(passed), measured, tolerance, detail)
        self.outcomes.append(outcome)
        return outcome

    def as_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "config_hash": self.config_hash,
            "package_version": self.package_version,
            "passed": self.passed,
            "outcomes": [o.as_dict() for o in self.outcomes],
            "artifacts": list(self.artifacts),
        }


def write_report(report: RunReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.as_dict(), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (complex, np.complexfloating)):
        z = complex(value)
        return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}j"
    return str(value)


def write_csv(path: str, header: list, rows: list) -> None:
    """Plain deterministic CSV (no quoting; fields must not contain commas)."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(v) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path: str) -> tuple[list, list]:
    """Inverse of write_csv for the plotting layer; values stay strings."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    if not lines:
        return [], []
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def write_snapshot(path: str, array: np.ndarray) -> None:
    """A real array as its ``shape`` and its nested ``values``."""
    payload = {"shape": list(array.shape), "values": np.asarray(array, dtype=float).tolist()}
    # the bytes of json.dump(payload, fh, sort_keys=True), which runs the
    # pure-Python encoder; json.dumps runs the C one in half the time but
    # holds its whole output (1.7 MB at the default evolve snapshot), so it
    # encodes one entry of each top-level list at a time
    with open(path, "w", encoding="utf-8") as fh:
        for i, key in enumerate(sorted(payload)):
            fh.write(("{" if i == 0 else ", ") + json.dumps(key) + ": ")
            value = payload[key]
            if not isinstance(value, list):  # the values of a 0-d array
                fh.write(json.dumps(value))
                continue
            fh.write("[")
            for j, entry in enumerate(value):
                fh.write((", " if j else "") + json.dumps(entry))
            fh.write("]")
        fh.write("}\n")
