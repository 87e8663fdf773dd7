"""Verification reports: tolerance-aware inequality checks and their JSON
and CSV serializations.

The tolerance rule for "lhs <= rhs" is lhs <= rhs*(1+tol) + tol — relative
slack away from zero, absolute slack near it. Every check carries a slack
value with the convention that the check holds iff slack >= 0, so a report
consumer can re-derive `holds` from the row alone. Only the fields of
`VerificationReport` and `Check` name a report's keys and columns, in
order. Every real is written with 17 significant digits (`REAL`), which
round-trips doubles, and every JSON string as the json module escapes it.
Two runs with the same inputs and seed produce byte-identical documents
(timings are excluded unless explicitly requested).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring
from typing import Optional

LE = "<="
GE = ">="
EQ = "=="
ERROR = "error"
REAL = ".17g"


@dataclass(frozen=True)
class Check:
    name: str
    lhs: float
    rhs: float
    relation: str
    holds: bool
    slack: float
    reason: str = ""


def _le_slack(lhs: float, rhs: float, tol: float) -> float:
    return float(rhs) * (1.0 + tol) + tol - float(lhs)


def check_le(name: str, lhs: float, rhs: float, tol: float) -> Check:
    slack = _le_slack(lhs, rhs, tol)
    return Check(name, float(lhs), float(rhs), LE, slack >= 0.0, slack)


def check_ge(name: str, lhs: float, rhs: float, tol: float) -> Check:
    slack = _le_slack(rhs, lhs, tol)
    return Check(name, float(lhs), float(rhs), GE, slack >= 0.0, slack)


def check_eq(name: str, lhs: float, rhs: float, tol: float) -> Check:
    slack = min(_le_slack(lhs, rhs, tol), _le_slack(rhs, lhs, tol))
    return Check(name, float(lhs), float(rhs), EQ, slack >= 0.0, slack)


def check_error(name: str, reason: str) -> Check:
    return Check(name, 0.0, 0.0, ERROR, False, -1.0, reason)


@dataclass
class VerificationReport:
    tool_version: str
    seed: Optional[int]
    tolerance: float
    graph_summary: dict
    quantities: dict[str, float] = field(default_factory=dict)
    witnesses: dict[str, list[int]] = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)
    timing_ms: dict[str, float] = field(default_factory=dict)

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)


_CSV_HEADER = ",".join(f.name for f in fields(Check)) + "\n"
_JSON_WORDS = {True: "true", False: "false", None: "null"}


def _scalar(value) -> str:
    """A real by the one rule, `REAL`; a bool, an int or None as in JSON."""
    if isinstance(value, float):
        return format(value, REAL)
    if value is None or isinstance(value, bool):
        return _JSON_WORDS[value]
    if isinstance(value, int):
        return repr(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


def _json(value) -> str:
    """One JSON value, its strings and keys escaped by the json module."""
    if isinstance(value, str):
        return encode_basestring(value)
    if isinstance(value, dict):
        return "{" + ", ".join([encode_basestring(str(k)) + ": " + _json(v)
                                for k, v in value.items()]) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join([_json(v) for v in value]) + "]"
    return _scalar(value)


def emit_report(report: VerificationReport, fmt: str = "json",
                include_timing: bool = False) -> str:
    """Render the report. `fmt` is "json" or "csv"; timings are volatile and
    only appear when asked for, keeping default output reproducible."""
    if fmt == "json":
        return _json({**vars(report), "checks": [vars(c) for c in report.checks],
                      "timing_ms": report.timing_ms if include_timing else {}}) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(_CSV_HEADER)  # no field name needs quotes
        csv.writer(buf, lineterminator="\n").writerows(
            [v if isinstance(v, str) else _scalar(v) for v in vars(c).values()]
            for c in report.checks)
        return buf.getvalue()
    raise ValueError(f"unknown report format {fmt!r}")
