"""Verification reports: tolerance-aware inequality checks and their JSON
and CSV serializations.

The tolerance rule for "lhs <= rhs" is lhs <= rhs*(1+tol) + tol — relative
slack away from zero, absolute slack near it — for a tolerance tol in
[0, 1), the domain `run_suite` and `verify` accept. Every check carries
a slack value with the convention that the check holds iff slack >= 0, so
a report consumer can re-derive `holds` from the row alone; a check whose
slack overflows is an error row instead. Only the fields of
`VerificationReport` and `Check` name a report's keys and columns, in
order. The json and csv modules write both formats, every real by `repr`
(the shortest text that reads back as the same double) and `holds` as
`true` / `false`; a non-finite real has no JSON text and raises
ValueError. Two runs with the same inputs and seed, on one machine and
one BLAS build, produce byte-identical documents (timings are excluded
unless explicitly requested); another BLAS kernel may move the last bits
of an eigenvalue.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, fields
from typing import Optional

LE = "<="
GE = ">="
EQ = "=="
ERROR = "error"


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


def _check(name: str, lhs: float, rhs: float, relation: str, slack: float) -> Check:
    """One inequality's row, or an error row if its slack is past the doubles."""
    lhs, rhs = float(lhs), float(rhs)
    if not math.isfinite(slack):
        return check_error(name, f"the slack of {lhs!r} {relation} {rhs!r} "
                                 "overflows double precision")
    return Check(name, lhs, rhs, relation, slack >= 0.0, slack)


def check_le(name: str, lhs: float, rhs: float, tol: float) -> Check:
    return _check(name, lhs, rhs, LE, _le_slack(lhs, rhs, tol))


def check_ge(name: str, lhs: float, rhs: float, tol: float) -> Check:
    return _check(name, lhs, rhs, GE, _le_slack(rhs, lhs, tol))


def check_eq(name: str, lhs: float, rhs: float, tol: float) -> Check:
    return _check(name, lhs, rhs, EQ, min(_le_slack(lhs, rhs, tol), _le_slack(rhs, lhs, tol)))


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


def emit_report(report: VerificationReport, fmt: str = "json",
                include_timing: bool = False) -> str:
    """Render the report. `fmt` is "json" or "csv"; timings are volatile and
    only appear when asked for, keeping default output reproducible."""
    if fmt == "json":
        return json.dumps({**vars(report), "checks": [vars(c) for c in report.checks],
                           "timing_ms": report.timing_ms if include_timing else {}},
                          ensure_ascii=False, allow_nan=False) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([f.name for f in fields(Check)])
        writer.writerows([json.dumps(v) if isinstance(v, bool) else v
                          for v in vars(c).values()] for c in report.checks)
        return buf.getvalue()
    raise ValueError(f"unknown report format {fmt!r}")
