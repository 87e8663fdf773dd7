"""One sha256 over the reports of the benchmark's verify calls, or how the
reports of two libraries differ.

For each workload of bench/workloads.py and each of the seeds 1-3, every
distinct graph of one pass is verified once, in process, with the
workload's arguments, as bench/run.py calls `hardy_spectral.cli.main`:
3 workloads x 3 seeds x 75 graphs = 225 calls. The hash covers each
call's exit code (or the exception it raised) and stdout, in that order.
Two libraries that give the same reports print the same hash:

    python tests/report_hashes.py [SRC]

SRC is the src/ directory of the library to run, by default this
checkout's. The bytes of some reports depend on the BLAS kernel, which
numpy's OpenBLAS picks per processor, so compare hashes taken on one
machine. BLAS runs on one thread, as in the benchmark.

    python tests/report_hashes.py --compare SRC_A SRC_B

runs the same calls on each library, each in a subprocess of its own
(`--reports SRC` prints one JSON line per call), and prints how many
reports are byte-identical. It exits 1 and names the first call whose
exit code, stdout that is no report, or any report field but the numbers
below differ: check names, relations, `holds`, error reasons,
witnesses. Otherwise it prints the largest relative change of any
quantity or any check's `lhs`, `rhs` or `slack`, and where it is.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterable, Iterator, Optional

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
EPS = sys.float_info.epsilon

def reports(src: Path) -> Iterator[tuple[str, object, str]]:
    """(call, exit code or the repr of the exception raised, stdout) of each
    call, in order, for the library under src."""
    sys.path[:0] = [str(src), str(ROOT / "bench")]
    from hardy_spectral.cli import main
    from workloads import WORKLOADS, make_inputs, verify_args

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graph.wgr")
        for workload in WORKLOADS.values():
            for seed in SEEDS:
                for i, graph in enumerate(make_inputs(workload, seed)):
                    Path(path).write_text(graph.text, encoding="utf-8")
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        try:
                            rc = main(verify_args(workload, path))
                        except Exception as exc:  # a crash is a result too
                            rc = repr(exc)
                    yield f"{workload.name} seed {seed} graph {i}", rc, out.getvalue()


def report_hash(calls: Iterable[tuple[str, object, str]]) -> tuple[str, int]:
    """(sha256 hex digest, number of calls) over (call, exit code, stdout)."""
    digest = hashlib.sha256()
    count = 0
    for _call, rc, text in calls:
        digest.update(f"{rc} {len(text)}\n{text}".encode("utf-8"))
        count += 1
    return digest.hexdigest(), count


def _difference(a, b, path: str = "") -> Optional[str]:
    """The first place where two parsed reports differ, as "path: a != b",
    or None if they are equal."""
    if isinstance(a, dict) and isinstance(b, dict) and list(a) == list(b):
        pairs = [(f"{path}.{key}" if path else key, a[key], b[key]) for key in a]
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        pairs = [(f"{path}[{i}]", x, y) for i, (x, y) in enumerate(zip(a, b))]
    else:
        return None if a == b else f"{path}: {a!r} != {b!r}"
    return next(filter(None, (_difference(x, y, where) for where, x, y in pairs)), None)


def _report(text: str) -> Optional[dict]:
    """The parsed report, or None if text is none."""
    try:
        doc = json.loads(text)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) and {"quantities", "checks"} <= doc.keys() else None


def _blanked(doc: dict) -> dict:
    """The report with None for every number that may move: each quantity,
    and each check's lhs, rhs and slack."""
    return {**doc, "quantities": dict.fromkeys(doc["quantities"]),
            "checks": [{**row, "lhs": None, "rhs": None, "slack": None}
                       for row in doc["checks"]]}


def _moves(a: dict, b: dict) -> Iterator[tuple[float, str]]:
    """(relative change, field) of each number of two reports of one
    shape. A slack, rhs (1 + tol) + tol - lhs or the like, is measured
    against the largest of its rows' lhs, rhs and slack, so a last-bit
    move in a nearly tight row reads as the move it is."""
    for name, x in a["quantities"].items():
        y = b["quantities"][name]
        yield _relative(x, y, max(abs(x), abs(y))), f"quantities.{name}"
    for i, (row, other) in enumerate(zip(a["checks"], b["checks"])):
        for key in ("lhs", "rhs"):
            x, y = row[key], other[key]
            yield _relative(x, y, max(abs(x), abs(y))), f"checks[{i}].{key}"
        scale = max(abs(r[key]) for r in (row, other) for key in ("lhs", "rhs", "slack"))
        yield _relative(row["slack"], other["slack"], scale), f"checks[{i}].slack"


def _relative(x: float, y: float, scale: float) -> float:
    return 0.0 if x == y else abs(x - y) / scale


def compare(first: list, second: list) -> tuple[int, Optional[str], tuple[float, str]]:
    """How two lists of (call, exit code, stdout) differ: the number of
    byte-identical reports; the first difference other than a moved
    number, as "call: what", or None; and the largest relative change of
    a number, with "call: field" (0.0 and "" if none moved)."""
    if [call for call, _, _ in first] != [call for call, _, _ in second]:
        return 0, "the two runs made different calls", (0.0, "")
    same = 0
    largest = (0.0, "")
    for (call, rc_a, text_a), (_, rc_b, text_b) in zip(first, second):
        if rc_a != rc_b:
            return same, f"{call}: exit code {rc_a!r} != {rc_b!r}", largest
        if text_a == text_b:
            same += 1
            continue
        a, b = _report(text_a), _report(text_b)
        if a is None or b is None:
            return same, f"{call}: stdout differs and is no report", largest
        difference = _difference(_blanked(a), _blanked(b))
        if difference is not None:
            return same, f"{call}: {difference}", largest
        for change, field in _moves(a, b):
            if change > largest[0]:
                largest = (change, f"{call}: {field}")
    return same, None, largest


def _library(arg: str) -> Optional[Path]:
    src = Path(arg)
    if not (src / "hardy_spectral" / "cli.py").is_file():
        print(f"error: no library source at {src}/hardy_spectral", file=sys.stderr)
        return None
    return src.resolve()


def _run_reports(src: Path) -> list:
    done = subprocess.run([sys.executable, __file__, "--reports", str(src)],
                          capture_output=True, text=True, check=True)
    return [tuple(json.loads(line)) for line in done.stdout.splitlines()]


USAGE = "usage: report_hashes.py [SRC] | --reports SRC | --compare SRC_A SRC_B"


def main(argv: list[str]) -> int:
    mode = argv[0] if argv[:1] in (["--compare"], ["--reports"]) else None
    given = argv[1:] if mode else argv or [str(ROOT / "src")]
    if len(given) != {"--compare": 2, "--reports": 1, None: 1}[mode]:
        print(USAGE, file=sys.stderr)
        return 2
    sources = [_library(arg) for arg in given]
    if None in sources:
        return 2
    if mode == "--compare":
        first, second = (_run_reports(src) for src in sources)
        same, difference, (change, where) = compare(first, second)
        print(f"{same} of {len(first)} reports byte-identical")
        if difference is not None:
            print(f"first difference: {difference}")
            return 1
        print(f"largest relative change {change:.3g} ({change / EPS:.3g} eps)"
              + (f" at {where}" if where else ""))
        return 0
    if mode == "--reports":
        for call in reports(sources[0]):
            print(json.dumps(call))
        return 0
    digest, calls = report_hash(reports(sources[0]))
    print(f"{digest}  {calls} reports")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
