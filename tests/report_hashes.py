"""One sha256 over the reports of the benchmark's verify calls.

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
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def report_hash(src: Path) -> tuple[str, int]:
    """(sha256 hex digest, number of calls) for the library under src."""
    sys.path[:0] = [str(src), str(ROOT / "bench")]
    from hardy_spectral.cli import main
    from workloads import WORKLOADS, make_inputs, verify_args

    digest = hashlib.sha256()
    calls = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graph.wgr")
        for workload in WORKLOADS.values():
            for seed in SEEDS:
                for graph in make_inputs(workload, seed):
                    Path(path).write_text(graph.text, encoding="utf-8")
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        try:
                            rc = main(verify_args(workload, path))
                        except Exception as exc:  # a crash is a result too
                            rc = repr(exc)
                    text = out.getvalue()
                    digest.update(f"{rc} {len(text)}\n{text}".encode("utf-8"))
                    calls += 1
    return digest.hexdigest(), calls


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else ROOT / "src"
    if not (src / "hardy_spectral" / "cli.py").is_file():
        print(f"error: no library source at {src}/hardy_spectral", file=sys.stderr)
        return 2
    digest, calls = report_hash(src.resolve())
    print(f"{digest}  {calls} reports")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
