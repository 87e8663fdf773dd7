"""The report hash that CHANGES.md records for a change that must keep
every benchmark report (tests/report_hashes.py). The hash itself is not
pinned: its bytes depend on the machine's BLAS kernel."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "report_hashes.py"


def run(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True, text=True,
                          timeout=300)


def test_one_hash_over_every_bench_seed_call():
    first, second = run(), run()
    assert first.returncode == 0, first.stderr
    assert re.fullmatch(r"[0-9a-f]{64}  225 reports\n", first.stdout)
    assert second.stdout == first.stdout


def test_a_missing_library_is_an_error(tmp_path):
    done = run(str(tmp_path))
    assert done.returncode == 2 and "no library source" in done.stderr and not done.stdout
