"""The report hash that CHANGES.md records for a change that must keep
every benchmark report (tests/report_hashes.py), and its comparison of
two libraries' reports. The hash itself is not pinned: its bytes depend
on the machine's BLAS kernel. The comparison is tested on made-up report
pairs, so no second run of the 225 calls is made."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import report_hashes
from report_hashes import EPS, compare

SCRIPT = Path(__file__).resolve().parent / "report_hashes.py"


def run(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True, text=True,
                          timeout=300)


def test_one_hash_over_every_bench_seed_call():
    # the hash, then each call's report, from two runs: they agree
    first, second = run(), run("--reports", str(SCRIPT.parent.parent / "src"))
    assert first.returncode == second.returncode == 0, first.stderr + second.stderr
    assert re.fullmatch(r"[0-9a-f]{64}  225 reports\n", first.stdout)
    calls = [tuple(json.loads(line)) for line in second.stdout.splitlines()]
    digest, count = report_hashes.report_hash(calls)
    assert f"{digest}  {count} reports\n" == first.stdout
    assert calls[0][0] == "corpus-verify seed 1 graph 0"


def test_a_missing_library_is_an_error(tmp_path):
    for args in ([str(tmp_path)], ["--reports", str(tmp_path)],
                 ["--compare", str(SCRIPT.parent.parent / "src"), str(tmp_path)]):
        done = run(*args)
        assert done.returncode == 2 and "no library source" in done.stderr and not done.stdout


@pytest.mark.parametrize("args", [["--compare", "src"], ["--reports"], ["a", "b"]])
def test_a_wrong_number_of_libraries_is_an_error(args):
    done = run(*args)
    assert done.returncode == 2 and done.stderr.startswith("usage:") and not done.stdout


def report(psi2=1.5, lhs=1.25, slack=0.25, holds=True, reason="", witness=(0, 2),
           name="neumann_upper", relation="<="):
    """A verify report's text with one quantity, one row and one witness."""
    return json.dumps({
        "tool_version": "0", "seed": 0, "tolerance": 1e-9, "graph_summary": {"vertex_count": 3},
        "quantities": {"lambda2": 1.25, "psi2": psi2},
        "witnesses": {"psi2_a": list(witness)},
        "checks": [{"name": name, "lhs": lhs, "rhs": psi2, "relation": relation,
                    "holds": holds, "slack": slack, "reason": reason}],
        "timing_ms": {}}) + "\n"


def calls(*texts, rc=0):
    return [(f"w seed 1 graph {i}", rc, text) for i, text in enumerate(texts)]


def test_identical_reports():
    same = calls(report(), report(psi2=2.0), "error: no report\n")
    assert compare(same, list(same)) == (3, None, (0.0, ""))


def test_the_largest_move_and_where_it_is():
    up = 1.5 * (1 + 2 * EPS)
    got = compare(calls(report(), report()), calls(report(), report(psi2=up)))
    assert got[:2] == (1, None)
    assert got[2] == (pytest.approx(2 * EPS / (1 + 2 * EPS)), "w seed 1 graph 1: quantities.psi2")


def test_a_slack_moves_against_its_row():
    # a nearly tight row: the slack's last-bit move is a large part of
    # the slack, but not of the numbers it is the difference of
    got = compare(calls(report(slack=1e-9)), calls(report(slack=1e-9 + 4.0 * EPS)))
    assert got == (0, None, (pytest.approx(4.0 * EPS / 1.5), "w seed 1 graph 0: checks[0].slack"))


@pytest.mark.parametrize("changed, where", [
    (dict(name="neumann_lower"), "checks[0].name: 'neumann_upper' != 'neumann_lower'"),
    (dict(relation=">="), "checks[0].relation: '<=' != '>='"),
    (dict(holds=False), "checks[0].holds: True != False"),
    (dict(reason="instance size 14 exceeds enumeration guard 12"), "checks[0].reason: ''"),
    (dict(witness=(0, 1)), "witnesses.psi2_a[1]: 2 != 1"),
    (dict(witness=(0, 2, 3)), "witnesses.psi2_a: [0, 2] != [0, 2, 3]"),
])
def test_a_changed_outcome_is_named(changed, where):
    first = calls(report(), report(), report())
    second = calls(report(), report(psi2=1.5 * (1 + EPS), **changed), report(holds=False))
    same, difference, _ = compare(first, second)
    assert same == 1 and difference.startswith(f"w seed 1 graph 1: {where}")


def test_a_changed_exit_code_or_text_is_named():
    assert compare(calls(report()), calls(report(), rc=1))[1] == \
        "w seed 1 graph 0: exit code 0 != 1"
    assert compare(calls("error: a\n"), calls("error: b\n"))[1] == \
        "w seed 1 graph 0: stdout differs and is no report"
    assert compare(calls(report()), calls(report(), report()))[1] == \
        "the two runs made different calls"
