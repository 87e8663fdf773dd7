"""Tests of the benchmark's own helpers. Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

import calib
import spans
from workloads import (WORKLOADS, Workload, make_graph, make_inputs,
                       passes_for, schedule, verify_args)

SRC = Path(__file__).resolve().parent.parent / "src"


class TestCalibration:
    def test_scales_by_nominal_over_mean_reference(self):
        assert calib.calibrate(10.0, 2.0, 2.0, nominal_ms=4.0) == 20.0
        assert calib.calibrate(10.0, 1.0, 3.0, nominal_ms=4.0) == 20.0
        assert calib.calibrate(10.0, 8.0, 8.0, nominal_ms=4.0) == 5.0

    def test_uniform_slowdown_cancels(self):
        fast = calib.calibrate(100.0, 2.0, 2.0)
        slow = calib.calibrate(200.0, 4.0, 4.0)
        assert fast == slow == 100.0 * calib.NOMINAL_REF_MS / 2.0

    def test_reference_kernel_is_deterministic(self):
        assert calib.reference_kernel() == calib.reference_kernel()
        assert calib.time_reference() > 0.0

    def test_spread(self):
        med, q1, q3, rel = calib.spread([1.0, 2.0, 3.0, 4.0, 5.0])
        assert (med, q1, q3) == (3.0, 1.5, 4.5)
        assert rel == pytest.approx(1.0)


class TestTailRank:
    def test_none_below_forty_samples(self):
        assert calib.tail_rank(39) is None
        assert calib.tail_rank(1) is None

    @pytest.mark.parametrize("count,index,pct", [(40, 29, 75.0), (50, 39, 80.0),
                                                 (64, 53, 84.375), (100, 89, 90.0)])
    def test_highest_percentile_with_ten_beyond(self, count, index, pct):
        assert calib.tail_rank(count) == (index, pct)

    @pytest.mark.parametrize("count", range(40, 130))
    def test_exactly_ten_samples_beyond(self, count):
        index, _ = calib.tail_rank(count)
        assert count - 1 - index == calib.TAIL_BEYOND


class TestWholePasses:
    def test_schedule_repeats_every_graph_once_per_pass(self):
        assert schedule(3, 2) == [0, 1, 2, 0, 1, 2]
        order = schedule(7, 4)
        assert all(order.count(i) == 4 for i in range(7))
        assert order[:7] == order[7:14] == list(range(7))

    def test_passes_follow_committed_pass_time(self):
        w = WORKLOADS["boundary-verify"]
        assert passes_for(w, 3 * w.pass_nominal_s) == 3
        assert passes_for(w, 0.01) == 1

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_same_seed_same_inputs(self, name):
        w = WORKLOADS[name]
        a, b = make_inputs(w, 5), make_inputs(w, 5)
        assert [g.text for g in a] == [g.text for g in b]
        assert [g.text for g in a] != [g.text for g in make_inputs(w, 6)]
        assert [g.n for g in a] == list(w.sizes)

    @pytest.mark.parametrize("n,density", [(5, 0.4), (9, 0.4), (36, 0.02)])
    def test_graph_is_connected_with_fixed_edge_count(self, n, density):
        import random
        g = make_graph(random.Random(n), n, density)
        non_tree = n * (n - 1) // 2 - (n - 1)
        assert len(g.edges) == n - 1 + round(density * non_tree)
        assert all(u < v for (u, v, _k) in g.edges)
        reached, frontier = {0}, [0]
        while frontier:
            x = frontier.pop()
            for (u, v, _k) in g.edges:
                for a, b in ((u, v), (v, u)):
                    if a == x and b not in reached:
                        reached.add(b)
                        frontier.append(b)
        assert reached == set(range(n))
        assert 0 <= g.boundary < n
        assert g.text.endswith(f"boundary v{g.boundary}\n")

    def test_verify_args(self):
        w = WORKLOADS["surgery-sparse"]
        assert verify_args(w, "g.wgr") == ["verify", "g.wgr", "--samples", "2", "--suite",
                                           "pinch,ressum,path-reduction"]
        assert "--suite" not in verify_args(WORKLOADS["corpus-verify"], "g.wgr")


class TestSpans:
    def test_self_time_subtracts_children(self):
        recorded = [
            (0, -1, "suite.run_suite", 0.0, 0.010, 0),
            (0, 0, "linalg.cholesky_solve", 0.001, 0.003, 4),
            (0, 0, "linalg.cholesky_solve", 0.004, 0.005, 3),
            (1, -1, "suite.run_suite", 1.0, 1.002, 0),
        ]
        totals = spans.layer_totals(recorded, {0: 1.0, 1: 2.0})
        assert totals["suite.run_suite"]["calls"] == 2
        assert totals["suite.run_suite"]["self_ms"] == pytest.approx(7.0 + 4.0)
        assert totals["linalg.cholesky_solve"]["calls"] == 2
        assert totals["linalg.cholesky_solve"]["self_ms"] == pytest.approx(3.0)
        assert totals["linalg.cholesky_solve"]["rows"] == 7
        assert totals["graph.pinch"] == {"calls": 0, "self_ms": 0.0, "rows": 0}


@pytest.fixture(scope="module")
def cli():
    if not (SRC / "hardy_spectral").is_dir():
        pytest.skip("library source not found")
    sys.path.insert(0, str(SRC))
    from hardy_spectral.cli import main
    return main


def _verify(cli, workload: Workload, graph, tmp_path) -> str:
    path = tmp_path / "g.wgr"
    path.write_text(graph.text, encoding="utf-8")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli(verify_args(workload, str(path))) == 0
    return buf.getvalue()


class TestOracle:
    def test_real_report_passes_and_tampered_report_fails(self, cli, tmp_path):
        import oracle
        w = WORKLOADS["corpus-verify"]
        g = next(g for g in make_inputs(w, 1) if g.n == 7)
        text = _verify(cli, w, g, tmp_path)
        ref = oracle.Oracle(g)
        assert oracle.check_report(text, w, ref) == []

        doc = json.loads(text)
        doc["quantities"]["lambda2"] *= 1.001
        assert any("lambda2" in p for p in oracle.check_report(json.dumps(doc), w, ref))
        doc = json.loads(text)
        doc["quantities"]["psi2"] *= 1.001
        assert any("psi2" in p for p in oracle.check_report(json.dumps(doc), w, ref))
        doc = json.loads(text)
        doc["checks"].pop()
        assert any("check rows" in p for p in oracle.check_report(json.dumps(doc), w, ref))

    def test_expected_row_counts(self):
        import oracle
        assert len(oracle.expected_rows(WORKLOADS["corpus-verify"])) == 29
        assert len(oracle.expected_rows(WORKLOADS["surgery-sparse"])) == 6
        assert oracle.expected_rows(WORKLOADS["boundary-verify"]) == [
            "dirichlet_lower", "dirichlet_upper", "cheeger_lower", "cheeger_upper",
            "path_reduction"]


class TestTracer:
    def test_install_wraps_every_namespace_and_uninstall_restores(self, cli, tmp_path):
        import hardy_spectral.linalg as linalg
        import hardy_spectral.spectral as spectral
        original = linalg.cholesky_solve
        tracer = spans.Tracer()
        tracer.op = 0
        tracer.install()
        try:
            assert spectral.cholesky_solve is not original
            assert spectral.cholesky_solve is linalg.cholesky_solve
            w = WORKLOADS["boundary-verify"]
            _verify(cli, w, make_inputs(w, 1)[0], tmp_path)
        finally:
            tracer.uninstall()
        assert linalg.cholesky_solve is original and spectral.cholesky_solve is original
        names = {s[2] for s in tracer.spans}
        assert {"wgr.parse_wgr", "suite.run_suite", "report.emit_report",
                "content.dirichlet_content_exact", "linalg.jacobi_eigen"} <= names
        by_id = dict(enumerate(tracer.spans))
        for op, parent, name, start, end, _rows in tracer.spans:
            if parent >= 0:
                assert by_id[parent][3] <= start <= end <= by_id[parent][4]
