import json
import subprocess
import sys

import pytest

from hardy_spectral import (VertexSet, dirichlet_eigenvalue, emit_report, parse_wgr,
                            path_graph, random_graph, run_suite, serialize_wgr)
from hardy_spectral import errors, suite
from hardy_spectral.cli import main
from hardy_spectral.report import (VerificationReport, check_eq, check_ge,
                                   check_le)

from conftest import stiff_graph

P3_TEXT = """\
# three vertices in a row
vertex v0 1
vertex v1 1
vertex v2 1
edge v0 v1 1
edge v1 v2 1
boundary v0
"""


class TestParse:
    def test_minimal(self):
        g, boundary = parse_wgr("vertex a 1\nvertex b 1\nedge a b 1\n")
        assert g.vertex_count == 2
        assert g.edges == ((0, 1, 1.0),)
        assert boundary is None

    def test_boundary_line(self):
        g, boundary = parse_wgr(P3_TEXT)
        assert boundary == VertexSet.of([0])
        assert g.labels == ("v0", "v1", "v2")

    def test_unknown_vertex(self):
        with pytest.raises(errors.UnknownVertex):
            parse_wgr("vertex a 1\nedge a c 1\n")

    def test_duplicate_vertex(self):
        with pytest.raises(errors.DuplicateVertex):
            parse_wgr("vertex a 1\nvertex a 2\n")

    def test_duplicate_edge(self):
        with pytest.raises(errors.DuplicateEdge):
            parse_wgr("vertex a 1\nvertex b 1\nedge a b 1\nedge b a 2\n")

    def test_malformed_line(self):
        with pytest.raises(errors.ParseError) as exc:
            parse_wgr("vertex a 1\nvertex b 1\nedge a b\n")
        assert exc.value.line == 3

    def test_bad_number(self):
        with pytest.raises(errors.ParseError):
            parse_wgr("vertex a wat\n")
        with pytest.raises(errors.ParseError):
            parse_wgr("vertex a inf\n")

    def test_validation_errors_propagate(self):
        with pytest.raises(errors.Disconnected):
            parse_wgr("vertex a 1\nvertex b 1\n")
        with pytest.raises(errors.NonPositiveConductance):
            parse_wgr("vertex a 1\nvertex b 1\nedge a b 0\n")

    def test_duplicate_boundary_rejected(self):
        with pytest.raises(errors.ParseError):
            parse_wgr(P3_TEXT + "boundary v0\n")

    def test_round_trip_is_bit_exact(self):
        for seed in range(10):
            g = random_graph(7, 0.5, (0.1, 10.0), (0.1, 10.0), seed=seed)
            text = serialize_wgr(g, boundary=VertexSet.of([0, 3]))
            g2, boundary = parse_wgr(text)
            assert g2.masses == g.masses
            assert g2.edges == g.edges
            assert boundary == VertexSet.of([0, 3])
            assert serialize_wgr(g2, boundary) == text


class TestChecks:
    def test_holds_iff_slack_nonnegative(self):
        tol = 1e-9
        cases = [check_le("a", 1.0, 2.0, tol), check_le("b", 2.0, 1.0, tol),
                 check_ge("c", 2.0, 1.0, tol), check_eq("d", 1.0, 1.0 + 5e-10, tol),
                 check_eq("e", 1.0, 1.1, tol)]
        for c in cases:
            assert c.holds == (c.slack >= 0.0)
        assert [c.holds for c in cases] == [True, False, True, True, False]

    def test_tolerance_is_relative_plus_absolute(self):
        assert check_le("x", 1.0 + 5e-10, 1.0, 1e-9).holds
        assert not check_le("x", 1.0 + 3e-9, 1.0, 1e-9).holds
        assert check_le("y", 5e-10, 0.0, 1e-9).holds


class TestReport:
    def test_empty_checks_valid_json(self):
        rep = VerificationReport(tool_version="0.1.0", seed=None, tolerance=1e-9,
                                 graph_summary={"vertex_count": 2})
        doc = json.loads(emit_report(rep, "json"))
        assert doc["checks"] == []
        assert doc["seed"] is None

    def test_csv_one_row_per_check(self):
        rep = VerificationReport(tool_version="0.1.0", seed=1, tolerance=1e-9,
                                 graph_summary={},
                                 checks=[check_le("only", 1.0, 2.0, 1e-9)])
        lines = emit_report(rep, "csv").splitlines()
        assert lines[0] == "name,lhs,rhs,relation,holds,slack,reason"
        assert len(lines) == 2
        assert lines[1].startswith("only,1,2,<=,true,")

    def test_json_reals_have_17_significant_digits(self):
        rep = VerificationReport(tool_version="0.1.0", seed=0, tolerance=1e-9,
                                 graph_summary={},
                                 quantities={"x": 1.0 / 3.0})
        assert '"x": 0.33333333333333331' in emit_report(rep, "json")


class TestRunSuite:
    def test_p3_all_suites_pass(self, p3):
        rep = run_suite(p3, boundary=VertexSet.of([0]), seed=5)
        assert rep.all_hold
        assert rep.quantities["lambda2"] == pytest.approx(1.0, rel=1e-9)
        assert rep.quantities["psi2"] == pytest.approx(1.0, rel=1e-9)
        assert rep.quantities["phi"] == pytest.approx(1.0, rel=1e-9)
        assert rep.graph_summary == {"vertex_count": 3, "edge_count": 2,
                                     "mass_total": 3.0}
        names = [c.name for c in rep.checks]
        assert "neumann_upper" in names and "path_reduction" in names

    def test_two_node_closed_form(self, two_node):
        rep = run_suite(two_node, suites=["neumann"], seed=1)
        assert rep.all_hold
        assert rep.quantities["lambda2"] == pytest.approx(4.5, rel=1e-9)
        assert rep.quantities["psi2"] == pytest.approx(4.5, rel=1e-9)

    def test_byte_identical_reports(self, p3):
        a = run_suite(p3, boundary=VertexSet.of([0]), seed=9)
        b = run_suite(p3, boundary=VertexSet.of([0]), seed=9)
        assert emit_report(a, "json") == emit_report(b, "json")
        assert emit_report(a, "csv") == emit_report(b, "csv")

    def test_guard_violation_becomes_failed_check(self):
        g = path_graph([1.0] * 13, [1.0] * 12)
        rep = run_suite(g, suites=["neumann"], seed=1)
        assert not rep.all_hold
        bad = [c for c in rep.checks if not c.holds]
        assert bad and "guard" in bad[0].reason

    def test_neumann_guard_keeps_sweep_upper_bound(self):
        g = random_graph(13, 0.4, (0.1, 10.0), (0.1, 10.0), seed=1)
        rep = run_suite(g, suites=["neumann"], seed=1)
        rows = {c.name: c for c in rep.checks}
        assert list(rows) == ["neumann", "neumann_upper_sweep"]
        assert not rows["neumann"].holds and "guard" in rows["neumann"].reason
        assert rows["neumann_upper_sweep"].holds
        assert rows["neumann_upper_sweep"].lhs == rep.quantities["lambda2"]
        assert rows["neumann_upper_sweep"].rhs == rep.quantities["psi2_sweep"]
        assert "psi2" not in rep.quantities

    def test_stiff_weights_fail_rows_never_raise(self):
        # masses and conductances 1 or 1e12: double precision cannot settle
        # every comparison, but each one that fails is a failed row
        for seed in range(100):
            rep = run_suite(stiff_graph(seed, 1e12, 1e12), boundary=VertexSet.of([0]),
                            seed=seed)
            assert rep.checks

    def test_weight_ratio_1e16_never_raises(self):
        # rounding swamps some energies at this ratio; those rows fail
        for seed in range(100):
            rep = run_suite(stiff_graph(seed, 1e16, 1e16), boundary=VertexSet.of([0]),
                            seed=seed)
            assert rep.checks

    def test_dirichlet_ground_state_solved_once(self, p3, monkeypatch):
        calls = []

        def counted(graph, boundary):
            calls.append(graph)
            return dirichlet_eigenvalue(graph, boundary)

        monkeypatch.setattr(suite, "dirichlet_eigenvalue", counted)
        rep = run_suite(p3, boundary=VertexSet.of([0]), suites=["dirichlet", "path-reduction"])
        # the other call solves the level-set quotient path
        assert rep.all_hold and len(calls) == 2 and calls[0] is p3 and calls[1] is not p3
        assert list(rep.quantities) == ["lambda_dirichlet", "psi_dirichlet"]

    def test_dirichlet_failure_reported_by_both_suites(self, p3):
        rep = run_suite(p3, boundary=VertexSet.of([0, 1, 2]),
                        suites=["dirichlet", "path-reduction"])
        rows = {c.name: c for c in rep.checks}
        assert list(rows) == ["dirichlet", "path_reduction"]
        assert not any(c.holds for c in rows.values())
        assert rows["dirichlet"].reason == rows["path_reduction"].reason

    def test_missing_boundary_becomes_failed_check(self, p3):
        rep = run_suite(p3, suites=["dirichlet"], seed=1)
        assert not rep.all_hold

    def test_unknown_suite_rejected(self, p3):
        with pytest.raises(ValueError):
            run_suite(p3, suites=["bogus"], seed=1)

    def test_random_batch_all_pass(self):
        for i in range(20):
            g = random_graph(2 + i % 7, 0.4, (0.1, 10.0), (0.1, 10.0), seed=300 + i)
            boundary = VertexSet.of([0]) if g.vertex_count > 1 else None
            rep = run_suite(g, boundary=boundary, seed=i, samples=3)
            assert rep.all_hold, [c for c in rep.checks if not c.holds]


class TestCli:
    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_resistance_series_law(self, tmp_path, capsys):
        path = self._write(tmp_path, "p3.wgr", P3_TEXT)
        assert main(["resistance", path, "--a", "v0", "--b", "v2"]) == 0
        assert capsys.readouterr().out.strip() == "2.0"

    def test_verify_success_exit_zero(self, tmp_path, capsys):
        path = self._write(tmp_path, "p3.wgr", P3_TEXT)
        assert main(["verify", path, "--suite", "all", "--seed", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(c["holds"] for c in doc["checks"])
        assert doc["timing_ms"] == {}

    def test_verify_failed_check_exit_one(self, tmp_path, capsys):
        big = path_graph([1.0] * 13, [1.0] * 12)
        path = self._write(tmp_path, "big.wgr", serialize_wgr(big))
        assert main(["verify", path, "--suite", "neumann"]) == 1

    def test_verify_stiff_graph_exit_one(self, tmp_path, capsys):
        g = stiff_graph(0, 1e12, 1e12)
        path = self._write(tmp_path, "stiff.wgr", serialize_wgr(g, VertexSet.of([0])))
        assert main(["verify", path]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert not all(c["holds"] for c in doc["checks"])

    def test_verify_weight_ratio_1e16_exit_one(self, tmp_path, capsys):
        g = stiff_graph(21, 1e16, 1e16)
        path = self._write(tmp_path, "stiff.wgr", serialize_wgr(g, VertexSet.of([0])))
        assert main(["verify", path]) == 1
        rows = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert not rows["neumann"]["holds"]

    def test_verify_reports_are_reproducible(self, tmp_path, capsys):
        path = self._write(tmp_path, "p3.wgr", P3_TEXT)
        main(["verify", path, "--seed", "42"])
        first = capsys.readouterr().out
        main(["verify", path, "--seed", "42"])
        assert capsys.readouterr().out == first

    def test_analyze_plain_output(self, tmp_path, capsys):
        path = self._write(tmp_path, "p3.wgr", P3_TEXT)
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "lambda2 = " in out and "psi_dirichlet" in out

    def test_analyze_json(self, tmp_path, capsys):
        path = self._write(tmp_path, "p3.wgr", P3_TEXT)
        assert main(["analyze", path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["quantities"]["lambda2"] == pytest.approx(1.0)
        assert doc["checks"] == []

    def test_analyze_timing_only_when_asked(self, tmp_path, capsys):
        path = self._write(tmp_path, "p3.wgr", P3_TEXT)
        assert main(["analyze", path, "--boundary", "v0", "--json", "--timing"]) == 0
        timed = json.loads(capsys.readouterr().out)["timing_ms"]
        assert sorted(timed) == sorted(["lambda2", "psi2", "phi", "lambda_dirichlet",
                                        "psi_dirichlet"])
        assert all(ms >= 0.0 for ms in timed.values())
        assert main(["analyze", path, "--boundary", "v0", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["timing_ms"] == {}

    def test_usage_errors_exit_two(self, tmp_path, capsys):
        path = self._write(tmp_path, "p3.wgr", P3_TEXT)
        assert main(["resistance", path, "--a", "nope", "--b", "v2"]) == 2
        assert main(["verify", str(tmp_path / "missing.wgr")]) == 2
        assert main(["verify", path, "--suite", "bogus"]) == 2
        bad = self._write(tmp_path, "bad.wgr", "vertex a 1\nedge a a 1\n")
        assert main(["analyze", bad]) == 2
        assert main(["gen", "random", "--n", "4", "--p", "2.0",
                     "--seed", "1", "-o", str(tmp_path / "x.wgr")]) == 2

    def test_gen_is_deterministic(self, tmp_path):
        out1, out2 = str(tmp_path / "a.wgr"), str(tmp_path / "b.wgr")
        assert main(["gen", "random", "--n", "6", "--p", "0.4",
                     "--seed", "1", "-o", out1]) == 0
        assert main(["gen", "random", "--n", "6", "--p", "0.4",
                     "--seed", "1", "-o", out2]) == 0
        assert open(out1).read() == open(out2).read()

    def test_gen_path_then_verify(self, tmp_path, capsys):
        out = str(tmp_path / "p.wgr")
        assert main(["gen", "path", "--n", "6", "--seed", "5", "-o", out]) == 0
        graph, boundary = parse_wgr(open(out).read())
        assert graph.edge_count == 5
        assert boundary == VertexSet.of([0])
        assert main(["verify", out, "--suite", "dirichlet,path-reduction"]) == 0

    def test_console_entry_point(self, tmp_path):
        # one end-to-end subprocess run to cover the installed script path
        path = tmp_path / "p3.wgr"
        path.write_text(P3_TEXT, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "hardy_spectral.cli", "analyze", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "lambda2" in proc.stdout
