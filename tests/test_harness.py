import csv
import errno
import gc
import importlib
import importlib.util
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import traceback
import types
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hardy_spectral
from hardy_spectral import (VertexSet, WeightedGraph, dirichlet_eigenvalue, emit_report,
                            parse_wgr, path_graph, random_graph, run_suite, serialize_wgr,
                            split_edge)
from hardy_spectral import cli, content, errors, spectral, suite
from hardy_spectral.cli import main
from hardy_spectral.report import (Check, VerificationReport, check_eq, check_error,
                                   check_ge, check_le)

from conftest import (EXTREME_SCALES, corpus_boundary, corpus_graph, extreme_weight_fuzz,
                      extreme_weight_fuzz_reports, path_eigenvalue_mp, scaled_by_powers_of_two,
                      stiff_graph)

P3_TEXT = """\
# three vertices in a row
vertex v0 1
vertex v1 1
vertex v2 1
edge v0 v1 1
edge v1 v2 1
boundary v0
"""

ONE_VERTEX_TEXT = "vertex a 1\n"

UNDERFLOW_TEXT = "vertex a 1e300\nvertex b 1e300\nedge a b 1e-300\n"

OVERFLOW_TEXT = "vertex a 1\nvertex b 1e-300\nedge a b 1e300\nboundary a\n"


def count_calls(monkeypatch, original, calls: list) -> None:
    """Wrap `original` in every namespace of the package that holds it,
    appending each call's arguments to `calls`."""
    def counted(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("hardy_spectral") and module is not None:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)


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

    def test_blank_lines_are_skipped(self):
        # an empty line and a whitespace-only one
        assert (serialize_wgr(*parse_wgr("vertex a 1\n\n \t\nvertex b 1\nedge a b 1\n"))
                == serialize_wgr(*parse_wgr("vertex a 1\nvertex b 1\nedge a b 1\n")))

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

    @pytest.mark.parametrize("text, line, message", [
        ("vertex a\n", 1, "expected: vertex <name> <mass>"),
        ("vertex a 1 2\n", 1, "expected: vertex <name> <mass>"),
        ("vertex a 1\nboundary\n", 2, "expected: boundary <name>"),
        ("vertex a 1\nboundary a a\n", 2, "expected: boundary <name>"),
        ("vertex a 1\nboundary z\n", 2, "unknown vertex 'z'"),
        ("vertex a 1\nface a\n", 2, "unknown directive 'face'"),
        ("# nothing but a comment\n", 0, "no vertices declared"),
    ])
    def test_malformed_documents(self, text, line, message):
        with pytest.raises(errors.ParseError, match=message) as exc:
            parse_wgr(text)
        assert exc.value.line == line

    @pytest.mark.parametrize("text, error, line, message", [
        # any str.splitlines break ends a line
        ("vertex a 1\r\nvertex b 1\r\nedge a\r\n", errors.ParseError, 3,
         "expected: edge <name> <name> <conductance>"),
        ("vertex a 1\rvertex b 1\redge a\r", errors.ParseError, 3,
         "expected: edge <name> <name> <conductance>"),
        # an indented comment is a line, and `#` inside a name is the name's
        ("   # note\nvertex a#b 1\nedge a#b c 1\n", errors.UnknownVertex, 3, "unknown vertex 'c'"),
        ("vertex a 1\nedge a b 1\nvertex b 1\n", errors.UnknownVertex, 2, "unknown vertex 'b'"),
        # an empty line and a whitespace-only one are skipped, but counted
        ("vertex a 1\n\n \t\nvertex b 1\nedge a c 1\n", errors.UnknownVertex, 5,
         "unknown vertex 'c'"),
        ("vertex a 1e999\n", errors.ParseError, 1, "mass must be finite, got '1e999'"),
        ("vertex a 1\nvertex b 1\nedge a b 1e999\n", errors.ParseError, 3,
         "conductance must be finite, got '1e999'"),
        ("\ufeffvertex a 1\n", errors.ParseError, 1, "unknown directive '\\ufeffvertex'"),
        # a trailing comment is not stripped: the line has four tokens
        ("vertex a 1 # c\n", errors.ParseError, 1, "expected: vertex <name> <mass>"),
        # the graph rule checks the sorted edges; the sort is stable
        ("vertex a 1\nvertex b 1\nedge a b 0\nedge b a 1\n", errors.NonPositiveConductance, None,
         "edge 0-1 has conductance 0.0"),
        ("vertex a 1\nvertex b 1\nedge b a 1\nedge a b 0\n", errors.DuplicateEdge, None,
         "duplicate edge 0-1"),
    ])
    def test_line_rules(self, text, error, line, message):
        with pytest.raises(errors.HardySpectralError) as exc:
            parse_wgr(text)
        assert type(exc.value) is error
        assert message in str(exc.value)
        assert getattr(exc.value, "line", None) == line

    def test_round_trip_is_bit_exact(self):
        for seed in range(10):
            g = random_graph(7, 0.5, (0.1, 10.0), (0.1, 10.0), seed=seed)
            text = serialize_wgr(g, boundary=VertexSet.of([0, 3]))
            g2, boundary = parse_wgr(text)
            assert g2.masses == g.masses
            assert g2.edges == g.edges
            assert boundary == VertexSet.of([0, 3])
            assert serialize_wgr(g2, boundary) == text

    @pytest.mark.parametrize("labels", [None, ("a", "b", "c")])
    def test_serialize_refuses_a_boundary_off_the_graph(self, labels):
        g = WeightedGraph((1.0, 1.0, 1.0), ((0, 1, 1.0), (1, 2, 1.0)), labels)
        with pytest.raises(errors.LengthMismatch, match="vertex id 7 out of range for n=3"):
            serialize_wgr(g, VertexSet.of([7]))

    @pytest.mark.parametrize("labels", [("a b", "c"), ("a", "a"), ("", "c"), ("x\ny", "c")])
    def test_serialize_refuses_a_label_parse_would_refuse(self, labels):
        # parse_wgr reads a name as one whitespace-free word, once
        g = WeightedGraph((1.0, 2.0), ((0, 1, 1.0),), labels)
        with pytest.raises(errors.BadRequest, match=re.escape(repr(labels[0]))):
            serialize_wgr(g)

    def test_round_trip_of_labelled_graph(self):
        # names that only look like syntax, and the name a split gives
        g = WeightedGraph((1.0, 2.0, 0.5, 0.0, 3.0),
                          ((0, 1, 1.5), (1, 3, 2.0), (2, 3, 0.1), (0, 4, 0.25)),
                          ("a", "#b", "vertex", "a*b.0", "\u00e9"))
        text = serialize_wgr(g, VertexSet.of([1, 4]))
        assert parse_wgr(text) == (g, VertexSet.of([1, 4]))
        assert serialize_wgr(*parse_wgr(text)) == text


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

    def test_slack_past_the_doubles_is_an_error_row(self):
        # 9.5e307 * (1 + 0.9) overflows, though both sides are finite
        rows = [check_ge("x", 9.5e307, 1.0, 0.9), check_le("y", 1.0, 9.5e307, 0.9),
                check_eq("z", 9.5e307, 9.5e307, 0.9)]
        assert [(c.name, c.relation, c.holds) for c in rows] == [
            (name, "error", False) for name in "xyz"]
        assert rows[0].reason == "the slack of 9.5e+307 >= 1.0 overflows double precision"
        rep = VerificationReport(tool_version="0.1.0", seed=0, tolerance=0.9,
                                 graph_summary={}, checks=rows)

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        doc = json.loads(emit_report(rep, "json"), parse_constant=refuse)
        assert [c["slack"] for c in doc["checks"]] == [-1.0] * 3


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
        assert lines[1].startswith("only,1.0,2.0,<=,true,")

    def test_json_reals_are_written_by_repr(self):
        rep = VerificationReport(tool_version="0.1.0", seed=0, tolerance=1e-9,
                                 graph_summary={},
                                 quantities={"x": 1.0 / 3.0})
        assert '"tolerance": 1e-09' in emit_report(rep, "json")
        assert '"x": 0.3333333333333333}' in emit_report(rep, "json")

    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(allow_nan=False, allow_infinity=False))
    @example(x=0.0)
    @example(x=-0.0)
    @example(x=5e-324)
    @example(x=-2.2250738585072e-308)
    @example(x=sys.float_info.max)
    @example(x=3.0)
    @example(x=-2.0 ** 60)
    def test_every_finite_double_reads_back_with_its_bits(self, x):
        rep = VerificationReport(tool_version="0.1.0", seed=0, tolerance=1e-9,
                                 graph_summary={}, quantities={"x": x},
                                 checks=[Check("c", x, x, "<=", True, x)])
        doc = json.loads(emit_report(rep, "json"))
        row = doc["checks"][0]
        for y in (doc["quantities"]["x"], row["lhs"], row["rhs"], row["slack"]):
            assert type(y) is float and struct.pack("<d", y) == struct.pack("<d", x)
        cells = list(csv.reader(io.StringIO(emit_report(rep, "csv"))))[1]
        for cell in (cells[1], cells[2], cells[5]):
            assert struct.pack("<d", float(cell)) == struct.pack("<d", x)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_real_has_no_json(self, x):
        rep = VerificationReport(tool_version="0.1.0", seed=0, tolerance=1e-9,
                                 graph_summary={}, quantities={"x": x})
        with pytest.raises(ValueError, match="not JSON compliant"):
            emit_report(rep, "json")

    AWKWARD = 'say "hi"\\ at\nline\ttwo\x01 \u00e9'

    def awkward_report(self):
        return VerificationReport(tool_version="0.1.0", seed=3, tolerance=1e-9,
                                  graph_summary={"vertex_count": 2},
                                  quantities={self.AWKWARD: 0.1, "x": 1.0 / 3.0},
                                  witnesses={"phi_a": [0]},
                                  checks=[check_error("e", self.AWKWARD),
                                          check_le("f", 1.0, 2.0, 1e-9)],
                                  timing_ms={"x": 1.5})

    def test_json_round_trips_every_string(self):
        rep = self.awkward_report()
        doc = json.loads(emit_report(rep, "json"))
        assert doc["checks"][0]["reason"] == self.AWKWARD
        assert doc["quantities"] == rep.quantities and doc["timing_ms"] == {}

    def test_csv_round_trips_every_string(self):
        rep = self.awkward_report()
        rows = list(csv.reader(io.StringIO(emit_report(rep, "csv"), newline="")))
        assert [row[0] for row in rows[1:]] == ["e", "f"]
        assert rows[1][-1] == self.AWKWARD
        assert rows[2] == ["f", "1.0", "2.0", "<=", "true", "1.0000000030000002", ""]

    def test_unknown_format_and_value_type_are_refused(self):
        rep = self.awkward_report()
        with pytest.raises(ValueError, match="unknown report format 'xml'"):
            emit_report(rep, "xml")
        rep.quantities["bad"] = {1, 2}
        with pytest.raises(TypeError, match="is not JSON serializable"):
            emit_report(rep, "json")

    def test_the_dataclasses_give_the_field_order(self):
        rep = self.awkward_report()
        doc = json.loads(emit_report(rep, "json"))
        assert list(doc) == [f.name for f in fields(VerificationReport)]
        assert all(list(c) == [f.name for f in fields(Check)] for c in doc["checks"])
        header = next(csv.reader(io.StringIO(emit_report(rep, "csv"))))
        assert header == [f.name for f in fields(Check)]


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
        # the run's graph poses its one problem to one `ground_modes` call;
        # the level-set quotient path is solved by its Hardy operator and
        # poses none of its own unless it falls back to
        # `dirichlet_eigenvalue`, which this run never calls
        alone, solved, paths = [], [], []

        def counted_modes(graph, sides, ground):
            solved.append((graph, len(sides)))
            return ground_modes(graph, sides, ground)

        def recorded_path(masses, conductances, start):
            found = hardy_path_eigenvalue(masses, conductances, start)
            paths.append(found)
            return found

        ground_modes, hardy_path_eigenvalue = spectral.ground_modes, content.hardy_path_eigenvalue
        count_calls(monkeypatch, dirichlet_eigenvalue, alone)
        for module in (suite, spectral):
            monkeypatch.setattr(module, "ground_modes", counted_modes)
        monkeypatch.setattr(suite, "hardy_path_eigenvalue", recorded_path)
        rep = run_suite(p3, boundary=VertexSet.of([0]), suites=["dirichlet", "path-reduction"])
        assert rep.all_hold and alone == []
        assert solved == [(p3, 1)] and len(paths) == 1 and paths[0] is not None
        assert rep.checks[-1].lhs == paths[0][0]
        assert list(rep.quantities) == ["lambda_dirichlet", "psi_dirichlet"]

    def test_quotient_path_solves_as_dirichlet_eigenvalue_does(self, monkeypatch):
        # the path-reduction row reads the level-set quotient path's value
        # from `hardy_path_eigenvalue`: inside its enclosure and within
        # 4 eps of dirichlet_eigenvalue(quotient, {0}), except where the
        # 50-digit value shows the dense route off by more. A path that
        # does not settle takes that dense route, bit for bit, and where
        # it raises, the row carries the same typed error and text
        eps = np.finfo(float).eps
        paths = []

        def recorded_path(masses, conductances, start):
            found = hardy_path_eigenvalue(masses, conductances, start)
            paths.append((masses, conductances, found))
            return found

        hardy_path_eigenvalue = content.hardy_path_eigenvalue
        monkeypatch.setattr(suite, "hardy_path_eigenvalue", recorded_path)
        cases = [(corpus_graph(i), corpus_boundary(corpus_graph(i), i)) for i in range(40)]
        cases += [(stiff_graph(seed, 10.0 ** e, 10.0 ** e), VertexSet.of([0]))
                  for seed in range(40) for e in range(3, 17)]
        # one interior vertex: the closed form
        cases.append((path_graph([1.0, 3.0], [0.7]), VertexSet.of([0])))
        with_row = {t for t, rep in extreme_weight_fuzz_reports()
                    if any(c.name == "path_reduction" for c in rep.checks)}
        cases += [(g, VertexSet.of([0])) for t, g in extreme_weight_fuzz() if t in with_row]
        kinds = set()
        for g, boundary in cases:
            paths.clear()
            rep = run_suite(g, boundary=boundary, suites=["path-reduction"], samples=0)
            if not paths:  # lambda(G, S) or the quotient failed first
                continue
            ((masses, conductances, found),) = paths
            (row,) = rep.checks
            try:
                alone = dirichlet_eigenvalue(path_graph(masses, conductances),
                                             VertexSet.of([0])).eigenvalue
            except errors.HardySpectralError as exc:
                assert found is None and row.relation == "error" and row.reason == str(exc)
                kinds.add("error")
                continue
            if found is None:
                assert row.lhs == alone or row.relation == "error"
                kinds.add("fallback")
                continue
            value, lower, upper = found
            assert row.lhs == value and lower <= value <= upper
            if abs(value - alone) > 4 * eps * alone:
                exact = float(path_eigenvalue_mp(masses, conductances, value))
                assert abs(value - exact) < abs(alone - exact)
                kinds.add("dense off")
            kinds.add(len(masses) == 2)
        assert kinds == {"error", "fallback", "dense off", True, False}

    def test_neumann_mode_solved_once(self, monkeypatch):
        # the sweep reads the mode the run already holds; a mode that fails
        # is raised again for each suite that needs it, never solved again
        solves = []

        def counted(blocks, ground, mass, k, pad=None):
            if k == 1:
                solves.append(blocks)
            return eigenpairs(blocks, ground, mass, k, pad)

        eigenpairs = spectral._eigenpairs
        monkeypatch.setattr(spectral, "_eigenpairs", counted)
        rep = run_suite(corpus_graph(5), boundary=VertexSet.of([0]), seed=1)
        assert rep.all_hold and len(solves) == 1
        solves.clear()
        rep = run_suite(stiff_graph(122, 1e16, 1e16), boundary=VertexSet.of([0]), seed=1)
        rows = {c.name: c for c in rep.checks}
        assert len(solves) == 1 and "lambda2" not in rep.quantities
        reasons = {rows[name].reason for name in ("neumann", "cheeger", "pinch")}
        assert len(reasons) == 1 and "fundamental mode" in reasons.pop()

    def test_failed_dirichlet_suite_keeps_its_eigenvalue(self):
        # past the psi guard the suite fails, but the eigenvalue it solved
        # stays in the report, where path_reduction checks against it
        g = random_graph(24, 0.2, (0.1, 10.0), (0.1, 10.0), seed=3)
        boundary = VertexSet.of([0])
        rep = run_suite(g, boundary=boundary, suites=["dirichlet", "path-reduction"])
        rows = {c.name: c for c in rep.checks}
        assert list(rows) == ["dirichlet", "path_reduction"]
        assert not rows["dirichlet"].holds and "guard" in rows["dirichlet"].reason
        assert rows["path_reduction"].holds
        assert list(rep.quantities) == ["lambda_dirichlet"]
        assert rep.quantities["lambda_dirichlet"] == dirichlet_eigenvalue(g, boundary).eigenvalue
        assert rows["path_reduction"].rhs == rep.quantities["lambda_dirichlet"]

    @staticmethod
    def _break_sweep(monkeypatch):
        def broken_sweep(graph, x):
            raise errors.SignCondition("sweep failed")

        monkeypatch.setattr(suite, "neumann_content_sweep", broken_sweep)

    def test_failed_suite_leaves_one_error_row(self, monkeypatch):
        # past the psi2 guard the guard's row is appended before the sweep
        # fails; it is cut back, leaving the one error row of the suite
        self._break_sweep(monkeypatch)
        g = random_graph(13, 0.4, (0.1, 10.0), (0.1, 10.0), seed=1)
        rep = run_suite(g, suites=["neumann"], seed=1)
        assert [(c.name, c.relation, c.reason) for c in rep.checks] == [
            ("neumann", "error", "sweep failed")]

    def test_failed_neumann_suite_keeps_psi2(self, monkeypatch):
        # within the guard psi2 is solved before the sweep fails, and kept
        self._break_sweep(monkeypatch)
        rep = run_suite(corpus_graph(5), suites=["neumann"], seed=1)
        assert [(c.name, c.reason) for c in rep.checks] == [("neumann", "sweep failed")]
        assert list(rep.quantities) == ["lambda2", "psi2", "h2"]
        assert list(rep.witnesses) == ["psi2_a", "psi2_b"]

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

    @pytest.mark.parametrize("refused", [dict(suites=["bogus"]), dict(samples=-3),
                                          dict(tolerance=1.0)])
    def test_refusals_are_bad_requests_and_value_errors(self, p3, refused):
        with pytest.raises(errors.BadRequest) as exc:
            run_suite(p3, seed=1, **refused)
        assert isinstance(exc.value, ValueError)

    def test_negative_samples_rejected(self, p3):
        with pytest.raises(ValueError):
            run_suite(p3, suites=["pinch"], seed=1, samples=-3)

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf, -1e-9, 1.0, 1e308])
    def test_tolerance_not_finite_and_nonnegative_rejected(self, p3, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            run_suite(p3, seed=1, tolerance=tolerance)

    @pytest.mark.parametrize("mass_exp, kappa_exp", EXTREME_SCALES)
    def test_extreme_powers_of_two_hold_and_emit_finite_json(self, mass_exp, kappa_exp):
        # cheeger_upper's 2 lambda2 worst once overflowed to inf here, which
        # no JSON parser reads
        for i in range(12):
            g = corpus_graph(i)
            rep = run_suite(scaled_by_powers_of_two(g, mass_exp, kappa_exp),
                            boundary=corpus_boundary(g, i), seed=i)
            assert rep.all_hold, [c for c in rep.checks if not c.holds]
            doc = json.loads(emit_report(rep, "json"))
            numbers = [*doc["quantities"].values(),
                       *(c[key] for c in doc["checks"] for key in ("lhs", "rhs", "slack"))]
            assert all(math.isfinite(x) for x in numbers)

    def test_extreme_weight_fuzz_gives_typed_errors_or_finite_json(self):
        # weights at and past the ends of the doubles: a graph is rejected
        # at construction, or its report holds only finite numbers (a
        # RuntimeWarning fails the test too)
        def refuse(constant):
            raise ValueError(f"{constant} in a report")

        reports = extreme_weight_fuzz_reports()
        for _t, rep in reports:
            json.loads(emit_report(rep, "json"), parse_constant=refuse)
        rejected = 600 - len(reports)
        assert 0 < rejected < 600

    def test_tiny_masses_keep_neumann_upper(self):
        rep = run_suite(path_graph([1e-160] * 3, [1.0, 1.0]), boundary=VertexSet.of([0]))
        assert rep.all_hold, [c for c in rep.checks if not c.holds]

    def test_random_batch_all_pass(self):
        for i in range(20):
            g = random_graph(2 + i % 7, 0.4, (0.1, 10.0), (0.1, 10.0), seed=300 + i)
            boundary = VertexSet.of([0]) if g.vertex_count > 1 else None
            rep = run_suite(g, boundary=boundary, seed=i, samples=3)
            assert rep.all_hold, [c for c in rep.checks if not c.holds]


def _zero_mass_graph():
    parent = corpus_graph(4)
    return split_edge(parent, parent.edges[0][:2], [0.25, 0.75])


class TestJointPosing:
    """A run poses its stream read, its pinch and its boundary-pinned
    eigen stack once, for every suite at once (`suite._pose`); no row of
    those calls depends on the others, so the full run gives, bit for
    bit, the quantities, witnesses and rows each suite gives alone. ressum
    reads its samples after the pinch suite's potentials in the stream,
    so its rows are those of a run of pinch and ressum. A part that fails
    fails only the suites that need it, each with its own error."""

    @staticmethod
    def assert_joint_as_alone(graph, boundary, seed=7):
        def run(suites):
            rep = run_suite(graph, boundary=boundary, suites=suites, seed=seed)
            return rep.quantities, rep.witnesses, [repr(vars(c)) for c in rep.checks]

        quantities, witnesses, rows = run(None)
        got = iter(rows)
        for name in suite.ALL_SUITES:
            alone_q, alone_w, alone_rows = run([name])
            if name == "ressum":
                alone_rows = run(["pinch", "ressum"])[2][len(run(["pinch"])[2]):]
            assert repr(alone_q) == repr({k: quantities[k] for k in alone_q}), name
            assert alone_w == {k: witnesses[k] for k in alone_w}, name
            assert [next(got) for _ in alone_rows] == alone_rows, name
        assert next(got, None) is None
        return {c.name: c for c in run_suite(graph, boundary=boundary, seed=seed).checks}

    def test_corpus_graphs(self):
        for i in range(12):
            g = corpus_graph(i)
            rows = self.assert_joint_as_alone(g, corpus_boundary(g, i))
            assert all(c.holds for c in rows.values()), i

    def test_a_failed_mode_fails_only_its_suites(self):
        rows = self.assert_joint_as_alone(stiff_graph(122, 1e16, 1e16), VertexSet.of([0]))
        for name in ("neumann", "cheeger", "pinch"):
            assert rows[name].relation == "error" and "fundamental mode" in rows[name].reason
        assert rows["dirichlet_lower"].holds and rows["path_reduction"].holds
        assert [c.relation for name, c in rows.items() if name.startswith("ressum_")] \
            == ["<="] * suite.DEFAULT_SAMPLES

    def test_a_zero_mass_vertex(self):
        g = _zero_mass_graph()
        n = g.vertex_count
        rows = self.assert_joint_as_alone(g, VertexSet.of([0]))
        text = str(errors.ZeroMass(n - 1))
        assert {c.reason for c in rows.values()} == {text}
        # off the interior the mass never enters, so the Dirichlet problem poses
        rows = self.assert_joint_as_alone(g, VertexSet.of([n - 1]))
        assert rows["dirichlet_lower"].holds and rows["path_reduction"].holds
        assert rows["pinch"].reason == rows["ressum_01"].reason == text

    def test_one_vertex(self):
        rows = self.assert_joint_as_alone(WeightedGraph((1.0,), ()), VertexSet.of([0]))
        assert list(rows) == ["dirichlet", "neumann", "cheeger", "pinch", "ressum",
                              "path_reduction"]
        draw = "a potential takes both strict signs only on two or more vertices"
        assert rows["pinch"].reason == rows["ressum"].reason == draw
        assert rows["dirichlet"].reason == rows["path_reduction"].reason
        assert "proper nonempty subset" in rows["dirichlet"].reason
        assert rows["neumann"].reason == rows["cheeger"].reason == "need at least two vertices"

    @pytest.mark.parametrize("boundary", [None, VertexSet.of([0, 99])])
    def test_no_or_a_bad_boundary_fails_only_the_boundary_suites(self, boundary):
        g = corpus_graph(9)
        rows = self.assert_joint_as_alone(g, boundary)
        with pytest.raises(errors.HardySpectralError) as want:
            if boundary is None:
                raise errors.BadBoundary("no boundary set given")
            dirichlet_eigenvalue(g, boundary)
        assert rows["dirichlet"].reason == rows["path_reduction"].reason == str(want.value)
        assert all(c.holds for name, c in rows.items()
                   if name not in ("dirichlet", "path_reduction"))


def _garbage_after(work) -> int:
    """The objects the cyclic collector frees after `work()`, run with
    the collector off."""
    gc.collect()
    was_on = gc.isenabled()
    gc.disable()
    try:
        work()
        return gc.collect()
    finally:
        if was_on:
            gc.enable()


class TestFailedRunsLeaveNoCycle:
    """A run keeps each failed part as `errors.unraised` copies it, with
    no traceback and no chained error, and raises a fresh copy at each
    ask: so a run that fails leaves no reference cycle through its
    frames, and no ask's traceback grows with the asks before it."""

    PATH14 = path_graph([1.0] * 14, [1.0] * 13)

    @pytest.mark.parametrize("graph, boundary, suites, samples", [
        (PATH14, VertexSet.of([0]), None, 3),  # psi2 past its guard
        (PATH14, VertexSet.of([0]), ["neumann"], 0),
        (path_graph([1.0, 0.0, 1.0], [1.0, 1.0]), VertexSet.of([0]), None, 3),  # ZeroMass rows
        (stiff_graph(122, 1e16, 1e16), VertexSet.of([0]), None, 3),  # lambda2 fails
        (WeightedGraph((1.0,), ()), VertexSet.of([0]), None, 3),  # no draw, no boundary
        (corpus_graph(9), None, None, 3),  # no boundary
        # the Dirichlet eigenproblem fails in its ground_modes stack
        (next(g for t, g in extreme_weight_fuzz() if t == 1), VertexSet.of([0]), ["dirichlet"],
         0),
    ], ids=["path14", "path14-neumann", "zero-mass", "failed-mode", "one-vertex",
            "no-boundary", "dirichlet-overflow"])
    def test_a_failing_run_leaves_nothing_to_collect(self, graph, boundary, suites, samples):
        def work():
            rep = run_suite(graph, boundary=boundary, suites=suites, samples=samples)
            assert not rep.all_hold

        assert _garbage_after(work) == 0

    def test_a_failing_analyze_leaves_nothing_to_collect(self, tmp_path, capsys):
        path = tmp_path / "path14.wgr"
        path.write_text(serialize_wgr(self.PATH14), encoding="utf-8")
        cli._parser()  # built once per process, with cycles of argparse's own
        assert _garbage_after(lambda: main(["analyze", str(path)])) == 0
        assert "psi2 unavailable" in capsys.readouterr().err

    def test_each_ask_of_a_failed_quantity_has_a_traceback_of_its_own(self):
        g = self.PATH14
        q = suite.Quantities(g, None, suite.blank_report(g, 0, 0.0), (["neumann"], 0, 0))
        depths, texts = [], set()
        for _ in range(4):
            with pytest.raises(errors.TooLarge) as got:
                q.get("psi2")
            depths.append(len(list(traceback.walk_tb(got.value.__traceback__))))
            texts.add((str(got.value), got.value.size, got.value.limit))
        # the first ask raises the solver's own error, each later one a
        # copy raised from the memo
        assert depths[1:] == [depths[1]] * 3 and depths[1] < depths[0]
        assert texts == {(str(errors.TooLarge(14, content.NEUMANN_ENUM_LIMIT)), 14,
                          content.NEUMANN_ENUM_LIMIT)}

    def test_unraised_keeps_class_text_and_attributes_only(self):
        try:
            try:
                raise KeyError("below")
            except KeyError:
                raise errors.TooLarge(14, 12) from None
        except errors.TooLarge as exc:
            raised = exc
        copy = errors.unraised(raised)
        assert type(copy) is errors.TooLarge and copy is not raised
        assert (str(copy), copy.args, vars(copy)) == (str(raised), raised.args, vars(raised))
        assert raised.__traceback__ is not None and raised.__context__ is not None
        assert copy.__traceback__ is None and copy.__context__ is None
        assert copy.__cause__ is None and not copy.__suppress_context__


class TestCli:
    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_resistance_series_law(self, tmp_path, capsys):
        path = self._write(tmp_path, "p3.wgr", P3_TEXT)
        assert main(["resistance", path, "--a", "v0", "--b", "v2"]) == 0
        assert capsys.readouterr().out.strip() == "2.0"

    def test_resistance_past_the_doubles_exit_two(self, tmp_path, capsys):
        path = self._write(tmp_path, "weak.wgr", "vertex a 1\nvertex b 1\nedge a b 1e-309\n")
        assert main(["resistance", path, "--a", "a", "--b", "b"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "finite reciprocal" in err

    @pytest.mark.parametrize("command", ["verify", "analyze"])
    def test_total_mass_past_the_doubles_exit_two(self, tmp_path, capsys, command):
        text = "vertex a 1.7e308\nvertex b 1.7e308\nedge a b 1\nboundary a\n"
        assert main([command, self._write(tmp_path, "heavy.wgr", text)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "masses sum past the largest double" in err

    @pytest.mark.parametrize("command", ["verify", "analyze"])
    def test_empty_boundary_is_a_usage_error(self, tmp_path, capsys, command):
        # an empty --boundary names no vertex: it must not fall back to the
        # boundary the file names
        path = self._write(tmp_path, "p3.wgr", P3_TEXT)
        assert main([command, path, "--boundary", ""]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "error: unknown vertex name ''" in err

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
        # at this ratio the fundamental mode of this graph is not resolved
        g = stiff_graph(122, 1e16, 1e16)
        path = self._write(tmp_path, "stiff.wgr", serialize_wgr(g, VertexSet.of([0])))
        assert main(["verify", path]) == 1
        rows = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert not rows["neumann"]["holds"]
        assert "not resolved in double precision" in rows["neumann"]["reason"]

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

    def test_analyze_and_verify_agree_bit_for_bit(self, tmp_path, capsys):
        # both read lambda(G, S) from the same posing step: the same
        # quantities and witnesses, and where it fails the same error text
        # (a boundary of every vertex, BadBoundary; a zero-mass interior
        # vertex, ZeroMass)
        g = corpus_graph(4)
        cases = [(g, None, "v0", 0)]
        cases += [(corpus_graph(i), corpus_boundary(corpus_graph(i), i), None, 0)
                  for i in range(12)]
        cases += [(g, None, ",".join(f"v{v}" for v in range(g.vertex_count)), 1),
                  (_zero_mass_graph(), None, "v0", 1)]
        for i, (graph, boundary, names, code) in enumerate(cases):
            path = self._write(tmp_path, "g.wgr", serialize_wgr(graph, boundary))
            flag = [] if names is None else ["--boundary", names]
            assert main(["analyze", path, "--json"] + flag) == 0
            out, err = capsys.readouterr()
            analyzed = json.loads(out)
            assert main(["verify", path] + flag) == code
            verified = json.loads(capsys.readouterr().out)
            for key in ("quantities", "witnesses"):
                shared = analyzed[key].keys() & verified[key].keys()
                # a failed dirichlet suite stops before psi_dirichlet
                assert len(shared) == len(analyzed[key]) or code, i
                assert all(analyzed[key][k] == verified[key][k] for k in shared), i
            dirichlet = {c["name"]: c for c in verified["checks"]}.get("dirichlet")
            notes = [line for line in err.splitlines()
                     if line.startswith("lambda_dirichlet unavailable: ")]
            assert notes == ([] if dirichlet is None else
                             [f"lambda_dirichlet unavailable: {dirichlet['reason']}"]), i
            assert (dirichlet is None) == (code == 0), i

    def test_analyze_solves_lambda_dirichlet_as_verify_does(self, tmp_path, capsys,
                                                          monkeypatch):
        # lambda(G, S) has one route: the run's posing step, one
        # `ground_modes` call on the graph, and no `dirichlet_eigenvalue`
        alone, solved = [], []

        def counted_modes(graph, sides, ground):
            solved.append((graph.masses, len(sides)))
            return ground_modes(graph, sides, ground)

        ground_modes = spectral.ground_modes
        count_calls(monkeypatch, dirichlet_eigenvalue, alone)
        for module in (suite, spectral):
            monkeypatch.setattr(module, "ground_modes", counted_modes)
        path = self._write(tmp_path, "p3.wgr", P3_TEXT)
        assert main(["analyze", path, "--boundary", "v0"]) == 0
        assert "lambda_dirichlet = " in capsys.readouterr().out
        assert alone == [] and solved == [((1.0, 1.0, 1.0), 1)]

    def test_analyze_beyond_the_psi2_guard(self, tmp_path, capsys):
        g = random_graph(13, 0.2, (0.1, 10.0), (0.1, 10.0), seed=1)
        path = self._write(tmp_path, "big.wgr", serialize_wgr(g))
        assert main(["analyze", path]) == 0
        out, err = capsys.readouterr()
        assert err.startswith("psi2 unavailable: ") and "guard 12" in err
        assert [line.split(" = ")[0] for line in out.splitlines()] == [
            "lambda2", "phi", "phi_a"]

    def test_analyze_underflowed_quantities_are_unavailable(self, tmp_path, capsys):
        # valid weights whose eigenvalue and contents leave double range:
        # psi2 and phi underflow to 0, and inverse iteration overflows
        path = self._write(tmp_path, "tiny.wgr", UNDERFLOW_TEXT)
        assert main(["analyze", path]) == 0
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "lambda2 unavailable: inverse iteration overflowed in double precision",
            "psi2 unavailable: content value 0.0 is not positive and finite "
            "in double precision",
            "phi unavailable: content value 0.0 is not positive and finite "
            "in double precision"]

    def test_analyze_overflowed_quantities_are_unavailable(self, tmp_path, capsys):
        # valid weights whose whitened Laplacian and contents overflow;
        # every ratio of psi2 is inf, which once left no winner at all
        path = self._write(tmp_path, "stiff.wgr", OVERFLOW_TEXT)
        assert main(["analyze", path]) == 0
        out, err = capsys.readouterr()
        assert out == ""
        whitened = "the mass-whitened Laplacian overflows double precision"
        inf = "content value inf is not positive and finite in double precision"
        assert err.splitlines() == [
            f"lambda2 unavailable: {whitened}", f"psi2 unavailable: {inf}",
            f"phi unavailable: {inf}", f"lambda_dirichlet unavailable: {whitened}",
            f"psi_dirichlet unavailable: {inf}"]

    def test_verify_overflow_gives_error_rows(self, tmp_path, capsys):
        path = self._write(tmp_path, "stiff.wgr", OVERFLOW_TEXT)
        assert main(["verify", path]) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        errors_by_name = {c["name"]: c["reason"] for c in checks if c["relation"] == "error"}
        assert list(errors_by_name) == ["dirichlet", "neumann", "cheeger", "pinch",
                                        "path_reduction"]
        assert set(errors_by_name.values()) == {
            "the mass-whitened Laplacian overflows double precision"}

    def test_usage_errors_exit_two(self, tmp_path, capsys):
        path = self._write(tmp_path, "p3.wgr", P3_TEXT)
        assert main(["resistance", path, "--a", "nope", "--b", "v2"]) == 2
        assert main(["verify", str(tmp_path / "missing.wgr")]) == 2
        assert main(["verify", path, "--suite", "bogus"]) == 2
        bad = self._write(tmp_path, "bad.wgr", "vertex a 1\nedge a a 1\n")
        assert main(["analyze", bad]) == 2
        # UTF-16 text, whose first bytes ff fe are not UTF-8
        utf16 = tmp_path / "utf16.wgr"
        utf16.write_bytes(P3_TEXT.encode("utf-16"))
        capsys.readouterr()
        for argv in (["verify"], ["analyze"], ["resistance", "--a", "v0", "--b", "v2"]):
            assert main([argv[0], str(utf16), *argv[1:]]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot read {utf16}: ") and err.count("\n") == 1
        assert main(["gen", "random", "--n", "4", "--p", "2.0",
                     "--seed", "1", "-o", str(tmp_path / "x.wgr")]) == 2
        assert main(["gen", "random", "--n", "4", "--seed", "1",
                     "-o", str(tmp_path / "missing" / "x.wgr")]) == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith(
            f"error: cannot write {tmp_path / 'missing' / 'x.wgr'}: ")

    @pytest.mark.parametrize("argv, message", [
        (["random", "--n", "4", "--mass-range", "1"], "expected lo,hi range, got '1'"),
        (["random", "--n", "4", "--mass-range", "1,x"], "bad range '1,x'"),
        (["path", "--n", "1"], "a path needs at least 2 vertices"),
        # one weight-range rule for both kinds, finite with 0 < lo <= hi,
        # whatever the draws
        *(([kind, "--n", "4", f"--{weight}-range={lo},{hi}"],
           f"range ({float(lo)}, {float(hi)}) must be finite with 0 < lo <= hi")
          for kind in ("path", "random") for weight in ("mass", "kappa")
          for lo, hi in (("5", "1"), ("-1", "1"), ("0.1", "inf"))),
        # a path has no extra edges, so any --p is refused
        *((["path", "--n", "4", "--p", p], "--p is for random graphs only; "
           "a path has no extra edges") for p in ("7", "0.5")),
    ])
    def test_gen_usage_errors_exit_two(self, tmp_path, capsys, argv, message):
        out = tmp_path / "x.wgr"
        assert main(["gen", *argv, "--seed", "1", "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "analyze"])
    def test_json_and_csv_are_mutually_exclusive(self, tmp_path, capsys, command):
        # analyze makes no checks, and CSV has one row per check, so
        # analyze has no --csv at all
        path = self._write(tmp_path, "p3.wgr", P3_TEXT)
        with pytest.raises(SystemExit) as exc:
            main([command, path, "--json", "--csv"])
        out, err = capsys.readouterr()
        reason = "not allowed with" if command == "verify" else "unrecognized arguments: --csv"
        assert exc.value.code == 2 and out == "" and reason in err

    def test_unknown_suite_is_a_usage_error(self, tmp_path, capsys):
        path = self._write(tmp_path, "p3.wgr", P3_TEXT)
        assert main(["verify", path, "--suite", "dirichlet,bogus"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == ("error: unknown suite 'bogus'; known: dirichlet, "
                                     "neumann, cheeger, pinch, ressum, path-reduction\n")

    def test_negative_samples_is_a_usage_error(self, tmp_path, capsys):
        path = self._write(tmp_path, "p3.wgr", P3_TEXT)
        assert main(["verify", path, "--samples", "-3"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: samples")

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-1e-9", "1.0", "1e308"])
    def test_tolerance_not_finite_and_nonnegative_is_a_usage_error(
            self, tmp_path, capsys, tolerance):
        path = self._write(tmp_path, "p3.wgr", P3_TEXT)
        assert main(["verify", path, f"--tolerance={tolerance}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: tolerance")

    def test_zero_samples_and_tolerance_still_run(self, tmp_path, capsys):
        path = self._write(tmp_path, "p3.wgr", P3_TEXT)
        assert main(["verify", path, "--suite", "pinch", "--samples", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [c["name"] for c in doc["checks"]] == ["pinch_eigenvector"]
        # a zero tolerance is allowed: rows may fail, but the run is not refused
        assert main(["verify", path, "--suite", "pinch", "--tolerance", "0"]) in (0, 1)
        assert json.loads(capsys.readouterr().out)["tolerance"] == 0.0

    TOP_USAGE = "usage: hardy-spectral [-h] [--version]"

    # argv ("F" names a file), exit code, and the first and last lines of
    # what argparse writes (stderr on an error, stdout on exit 0; None: not
    # pinned), as the top-level parse wrote them
    @pytest.mark.parametrize("argv, code, first, last", [
        (["analyze", "F", "--csv"], 2, TOP_USAGE,
         "hardy-spectral: error: unrecognized arguments: --csv"),
        (["verify", "F", "--bogus"], 2, TOP_USAGE,
         "hardy-spectral: error: unrecognized arguments: --bogus"),
        (["resistance", "F", "--a", "v0"], 2, "usage: hardy-spectral resistance [-h]",
         "hardy-spectral resistance: error: the following arguments are required: --b"),
        (["verify"], 2, "usage: hardy-spectral verify [-h]",
         "hardy-spectral verify: error: the following arguments are required: file"),
        (["verify", "F", "--json", "--csv"], 2, "usage: hardy-spectral verify [-h]",
         "hardy-spectral verify: error: argument --csv: not allowed with argument --json"),
        (["bogus"], 2, TOP_USAGE, "hardy-spectral: error: argument command: invalid choice: "
                                  "'bogus' (choose from 'analyze', 'verify', 'gen', 'resistance')"),
        ([], 2, TOP_USAGE, "hardy-spectral: error: the following arguments are required: command"),
        (["--version"], 0, hardy_spectral.__version__, hardy_spectral.__version__),
        (["verify", "--help"], 0, "usage: hardy-spectral verify [-h]", None),
    ])
    def test_usage_errors_read_as_the_top_level_parse(self, tmp_path, capsys,
                                                       argv, code, first, last):
        path = self._write(tmp_path, "p3.wgr", P3_TEXT)
        argv = [path if arg == "F" else arg for arg in argv]

        def outcome(parse):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            return (exc.value.code, *capsys.readouterr())

        got = outcome(main)
        # the reference: one top-level pass over the whole argv
        assert got == outcome(cli._parser()[0].parse_args)
        written, silent = (got[2], got[1]) if code else (got[1], got[2])
        lines = written.splitlines()
        assert got[0] == code and silent == "" and written.endswith("\n")
        assert lines[0].startswith(first) and last in (None, lines[-1])

    @pytest.mark.parametrize("argv", [["verify"], ["analyze"],
                                      ["resistance", "--a", "v0", "--b", "v2"]])
    def test_undecodable_byte_is_named_at_its_file_offset(self, tmp_path, capsys, argv):
        # 11,000 bytes of comment lines, then 0xff
        bad = tmp_path / "bad.wgr"
        bad.write_bytes((b"#" * 99 + b"\n") * 110 + b"\xff\n")
        assert main([argv[0], str(bad), *argv[1:]]) == 2
        assert capsys.readouterr() == ("", f"error: cannot read {bad}: 'utf-8' codec can't "
                                           "decode byte 0xff in position 11000: invalid start byte\n")

    # each command that reads a file, and the arguments it needs besides
    FILE_COMMANDS = {"verify": [], "analyze": [], "resistance": ["--a", "v0", "--b", "v2"]}

    @pytest.mark.parametrize("command", FILE_COMMANDS)
    def test_an_empty_file_name_is_refused_as_the_os_refuses_it(self, capsys, command):
        assert main([command, "", *self.FILE_COMMANDS[command]]) == 2
        no_file = FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), "")
        assert capsys.readouterr() == ("", f"error: cannot read : {no_file}\n")

    @pytest.mark.parametrize("command", FILE_COMMANDS)
    def test_a_file_named_as_a_directory_is_not_read(self, tmp_path, monkeypatch, capsys,
                                                      command):
        # "g.wgr/" names a directory, and g.wgr is a file
        monkeypatch.chdir(tmp_path)
        self._write(tmp_path, "g.wgr", P3_TEXT)
        assert main([command, "g.wgr/", *self.FILE_COMMANDS[command]]) == 2
        assert capsys.readouterr() == (
            "", "error: cannot read g.wgr/: [Errno 20] Not a directory: 'g.wgr/'\n")

    @pytest.mark.parametrize("kind", ["path", "random"])
    def test_gen_to_a_directory_name_writes_nothing(self, tmp_path, monkeypatch, capsys, kind):
        monkeypatch.chdir(tmp_path)
        assert main(["gen", kind, "--n", "4", "--seed", "1", "-o", "g.wgr/"]) == 2
        assert capsys.readouterr() == (
            "", "error: cannot write g.wgr/: [Errno 21] Is a directory: 'g.wgr/'\n")
        assert list(tmp_path.iterdir()) == []

    def test_a_crlf_file_verifies_as_its_lf_copy(self, tmp_path, capsys):
        # a boundary-verify sized graph with one boundary vertex
        g = random_graph(12, 0.4, (0.1, 10.0), (0.1, 10.0), seed=1)
        text = serialize_wgr(g, VertexSet.of([5]))
        outcomes = []
        for name, newline in (("lf.wgr", "\n"), ("crlf.wgr", "\r\n")):
            path = tmp_path / name
            path.write_bytes(text.replace("\n", newline).encode("utf-8"))
            code = main(["verify", str(path), "--samples", "10",
                         "--suite", "dirichlet,cheeger,path-reduction"])
            outcomes.append((code, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 0 and outcomes[0][1] and outcomes[0][2] == ""

    def test_one_parser_serves_successive_calls(self, tmp_path, capsys):
        path = self._write(tmp_path, "p3.wgr", P3_TEXT)
        big = self._write(tmp_path, "big.wgr", serialize_wgr(path_graph([1.0] * 13,
                                                                        [1.0] * 12)))
        calls = [["verify", path, "--seed", "3"], ["resistance", path, "--a", "v0", "--b", "v2"],
                 ["analyze", path, "--json"], ["--version"], ["verify", big, "--suite", "neumann"],
                 ["bogus"], ["analyze", path, "--boundary", "v0"], ["verify", path, "--csv"],
                 ["resistance", path, "--a", "nope", "--b", "v2"], ["gen", "path", "--n", "3"],
                 ["verify", path, "--seed", "3"]]

        def call(argv):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: --version and usage errors
                code = exc.code
            return (code, *capsys.readouterr())

        alone = []
        for argv in calls:
            cli._parser.cache_clear()
            alone.append(call(argv))
        cli._parser.cache_clear()
        assert [call(argv) for argv in calls] == alone
        assert cli._parser.cache_info().misses == 1
        assert [outcome[0] for outcome in alone] == [0, 0, 0, 0, 1, 2, 0, 0, 2, 2, 0]

    def test_gen_is_deterministic(self, tmp_path):
        out1, out2 = str(tmp_path / "a.wgr"), str(tmp_path / "b.wgr")
        assert main(["gen", "random", "--n", "6", "--p", "0.4",
                     "--seed", "1", "-o", out1]) == 0
        assert main(["gen", "random", "--n", "6", "--p", "0.4",
                     "--seed", "1", "-o", out2]) == 0
        assert open(out1).read() == open(out2).read()

    def test_gen_random_draws_extra_edges_at_one_half_by_default(self, tmp_path):
        out1, out2 = str(tmp_path / "a.wgr"), str(tmp_path / "b.wgr")
        assert main(["gen", "random", "--n", "6", "--seed", "1", "-o", out1]) == 0
        assert main(["gen", "random", "--n", "6", "--p", "0.5",
                     "--seed", "1", "-o", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_verify_pins_vertex_zero_when_no_boundary_is_given(self, tmp_path, capsys):
        path = self._write(tmp_path, "p3.wgr", P3_TEXT.replace("boundary v0\n", ""))
        suites = ["--suite", "dirichlet,path-reduction"]
        assert main(["verify", path, *suites]) == 0
        default = capsys.readouterr().out
        assert main(["verify", path, *suites, "--boundary", "v0"]) == 0
        assert capsys.readouterr().out == default
        assert main(["verify", path, *suites, "--boundary", "v1"]) == 0
        assert capsys.readouterr().out != default
        # no suite that needs a boundary, so none is pinned
        assert main(["verify", path, "--suite", "neumann,cheeger"]) == 0
        assert "lambda_dirichlet" not in json.loads(capsys.readouterr().out)["quantities"]

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
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "hardy_spectral.cli",
             "analyze", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "lambda2" in proc.stdout


class TestRuntimeDependencies:
    def test_verify_imports_numpy_alone(self, tmp_path):
        # the test oracles are installed, but the library never imports them
        path = tmp_path / "p3.wgr"
        path.write_text(P3_TEXT, encoding="utf-8")
        script = ("import sys\n"
                  "from hardy_spectral.cli import main\n"
                  f"assert main(['verify', {str(path)!r}]) == 0\n"
                  "oracles = ('scipy', 'mpmath', 'networkx', 'hypothesis')\n"
                  "print([m for m in oracles if m in sys.modules], file=sys.stderr)\n")
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", script],
                              capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "[]\n"

    def test_gen_verify_and_analyze_load_numpy_and_the_standard_library_alone(self, tmp_path):
        # what the interpreter loads at startup (site hooks) is not the library's
        path = tmp_path / "g.wgr"
        script = ("import sys\n"
                  "startup = set(sys.modules)\n"
                  "from hardy_spectral.cli import main\n"
                  f"gen = ['gen', 'random', '--n', '6', '--seed', '1', '-o', {str(path)!r}]\n"
                  "assert main(gen) == 0\n"
                  f"assert main(['verify', {str(path)!r}]) == 0\n"
                  f"assert main(['analyze', {str(path)!r}]) == 0\n"
                  f"assert main(['verify', {str(path)!r}, '--csv']) == 0\n"
                  "allowed = set(sys.stdlib_module_names) | {'numpy', 'hardy_spectral'}\n"
                  "loaded = {m.split('.')[0] for m in set(sys.modules) - startup}\n"
                  "print(sorted(loaded - allowed), file=sys.stderr)\n")
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", script],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "[]\n"


class TestOneVertex:
    """A valid file of one vertex: every quantity is unavailable and every
    check fails, without a hang. Each command runs in a subprocess with a
    timeout, so a hang fails the test instead of stalling the suite."""

    @staticmethod
    def _run(tmp_path, command):
        path = tmp_path / "one.wgr"
        path.write_text(ONE_VERTEX_TEXT, encoding="utf-8")
        return subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "hardy_spectral.cli",
             command, str(path)],
            capture_output=True, text=True, timeout=60)

    def test_verify_fails_every_suite(self, tmp_path):
        proc = self._run(tmp_path, "verify")
        assert proc.returncode == 1
        checks = json.loads(proc.stdout)["checks"]
        assert [(c["name"], c["relation"], c["holds"]) for c in checks] == [
            (name, "error", False) for name in
            ("dirichlet", "neumann", "cheeger", "pinch", "ressum", "path_reduction")]
        # the random suites fail on the draw itself, before any solve
        assert all("two or more vertices" in c["reason"] for c in checks[3:5])

    def test_analyze_reports_every_quantity_unavailable(self, tmp_path):
        proc = self._run(tmp_path, "analyze")
        assert proc.returncode == 0
        assert proc.stdout == ""
        assert [line.split(":")[0] for line in proc.stderr.splitlines()] == [
            "lambda2 unavailable", "psi2 unavailable", "phi unavailable"]


class TestPublicSurface:
    def test_all_resolves_once_and_is_what_star_import_binds(self):
        # a deleted export must not leave a dangling or duplicate name
        names = hardy_spectral.__all__
        assert len(names) == len(set(names))
        for name in names:
            assert hasattr(hardy_spectral, name), name
        bound: dict = {}
        exec("from hardy_spectral import *", bound)
        assert set(bound) - {"__builtins__"} == set(names)

    def test_every_public_import_is_exported(self):
        public = {name for name, value in vars(hardy_spectral).items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType)}
        assert public == set(hardy_spectral.__all__) - {"__version__"}


class TestBenchNames:
    def test_every_traced_name_resolves(self):
        # the benchmark traces library functions by name; one that is
        # renamed or deleted must fail here, not only in the benchmark
        spans_py = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
        spec = importlib.util.spec_from_file_location("bench_spans", spans_py)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        for name in spans.TRACED + spans.ROWS:
            module_name, attr = name.rsplit(".", 1)
            module = importlib.import_module(f"{spans.PACKAGE}.{module_name}")
            assert callable(getattr(module, attr, None)), name
