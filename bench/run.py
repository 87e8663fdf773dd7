#!/usr/bin/env python3
"""Benchmark of `hardy-spectral verify`, end to end and layer by layer.

    python3 bench/run.py --workload corpus-verify --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the library is imported from
./src. Each operation is one in-process `hardy_spectral.cli.main(["verify",
file, ...])` call with stdout captured, made by one closed-loop client in
one process, over whole passes of a seeded list of graphs. Every wall time
is calibrated against a reference kernel timed between operations (see
calib.py). After the timed loop, every report is checked, untimed, against
independent oracles (see oracle.py).

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 each operation runs once untraced and once traced and the last
line holds the per-layer metrics. A human summary goes to stderr.
"""

from __future__ import annotations

import os

# One client, no helper threads: keep BLAS from starting a thread pool
# that would compete with it for the machine's two processors.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import spans
from workloads import WORKLOADS, make_inputs, passes_for, schedule, verify_args

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 9
REFERENCE_WARMUP = 20


def _import_cli():
    if not (SRC / "hardy_spectral" / "cli.py").is_file():
        raise SystemExit(f"error: no library source at {SRC}/hardy_spectral; "
                         "run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    from hardy_spectral.cli import main
    return main


def _write_inputs(workload, seed: int, directory: Path) -> tuple[list, list[str]]:
    graphs = make_inputs(workload, seed)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, g in enumerate(graphs):
        path = directory / f"g{i:02d}.wgr"
        path.write_text(g.text, encoding="utf-8")
        paths.append(str(path))
    return graphs, paths


def _setup_probe(args) -> int:
    """What a fresh process does before its first call: import the
    library and make the inputs."""
    _import_cli()
    _write_inputs(WORKLOADS[args.workload], args.seed, Path(args.setup_probe))
    return 0


def _measure_setup(args, run_dir: Path) -> tuple[list[float], list[float]]:
    """Raw and calibrated seconds of SETUP_PROBES fresh processes, each
    run to completion between two reference timings."""
    raw, cal = [], []
    before = calib.time_reference()
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe", str(run_dir / f"probe{i}")]
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        elapsed = time.perf_counter() - t0
        after = calib.time_reference()
        raw.append(elapsed)
        cal.append(calib.calibrate(elapsed, before, after))
        before = after
    return raw, cal


def _call(cli_main, argv: list[str]) -> tuple[object, str]:
    """One operation: exit code (or the exception it raised) and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli_main(argv)
        except Exception as exc:  # a crash is a failed operation, not a stop
            rc = repr(exc)
    return rc, buf.getvalue()


def _check(workload, graphs, order, results) -> tuple[int, bool]:
    """Failed-operation count and correctness, from the untimed
    independent checks. A call fails if it raised or exited nonzero, if
    its report differs by one byte from the other reports of its graph,
    or if the first report of its graph fails an oracle check; the last
    two also make the run incorrect."""
    import oracle

    failed, correct = 0, True
    by_graph: dict[int, list[tuple[object, str]]] = {}
    for idx, result in zip(order, results):
        by_graph.setdefault(idx, []).append(result)
    for idx, calls in sorted(by_graph.items()):
        ok = [out for rc, out in calls if rc == 0]
        failed += len(calls) - len(ok)
        for rc, out in calls:
            if rc != 0:
                print(f"graph {idx}: exit {rc}: {out[-300:]}", file=sys.stderr)
        if not ok:
            continue
        problems = oracle.check_report(ok[0], workload, oracle.Oracle(graphs[idx]))
        if any(out != ok[0] for out in ok):
            problems.append("reports of one graph are not byte-identical")
        if problems:
            correct = False
            failed += len(ok)
            for p in problems:
                print(f"graph {idx}: {p}", file=sys.stderr)
    return failed, correct


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return _setup_probe(args)

    workload = WORKLOADS[args.workload]
    cli_main = _import_cli()
    run_dir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        for _ in range(REFERENCE_WARMUP):
            calib.reference_kernel()
        setup_raw, setup_cal = ([], []) if args.trace else _measure_setup(args, run_dir)
        graphs, paths = _write_inputs(workload, args.seed, run_dir / "inputs")
        passes = passes_for(workload, args.seconds)
        if args.trace:
            passes = max(1, passes // 2)
        order = schedule(len(graphs), passes)
        argvs = [verify_args(workload, p) for p in paths]
        _call(cli_main, argvs[0])  # warm-up, neither timed nor counted
        gc.collect()

        tracer = spans.Tracer()
        refs = [calib.time_reference()]
        raw_ms, results = [], []
        wall0 = time.perf_counter()
        for k, idx in enumerate(order):
            variants = (False, True) if args.trace else (False,)
            for traced in variants:
                if traced:
                    tracer.op = k
                    tracer.install()
                t0 = time.perf_counter()
                results.append(_call(cli_main, argvs[idx]))
                raw_ms.append((time.perf_counter() - t0) * 1000.0)
                if traced:
                    tracer.uninstall()
                refs.append(calib.time_reference())
        wall = time.perf_counter() - wall0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        cal_ms = [calib.calibrate(raw, refs[i], refs[i + 1]) for i, raw in enumerate(raw_ms)]
        calls_order = [idx for idx in order for _ in range(2 if args.trace else 1)]
        failed, correct = _check(workload, graphs, calls_order, results)

        if args.trace:
            metrics = _trace_metrics(tracer, raw_ms, cal_ms, refs, len(order))
            OUT.mkdir(exist_ok=True)
            tracer.write(str(OUT / f"trace-{args.workload}-{args.seed}.jsonl.gz"))
        else:
            metrics = _e2e_metrics(cal_ms, setup_cal, peak_rss_mb)
        tail = calib.tail_rank(len(cal_ms))
        print(f"{args.workload} seed {args.seed}: {len(graphs)} graphs x {passes} passes, "
              f"{len(raw_ms)} calls in {wall:.1f} s wall, {sum(cal_ms) / 1000.0:.2f} s "
              f"calibrated; raw op p50 "
              f"{statistics.median(raw_ms):.3f} ms, reference p50 "
              f"{statistics.median(refs):.4f} ms (nominal {calib.NOMINAL_REF_MS} ms)"
              + (f", raw setup p50 {statistics.median(setup_raw):.3f} s" if setup_raw else "")
              + (f"; tail = p{tail[1]:.1f} of {len(cal_ms)}" if tail else ""),
              file=sys.stderr)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


def _e2e_metrics(cal_ms: list[float], setup_cal: list[float], peak_rss_mb: float) -> dict:
    metrics = {"op_p50_ms": _metric(statistics.median(cal_ms), "ms")}
    tail = calib.tail_rank(len(cal_ms))
    if tail is not None:
        metrics["op_tail_ms"] = _metric(sorted(cal_ms)[tail[0]], "ms")
    metrics["ops_per_s"] = _metric(len(cal_ms) / (sum(cal_ms) / 1000.0), "1/s")
    metrics["setup_s"] = _metric(statistics.median(setup_cal), "s")
    metrics["peak_rss_mb"] = _metric(peak_rss_mb, "MB")
    return metrics


def _trace_metrics(tracer, raw_ms, cal_ms, refs, ops: int) -> dict:
    """Per-operation layer figures from the traced calls (odd positions);
    the untraced calls (even positions) give the overhead baseline."""
    scale = {k: cal_ms[2 * k + 1] / raw_ms[2 * k + 1] for k in range(ops)}
    totals = spans.layer_totals(tracer.spans, scale)
    metrics = {}
    for name, t in totals.items():
        metrics[f"{name}.calls"] = _metric(t["calls"] / ops, "count")
        metrics[f"{name}.self_ms"] = _metric(t["self_ms"] / ops, "ms")
    for name in spans.ROWS:
        metrics[f"{name}.rows"] = _metric(totals[name]["rows"] / ops, "count")
    untraced, traced = cal_ms[0::2], cal_ms[1::2]
    metrics["trace.overhead_ms"] = _metric(statistics.fmean(traced) - statistics.fmean(untraced), "ms")
    metrics["bench.ref_ms"] = _metric(statistics.median(refs), "ms")
    metrics["bench.raw_op_p50_ms"] = _metric(statistics.median(raw_ms[0::2]), "ms")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
