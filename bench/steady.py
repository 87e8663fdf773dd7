#!/usr/bin/env python3
"""Steadiness of the end-to-end metrics: run each workload k times, each
with another seed, one run at a time, and print for every metric the
median, the quartiles and the spread (q3 - q1) / median.

    python3 bench/steady.py --runs 10 --seconds 36 [--workload NAME ...]

Run from the root of a source checkout. --json FILE also writes every
run's result and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import calib
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True,
                          cwd=HERE.parent)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(results: list[dict]) -> dict:
    """Per metric: median, quartiles, spread; plus the failed shares."""
    out = {"failed_share": sorted({r["failed"] / r["attempted"] for r in results}),
           "correct": all(r["correct"] for r in results), "metrics": {}}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med, q1, q3, rel = calib.spread(values)
        out["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": rel,
                                "unit": results[0]["metrics"][name]["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", metavar="FILE")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs needs at least 2 runs for quartiles")

    report = {}
    for workload in args.workload or list(WORKLOADS):
        results = [run_once(workload, seed, args.seconds)
                   for seed in range(args.first_seed, args.first_seed + args.runs)]
        summary = summarize(results)
        report[workload] = {"runs": results, "summary": summary}
        print(f"{workload}: {args.runs} runs, correct {summary['correct']}, "
              f"failed share {summary['failed_share']}")
        for name, m in summary["metrics"].items():
            print(f"  {name:12s} median {m['median']:10.4f} {m['unit']:4s} "
                  f"q1 {m['q1']:10.4f} q3 {m['q3']:10.4f} spread {m['spread']:7.2%}")
        sys.stdout.flush()
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
