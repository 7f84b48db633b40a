"""Repeat mode: run workloads over several seeds and report the spread.

    python3 perfbench/repeat.py --workload session_grid --seeds 1-10
    python3 perfbench/repeat.py --workload all --seeds 1-5 --seconds 10

Runs ``perfbench/run.py`` once per (workload, seed), sequentially, and
prints per metric the median, the quartiles (``statistics.quantiles``,
n=4) and the spread ``(Q3 - Q1) / median``. Against ``BENCHMARK.json``
each end-to-end spread is marked ``ok`` when it is below a third of the
metric's bound. Bounds are set from these spreads; ``setup_s`` is
reported but not held to a spread. Exits 1 if any run fails or is
incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def _run(workload: str, seed: int, seconds, trace: int) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(trace),
    ]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1])


def summarize(values):
    """``(median, q1, q3, (q3 - q1) / median)`` from ``statistics.quantiles``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = (
        [w["name"] for w in bench["workloads"]]
        if args.workload == "all"
        else args.workload.split(",")
    )
    status = 0
    for workload in workloads:
        runs = []
        for seed in _seeds(args.seeds):
            result = _run(workload, seed, args.seconds, args.trace)
            if not result["correct"] or result["failed"]:
                status = 1
            runs.append(result)
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
            ), flush=True)
        print(f"== {workload}: {len(runs)} runs")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            median, q1, q3, spread = summarize(values)
            verdict = ""
            if metric in bounds and metric != "setup_s":
                ok = spread < bounds[metric] / 3.0
                verdict = f"bound {bounds[metric]:.3f} {'ok' if ok else 'WIDE'}"
            print(
                f"  {metric:<34} median {median:<14.6g} q1 {q1:<14.6g} "
                f"q3 {q3:<14.6g} spread {spread:.4f} {verdict}"
            )
    return status


if __name__ == "__main__":
    sys.exit(main())
