"""Benchmark entry point.

    python3 perfbench/run.py --workload session_grid --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. It imports the simulator from
``src/``, builds the workload's inputs from ``--seed``, runs whole
passes over them for ``--seconds`` and checks every output. It prints a
human-readable report, then one JSON line: end-to-end metrics with
``--trace 0``, per-layer metrics from the outside-in traced run with
``--trace 1``. Metric definitions and the layer map are in
``perfbench/README.md`` and ``perfbench/layer_map.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

WORKLOADS = ("session_grid", "flash_crowd", "runner_sweep")
#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 9


def _load_repro() -> None:
    """Import the simulator from this checkout's ``src``, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no simulator source at {SRC}/repro")
    sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="build the inputs and exit"
    )
    return parser.parse_args(argv)


def _time_setup(workload: str, seed: int):
    """``SETUP_REPEATS`` fresh processes doing the set-up: their wall
    times, raw and at nominal machine speed."""
    from calibrate import Meter

    command = [
        sys.executable, os.path.abspath(__file__), "--setup-only",
        "--workload", workload, "--seed", str(seed),
    ]
    raw, nominal = [], []
    meter = Meter(0.05)
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(command, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - start)
        nominal.append(raw[-1] / meter.after(raw[-1]))
    return raw, nominal


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _pass_function(name: str, seed: int):
    """The workload's seeded inputs bound to its pass function."""
    import inputs
    import workloads

    built = inputs.build(name, seed)
    if name == "session_grid":
        return lambda tracer: workloads.session_grid_pass(built, tracer)
    if name == "flash_crowd":
        return lambda tracer: workloads.flash_crowd_pass(built, tracer)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    return lambda tracer: workloads.runner_sweep_pass(built, workdir, tracer)


def _measure(run_pass, seconds: float, traced: bool):
    """Whole passes until ``seconds`` have elapsed (at least one; with
    tracing, untraced and traced passes alternate, at least one each).
    Returns the passes and the first pass's per-cell digests."""
    from tracer import Tracer
    import workloads

    passes = []
    reference = None
    deadline = time.perf_counter() + seconds
    while True:
        tracer = Tracer() if traced and len(passes) % 2 == 1 else None
        current = run_pass(tracer)
        if reference is None:
            reference = current.digests[: current.cells]
        workloads.check_against(reference, current)
        passes.append(current)
        if time.perf_counter() >= deadline and (not traced or len(passes) >= 2):
            return passes, reference


def _end_to_end(name: str, passes, setup_raw, setup, rss_mb):
    """``(contract metrics, named report lines)`` for an untraced run.

    Times and rates are at nominal machine speed (``calibrate``); the
    report lines add the raw wall-clock rates next to them.
    """
    latencies = [s for p in passes for s in p.latencies_s]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    rates = [p.per_s for p in passes]
    metrics = {
        "throughput_per_s": (statistics.median(rates), "1/s", len(rates)),
        "latency_ms_p50": (1000.0 * deciles[4], "ms", len(latencies)),
        "latency_ms_p90": (1000.0 * deciles[8], "ms", len(latencies)),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "setup_s": (statistics.median(setup), "s", len(setup)),
    }
    named = {}
    if name == "session_grid":
        named["sessions_per_s"] = metrics["throughput_per_s"]
        named["session_ms_p50"] = metrics["latency_ms_p50"]
        named["session_ms_p90"] = metrics["latency_ms_p90"]
    elif name == "flash_crowd":
        named["cohort_sessions_per_s"] = metrics["throughput_per_s"]
        value, _unit, n = metrics["latency_ms_p50"]
        named["cohort_cell_s_p50"] = (value / 1000.0, "s", n)
    else:
        jobs = passes[0].cells
        for phase in ("cold", "warm", "log_replay"):
            per_s = [jobs / p.phases[phase] for p in passes]
            named[f"{phase}_jobs_per_s"] = (statistics.median(per_s), "1/s", len(per_s))
    named["peak_rss_mb"] = metrics["peak_rss_mb"]
    named["setup_s"] = metrics["setup_s"]
    raw = [p.raw_per_s for p in passes]
    named["raw_throughput_per_s"] = (statistics.median(raw), "1/s", len(raw))
    readings = [r for p in passes for r in p.meter.readings]
    named["machine_speed_factor"] = (statistics.median(readings), "ratio", len(readings))
    named["raw_setup_s"] = (statistics.median(setup_raw), "s", len(setup_raw))
    return metrics, named


def _per_layer(name: str, passes, seed: int):
    """Per-layer metrics from the traced passes of a traced run."""
    with open(os.path.join(HERE, "layer_map.json")) as f:
        layer_map = json.load(f)["metrics"]
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    samples = []
    for p in traced:
        tracer = p.tracer
        values = {e["name"]: 0 if e["exact"] else 0.0 for e in layer_map}
        for layer, seconds in tracer.self_s_by_layer().items():
            values[f"{layer}.self_s"] = seconds
        for call, count in tracer.calls.items():
            values[f"{call}.calls"] = count
            values[f"{call}.s"] = tracer.call_s[call]
        values.update(tracer.counts)
        values.update(p.layers)
        values["trace.spans"] = len(tracer.spans)
        unknown = set(values) - {entry["name"] for entry in layer_map}
        if unknown:
            raise SystemExit(f"perfbench: metrics missing from layer_map.json: {sorted(unknown)}")
        samples.append(values)
    untraced_rate = statistics.median(p.per_s for p in untraced)
    traced_rate = statistics.median(p.per_s for p in traced)
    metrics = {
        "trace.untraced_per_s": (untraced_rate, "1/s", len(untraced)),
        "trace.traced_per_s": (traced_rate, "1/s", len(traced)),
        "trace.overhead_ratio": (untraced_rate / traced_rate - 1.0, "ratio", len(traced)),
    }
    consistent = True
    for entry in layer_map:
        metric = entry["name"]
        if metric in metrics:
            continue
        series = [values[metric] for values in samples]
        if entry["exact"]:
            if len(set(series)) != 1:
                consistent = False
                print(f"FAILED {metric}: traced passes disagree: {series}", file=sys.stderr)
            value = series[0]
        else:
            value = statistics.median(series)
        metrics[metric] = (value, entry["unit"], len(series))
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{name}-s{seed}.json")
    traced[0].tracer.dump(spans_path, {"workload": name, "seed": seed, "passes": len(traced)})
    return metrics, consistent, spans_path


def _print_block(title: str, metrics) -> None:
    print(f"== {title}")
    for metric, (value, unit, n) in metrics.items():
        shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"  {metric:<40} {shown} {unit:<6} (n={n})")


def main(argv=None) -> int:
    args = _parse(argv)
    _load_repro()
    sys.path.insert(0, HERE)
    import inputs

    seed = inputs.DEFAULT_SEED if args.seed is None else args.seed
    run_pass = _pass_function(args.workload, seed)
    if args.setup_only:
        return 0

    passes, reference = _measure(run_pass, args.seconds, bool(args.trace))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = failed == 0
    print(f"workload {args.workload} seed {seed} ({len(passes)} passes)")
    digest = hashlib.sha256("".join(reference).encode("ascii")).hexdigest()
    print(f"  output_digest {digest}")
    print(f"  failed_ops_share {failed / attempted:.6f} ratio (n={attempted})")
    if args.trace:
        metrics, consistent, spans_path = _per_layer(args.workload, passes, seed)
        correct = correct and consistent
        _print_block("per-layer (traced run)", metrics)
        print(f"  spans written to {os.path.relpath(spans_path, ROOT)}")
    else:
        rss_mb = _peak_rss_mb()
        setup_raw, setup = _time_setup(args.workload, seed)
        metrics, named = _end_to_end(args.workload, passes, setup_raw, setup, rss_mb)
        _print_block("end-to-end", named)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    metric: {"value": value, "unit": unit}
                    for metric, (value, unit, _n) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
