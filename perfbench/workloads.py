"""The three workloads: one pass of each, untraced or traced.

A *pass* runs a workload's whole input set once and returns a
:class:`Pass`: per-op latencies, the work units done, per-op output
digests (compared against the run's first pass, so any drift is a
failed op) and, when traced, the per-layer numbers.

* ``session_grid`` — serial closed loop, one op = build player ->
  ``Session.run`` -> ``compute_qoe``. Touches players, net, sim.session
  and qoe; never runner, replay or sim.cohort.
* ``flash_crowd`` — cohort cells executed in-process one after another,
  one op = one cell. Touches sim.cohort + topology only.
* ``runner_sweep`` — one pass = three ``run_jobs(workers=2)`` calls over
  the same job grid: cold (simulate, write cache entries and event
  logs), warm (all cache hits) and log-replay (cache emptied, every job
  rebuilt from its event log). One op = one job served; a cold job's
  latency is its worker time (``JobOutcome.wall_time_s``), a warm or
  log-replay job's is its pass time over the jobs in it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import inputs
from calibrate import Meter
from tracer import CountingObserver, TimedNetwork, TracedCache, Tracer

import repro.replay.replayer as replayer_module
from repro.chaos import check_cohort
from repro.chaos.invariants import check_outcomes, check_session
from repro.media.content import drama_show
from repro.qoe.metrics import compute_qoe
from repro.runner import EngineStats, PlayerSpec, ResultCache, run_jobs
from repro.sim.session import Session

_clock = time.perf_counter


@dataclass
class Pass:
    cells: int  # distinct inputs; every pass serves each at least once
    meter: Meter
    units: int = 0  # sessions simulated or jobs served
    busy_s: float = 0.0  # wall time inside timed ops
    nominal_s: float = 0.0  # the same at nominal machine speed
    #: Per-op latencies at nominal machine speed.
    latencies_s: List[float] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Named phase times at nominal speed (the three runner passes).
    phases: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    tracer: Optional[Tracer] = None

    @property
    def traced(self) -> bool:
        return self.tracer is not None

    @property
    def raw_per_s(self) -> float:
        return self.units / self.busy_s

    @property
    def per_s(self) -> float:
        """Throughput at nominal machine speed (see ``calibrate``)."""
        return self.units / self.nominal_s

    def book(self, elapsed: float, units: int, latencies=None) -> float:
        """Record one timed op (``latencies`` defaults to its own time);
        returns its time at nominal speed."""
        factor = self.meter.after(elapsed)
        self.busy_s += elapsed
        self.nominal_s += elapsed / factor
        self.units += units
        self.latencies_s.extend(s / factor for s in (latencies or (elapsed,)))
        return elapsed / factor

    def fail(self, op: str, why: str) -> None:
        self.failed += 1
        print(f"FAILED {op}: {why}", file=sys.stderr)


def _sha(obj) -> str:
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _session_digest(result, report) -> str:
    """sha256 over a session's QoE summary and verdict, floats exact."""
    return _sha(
        {
            "qoe": dataclasses.asdict(report),
            "completed": result.completed,
            "termination_reason": result.termination_reason,
        }
    )


def _verdicted(result) -> bool:
    return result.completed or result.termination_reason is not None


def _span(tracer: Optional[Tracer], name: str, op: Optional[str] = None):
    return nullcontext() if tracer is None else tracer.span(name, op)


def _reap_workers() -> None:
    """Wait for pool workers a finished ``run_jobs`` left shutting down."""
    for child in multiprocessing.active_children():
        child.join()


# -- session_grid -------------------------------------------------------------


def _session_op(content, cell, tracer: Optional[Tracer], op: str):
    if tracer is None:
        player = PlayerSpec(cell.player).build(content)
        result = Session(content, player, cell.network(), cell.config()).run()
        return result, compute_qoe(result, content)
    with tracer.span("players.build", op):
        player = PlayerSpec(cell.player).build(content)
    prefix = f"players.{cell.player}"
    tracer.wrap_method(player, "choose_next", f"{prefix}.choose_next")
    tracer.wrap_method(player, "on_chunk_complete", f"{prefix}.on_chunk_complete")
    network = TimedNetwork(cell.network(), tracer)
    config = cell.config(CountingObserver(tracer))
    with tracer.span("sim.session.run", op):
        result = Session(content, player, network, config).run()
    tracer.counts["sim.session.calls"] += 1
    with tracer.span("qoe.compute_qoe", op):
        report = compute_qoe(result, content)
    return result, report


def session_grid_pass(grid, tracer: Optional[Tracer] = None) -> Pass:
    out = Pass(len(grid.cells), Meter(0.0), tracer=tracer)
    content = grid.content
    if tracer is not None:
        with tracer.span("media.content_build"):
            content = drama_show()
    for cell in grid.cells:
        out.attempted += 1
        start = _clock()
        try:
            result, report = _session_op(content, cell, tracer, cell.label)
        except Exception:
            out.digests.append("raised")
            out.fail(cell.label, traceback.format_exc())
            continue
        out.book(_clock() - start, 1)
        with _span(tracer, "chaos.check_session", cell.label):
            violations = check_session(result)
        out.digests.append(_session_digest(result, report))
        if not _verdicted(result):
            out.fail(cell.label, "session ended without a verdict")
        elif violations:
            out.fail(cell.label, f"invariant: {violations[0]}")
    if tracer is not None:
        layers = out.layers
        layers["players.build_s"] = tracer.span_s("players.build")
        layers["sim.session.run_s"] = tracer.span_s("sim.session.run")
        layers["qoe.compute_qoe.s"] = tracer.span_s("qoe.compute_qoe")
        layers["chaos.check_session_s"] = tracer.span_s("chaos.check_session")
    return out


# -- flash_crowd --------------------------------------------------------------


def flash_crowd_pass(cells, tracer: Optional[Tracer] = None) -> Pass:
    out = Pass(len(cells), Meter(0.05), tracer=tracer)
    totals = dict(hits=0, misses=0, useful=0.0, wasted=0.0)
    for index, (scenario, job) in enumerate(cells):
        op = f"{scenario}#{index}"
        out.attempted += 1
        start = _clock()
        try:
            with _span(tracer, f"sim.cohort.run.{scenario}", op):
                result = job.execute()
        except Exception:
            out.digests.append("raised")
            out.fail(op, traceback.format_exc())
            continue
        out.book(_clock() - start, result.n_sessions)
        with _span(tracer, "chaos.check_cohort", op):
            violations = check_cohort(result)
        if tracer is not None:
            _count_cohort(tracer, result, totals)
        out.digests.append(result.fingerprint())
        if violations:
            out.fail(op, f"invariant: {violations[0]}")
        elif result.completed_sessions + result.degraded_sessions != job.n_sessions:
            out.fail(op, "a session ended without a verdict")
    if tracer is not None:
        layers = out.layers
        for scenario in inputs.SCENARIOS:
            layers[f"sim.cohort.run_s.{scenario}"] = tracer.span_s(
                f"sim.cohort.run.{scenario}"
            )
        layers["chaos.check_cohort_s"] = tracer.span_s("chaos.check_cohort")
        requests = totals["hits"] + totals["misses"]
        bits = totals["useful"] + totals["wasted"]
        layers["topology.cache.hit_ratio"] = totals["hits"] / requests if requests else 0.0
        layers["cohort.wasted_bits_ratio"] = totals["wasted"] / bits if bits else 0.0
    return out


def _count_cohort(tracer: Tracer, result, totals) -> None:
    """Counts read from the ``CohortResult`` itself."""
    counts = tracer.counts
    agg = result.aggregate
    counts["cohort.sessions"] += result.n_sessions
    counts["cohort.retries"] += round(agg["retries"]["mean"] * agg["sessions"])
    counts["cohort.failovers"] += round(agg["failovers"]["mean"] * agg["sessions"])
    for ledger in result.edges.values():
        counts["cohort.chunks"] += ledger["cache_hits"] + ledger["cache_misses"]
        totals["hits"] += ledger["cache_hits"]
        totals["misses"] += ledger["cache_misses"]
        totals["useful"] += ledger["useful_bits"]
        totals["wasted"] += ledger["wasted_bits"]


# -- runner_sweep -------------------------------------------------------------

RUNNER_PASSES = ("cold", "warm", "log_replay")


def runner_sweep_pass(sweep, workdir: str, tracer: Optional[Tracer] = None) -> Pass:
    """Cold, warm and log-replay ``run_jobs`` calls on a fresh work dir."""
    jobs, content = sweep.jobs, sweep.content
    out = Pass(len(jobs), Meter(0.5), tracer=tracer)
    shutil.rmtree(workdir, ignore_errors=True)
    cache_root = os.path.join(workdir, "cache")
    record_dir = os.path.join(workdir, "events")
    os.makedirs(record_dir)
    if tracer is None:
        cache = ResultCache(cache_root)
    else:
        cache = TracedCache(cache_root, tracer)
        with tracer.span("media.content_build"):
            content = drama_show()
        with tracer.span("runner.job_key"):
            for job in jobs:
                job.key()
        original_replay = replayer_module.replay_session
        replayer_module.replay_session = tracer.timed(
            "replay.replay_session", original_replay
        )
    engine = EngineStats()  # run_jobs adds each pass's recoveries here
    try:
        for name in RUNNER_PASSES:
            if name == "log_replay":
                cache.clear()
            start = _clock()
            with _span(tracer, f"runner.pass.{name}"):
                outcomes = run_jobs(
                    jobs, workers=inputs.RUNNER_WORKERS, cache=cache,
                    record_dir=record_dir, stats=engine,
                )
            wall = _clock() - start
            _reap_workers()
            if name == "cold":
                cold_wall = wall
                worker_s = sum(o.wall_time_s for o in outcomes)
                out.phases[name] = out.book(
                    wall, len(jobs), [o.wall_time_s for o in outcomes]
                )
                log_bytes = sum(
                    os.path.getsize(os.path.join(record_dir, n))
                    for n in os.listdir(record_dir)
                )
            else:  # served in the parent: only the pass time is observable
                out.phases[name] = out.book(wall, len(jobs), [wall / len(jobs)] * len(jobs))
            _check_runner_pass(out, name, jobs, outcomes, content, tracer)
    finally:
        if tracer is not None:
            replayer_module.replay_session = original_replay
        shutil.rmtree(workdir, ignore_errors=True)
    if engine.any():
        out.fail("runner", f"engine recovered from losses: {engine.as_dict()}")
    if tracer is not None:
        layers = out.layers
        layers["runner.job_key_s"] = tracer.span_s("runner.job_key")
        layers["runner.worker_sim_s"] = worker_s
        layers["runner.dispatch_overhead_s"] = (
            cold_wall - worker_s / inputs.RUNNER_WORKERS
        )
        layers["chaos.check_outcomes_s"] = tracer.span_s("chaos.check_outcomes")
        counts = tracer.counts
        counts["runner.cache.hits"] = cache.stats.hits
        counts["runner.cache.misses"] = cache.stats.misses
        counts["replay.log_bytes"] = log_bytes
        for key, value in engine.as_dict().items():
            counts[f"runner.engine.{key}"] = value
    return out


def _check_runner_pass(out: Pass, name, jobs, outcomes, content, tracer) -> None:
    with _span(tracer, "chaos.check_outcomes", name):
        violations = check_outcomes(outcomes)
    if violations:
        out.fail(name, f"invariant: {violations[0]}")
    if len(outcomes) != len(jobs):
        out.fail(name, f"{len(outcomes)} outcomes for {len(jobs)} jobs")
    for job, outcome in zip(jobs, outcomes):
        op = f"{name}/{job.label()}"
        out.attempted += 1
        if not outcome.ok or outcome.result is None:
            out.digests.append("failed")
            out.fail(op, outcome.error or "no result")
            continue
        result = outcome.result
        out.digests.append(_session_digest(result, compute_qoe(result, content)))
        if not _verdicted(result):
            out.fail(op, "session ended without a verdict")
        elif name == "warm" and not (outcome.cached and not outcome.replayed):
            out.fail(op, "warm pass missed the result cache")
        elif name == "log_replay" and not outcome.replayed:
            out.fail(op, "log-replay pass did not rebuild from the event log")
        elif name == "cold" and (outcome.cached or outcome.replayed):
            out.fail(op, "cold pass served a stale result")


def check_against(reference: List[str], current: Pass) -> None:
    """Every op must reproduce the run's first-pass digest for its cell
    (runner passes serve each job three times, so digests repeat)."""
    for index, digest in enumerate(current.digests):
        if digest != reference[index % current.cells]:
            current.fail(f"op {index}", "output differs from the first pass")
