"""Seeded inputs for the three benchmark workloads.

Everything the simulator is handed comes from here: bandwidth traces,
network/failure recipes, cohort job specs and runner job specs. Each
builder is a pure function of the workload seed, so one seed always
yields the same inputs, and building them is the benchmark's set-up
(``setup_s``). Set-up runs in a single process.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.media.content import drama_show
from repro.net.link import SeparatePaths, shared
from repro.net.resilience import FailoverPolicy, ResilienceModel, RetryPolicy
from repro.net.traces import BandwidthTrace, random_walk
from repro.runner import FailureSpec, PlayerSpec, SimulationJob, TraceSpec
from repro.runner.jobs import PLAYER_NAMES
from repro.sim.session import SessionConfig
from repro.topology import (
    CohortJob,
    FaultDomainKind,
    FaultDomainSchedule,
    FaultWindow,
    TopologySpec,
)

#: Seed used when ``--seed`` is not given (and in the README examples).
DEFAULT_SEED = 1
#: Seed kept out of every tuning run; a later performance claim must
#: also hold on it.
HELD_OUT_SEED = 9001

#: Measured-trace shape: 10 minutes at 0.5 s granularity, the shape
#: ``load_mahimahi``/``traces.from_csv`` produce from real captures.
_SEGMENTS = dict(n_segments=1200, segment_duration_s=0.5)
#: ``(mean_kbps, floor_kbps)`` per video/shared path. The 280 kbps
#: trace is underprovisioned for the ladder, so sessions on it stall.
TRACE_SHAPES: Tuple[Tuple[float, float], ...] = (
    (1500.0, 50.0),
    (280.0, 60.0),
    (2400.0, 50.0),
)
#: session_grid draws each shape this many times, so one unlucky draw
#: moves the latency percentiles less.
TRACE_DRAWS = 2
#: The audio path of ``SeparatePaths`` cells.
AUDIO_PATH_SHAPE = (400.0, 40.0)
RTT_S = 0.05
FAILURE_PROBABILITY = 0.1

#: flash_crowd: four edges, a pinned storm from 60 s to 100 s.
COHORT_EDGES = 4
COHORT_EDGE_KBPS = 25_000.0
COHORT_SESSIONS = 100
COHORT_SEEDS_PER_SCENARIO = 2
SCENARIOS = ("clean", "edge_outage", "origin_brownout", "eviction_storm")

#: runner_sweep: pool size (the benchmark box has two cores).
RUNNER_WORKERS = 2
RUNNER_REPLICATES = 2


def _walk(rng: random.Random, mean_kbps: float, floor_kbps: float) -> BandwidthTrace:
    return random_walk(
        mean_kbps, seed=rng.randrange(1 << 31), floor_kbps=floor_kbps, **_SEGMENTS
    )


# -- session_grid -------------------------------------------------------------


@dataclass(frozen=True)
class SessionCell:
    """One session of the grid: a player on a path, maybe with failures."""

    player: str
    trace_index: int
    video_trace: BandwidthTrace
    audio_trace: Optional[BandwidthTrace]  # set = SeparatePaths
    failure_seed: Optional[int]  # set = ResilienceModel + RetryPolicy

    @property
    def label(self) -> str:
        path = "separate" if self.audio_trace is not None else "shared"
        failures = "clean" if self.failure_seed is None else "failures"
        return f"{self.player}/t{self.trace_index}/{path}/{failures}"

    def network(self):
        if self.audio_trace is None:
            return shared(self.video_trace, rtt_s=RTT_S)
        return SeparatePaths(self.video_trace, self.audio_trace, rtt_s=RTT_S)

    def config(self, observer=None) -> SessionConfig:
        if self.failure_seed is None:
            return SessionConfig(observer=observer)
        return SessionConfig(
            failure_model=ResilienceModel(FAILURE_PROBABILITY, seed=self.failure_seed),
            retry_policy=RetryPolicy(),
            observer=observer,
        )


@dataclass(frozen=True)
class SessionGridInputs:
    content: object
    cells: Tuple[SessionCell, ...]


def session_grid(seed: int) -> SessionGridInputs:
    rng = random.Random(f"session_grid/{seed}")
    shapes = TRACE_SHAPES * TRACE_DRAWS
    video = [_walk(rng, mean, floor) for mean, floor in shapes]
    audio = [_walk(rng, *AUDIO_PATH_SHAPE) for _ in shapes]
    cells: List[SessionCell] = []
    for player in PLAYER_NAMES:
        for index in range(len(shapes)):
            for audio_trace in (None, audio[index]):
                for failure_seed in (None, rng.randrange(1 << 31)):
                    cells.append(
                        SessionCell(player, index, video[index], audio_trace, failure_seed)
                    )
    return SessionGridInputs(drama_show(), tuple(cells))


# -- flash_crowd --------------------------------------------------------------


def _storms():
    pin = dict(start_s=60.0, end_s=100.0)
    return {
        "clean": None,
        "edge_outage": FaultDomainSchedule(
            kinds=(),
            pinned=(FaultWindow(FaultDomainKind.EDGE_OUTAGE, "edge-1", **pin),),
        ),
        "origin_brownout": FaultDomainSchedule(
            kinds=(),
            pinned=(
                FaultWindow(
                    FaultDomainKind.ORIGIN_BROWNOUT,
                    "origin",
                    latency_factor=6.0,
                    error_probability=0.4,
                    **pin,
                ),
            ),
        ),
        "eviction_storm": FaultDomainSchedule(
            kinds=(),
            pinned=(FaultWindow(FaultDomainKind.EVICTION_STORM, "edge-2", **pin),),
        ),
    }


def flash_crowd(seed: int) -> Tuple[Tuple[str, CohortJob], ...]:
    """``(scenario, job)`` cells, scenarios interleaved."""
    rng = random.Random(f"flash_crowd/{seed}")
    topology = TopologySpec.uniform(COHORT_EDGES, capacity_kbps=COHORT_EDGE_KBPS)
    storms = _storms()
    cells = []
    for _ in range(COHORT_SEEDS_PER_SCENARIO):
        cohort_seed = rng.randrange(1 << 31)
        for scenario in SCENARIOS:
            job = CohortJob(
                topology=topology,
                faults=storms[scenario],
                n_sessions=COHORT_SESSIONS,
                arrival_burst_s=30.0,
                failover=FailoverPolicy(),
                seed=cohort_seed,
                keep_summaries=False,
            )
            cells.append((scenario, job))
    return tuple(cells)


# -- runner_sweep -------------------------------------------------------------


@dataclass(frozen=True)
class RunnerSweepInputs:
    content: object  # for scoring the returned results
    jobs: Tuple[SimulationJob, ...]


def runner_sweep(seed: int) -> RunnerSweepInputs:
    """Players x traces x replicates; odd replicates fail.

    The traces are the runner's own seeded ``random_walk`` specs (10 s
    segments), so per-job simulation stays cheap and the runner's own
    costs (dispatch, pickling, cache and event-log I/O, replay) carry
    the weight; ``session_grid`` covers measured-shape sessions.
    """
    rng = random.Random(f"runner_sweep/{seed}")
    traces = [
        TraceSpec.random_walk(mean, rng.randrange(1 << 31)) for mean, _ in TRACE_SHAPES
    ]
    jobs = []
    for player in PLAYER_NAMES:
        for trace in traces:
            for replicate in range(RUNNER_REPLICATES):
                failing = replicate % 2 == 1
                jobs.append(
                    SimulationJob(
                        player=PlayerSpec(player),
                        trace=trace,
                        rtt_s=RTT_S,
                        failure=(
                            FailureSpec.with_mix(
                                FAILURE_PROBABILITY, rng.randrange(1 << 31), None
                            )
                            if failing
                            else None
                        ),
                        retry_policy=RetryPolicy() if failing else None,
                        seed=replicate,
                    )
                )
    return RunnerSweepInputs(drama_show(), tuple(jobs))


BUILDERS = {
    "session_grid": session_grid,
    "flash_crowd": flash_crowd,
    "runner_sweep": runner_sweep,
}


def build(workload: str, seed: int):
    return BUILDERS[workload](seed)
