"""repro.runner — engine overhead, cache replay and event-log speed.

Three costs matter: what the job/spec machinery adds on top of the bare
serial loop (should be negligible), how fast a fully warmed cache
replays a grid (should be orders of magnitude under simulation), and
what recording and replaying event logs — the runner's second cache
tier — cost on top of simulating.
"""

import filecmp
import importlib.util
import os

import pytest

from repro.replay import replay_session
from repro.runner import (
    PlayerSpec,
    ResultCache,
    SimulationJob,
    TraceSpec,
    run_jobs,
)

GRID = [
    SimulationJob(
        player=PlayerSpec(name, combinations=combos),
        trace=TraceSpec.constant(kbps),
    )
    for kbps in (500.0, 1000.0, 2000.0)
    for name, combos in (("recommended", "hsub"), ("dashjs", "hsub"))
]


def test_bench_runner_serial_grid(benchmark):
    outcomes = benchmark(run_jobs, GRID, 1)
    assert len(outcomes) == len(GRID)
    assert all(o.result.completed for o in outcomes)


def test_bench_runner_cached_replay(benchmark, tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    run_jobs(GRID, workers=1, cache=cache)  # warm it

    def replay():
        return run_jobs(GRID, workers=1, cache=ResultCache(str(tmp_path / "cache")))

    outcomes = benchmark(replay)
    assert all(o.cached for o in outcomes)


def test_bench_job_key_hashing(benchmark):
    job = GRID[0]
    key = benchmark(job.key)
    assert len(key) == 64


def _load_oracle():
    path = os.path.join(
        os.path.dirname(__file__),
        os.pardir,
        "tests",
        "fixtures",
        "eventlogs",
        "regenerate.py",
    )
    spec = importlib.util.spec_from_file_location("eventlog_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_ORACLE = _load_oracle()


def test_bench_event_log_roundtrip(benchmark, tmp_path):
    """Record, then replay, the 17-job pinned oracle grid.

    The event-log codec both ways: encoding and framing every event as
    the sessions run, then scanning, decoding and rebuilding each
    session from its log. The logs must come out byte-identical to the
    pinned oracle, so a codec that got fast by writing different bytes
    does not count.
    """
    out_dir = str(tmp_path / "logs")

    def roundtrip():
        written = _ORACLE.record_all(out_dir)
        return written, [replay_session(path) for _, path in written]

    written, replayed = benchmark(roundtrip)
    assert len(replayed) == len(_ORACLE.fixture_jobs())
    assert all(r.intact and r.has_verdict for r in replayed)
    for label, path in written:
        pinned = os.path.join(_ORACLE.FIXTURE_DIR, os.path.basename(path))
        assert filecmp.cmp(path, pinned, shallow=False), label


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "--benchmark-only"])
