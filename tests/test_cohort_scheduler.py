"""The cohort kernel's event scheduler and config guards.

Simulated output is pinned by ``test_cohort_golden.py``; this module
pins the scheduler's deterministic work counts (which, unlike wall
time, can be gated exactly), the watchdog semantics of an edge outage,
and the config values that used to hang the event loop.
"""

import gc
import heapq
import importlib.util
import os
import sys
import weakref
from bisect import bisect_right

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.net.resilience import FailureKind
from repro.sim import cohort
from repro.sim.cohort import CohortConfig, _suffix_minima
from repro.topology import FaultDomainKind

from .test_cohort_golden import SCENARIOS, golden_job

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(job):
    kernel = job.kernel()
    return kernel, kernel.run()


# -- deterministic work counts ----------------------------------------------


def test_work_counts_are_pinned_for_a_pinned_outage_cohort():
    kernel, result = _run(golden_job("edge_outage", 0))
    assert (kernel.events_processed, kernel.heap_pushes) == (9558, 12488)
    # Counts are kernel attributes, never part of the result.
    assert not hasattr(result, "heap_pushes")


def test_no_watchdog_ever_enters_the_global_heap(monkeypatch):
    kernel = golden_job("edge_outage", 1).kernel()
    pushed = []
    real_push = heapq.heappush

    def spy(heap, entry):
        if heap is getattr(kernel, "_heap", None):
            pushed.append(entry[2].__name__)
        real_push(heap, entry)

    monkeypatch.setattr(cohort.heapq, "heappush", spy)
    kernel.run()
    assert len(pushed) == kernel.heap_pushes
    assert "_on_deadline" not in pushed
    assert "_on_edge_complete" in pushed


def test_a_finished_kernel_is_freed_without_the_cycle_collector():
    """No reference cycles: peak memory of back-to-back cohorts stays flat."""
    kernel = golden_job("edge_outage", 0).kernel()
    alive = weakref.ref(kernel)
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel.run()
        del kernel
        assert alive() is None
    finally:
        if enabled:
            gc.enable()


def test_flash_crowd_benchmark_pass_heap_pushes(monkeypatch):
    """One seed-1 pass of the benchmark's ``flash_crowd`` workload.

    The scheduler that pushed every watchdog and every edge re-timing
    onto the global heap made 391,470 pushes on this pass.
    """
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", os.path.join(ROOT, "perfbench", "inputs.py")
    )
    inputs = importlib.util.module_from_spec(spec)
    # Its dataclasses look themselves up; removed again after the test.
    monkeypatch.setitem(sys.modules, spec.name, inputs)
    spec.loader.exec_module(inputs)
    pushes = events = 0
    for _scenario, job in inputs.flash_crowd(inputs.DEFAULT_SEED):
        kernel, _ = _run(job)
        pushes += kernel.heap_pushes
        events += kernel.events_processed
    assert (pushes, events) == (264_641, 202_595)


# -- outage semantics -------------------------------------------------------


def test_requests_into_an_edge_outage_hang_until_their_watchdog(monkeypatch):
    """An outage does not fail requests instantly: they time out."""
    failures = []
    real_fail = cohort.CohortKernel._fail_request

    def spy(self, session, t, kind, wasted_bits):
        request = session.inflight
        failures.append(
            (request.edge.spec.edge_id, request.dispatched, t, kind,
             request.medium)
        )
        real_fail(self, session, t, kind, wasted_bits)

    monkeypatch.setattr(cohort.CohortKernel, "_fail_request", spy)
    job = golden_job("edge_outage", 1)
    (window,) = SCENARIOS["edge_outage"].pinned
    assert window.kind is FaultDomainKind.EDGE_OUTAGE
    job.execute()
    policy = job.retry_policy
    into_outage = [
        f for f in failures
        if f[0] == window.domain
        and window.start_s <= f[1]
        and f[1] + policy.timeout_for(f[4]) <= window.end_s
    ]
    assert into_outage
    for _edge, dispatched, failed_at, kind, medium in into_outage:
        assert kind is FailureKind.TIMEOUT
        assert failed_at == dispatched + policy.timeout_for(medium)


# -- rung selection ---------------------------------------------------------


@given(
    st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=8),
    st.floats(min_value=0.0, max_value=6000.0),
)
def test_suffix_minima_bisect_matches_a_linear_scan(ladder, budget):
    fits = [i for i, kbps in enumerate(ladder) if kbps <= budget]
    expected = fits[-1] if fits else -1
    assert bisect_right(_suffix_minima(ladder), budget) - 1 == expected


# -- config guards ----------------------------------------------------------


@pytest.mark.parametrize("target", [0.0, -5.0])
def test_non_positive_buffer_target_is_rejected(target):
    with pytest.raises(SimulationError, match="buffer_target_s"):
        CohortConfig(n_sessions=5, buffer_target_s=target)


@pytest.mark.parametrize("name", ["up_buffer_s", "down_buffer_s"])
def test_negative_switch_buffers_are_rejected(name):
    with pytest.raises(SimulationError, match=name):
        CohortConfig(**{name: -1.0})
    CohortConfig(**{name: 0.0})  # zero is a valid (eager) threshold
