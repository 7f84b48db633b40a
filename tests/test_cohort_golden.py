"""Golden cohort fingerprints: literal digests the kernel must keep.

The other cohort tests compare runs with each other (serial vs
parallel, fresh vs cached), so a kernel change that moves every run the
same way passes them all. These digests were recorded on the kernel
before its scheduler was reworked and pin the simulated output itself:
small cohorts (2 edges x 40 sessions, seeds 0 and 1) under each of the
four scenarios the flash-crowd experiment runs.

A change to what the cohort kernel simulates (not just how fast) must
bump :data:`repro.topology.jobs.COHORT_SPEC_SCHEMA_VERSION` and
re-record these digests in the same change.
"""

import dataclasses

import pytest

from repro.net.resilience import RetryPolicy
from repro.topology import (
    COHORT_SPEC_SCHEMA_VERSION,
    CohortJob,
    FaultDomainKind,
    FaultDomainSchedule,
    FaultWindow,
    TopologySpec,
)

_PIN = dict(start_s=60.0, end_s=100.0)

SCENARIOS = {
    "clean": None,
    "edge_outage": FaultDomainSchedule(
        kinds=(),
        pinned=(FaultWindow(FaultDomainKind.EDGE_OUTAGE, "edge-1", **_PIN),),
    ),
    "origin_brownout": FaultDomainSchedule(
        kinds=(),
        pinned=(
            FaultWindow(
                FaultDomainKind.ORIGIN_BROWNOUT, "origin",
                latency_factor=6.0, error_probability=0.4, **_PIN,
            ),
        ),
    ),
    "eviction_storm": FaultDomainSchedule(
        kinds=(),
        pinned=(
            FaultWindow(FaultDomainKind.EVICTION_STORM, "edge-2", **_PIN),
        ),
    ),
}

#: (scenario, seed) -> CohortResult.fingerprint(), schema version 1.
GOLDEN = {
    ("clean", 0): "6a3bd5eb61280100fd3a2b3bd6b6b1d99760b97e8f538204d9e7bbbc9a9add13",
    ("clean", 1): "6570749558585d1f97e173bb89759f8f9309d8bb2082b3d5869ee42394434407",
    ("edge_outage", 0): "215af3c0eec5fe0615e2314a362e44129a2f22497a1b7e5d7061c36788630108",
    ("edge_outage", 1): "d79a2dba6733b76a608c8fef6a961b6afdcb1ae178fb942a1e84c5a672362dba",
    ("origin_brownout", 0): "0bee86643a25ff0baad7a8404af985358e64a7c1b070c4b0e44fb423775087ea",
    ("origin_brownout", 1): "a1321c1f1dbb94d68f145b4025257ddbd10cfcc6e27995e6cd99ba5c18626b3c",
    ("eviction_storm", 0): "e31f167c5acba65b463cdbbe815e2ce41374f6c08cac8d7579da8e9a9e8f7433",
    ("eviction_storm", 1): "977d4adebc421c5839309bc67ce8a5d43a2e8b5cc4733d00dfdbfadb47cdcbef",
}


#: Video and audio watchdogs of different lengths, so the two
#: per-medium watchdog queues interleave unevenly.
SPLIT_WATCHDOGS = RetryPolicy(video_timeout_s=6.0, audio_timeout_s=3.0)

GOLDEN_SPLIT_WATCHDOGS = {
    ("edge_outage", 0): "f2341168b31aaf0691b9b73951c34e220c42dfe094501b5551f2c795db9c8d67",
    ("edge_outage", 1): "f7003b72679d27239f49e6049a2124d678174e388fb031266379e13f6e44e077",
    ("origin_brownout", 0): "a7b21f9756d5a9a9265f08d2877f6b94afe935b59aec6705c6c4b1fdeedd0938",
    ("origin_brownout", 1): "2a3e8872246018ed70b5b3a438ebdfbc005f57a168c9f4ff485e8172f4e6d6bc",
}


def golden_job(scenario: str, seed: int) -> CohortJob:
    return CohortJob(
        topology=TopologySpec.uniform(2, capacity_kbps=12_000.0),
        faults=SCENARIOS[scenario],
        n_sessions=40,
        arrival_burst_s=20.0,
        seed=seed,
    )


def test_schema_version_matches_the_recorded_digests():
    assert COHORT_SPEC_SCHEMA_VERSION == 1


@pytest.mark.parametrize("scenario,seed", sorted(GOLDEN))
def test_cohort_fingerprint_is_golden(scenario, seed):
    result = golden_job(scenario, seed).execute()
    assert result.fingerprint() == GOLDEN[(scenario, seed)]


@pytest.mark.parametrize("scenario,seed", sorted(GOLDEN_SPLIT_WATCHDOGS))
def test_split_watchdog_fingerprint_is_golden(scenario, seed):
    job = dataclasses.replace(
        golden_job(scenario, seed), retry_policy=SPLIT_WATCHDOGS
    )
    assert job.execute().fingerprint() == GOLDEN_SPLIT_WATCHDOGS[(scenario, seed)]
