"""Multi-session cohort kernel: N players on shared edge infrastructure.

The single-session kernel (:mod:`repro.sim.session`) owns its link: a
session's downloads see the trace's bandwidth and nothing else. A
cohort cannot be simulated by running that kernel N times, because the
defining physics is *coupling* — every flow's rate depends on how many
neighbors currently share its edge, so one session completing a chunk
re-times every other session's in-flight transfer.

This kernel models each edge as a processor-sharing fluid link: all
backlogged flows on edge *e* receive ``capacity/n`` (max-min fair with
unconstrained last-mile links), tracked in O(log n) per event through
a per-edge *virtual service* clock ``V`` — the cumulative bits any one
flow has received. A flow of ``size`` bits joining at ``V0`` completes
when ``V`` reaches ``V0 + size``, so flow joins/leaves and capacity
changes (fault windows) only re-time the earliest completion; no
per-flow state is rewritten. Events are ordered by ``(time, push
seq)`` across all sessions: most live in one global heap, request
watchdogs in one FIFO per medium (sorted by construction), and each
edge keeps at most one armed completion entry in the heap (see
:meth:`CohortKernel._loop`).

Sessions run a compact recommended-style policy (harmonic-mean
estimate, safety factor, curated-combination selection, balanced A/V
fetching, buffer-target pacing) and the full failure machinery:
per-request watchdog timeouts from the real
:class:`~repro.net.resilience.RetryPolicy`, backoff retries against a
finite budget, and edge failover through
:class:`~repro.net.resilience.EndpointHealth` under a
:class:`~repro.net.resilience.FailoverPolicy`. Every session ends with
a verdict — completed, or degraded with a ``termination_reason`` —
never an exception; correlated faults produce stalls, failovers and
degradations, not aborts.

Determinism: event ordering is ``(time, monotonic push counter)``;
endpoint assignment and brownout 5xx draws are sha256 hashes of the
cohort seed and event coordinates; there is no wall clock and no
shared RNG. Identical specs produce byte-identical
:class:`CohortResult` fingerprints in any process.

Memory: per-session state is a fixed-size struct and per-session
output is one :class:`CohortSessionSummary`; cohort QoE is folded
session-by-session into a streaming
:class:`~repro.qoe.aggregate.CohortAggregate`, so aggregation memory
is O(1) per session (``keep_summaries=False`` drops even the
summaries for very large cohorts).
"""

from __future__ import annotations

import hashlib
import heapq
import json
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import SimulationError
from ..media.tracks import MediaType
from ..net.resilience import (
    EndpointHealth,
    FailoverPolicy,
    FailureKind,
    RetryPolicy,
)
from ..topology.cache import EdgeCache
from ..topology.faults import (
    ORIGIN_DOMAIN,
    FaultDomainKind,
    FaultWindow,
)
from ..topology.spec import TopologySpec

#: Relative slack when comparing virtual-service targets (fp rounding
#: in the completion-time arithmetic).
_V_EPS = 1e-6

#: Runaway guard: no legitimate cohort needs more events than this per
#: session chunk. Only live events count (requests, retries, waits,
#: fault edges, expiring watchdogs): watchdogs of finished requests and
#: superseded edge-completion entries are dropped without a handler.
_EVENTS_PER_CHUNK_CAP = 400


def _suffix_minima(values: List[float]) -> List[float]:
    """``out[i] == min(values[i:])``: nondecreasing for any ``values``.

    The highest index whose value is ``<= x`` is exactly
    ``bisect_right(out, x) - 1``, even when ``values`` is not sorted.
    """
    out = list(values)
    for i in range(len(out) - 2, -1, -1):
        if out[i + 1] < out[i]:
            out[i] = out[i + 1]
    return out


@dataclass
class CohortConfig:
    """Knobs of one cohort run (player policy + failure machinery)."""

    n_sessions: int = 100
    #: Flash-crowd window: session ``i`` arrives at ``i * burst/n``.
    arrival_burst_s: float = 30.0
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    failover: FailoverPolicy = field(default_factory=FailoverPolicy)
    seed: int = 0
    safety_factor: float = 0.85
    up_buffer_s: float = 10.0
    down_buffer_s: float = 15.0
    buffer_target_s: float = 20.0
    estimator_window: int = 5
    max_sim_time_s: float = 3600.0
    keep_summaries: bool = True

    def __post_init__(self) -> None:
        if self.n_sessions < 1:
            raise SimulationError(
                f"cohort needs at least one session, got {self.n_sessions}"
            )
        if self.arrival_burst_s < 0:
            raise SimulationError(
                f"arrival burst must be >= 0, got {self.arrival_burst_s}"
            )
        if not 0 < self.safety_factor <= 1:
            raise SimulationError(
                f"safety factor must be in (0,1], got {self.safety_factor}"
            )
        if self.estimator_window < 1:
            raise SimulationError(
                f"estimator window must be >= 1, got {self.estimator_window}"
            )
        if self.max_sim_time_s <= 0:
            raise SimulationError(
                f"max sim time must be positive, got {self.max_sim_time_s}"
            )
        # A non-positive target would pace with zero-delay wakes forever.
        if self.buffer_target_s <= 0:
            raise SimulationError(
                f"buffer_target_s must be positive, got {self.buffer_target_s}"
            )
        for name in ("up_buffer_s", "down_buffer_s"):
            if getattr(self, name) < 0:
                raise SimulationError(
                    f"{name} must be >= 0, got {getattr(self, name)}"
                )


@dataclass(frozen=True)
class CohortSessionSummary:
    """Fixed-size per-session verdict (the O(1) unit of aggregation)."""

    session_id: int
    primary_edge: str
    final_edge: str
    arrival_s: float
    end_s: float
    completed: bool
    termination_reason: Optional[str]
    startup_delay_s: float
    stall_s: float
    n_stalls: int
    video_switches: int
    audio_switches: int
    failovers: int
    retries: int
    chunks_downloaded: int
    bits_useful: float
    bits_wasted: float
    mean_av_imbalance_s: float


@dataclass
class CohortResult:
    """Everything one cohort run produced, in picklable plain data."""

    n_sessions: int
    content_duration_s: float
    completed_sessions: int
    degraded_sessions: int
    verdict_counts: Dict[str, int]
    #: Streaming cohort QoE (:meth:`~repro.qoe.aggregate.CohortAggregate.summary`).
    aggregate: Dict[str, object]
    #: Per-edge byte ledger and cache counters.
    edges: Dict[str, Dict[str, float]]
    #: The fault windows that governed the run (as plain dicts).
    fault_windows: Tuple[Dict[str, object], ...]
    #: Sparse fault-domain event log: window edges, failovers,
    #: degradations — the CI artifact, bounded by faults + sessions.
    fault_events: Tuple[Dict[str, object], ...]
    #: Per-session summaries (empty when ``keep_summaries=False``).
    summaries: Tuple[CohortSessionSummary, ...] = ()

    def fingerprint(self) -> str:
        """sha256 over the canonical JSON of every field.

        Floats serialize at full ``repr`` precision, so two runs agree
        on the fingerprint only if they agree bit-for-bit — the
        identity the serial/parallel/resumed grid tests pin.
        """
        payload = {
            "n_sessions": self.n_sessions,
            "content_duration_s": self.content_duration_s,
            "completed_sessions": self.completed_sessions,
            "degraded_sessions": self.degraded_sessions,
            "verdict_counts": self.verdict_counts,
            "aggregate": self.aggregate,
            "edges": self.edges,
            "fault_windows": self.fault_windows,
            "fault_events": self.fault_events,
            "summaries": [vars(s) for s in self.summaries],
        }
        canonical = json.dumps(
            payload, sort_keys=True, separators=(",", ":"), default=str
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class _Edge:
    """Live processor-sharing state of one edge.

    ``due_t``/``due_seq`` is the reserved event key of the edge's next
    completion (``due_seq == 0``: none due); ``armed_t``/``armed_seq``
    is the key of the edge's entry in the global heap (``0``: none).
    The armed key is never later than the due key.
    """

    __slots__ = (
        "spec",
        "cache",
        "base_bps",
        "rate_bps",
        "v",
        "last_t",
        "flows",
        "heap",
        "due_t",
        "due_seq",
        "armed_t",
        "armed_seq",
        "served_bits",
        "settled_bits",
        "busy_s",
        "useful_bits",
        "wasted_bits",
    )

    def __init__(self, spec, cache: EdgeCache):
        self.spec = spec
        self.cache = cache
        self.base_bps = spec.capacity_kbps * 1000.0
        self.rate_bps = self.base_bps
        self.v = 0.0  # cumulative per-flow service, bits
        self.last_t = 0.0
        self.flows: Dict[int, "_Flow"] = {}
        self.heap: List[Tuple[float, int]] = []  # (v_target, flow id)
        self.due_t = 0.0
        self.due_seq = 0
        self.armed_t = 0.0
        self.armed_seq = 0
        self.served_bits = 0.0  # ∫ capacity dt while busy (edge's ledger)
        self.settled_bits = 0.0  # Σ per-flow settlements (sessions' ledger)
        self.busy_s = 0.0
        self.useful_bits = 0.0
        self.wasted_bits = 0.0

    def settle(self, t: float) -> None:
        """Advance the fluid state to ``t`` (call before any change)."""
        dt = t - self.last_t
        if dt > 0 and self.flows and self.rate_bps > 0:
            self.v += self.rate_bps * dt / len(self.flows)
            self.served_bits += self.rate_bps * dt
            self.busy_s += dt
        if t > self.last_t:
            self.last_t = t

    def next_completion(self) -> Optional[float]:
        """Absolute time of the earliest completion, if any."""
        while self.heap:
            v_target, flow_id = self.heap[0]
            if flow_id not in self.flows:
                heapq.heappop(self.heap)  # stale: flow already removed
                continue
            if self.rate_bps <= 0:
                return None
            remaining = v_target - self.v
            remaining = remaining if remaining > 0.0 else 0.0
            return self.last_t + remaining * len(self.flows) / self.rate_bps
        return None


class _Flow:
    """One in-transfer request's share of an edge."""

    __slots__ = ("session_id", "v_start", "v_target", "size_bits")

    def __init__(self, session_id: int, v_start: float, size_bits: float):
        self.session_id = session_id
        self.v_start = v_start
        self.v_target = v_start + size_bits
        self.size_bits = size_bits


class _Request:
    """One dispatched request: the session's ``inflight`` while live.

    Identity is liveness: a watchdog, latency or failure event that
    carries a request other than its session's ``inflight`` is stale.
    """

    __slots__ = (
        "session",
        "seq",
        "medium",
        "index",
        "track",
        "edge",
        "size",
        "hit",
        "dispatched",
        "flow",
    )

    def __init__(self, session, seq, medium, index, track, edge, size, hit,
                 dispatched):
        self.session = session
        self.seq = seq
        self.medium = medium
        self.index = index
        self.track = track
        self.edge = edge
        self.size = size
        self.hit = hit
        self.dispatched = dispatched
        self.flow: Optional[int] = None


class _Session:
    """One cohort member's compact state machine."""

    __slots__ = (
        "sid",
        "arrival_s",
        "health",
        "clock",
        "vbuf",
        "abuf",
        "playing",
        "stalled",
        "played_s",
        "startup_delay_s",
        "stall_s",
        "n_stalls",
        "imbalance_integral",
        "v_done",
        "a_done",
        "last_v_track",
        "last_a_track",
        "video_switches",
        "audio_switches",
        "combo_index",
        "samples",
        "retries_spent",
        "retries",
        "failovers_at_end",
        "chunks_downloaded",
        "bits_useful",
        "bits_wasted",
        "req_seq",
        "inflight",
        "attempt",
        "done",
        "completed",
        "termination_reason",
        "end_s",
        "emergency",
    )

    def __init__(self, sid: int, arrival_s: float, health: EndpointHealth,
                 window: int):
        self.sid = sid
        self.arrival_s = arrival_s
        self.health = health
        self.clock = arrival_s
        self.vbuf = 0.0
        self.abuf = 0.0
        self.playing = False
        self.stalled = False
        self.played_s = 0.0
        self.startup_delay_s = 0.0
        self.stall_s = 0.0
        self.n_stalls = 0
        self.imbalance_integral = 0.0
        self.v_done = 0
        self.a_done = 0
        self.last_v_track: Optional[str] = None
        self.last_a_track: Optional[str] = None
        self.video_switches = 0
        self.audio_switches = 0
        self.combo_index = 0
        self.samples: deque = deque(maxlen=window)
        self.retries_spent = 0
        self.retries = 0
        self.failovers_at_end = 0
        self.chunks_downloaded = 0
        self.bits_useful = 0.0
        self.bits_wasted = 0.0
        self.req_seq = 0  # invalidates stale wake/retry events
        self.inflight: Optional[_Request] = None
        self.attempt = 0  # attempts spent on the current chunk
        self.done = False
        self.completed = False
        self.termination_reason: Optional[str] = None
        self.end_s = arrival_s
        self.emergency = False

    def estimate_kbps(self) -> Optional[float]:
        if not self.samples:
            return None
        return len(self.samples) / sum(1.0 / s for s in self.samples)


class CohortKernel:
    """Drive ``config.n_sessions`` coupled sessions over ``topology``."""

    def __init__(
        self,
        content,
        combinations,
        topology: TopologySpec,
        windows: Tuple[FaultWindow, ...] = (),
        config: Optional[CohortConfig] = None,
    ):
        self.content = content
        self.combos = list(combinations)
        if not self.combos:
            raise SimulationError("cohort needs a non-empty combination set")
        self.topology = topology
        self.windows = tuple(windows)
        self.config = config or CohortConfig()
        self.chunk_s = content.chunk_duration_s
        self.n_chunks = content.n_chunks
        self.duration_s = content.duration_s
        # Chunk sizes resolved once: (track_id, index) -> bits.
        self._sizes: Dict[Tuple[str, int], float] = {}
        for combo in self.combos:
            for track in (combo.video, combo.audio):
                if (track.track_id, 0) in self._sizes:
                    continue
                for index in range(self.n_chunks):
                    self._sizes[(track.track_id, index)] = content.chunk(
                        track.track_id, index
                    ).size_bits
        self._suffix_min_kbps = _suffix_minima(
            [combo.avg_kbps for combo in self.combos]
        )

    # -- deterministic draws ------------------------------------------------

    def _uniform(self, tag: str, *coords) -> float:
        digest = hashlib.sha256(
            ("cohort|%d|%s|%s" % (
                self.config.seed, tag, "|".join(str(c) for c in coords)
            )).encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    # -- the run ------------------------------------------------------------

    def run(self) -> CohortResult:
        from ..qoe.aggregate import CohortAggregate

        cfg = self.config
        self.edges: Dict[str, _Edge] = {
            e.edge_id: _Edge(e, EdgeCache(e.cache_chunks))
            for e in self.topology.edges
        }
        self.sessions: List[_Session] = []
        for sid in range(cfg.n_sessions):
            order = self.topology.endpoint_order(cfg.seed, sid)
            health = EndpointHealth(order, cfg.failover)
            arrival = cfg.arrival_burst_s * sid / cfg.n_sessions
            self.sessions.append(
                _Session(sid, arrival, health, cfg.estimator_window)
            )

        # (time, seq, handler, args); seq is unique, so tuples never
        # compare past it. Handlers are plain functions called with the
        # kernel: bound methods in the heap would make reference cycles
        # that keep finished kernels alive until a full collection.
        self._heap: List[tuple] = []
        self._push_seq = 0
        # Deterministic work counts (not part of the result): handlers
        # dispatched, and pushes onto the global heap.
        self.events_processed = 0
        self.heap_pushes = 0
        # One watchdog FIFO per medium of (deadline, seq, request):
        # timeout_for(medium) is constant and requests are dispatched at
        # nondecreasing event times, so each FIFO is sorted by its key.
        self._video_watchdogs: deque = deque()
        self._audio_watchdogs: deque = deque()
        self._alive = cfg.n_sessions
        self._events: List[Dict[str, object]] = []
        self._brownouts = [
            w for w in self.windows
            if w.kind is FaultDomainKind.ORIGIN_BROWNOUT
        ]
        self._aggregate = CohortAggregate()
        self._summaries: List[CohortSessionSummary] = []

        for session in self.sessions:
            self._push(session.arrival_s, CohortKernel._on_arrive, (session,))
        for index, window in enumerate(self.windows):
            self._push(window.start_s, CohortKernel._on_fault_start, (index,))
            self._push(window.end_s, CohortKernel._on_fault_end, (index,))

        self._loop(cfg.n_sessions * self.n_chunks * _EVENTS_PER_CHUNK_CAP)

        # Ceiling: anything still alive ends degraded-but-verdicted.
        for session in self.sessions:
            if not session.done:
                self._terminate(
                    session, min(cfg.max_sim_time_s, session.clock),
                    "sim_time_ceiling",
                )
        return self._result()

    # hot
    def _loop(self, budget: int) -> None:
        """Dispatch events in ``(time, seq)`` order until all are done.

        The next event is the earliest key among the global heap's top
        and the head of each medium's watchdog FIFO; every key is
        unique, so live events dispatch in exactly the order one heap
        holding everything would give. Two kinds of entry are dropped
        without dispatching a handler (and without counting against
        ``budget``): watchdogs of requests that already finished, and
        edge-completion entries that are not their edge's due one.
        """
        heap = self._heap
        heappop = heapq.heappop
        fifos = (self._video_watchdogs, self._audio_watchdogs)
        limit = self.config.max_sim_time_s
        on_deadline = CohortKernel._on_deadline
        on_edge_complete = CohortKernel._on_edge_complete
        while self._alive > 0:
            entry = heap[0] if heap else None
            source = None
            for fifo in fifos:
                if fifo and (entry is None or fifo[0] < entry):
                    entry = fifo[0]
                    source = fifo
            if entry is None:
                break
            if source is None:
                heappop(heap)
                t, seq, handler, args = entry
                if handler is on_edge_complete and not self._due(
                    args[0], seq
                ):
                    continue
            else:
                source.popleft()
                t, _, request = entry
                if request.session.inflight is not request:
                    continue  # the request finished before its watchdog
                handler = on_deadline
                args = (request,)
            if t > limit:
                break
            self.events_processed += 1
            if self.events_processed > budget:
                raise SimulationError(
                    "cohort event budget exhausted after "
                    f"{self.events_processed} events "
                    "(kernel scheduling bug: the run is not converging)"
                )
            handler(self, t, *args)

    # -- event plumbing -----------------------------------------------------

    def _push(self, t: float, handler, args: tuple) -> None:
        self._push_seq += 1
        self.heap_pushes += 1
        heapq.heappush(self._heap, (t, self._push_seq, handler, args))

    def _log(self, t: float, kind: str, **fields) -> None:
        event = {"t": round(t, 6), "k": kind}
        event.update(fields)
        self._events.append(event)

    # -- fault windows ------------------------------------------------------

    def _on_fault_start(self, t: float, index: int) -> None:
        window = self.windows[index]
        self._log(
            t, "fault_open", fault=window.kind.value, domain=window.domain
        )
        if window.kind is FaultDomainKind.EDGE_OUTAGE:
            edge = self.edges.get(window.domain)
            if edge is None:
                return
            edge.settle(t)
            edge.rate_bps = 0.0
            edge.due_seq = 0  # outage: no completion until the window ends
        elif window.kind is FaultDomainKind.EVICTION_STORM:
            edge = self.edges.get(window.domain)
            if edge is not None:
                dropped = edge.cache.flush()
                self._log(t, "cache_flush", domain=window.domain, dropped=dropped)
        # Brownouts are consulted at dispatch time; no state to mutate.

    def _on_fault_end(self, t: float, index: int) -> None:
        window = self.windows[index]
        self._log(
            t, "fault_close", fault=window.kind.value, domain=window.domain
        )
        if window.kind is FaultDomainKind.EDGE_OUTAGE:
            edge = self.edges.get(window.domain)
            if edge is None:
                return
            edge.settle(t)
            # Another outage window may still cover this edge.
            if not self._edge_in_outage(window.domain, t):
                edge.rate_bps = edge.base_bps
            self._schedule_completion(edge)

    def _edge_in_outage(self, edge_id: str, t: float) -> bool:
        return any(
            w.kind is FaultDomainKind.EDGE_OUTAGE
            and w.domain == edge_id
            and w.active(t)
            for w in self.windows
        )

    def _brownout_at(self, t: float) -> Optional[FaultWindow]:
        for window in self._brownouts:
            if window.active(t):
                return window
        return None

    # -- session lifecycle --------------------------------------------------

    def _on_arrive(self, t: float, session: _Session) -> None:
        self._decide(session, t)

    def _on_wake(self, t: float, session: _Session, seq: int) -> None:
        if session.done or session.req_seq != seq or session.inflight:
            return  # stale wake: state moved on
        self._decide(session, t)

    def _advance(self, session: _Session, t: float) -> None:
        """Closed-form playback/stall accounting up to ``t``."""
        dt = t - session.clock
        if dt <= 0:
            return
        vbuf = session.vbuf
        abuf = session.abuf
        session.imbalance_integral += abs(vbuf - abuf) * dt
        if session.playing:
            # Branch forms of min/max: same operand chosen on ties.
            minbuf = abuf if abuf < vbuf else vbuf
            drain = minbuf if minbuf < dt else dt
            vbuf -= drain
            abuf -= drain
            session.vbuf = vbuf if vbuf > 0.0 else 0.0
            session.abuf = abuf if abuf > 0.0 else 0.0
            session.played_s += drain
            if dt > drain + 1e-12:
                if not session.stalled:
                    session.stalled = True
                    session.n_stalls += 1
                session.stall_s += dt - drain
        session.clock = t

    def _decide(self, session: _Session, t: float) -> None:
        """Pick the next request (or a pacing wait) for ``session``."""
        if session.done or session.inflight is not None:
            return
        self._advance(session, t)
        cfg = self.config
        v_left = session.v_done < self.n_chunks
        a_left = session.a_done < self.n_chunks
        if not v_left and not a_left:
            self._complete_session(session, t)
            return
        # Buffer-target pacing: above target, idle until it drains.
        minbuf = min(
            session.vbuf if v_left else float("inf"),
            session.abuf if a_left else float("inf"),
        )
        if session.playing and minbuf >= cfg.buffer_target_s:
            wake_in = minbuf - max(cfg.buffer_target_s - self.chunk_s, 0.0)
            session.req_seq += 1
            self._push(
                t + wake_in, CohortKernel._on_wake, (session, session.req_seq)
            )
            return
        # Balanced A/V: feed the lagging medium (video wins ties, so the
        # very first fetch is video, then audio, as the buffers leapfrog).
        if not a_left or (v_left and session.vbuf <= session.abuf):
            medium = MediaType.VIDEO
            index = session.v_done
        else:
            medium = MediaType.AUDIO
            index = session.a_done
        combo = self.combos[self._select(session)]
        track = combo.video if medium is MediaType.VIDEO else combo.audio
        self._dispatch(session, t, medium, index, track.track_id)

    def _select(self, session: _Session) -> int:
        cfg = self.config
        policy = cfg.retry_policy
        remaining = policy.retry_budget - session.retries_spent
        if remaining <= policy.emergency_threshold():
            # Budget nearly gone: lowest rung, stop gambling bytes.
            session.emergency = True
            session.combo_index = 0
            return 0
        estimate = session.estimate_kbps()
        if estimate is None:
            session.combo_index = 0
            return 0
        # The highest rung whose bitrate fits the budget (rung 0 if
        # none does).
        ideal = bisect_right(
            self._suffix_min_kbps, estimate * cfg.safety_factor
        ) - 1
        if ideal < 0:
            ideal = 0
        current = session.combo_index
        vbuf = session.vbuf
        abuf = session.abuf
        minbuf = abuf if abuf < vbuf else vbuf
        if ideal > current:
            if minbuf >= cfg.up_buffer_s:
                current = ideal
        elif ideal < current:
            if minbuf < cfg.down_buffer_s:
                current = ideal
        session.combo_index = current
        return current

    # -- request lifecycle --------------------------------------------------

    def _dispatch(
        self, session: _Session, t: float, medium: MediaType,
        index: int, track_id: str,
    ) -> None:
        cfg = self.config
        session.attempt += 1
        session.req_seq += 1
        edge_id = session.health.current(t)
        if session.health.failovers > session.failovers_at_end:
            hop = session.health.hops[-1]
            self._log(
                t, "failover", session=session.sid,
                frm=hop[1], to=hop[2],
            )
            session.failovers_at_end = session.health.failovers
        edge = self.edges[edge_id]
        address = (track_id, index)
        hit = edge.cache.lookup(address)
        latency = edge.spec.rtt_s
        failure_kind: Optional[FailureKind] = None
        if not hit:
            origin = self.topology.origin
            brownout = self._brownout_at(t)
            penalty = origin.miss_penalty_s
            if brownout is not None:
                penalty *= brownout.latency_factor
                u = self._uniform(
                    "5xx", session.sid, medium.value, index, session.attempt
                )
                if u < brownout.error_probability:
                    failure_kind = FailureKind.HTTP_5XX
            latency += origin.rtt_s + penalty
        request = _Request(
            session, session.req_seq, medium, index, track_id, edge,
            self._sizes[address], hit, t,
        )
        session.inflight = request
        # The watchdog takes the next key but waits in its medium's FIFO.
        self._push_seq += 1
        watchdogs = (
            self._video_watchdogs if medium is MediaType.VIDEO
            else self._audio_watchdogs
        )
        watchdogs.append(
            (t + cfg.retry_policy.timeout_for(medium), self._push_seq, request)
        )
        if failure_kind is not None:
            self._push(
                t + latency, CohortKernel._on_reqfail, (request, failure_kind)
            )
        else:
            self._push(t + latency, CohortKernel._on_flow_start, (request,))

    def _on_flow_start(self, t: float, request: _Request) -> None:
        session = request.session
        if session.inflight is not request:
            return
        edge = request.edge
        edge.settle(t)
        flow = _Flow(session.sid, edge.v, request.size)
        flow_id = request.seq * self.config.n_sessions + session.sid  # unique
        edge.flows[flow_id] = flow
        heapq.heappush(edge.heap, (flow.v_target, flow_id))
        request.flow = flow_id
        self._schedule_completion(edge)

    def _schedule_completion(self, edge: _Edge) -> None:
        """Reserve the key of ``edge``'s next completion.

        The key is pushed only when it is earlier than the edge's armed
        heap entry; otherwise the armed entry re-pushes it when it pops
        (:meth:`_due`). Either way the completion fires at its reserved
        ``(time, seq)``, exactly where an eager push would have put it.
        """
        t = edge.next_completion()
        if t is None:
            edge.due_seq = 0
            return
        self._push_seq += 1
        seq = self._push_seq
        edge.due_t = t
        edge.due_seq = seq
        # A fresh seq exceeds the armed one, so times alone decide.
        if not edge.armed_seq or t < edge.armed_t:
            edge.armed_t = t
            edge.armed_seq = seq
            self.heap_pushes += 1
            heapq.heappush(
                self._heap, (t, seq, CohortKernel._on_edge_complete, (edge,))
            )

    def _due(self, edge: _Edge, seq: int) -> bool:
        """Is the popped completion entry ``seq`` the edge's due one?"""
        if seq != edge.armed_seq:
            return False  # superseded by an earlier arming
        if seq == edge.due_seq:
            edge.armed_seq = 0
            return True
        # The completion moved later (or away): arm its reserved key.
        edge.armed_seq = edge.due_seq
        if edge.due_seq:
            edge.armed_t = edge.due_t
            self.heap_pushes += 1
            heapq.heappush(
                self._heap,
                (edge.due_t, edge.due_seq, CohortKernel._on_edge_complete,
                 (edge,)),
            )
        return False

    def _on_edge_complete(self, t: float, edge: _Edge) -> None:
        edge.settle(t)
        v = edge.v
        slack = _V_EPS * (v if v > 1.0 else 1.0)
        finished: List[int] = []
        while edge.heap:
            v_target, flow_id = edge.heap[0]
            if flow_id not in edge.flows:
                heapq.heappop(edge.heap)
                continue
            if v_target > v + slack:
                break
            heapq.heappop(edge.heap)
            finished.append(flow_id)
        for flow_id in finished:
            flow = edge.flows.pop(flow_id)
            # Settle what the uplink *physically* served this flow — the
            # virtual-clock difference, capped at the flow size. A flow
            # completed within the fp slack is credited marginally less
            # than its nominal size (the "last packet" rounding), which
            # keeps Σ settlements == ∫ capacity dt exact at any scale
            # instead of accumulating an early-credit bias.
            v_target = flow.v_target
            delivered = (v_target if v_target < v else v) - flow.v_start
            delivered = delivered if delivered > 0.0 else 0.0
            edge.settled_bits += delivered
            edge.useful_bits += delivered
            self._complete_request(
                self.sessions[flow.session_id], t, delivered
            )
        self._schedule_completion(edge)

    def _complete_request(
        self, session: _Session, t: float, delivered: float
    ) -> None:
        request = session.inflight
        if session.done or request is None:
            return
        session.inflight = None
        session.attempt = 0
        track = request.track
        if not request.hit:
            request.edge.cache.admit((track, request.index))
        session.health.record_success(request.edge.spec.edge_id)
        elapsed = t - request.dispatched
        if elapsed > 0:
            session.samples.append(request.size / elapsed / 1000.0)
        session.bits_useful += delivered
        session.chunks_downloaded += 1
        self._advance(session, t)
        if request.medium is MediaType.VIDEO:
            if (
                session.last_v_track is not None
                and session.last_v_track != track
            ):
                session.video_switches += 1
            session.last_v_track = track
            session.v_done += 1
            session.vbuf += self.chunk_s
        else:
            if (
                session.last_a_track is not None
                and session.last_a_track != track
            ):
                session.audio_switches += 1
            session.last_a_track = track
            session.a_done += 1
            session.abuf += self.chunk_s
        if not session.playing and session.vbuf > 0 and session.abuf > 0:
            session.playing = True
            session.startup_delay_s = t - session.arrival_s
        if session.stalled and session.vbuf > 0 and session.abuf > 0:
            session.stalled = False  # the starved medium refilled
        self._decide(session, t)

    def _on_reqfail(
        self, t: float, request: _Request, kind: FailureKind
    ) -> None:
        """Header-level failure (brownout 5xx): no payload bytes."""
        session = request.session
        if session.inflight is not request:
            return
        self._fail_request(session, t, kind, wasted_bits=0.0)

    def _on_deadline(self, t: float, request: _Request) -> None:
        """Watchdog expiry: the request hung or trickled too slowly."""
        session = request.session
        wasted = 0.0
        kind = FailureKind.TIMEOUT
        flow_id = request.flow
        if flow_id is not None:
            edge = request.edge
            edge.settle(t)
            flow = edge.flows.pop(flow_id, None)
            if flow is not None:
                wasted = max(0.0, min(edge.v - flow.v_start, flow.size_bits))
                edge.settled_bits += wasted
                edge.wasted_bits += wasted
                self._schedule_completion(edge)
            if wasted > 0:
                kind = FailureKind.SLOW_TRANSFER
                # The trickle is a real bandwidth observation: feed it
                # to the estimator so the ABR steps down instead of
                # re-requesting the same doomed rung until the attempt
                # cap fires.
                elapsed = t - request.dispatched
                if elapsed > 0:
                    session.samples.append(wasted / elapsed / 1000.0)
        self._fail_request(session, t, kind, wasted_bits=wasted)

    def _fail_request(
        self, session: _Session, t: float, kind: FailureKind,
        wasted_bits: float,
    ) -> None:
        cfg = self.config
        request = session.inflight
        session.inflight = None
        session.bits_wasted += wasted_bits
        session.health.record_failure(request.edge.spec.edge_id, t)
        self._advance(session, t)
        if session.attempt >= cfg.retry_policy.max_attempts:
            self._terminate(session, t, "attempts_exhausted")
            return
        if session.retries_spent >= cfg.retry_policy.retry_budget:
            self._terminate(session, t, "retry_budget_exhausted")
            return
        session.retries_spent += 1
        session.retries += 1
        delay = cfg.retry_policy.delay_s(
            session.attempt + 1, request.medium, request.index
        )
        # Redispatch the same chunk after backoff (possibly on a
        # failed-over edge, possibly at a lower rung).
        session.req_seq += 1
        self._push(
            t + delay, CohortKernel._on_retry,
            (session, session.req_seq, request.medium, request.index),
        )

    def _on_retry(
        self, t: float, session: _Session, seq: int, medium: MediaType,
        index: int,
    ) -> None:
        if session.done or session.req_seq != seq or session.inflight:
            return
        self._advance(session, t)
        # Re-select: the failure may have fed the estimator or engaged
        # the emergency rung, so the retry fetches the *current* choice.
        combo = self.combos[self._select(session)]
        track = combo.video if medium is MediaType.VIDEO else combo.audio
        self._dispatch(session, t, medium, index, track.track_id)

    # -- verdicts -----------------------------------------------------------

    def _complete_session(self, session: _Session, t: float) -> None:
        self._advance(session, t)
        remaining = max(session.vbuf, session.abuf)
        # Play out the tail: both buffers hold the same remaining
        # content once every chunk of both media is down.
        session.imbalance_integral += (
            abs(session.vbuf - session.abuf) * remaining
        )
        session.played_s += remaining
        session.vbuf = 0.0
        session.abuf = 0.0
        session.completed = True
        session.done = True
        session.end_s = t + remaining
        self._alive -= 1
        self._finish(session)

    def _terminate(self, session: _Session, t: float, reason: str) -> None:
        if session.done:
            return
        self._advance(session, t)
        session.done = True
        session.completed = False
        session.termination_reason = reason
        session.end_s = t
        session.inflight = None
        self._alive -= 1
        self._log(t, "degraded", session=session.sid, reason=reason)
        self._finish(session)

    def _finish(self, session: _Session) -> None:
        """Fold the finished session into the streaming aggregate."""
        lifetime = max(session.end_s - session.arrival_s, 1e-12)
        summary = CohortSessionSummary(
            session_id=session.sid,
            primary_edge=session.health.endpoints[0],
            final_edge=session.health.active,
            arrival_s=session.arrival_s,
            end_s=session.end_s,
            completed=session.completed,
            termination_reason=session.termination_reason,
            startup_delay_s=session.startup_delay_s,
            stall_s=session.stall_s,
            n_stalls=session.n_stalls,
            video_switches=session.video_switches,
            audio_switches=session.audio_switches,
            failovers=session.health.failovers,
            retries=session.retries,
            chunks_downloaded=session.chunks_downloaded,
            bits_useful=session.bits_useful,
            bits_wasted=session.bits_wasted,
            mean_av_imbalance_s=session.imbalance_integral / lifetime,
        )
        self._aggregate.add_session(summary)
        if self.config.keep_summaries:
            self._summaries.append(summary)

    # -- result -------------------------------------------------------------

    def _result(self) -> CohortResult:
        verdicts: Dict[str, int] = {}
        completed = 0
        for session in self.sessions:
            if session.completed:
                completed += 1
                verdicts["completed"] = verdicts.get("completed", 0) + 1
            else:
                reason = session.termination_reason or "no_verdict"
                verdicts[reason] = verdicts.get(reason, 0) + 1
        edges: Dict[str, Dict[str, float]] = {}
        for edge_id, edge in sorted(self.edges.items()):
            edges[edge_id] = {
                "capacity_kbps": edge.spec.capacity_kbps,
                "served_bits": edge.served_bits,
                "settled_bits": edge.settled_bits,
                "useful_bits": edge.useful_bits,
                "wasted_bits": edge.wasted_bits,
                "busy_s": edge.busy_s,
                "stranded_bits": max(
                    0.0,
                    edge.served_bits - edge.settled_bits,
                ),
                "cache_hits": edge.cache.hits,
                "cache_misses": edge.cache.misses,
                "cache_evictions": edge.cache.evictions,
            }
        windows = tuple(
            {
                "kind": w.kind.value,
                "domain": w.domain,
                "start_s": w.start_s,
                "end_s": w.end_s,
            }
            for w in self.windows
        )
        return CohortResult(
            n_sessions=self.config.n_sessions,
            content_duration_s=self.duration_s,
            completed_sessions=completed,
            degraded_sessions=self.config.n_sessions - completed,
            verdict_counts=verdicts,
            aggregate=self._aggregate.summary(),
            edges=edges,
            fault_windows=windows,
            fault_events=tuple(self._events),
            summaries=tuple(self._summaries),
        )
