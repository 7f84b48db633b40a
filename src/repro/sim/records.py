"""Result records produced by a simulated streaming session."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..media.tracks import MediaType


@dataclass(frozen=True, slots=True)
class ProgressSegment:
    """Bits received by one download over one constant-rate interval."""

    start_s: float
    end_s: float
    bits: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass(frozen=True, slots=True)
class DownloadRecord:
    """One completed chunk download.

    ``resumed_bits`` is the portion of ``size_bits`` inherited from
    failed attempts via HTTP range-resume (bytes that crossed the wire
    during an earlier attempt and were not re-fetched); the progress
    ``segments`` cover only the final attempt's ``size_bits -
    resumed_bits`` fresh bytes.
    """

    medium: MediaType
    track_id: str
    chunk_index: int
    size_bits: float
    started_at: float
    completed_at: float
    segments: Tuple[ProgressSegment, ...] = ()
    resumed_bits: float = 0.0

    @property
    def duration_s(self) -> float:
        return self.completed_at - self.started_at

    @property
    def throughput_kbps(self) -> float:
        """Observed throughput over the whole request (incl. dead time)."""
        if self.duration_s <= 0:
            return math.inf
        return self.size_bits / self.duration_s / 1000.0


@dataclass(frozen=True, slots=True)
class AbortRecord:
    """An in-flight download the player abandoned."""

    medium: MediaType
    track_id: str
    chunk_index: int
    aborted_at: float
    bits_done: float
    size_bits: float

    @property
    def wasted_fraction(self) -> float:
        """Fraction of the chunk that was fetched and thrown away."""
        return self.bits_done / self.size_bits if self.size_bits else 0.0


@dataclass(frozen=True, slots=True)
class FailureRecord:
    """One failed request attempt.

    ``bits_done`` counts only the bytes *this attempt* pulled over the
    wire (a resumed attempt's inherited bytes belong to the earlier
    attempt's record), so summing failure records never double-counts
    transferred data. ``kind`` is the taxonomy label (a
    :class:`~repro.net.resilience.FailureKind` value;
    ``"connection_reset"`` for the legacy anonymous death),
    ``attempt`` numbers the tries of this chunk request (1 = first),
    ``resumable`` marks partial bytes stashed for HTTP range-resume,
    and ``retry_at`` is the backoff-scheduled dispatch time of the next
    attempt (``None`` when no retry follows — legacy immediate re-ask,
    terminal failure, or budget exhaustion).
    """

    medium: MediaType
    track_id: str
    chunk_index: int
    failed_at: float
    bits_done: float
    kind: str = "connection_reset"
    attempt: int = 1
    resumable: bool = False
    retry_at: Optional[float] = None


@dataclass(frozen=True, slots=True)
class SkipRecord:
    """A live chunk skipped to preserve liveness after attempts ran out."""

    medium: MediaType
    track_id: str
    chunk_index: int
    skipped_at: float
    attempts: int


@dataclass(slots=True)
class StallEvent:
    """One rebuffering interval (shaded regions of the paper's Fig. 3)."""

    start_s: float
    end_s: Optional[float] = None

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s


@dataclass(frozen=True, slots=True)
class BufferSample:
    """Buffer levels (seconds of content) at one instant."""

    t: float
    video_level_s: float
    audio_level_s: float

    @property
    def imbalance_s(self) -> float:
        """Absolute audio/video buffer difference — the Fig. 5(b) metric."""
        return abs(self.video_level_s - self.audio_level_s)


@dataclass(frozen=True, slots=True)
class EstimateSample:
    """A bandwidth-estimate reading logged by the player."""

    t: float
    kbps: float


# -- slot-store constructors ----------------------------------------------------
#
# The generated frozen ``__init__`` stores each field through
# ``object.__setattr__(self, name, value)``. Sessions build these records
# by the hundred thousand, so each hot class gets a plain ``__init__``
# that stores through its slot descriptors' ``__set__`` instead (about
# 1.6x cheaper per ProgressSegment). Parameters, defaults and keywords
# are the generated ones; frozen assignment, ``==``, ``hash``,
# ``replace`` and pickle do not go through ``__init__`` and are
# unchanged.


def _slot_setters(cls) -> Tuple[Callable[[object, object], None], ...]:
    """Each field's slot-descriptor ``__set__``, in field order."""
    return tuple(getattr(cls, f.name).__set__ for f in fields(cls))


def _install_init(cls, init) -> None:
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init


_ps_start_s, _ps_end_s, _ps_bits = _slot_setters(ProgressSegment)


def _progress_segment_init(self, start_s: float, end_s: float, bits: float) -> None:
    _ps_start_s(self, start_s)
    _ps_end_s(self, end_s)
    _ps_bits(self, bits)


_install_init(ProgressSegment, _progress_segment_init)

(
    _dr_medium,
    _dr_track_id,
    _dr_chunk_index,
    _dr_size_bits,
    _dr_started_at,
    _dr_completed_at,
    _dr_segments,
    _dr_resumed_bits,
) = _slot_setters(DownloadRecord)


def _download_record_init(
    self,
    medium: MediaType,
    track_id: str,
    chunk_index: int,
    size_bits: float,
    started_at: float,
    completed_at: float,
    segments: Tuple[ProgressSegment, ...] = (),
    resumed_bits: float = 0.0,
) -> None:
    _dr_medium(self, medium)
    _dr_track_id(self, track_id)
    _dr_chunk_index(self, chunk_index)
    _dr_size_bits(self, size_bits)
    _dr_started_at(self, started_at)
    _dr_completed_at(self, completed_at)
    _dr_segments(self, segments)
    _dr_resumed_bits(self, resumed_bits)


_install_init(DownloadRecord, _download_record_init)

(
    _fr_medium,
    _fr_track_id,
    _fr_chunk_index,
    _fr_failed_at,
    _fr_bits_done,
    _fr_kind,
    _fr_attempt,
    _fr_resumable,
    _fr_retry_at,
) = _slot_setters(FailureRecord)


def _failure_record_init(
    self,
    medium: MediaType,
    track_id: str,
    chunk_index: int,
    failed_at: float,
    bits_done: float,
    kind: str = "connection_reset",
    attempt: int = 1,
    resumable: bool = False,
    retry_at: Optional[float] = None,
) -> None:
    _fr_medium(self, medium)
    _fr_track_id(self, track_id)
    _fr_chunk_index(self, chunk_index)
    _fr_failed_at(self, failed_at)
    _fr_bits_done(self, bits_done)
    _fr_kind(self, kind)
    _fr_attempt(self, attempt)
    _fr_resumable(self, resumable)
    _fr_retry_at(self, retry_at)


_install_init(FailureRecord, _failure_record_init)

_bs_t, _bs_video_level_s, _bs_audio_level_s = _slot_setters(BufferSample)


def _buffer_sample_init(
    self, t: float, video_level_s: float, audio_level_s: float
) -> None:
    _bs_t(self, t)
    _bs_video_level_s(self, video_level_s)
    _bs_audio_level_s(self, audio_level_s)


_install_init(BufferSample, _buffer_sample_init)

_es_t, _es_kbps = _slot_setters(EstimateSample)


def _estimate_sample_init(self, t: float, kbps: float) -> None:
    _es_t(self, t)
    _es_kbps(self, kbps)


_install_init(EstimateSample, _estimate_sample_init)


class SessionResult:
    """Everything observed during one simulated session.

    The accessors mirror what the paper plots: selected tracks over time
    (Figs. 2/3a/4/5a), buffer levels over time (Figs. 3b/5b), bandwidth
    estimates (Fig. 4), stalls and rebuffering totals.

    Buffer levels are kept as three float columns (see
    :meth:`buffer_columns`); ``buffer_timeline``, the list of
    :class:`BufferSample` records, is built from them on first read and
    from then on replaces them. An instance pickled while
    ``buffer_timeline`` was a plain attribute (no columns) reads the same.
    """

    def __init__(
        self,
        content_duration_s: float,
        chunk_duration_s: float,
        n_chunks: int,
    ):
        self.content_duration_s = content_duration_s
        self.chunk_duration_s = chunk_duration_s
        self.n_chunks = n_chunks
        self.downloads: List[DownloadRecord] = []
        self.aborts: List[AbortRecord] = []
        self.failures: List[FailureRecord] = []
        self.skips: List[SkipRecord] = []
        self.stalls: List[StallEvent] = []
        self._buffer_t: List[float] = []
        self._buffer_video: List[float] = []
        self._buffer_audio: List[float] = []
        self.estimate_timeline: List[EstimateSample] = []
        self.startup_delay_s: Optional[float] = None
        self.ended_at_s: Optional[float] = None
        self.completed = False
        #: Why the session ended early under degradation (retry budget
        #: exhausted, attempts exhausted); ``None`` for a normal end.
        self.termination_reason: Optional[str] = None

    def __getattr__(self, name: str):
        # Called only for names normal lookup misses; ``buffer_timeline``
        # is one until its records are built.
        if name == "buffer_timeline":
            state = self.__dict__
            if "_buffer_t" in state:
                timeline = list(
                    map(
                        BufferSample,
                        state.pop("_buffer_t"),
                        state.pop("_buffer_video"),
                        state.pop("_buffer_audio"),
                    )
                )
                state["buffer_timeline"] = timeline
                return timeline
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    # -- ingest ----------------------------------------------------------

    def add_download(self, record: DownloadRecord) -> None:
        self.downloads.append(record)

    def add_abort(self, record: AbortRecord) -> None:
        self.aborts.append(record)

    def add_failure(self, record: FailureRecord) -> None:
        self.failures.append(record)

    def add_skip(self, record: SkipRecord) -> None:
        self.skips.append(record)

    @property
    def wasted_bits(self) -> float:
        """Bytes fetched for chunks that were later abandoned."""
        return sum(a.bits_done for a in self.aborts)

    # -- failure/retry/resume accounting ---------------------------------

    @property
    def n_retries(self) -> int:
        """Failed attempts that scheduled a backoff retry."""
        return sum(1 for f in self.failures if f.retry_at is not None)

    @property
    def bits_played(self) -> float:
        """Bits that entered the buffer (completed chunk downloads)."""
        return sum(d.size_bits for d in self.downloads)

    @property
    def bits_resumed(self) -> float:
        """Failure bytes salvaged by range-resume into completed chunks."""
        return sum(d.resumed_bits for d in self.downloads)

    @property
    def bits_wasted(self) -> float:
        """Bytes transferred but never played.

        Failed-attempt bytes that no later download resumed, plus
        player-abandoned partials.
        """
        failure_bits = sum(f.bits_done for f in self.failures)
        abort_bits = sum(a.bits_done for a in self.aborts)
        return failure_bits - self.bits_resumed + abort_bits

    @property
    def bits_served(self) -> float:
        """Gross per-request accounting: every request's received bits.

        Resumed bytes appear both in the failure record that fetched
        them and in the download that consumed them, which is exactly
        what makes the ledger close: ``bits_served == bits_played +
        bits_wasted + bits_resumed``.
        """
        failure_bits = sum(f.bits_done for f in self.failures)
        abort_bits = sum(a.bits_done for a in self.aborts)
        return self.bits_played + failure_bits + abort_bits

    def byte_accounting(self) -> Dict[str, float]:
        """The reconciliation ledger; ``reconciles`` is the invariant."""
        served = self.bits_served
        played = self.bits_played
        wasted = self.bits_wasted
        resumed = self.bits_resumed
        return {
            "bits_served": served,
            "bits_played": played,
            "bits_wasted": wasted,
            "bits_resumed": resumed,
            "reconciles": math.isclose(
                served, played + wasted + resumed, rel_tol=1e-9, abs_tol=1e-3
            ),
        }

    def failures_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for failure in self.failures:
            kind = getattr(failure.kind, "value", failure.kind)
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def retry_schedule(self) -> List[Tuple]:
        """The full failure/retry timeline, for determinism comparisons.

        Two sessions with identical seeds and configs must produce
        identical schedules, element for element.
        """
        return [
            (
                f.medium.value,
                f.chunk_index,
                f.attempt,
                getattr(f.kind, "value", f.kind),
                round(f.failed_at, 9),
                None if f.retry_at is None else round(f.retry_at, 9),
            )
            for f in self.failures
        ]

    def add_buffer_sample(self, sample: BufferSample) -> None:
        self.buffer_timeline.append(sample)

    def extend_buffer_samples(
        self,
        t: Sequence[float],
        video_level_s: Sequence[float],
        audio_level_s: Sequence[float],
    ) -> None:
        """Batch-ingest three parallel arrays of buffer samples.

        The session kernel accumulates samples in flat lists on its hot
        path and hands them over here at result-build time. They are
        appended to the columns; no record is built until
        ``buffer_timeline`` is read.
        """
        timeline = self.__dict__.get("buffer_timeline")
        if timeline is not None:
            timeline.extend(map(BufferSample, t, video_level_s, audio_level_s))
            return
        self._buffer_t.extend(t)
        self._buffer_video.extend(video_level_s)
        self._buffer_audio.extend(audio_level_s)

    def buffer_columns(
        self,
    ) -> Tuple[Sequence[float], Sequence[float], Sequence[float]]:
        """Buffer levels as ``(t, video_level_s, audio_level_s)`` columns.

        Read-only views: the live columns while ``buffer_timeline`` has
        not been read, else columns copied out of its records (so samples
        appended to the record list are seen too).
        """
        timeline = self.__dict__.get("buffer_timeline")
        if timeline is None:
            return self._buffer_t, self._buffer_video, self._buffer_audio
        return (
            [s.t for s in timeline],
            [s.video_level_s for s in timeline],
            [s.audio_level_s for s in timeline],
        )

    def add_estimate(self, t: float, kbps: float) -> None:
        self.estimate_timeline.append(EstimateSample(t, kbps))

    # -- stalls ----------------------------------------------------------

    @property
    def n_stalls(self) -> int:
        return len(self.stalls)

    @property
    def total_rebuffer_s(self) -> float:
        return sum(s.duration_s for s in self.stalls)

    # -- selections ------------------------------------------------------

    def downloads_of(self, medium: MediaType) -> List[DownloadRecord]:
        return [d for d in self.downloads if d.medium is medium]

    def track_for(self, medium: MediaType, chunk_index: int) -> Optional[str]:
        for record in self.downloads:
            if record.medium is medium and record.chunk_index == chunk_index:
                return record.track_id
        return None

    def selected_combinations(self) -> List[Tuple[int, Optional[str], Optional[str]]]:
        """Per chunk position: (index, video track, audio track).

        One pass over the downloads; the first record of a position wins,
        as in :meth:`track_for`.
        """
        video: Dict[int, str] = {}
        audio: Dict[int, str] = {}
        for record in self.downloads:
            if record.medium is MediaType.VIDEO:
                video.setdefault(record.chunk_index, record.track_id)
            elif record.medium is MediaType.AUDIO:
                audio.setdefault(record.chunk_index, record.track_id)
        return [
            (index, video.get(index), audio.get(index))
            for index in range(self.n_chunks)
        ]

    def combination_names(self) -> List[str]:
        """Paper-style combination names per downloaded position."""
        names = []
        for _, video_id, audio_id in self.selected_combinations():
            if video_id is not None and audio_id is not None:
                names.append(f"{video_id}+{audio_id}")
        return names

    def distinct_combinations(self) -> List[str]:
        """Distinct combinations in order of first use."""
        seen: List[str] = []
        for name in self.combination_names():
            if name not in seen:
                seen.append(name)
        return seen

    def track_usage(self, medium: MediaType) -> Dict[str, int]:
        """How many chunks used each track."""
        usage: Dict[str, int] = {}
        for record in self.downloads_of(medium):
            usage[record.track_id] = usage.get(record.track_id, 0) + 1
        return usage

    def switch_count(self, medium: MediaType) -> int:
        """Number of track changes between consecutive positions."""
        records = sorted(self.downloads_of(medium), key=lambda r: r.chunk_index)
        switches = 0
        for previous, current in zip(records, records[1:]):
            if previous.track_id != current.track_id:
                switches += 1
        return switches

    # -- buffers ---------------------------------------------------------

    def max_buffer_imbalance_s(self) -> float:
        _, video, audio = self.buffer_columns()
        if not video:
            return 0.0
        return max(abs(v - a) for v, a in zip(video, audio))

    def mean_buffer_imbalance_s(self) -> float:
        """Time-weighted mean |audio - video| buffer difference."""
        t, video, audio = self.buffer_columns()
        if len(t) < 2:
            return 0.0
        total = 0.0
        span = t[-1] - t[0]
        if span <= 0:
            return abs(video[-1] - audio[-1])
        for t0, t1, v, a in zip(t, t[1:], video, audio):
            total += abs(v - a) * (t1 - t0)
        return total / span

    # -- summary ---------------------------------------------------------

    def time_weighted_bitrate_kbps(self, medium: MediaType) -> float:
        """Mean encoded bitrate of the *selected* tracks, per chunk."""
        records = self.downloads_of(medium)
        if not records:
            return 0.0
        return sum(r.size_bits for r in records) / (
            len(records) * self.chunk_duration_s * 1000.0
        )

    def to_dict(self, include_timelines: bool = True) -> Dict[str, object]:
        """JSON-serializable dump of the whole session.

        Enables external analysis (pandas, notebooks) without importing
        the library: every download, stall, abort, failure, buffer
        sample and estimate reading, plus the summary.
        """
        data: Dict[str, object] = {
            "content_duration_s": self.content_duration_s,
            "chunk_duration_s": self.chunk_duration_s,
            "n_chunks": self.n_chunks,
            "summary": self.summary(),
            "downloads": [
                {
                    "medium": record.medium.value,
                    "track_id": record.track_id,
                    "chunk_index": record.chunk_index,
                    "size_bits": record.size_bits,
                    "started_at": record.started_at,
                    "completed_at": record.completed_at,
                    "throughput_kbps": record.throughput_kbps,
                }
                for record in self.downloads
            ],
            "stalls": [
                {"start_s": stall.start_s, "end_s": stall.end_s}
                for stall in self.stalls
            ],
            "aborts": [
                {
                    "medium": abort.medium.value,
                    "track_id": abort.track_id,
                    "chunk_index": abort.chunk_index,
                    "aborted_at": abort.aborted_at,
                    "bits_done": abort.bits_done,
                }
                for abort in self.aborts
            ],
            "failures": [
                {
                    "medium": failure.medium.value,
                    "track_id": failure.track_id,
                    "chunk_index": failure.chunk_index,
                    "failed_at": failure.failed_at,
                    "bits_done": failure.bits_done,
                    "kind": getattr(failure.kind, "value", failure.kind),
                    "attempt": failure.attempt,
                    "resumable": failure.resumable,
                    "retry_at": failure.retry_at,
                }
                for failure in self.failures
            ],
            "skips": [
                {
                    "medium": skip.medium.value,
                    "track_id": skip.track_id,
                    "chunk_index": skip.chunk_index,
                    "skipped_at": skip.skipped_at,
                    "attempts": skip.attempts,
                }
                for skip in self.skips
            ],
            "byte_accounting": self.byte_accounting(),
            "termination_reason": self.termination_reason,
        }
        if include_timelines:
            data["buffer_timeline"] = [
                {"t": t, "video_level_s": video, "audio_level_s": audio}
                for t, video, audio in zip(*self.buffer_columns())
            ]
            data["estimate_timeline"] = [
                {"t": sample.t, "kbps": sample.kbps}
                for sample in self.estimate_timeline
            ]
        return data

    def summary(self) -> Dict[str, object]:
        return {
            "completed": self.completed,
            "startup_delay_s": self.startup_delay_s,
            "n_stalls": self.n_stalls,
            "total_rebuffer_s": round(self.total_rebuffer_s, 3),
            "video_switches": self.switch_count(MediaType.VIDEO),
            "audio_switches": self.switch_count(MediaType.AUDIO),
            "video_kbps": round(self.time_weighted_bitrate_kbps(MediaType.VIDEO), 1),
            "audio_kbps": round(self.time_weighted_bitrate_kbps(MediaType.AUDIO), 1),
            "combinations": self.distinct_combinations(),
            "max_buffer_imbalance_s": round(self.max_buffer_imbalance_s(), 2),
            "failures": len(self.failures),
            "retries": self.n_retries,
            "skipped_chunks": len(self.skips),
            "resumed_mbit": round(self.bits_resumed / 1e6, 3),
            "wasted_mbit": round(self.bits_wasted / 1e6, 3),
            "termination_reason": self.termination_reason,
        }
