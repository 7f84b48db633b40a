"""Reconstruct a session — result, metrics, QoE — from its event log.

:func:`replay_session` turns a recorded log back into a full
:class:`~repro.sim.records.SessionResult` *without re-simulating*:
downloads (with their per-interval progress segments), aborts,
failures, skips, stalls, buffer and estimate timelines, startup delay
and the final verdict are all rebuilt from the events. Because floats
round-trip through the log exactly, every metric the result exposes —
and the whole :mod:`repro.qoe` score derived from it — is
byte-identical to the live run's.

The ``session_meta`` header carries the content ladders (exact
bitrates), so :meth:`ReplayedSession.qoe` can re-score a log with any
:class:`~repro.qoe.metrics.QoEWeights` — post-hoc QoE re-scoring over
a shared corpus of logs, no simulator required.

A torn log (recorder killed mid-write) replays cleanly up to the tear:
``damage`` reports the classification from :mod:`repro.framing`, the
reconstructed prefix is still valid, and ``has_verdict`` tells you
whether the session's end made it to disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..framing import CORRUPT, scan_line_file
from ..media.tracks import Ladder, MediaType, audio_track, make_ladder, video_track
from ..sim.records import (
    AbortRecord,
    DownloadRecord,
    FailureRecord,
    ProgressSegment,
    SessionResult,
    SkipRecord,
    StallEvent,
)
from .events import (
    EventKind,
    ReplayError,
    check_schema,
    decode_events,
    decode_float,
)


@dataclass(frozen=True)
class ReplayContent:
    """Just enough content metadata to re-derive QoE from a log.

    Mirrors the :class:`~repro.media.content.Content` surface the QoE
    layer consumes (``video``/``audio`` ladders, ``ladder()``, chunk
    geometry); it deliberately has no chunk-size table — sizes live in
    the download events themselves.
    """

    name: str
    video: Ladder
    audio: Ladder
    duration_s: float
    chunk_duration_s: float
    n_chunks: int

    def ladder(self, media_type: MediaType) -> Ladder:
        return self.video if media_type is MediaType.VIDEO else self.audio


def _ladder_from_meta(medium: MediaType, entries: List[Dict[str, Any]]) -> Ladder:
    tracks = []
    for entry in entries:
        if medium is MediaType.VIDEO:
            tracks.append(
                video_track(
                    entry["id"],
                    decode_float(entry["avg_kbps"]),
                    decode_float(entry["peak_kbps"]),
                    decode_float(entry["declared_kbps"]),
                    height=entry.get("height"),
                )
            )
        else:
            tracks.append(
                audio_track(
                    entry["id"],
                    decode_float(entry["avg_kbps"]),
                    decode_float(entry["peak_kbps"]),
                    decode_float(entry["declared_kbps"]),
                    channels=int(entry.get("channels", 2)),
                    sampling_khz=decode_float(entry.get("sampling_khz", 44.0)),
                )
            )
    return make_ladder(medium, tracks)


def scan_events(path: str, strict: bool = False) -> "EventScan":
    """Decode every intact event of a log, classifying any damage.

    ``strict=True`` raises :class:`ReplayError` on *corrupt* logs
    (truncation is always tolerated — a torn tail is the crash-safety
    contract working, not a failure).
    """
    scan = scan_line_file(path)
    if strict and scan.damage == CORRUPT:
        raise ReplayError(
            f"{path}: corrupt at line {scan.damage_line}: {scan.damage_detail}"
        )
    events = decode_events(scan.payloads)
    return EventScan(
        events=events,
        damage=scan.damage,
        damage_line=scan.damage_line,
        damage_detail=scan.damage_detail,
    )


@dataclass
class EventScan:
    """Decoded events of one log plus the framing damage report."""

    events: List[Dict[str, Any]]
    damage: Optional[str] = None
    damage_line: Optional[int] = None
    damage_detail: Optional[str] = None


@dataclass
class _OpenDownload:
    """A download being rebuilt between its start and terminal event."""

    track_id: str
    chunk_index: int
    size_bits: float
    started_at: float
    resumed_bits: float
    segments: List[ProgressSegment] = field(default_factory=list)


@dataclass
class ReplayedSession:
    """Everything reconstructed from one event log."""

    path: str
    meta: Dict[str, Any]
    events: List[Dict[str, Any]]
    result: SessionResult
    content: ReplayContent
    #: ``None`` for a clean log, else ``"truncated"``/``"corrupt"``.
    damage: Optional[str] = None
    damage_line: Optional[int] = None
    damage_detail: Optional[str] = None
    #: Did the session's final verdict event survive to disk?
    has_verdict: bool = False

    @property
    def intact(self) -> bool:
        return self.damage is None

    @property
    def job_spec(self) -> Optional[Dict[str, Any]]:
        """The runner job spec embedded by ``--record``, if any."""
        spec = self.meta.get("job")
        return spec if isinstance(spec, dict) else None

    def qoe(self, weights=None):
        """Re-derive the QoE report from the replayed result."""
        from ..qoe.metrics import DEFAULT_WEIGHTS, compute_qoe

        return compute_qoe(
            self.result, self.content, weights or DEFAULT_WEIGHTS
        )


def _content_from_meta(path: str, meta: Dict[str, Any]) -> ReplayContent:
    content_meta = meta.get("content")
    if not isinstance(content_meta, dict):
        raise ReplayError(f"{path}: session_meta carries no content description")
    try:
        return ReplayContent(
            name=content_meta.get("name", "replayed"),
            video=_ladder_from_meta(MediaType.VIDEO, content_meta["video"]),
            audio=_ladder_from_meta(MediaType.AUDIO, content_meta["audio"]),
            duration_s=decode_float(content_meta["duration_s"]),
            chunk_duration_s=decode_float(content_meta["chunk_duration_s"]),
            n_chunks=int(content_meta["n_chunks"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError, ReplayError) as exc:
        raise ReplayError(
            f"{path}: session_meta at seq {meta.get('seq')}: "
            f"malformed content description ({exc!r})"
        ) from exc


# Kind strings, compared once per replayed event.
_DOWNLOAD_START = EventKind.DOWNLOAD_START.value
_DOWNLOAD_PROGRESS = EventKind.DOWNLOAD_PROGRESS.value
_DOWNLOAD_COMPLETE = EventKind.DOWNLOAD_COMPLETE.value
_DOWNLOAD_ABORT = EventKind.DOWNLOAD_ABORT.value
_FAILURE = EventKind.FAILURE.value
_SKIP = EventKind.SKIP.value
_STALL_BEGIN = EventKind.STALL_BEGIN.value
_STALL_END = EventKind.STALL_END.value
_PLAYBACK_START = EventKind.PLAYBACK_START.value
_BUFFER_SAMPLE = EventKind.BUFFER_SAMPLE.value
_ESTIMATE = EventKind.ESTIMATE.value
_VERDICT = EventKind.VERDICT.value

#: Recorded ``medium`` strings; any other value is malformed.
_MEDIA = {medium.value: medium for medium in MediaType}


class _BadField(Exception):
    """A replayed field (``args[0]``) holds a value its decoder rejects."""


# Field readers for replay_session: a missing field raises KeyError, a
# value the decoder rejects _BadField, each carrying the field's name.


def _float(event: Dict[str, Any], name: str) -> float:
    value = event[name]
    if value.__class__ is float:
        return value
    try:
        return decode_float(value)
    except (TypeError, ValueError, OverflowError, ReplayError):
        raise _BadField(name) from None


def _int(event: Dict[str, Any], name: str) -> int:
    try:
        return int(event[name])
    except (TypeError, ValueError, OverflowError):
        raise _BadField(name) from None


def _medium(event: Dict[str, Any]) -> MediaType:
    try:
        return _MEDIA[event["medium"]]
    except (KeyError, TypeError):
        if "medium" not in event:
            raise
        raise _BadField("medium") from None


def replay_session(path: str, strict: bool = False) -> ReplayedSession:
    """Rebuild a :class:`ReplayedSession` from a recorded event log.

    A known-kind event with a missing or ill-typed field, or an unknown
    ``medium``, raises :class:`ReplayError` naming the log, the event's
    ``seq`` and kind, and the field. Unknown kinds are skipped.
    """
    scan = scan_events(path, strict=strict)
    if not scan.events:
        raise ReplayError(
            f"{path}: no replayable events"
            + (f" ({scan.damage}: {scan.damage_detail})" if scan.damage else "")
        )
    meta = scan.events[0]
    check_schema(meta)
    content = _content_from_meta(path, meta)
    result = SessionResult(
        content_duration_s=content.duration_s,
        chunk_duration_s=content.chunk_duration_s,
        n_chunks=content.n_chunks,
    )
    replayed = ReplayedSession(
        path=path,
        meta=meta,
        events=scan.events,
        result=result,
        content=content,
        damage=scan.damage,
        damage_line=scan.damage_line,
        damage_detail=scan.damage_detail,
    )

    open_downloads: Dict[MediaType, _OpenDownload] = {}
    buffer_t: List[float] = []
    buffer_video: List[float] = []
    buffer_audio: List[float] = []
    last_t = 0.0
    for event in scan.events[1:]:
        try:
            kind = event["k"]
            if "t" in event:
                last_t = _float(event, "t")
            if kind == _DOWNLOAD_PROGRESS:
                active = open_downloads.get(_medium(event))
                if active is not None:
                    active.segments.append(
                        ProgressSegment(
                            start_s=_float(event, "t0"),
                            end_s=_float(event, "t1"),
                            bits=_float(event, "bits"),
                        )
                    )
            elif kind == _BUFFER_SAMPLE:
                t = _float(event, "t")
                video_s = _float(event, "video_s")
                audio_s = _float(event, "audio_s")
                buffer_t.append(t)
                buffer_video.append(video_s)
                buffer_audio.append(audio_s)
            elif kind == _DOWNLOAD_START:
                open_downloads[_medium(event)] = _OpenDownload(
                    track_id=event["track_id"],
                    chunk_index=_int(event, "chunk_index"),
                    size_bits=_float(event, "size_bits"),
                    started_at=_float(event, "t"),
                    resumed_bits=(
                        _float(event, "resumed_bits")
                        if "resumed_bits" in event
                        else 0.0
                    ),
                )
            elif kind == _DOWNLOAD_COMPLETE:
                medium = _medium(event)
                active = open_downloads.pop(medium, None)
                result.add_download(
                    DownloadRecord(
                        medium=medium,
                        track_id=event["track_id"],
                        chunk_index=_int(event, "chunk_index"),
                        size_bits=_float(event, "size_bits"),
                        started_at=_float(event, "started_at"),
                        completed_at=_float(event, "t"),
                        segments=tuple(active.segments) if active else (),
                        resumed_bits=(
                            _float(event, "resumed_bits")
                            if "resumed_bits" in event
                            else 0.0
                        ),
                    )
                )
            elif kind == _ESTIMATE:
                result.add_estimate(_float(event, "t"), _float(event, "kbps"))
            elif kind == _DOWNLOAD_ABORT:
                medium = _medium(event)
                open_downloads.pop(medium, None)
                result.add_abort(
                    AbortRecord(
                        medium=medium,
                        track_id=event["track_id"],
                        chunk_index=_int(event, "chunk_index"),
                        aborted_at=_float(event, "t"),
                        bits_done=_float(event, "bits_done"),
                        size_bits=_float(event, "size_bits"),
                    )
                )
            elif kind == _FAILURE:
                medium = _medium(event)
                open_downloads.pop(medium, None)
                result.add_failure(
                    FailureRecord(
                        medium=medium,
                        track_id=event["track_id"],
                        chunk_index=_int(event, "chunk_index"),
                        failed_at=_float(event, "t"),
                        bits_done=_float(event, "bits_done"),
                        kind=event["kind"],
                        attempt=_int(event, "attempt") if "attempt" in event else 1,
                        resumable=bool(event.get("resumable", False)),
                        retry_at=(
                            None
                            if event.get("retry_at") is None
                            else _float(event, "retry_at")
                        ),
                    )
                )
            elif kind == _SKIP:
                result.add_skip(
                    SkipRecord(
                        medium=_medium(event),
                        track_id=event["track_id"],
                        chunk_index=_int(event, "chunk_index"),
                        skipped_at=_float(event, "t"),
                        attempts=_int(event, "attempts"),
                    )
                )
            elif kind == _STALL_BEGIN:
                result.stalls.append(StallEvent(start_s=_float(event, "t")))
            elif kind == _STALL_END:
                if not result.stalls or result.stalls[-1].end_s is not None:
                    raise ReplayError(
                        f"{path}: stall_end at seq {event.get('seq')} "
                        "without an open stall"
                    )
                result.stalls[-1].end_s = _float(event, "t")
            elif kind == _PLAYBACK_START:
                result.startup_delay_s = _float(event, "t")
            elif kind == _VERDICT:
                completed = bool(event["completed"])
                ended_at_s = _float(event, "t")
                startup = (
                    None
                    if event.get("startup_delay_s") is None
                    else _float(event, "startup_delay_s")
                )
                replayed.has_verdict = True
                result.completed = completed
                result.ended_at_s = ended_at_s
                result.termination_reason = event.get("termination_reason")
                result.startup_delay_s = startup
            # Unknown kinds are skipped by design: newer writers may add
            # kinds without bumping the schema (see the compat policy).
        except KeyError as exc:
            problem = f"missing field {exc.args[0]!r}"
        except _BadField as exc:
            problem = f"field {exc.args[0]!r} holds {event[exc.args[0]]!r}"
        else:
            continue
        raise ReplayError(
            f"{path}: {event['k']} event at seq {event.get('seq')}: {problem}"
        )
    result.extend_buffer_samples(buffer_t, buffer_video, buffer_audio)
    if not replayed.has_verdict:
        # Torn before the end: the prefix is still a valid partial
        # result. Close the clock at the last event seen.
        result.ended_at_s = last_t
    return replayed
