"""Record -> replay: event logs rebuild sessions byte-identically."""

import json
import os

import pytest

from repro.net.failures import FailureModel
from repro.net.link import shared
from repro.net.resilience import ResilienceModel, RetryPolicy
from repro.net.traces import constant, square_wave
from repro.qoe.metrics import DEFAULT_WEIGHTS, QoEWeights, compute_qoe
from repro.qoe.rescore import rescore_log
from repro.replay import (
    EVENT_SCHEMA_BASE_VERSION,
    EVENT_SCHEMA_VERSION,
    EventRecorder,
    ReplayError,
    record_path,
    replay_session,
    scan_events,
)
from repro.runner.jobs import PlayerSpec, SimulationJob, TraceSpec
from repro.sim.session import Session, SessionConfig

PLAYERS = ["shaka", "dashjs", "exoplayer-dash", "exoplayer-hls", "recommended"]


def record_run(content, tmp_path, player_name="shaka", name="run", **config_kw):
    """Simulate one recorded session; returns (live result, log path)."""
    path = str(tmp_path / f"{name}.events.jsonl")
    player = PlayerSpec(player_name).build(content)
    network = shared(square_wave(600.0, 2500.0, 15.0), rtt_s=0.05)
    recorder = EventRecorder(path)
    config = SessionConfig(observer=recorder, **config_kw)
    result = Session(content, player, network, config).run()
    assert recorder.closed  # the session closes its observer
    return result, path


class TestRoundTrip:
    @pytest.mark.parametrize("player_name", PLAYERS)
    def test_summary_and_qoe_byte_identical(self, content, tmp_path, player_name):
        result, path = record_run(content, tmp_path, player_name)
        replayed = replay_session(path)
        assert replayed.intact and replayed.has_verdict
        assert replayed.result.summary() == result.summary()
        live_qoe = compute_qoe(result, content, DEFAULT_WEIGHTS)
        assert replayed.qoe().as_dict() == live_qoe.as_dict()

    def test_timelines_match(self, content, tmp_path):
        result, path = record_run(content, tmp_path)
        replayed = replay_session(path)
        assert len(replayed.result.downloads) == len(result.downloads)
        for live, rep in zip(result.downloads, replayed.result.downloads):
            assert rep == live  # dataclass equality: every float identical
        assert replayed.result.buffer_timeline == result.buffer_timeline
        assert replayed.result.estimate_timeline == result.estimate_timeline
        assert replayed.result.stalls == result.stalls

    def test_failures_and_retries_round_trip(self, content, tmp_path):
        result, path = record_run(
            content,
            tmp_path,
            failure_model=ResilienceModel(0.25, seed=7),
            retry_policy=RetryPolicy(),
        )
        assert result.failures  # the scenario must actually exercise failures
        replayed = replay_session(path)
        assert replayed.result.failures == result.failures
        assert replayed.result.summary() == result.summary()

    def test_live_skips_round_trip(self, content, tmp_path):
        result, path = record_run(
            content,
            tmp_path,
            failure_model=ResilienceModel(0.35, seed=3),
            retry_policy=RetryPolicy(max_attempts=2),
            live_offset_s=4.0,
        )
        replayed = replay_session(path)
        assert replayed.result.skips == result.skips
        assert replayed.result.summary() == result.summary()

    def test_legacy_failure_model_round_trip(self, content, tmp_path):
        result, path = record_run(
            content, tmp_path, failure_model=FailureModel(0.15, seed=5)
        )
        assert result.failures
        replayed = replay_session(path)
        assert replayed.result.summary() == result.summary()

    def test_rescore_with_other_weights(self, content, tmp_path):
        result, path = record_run(content, tmp_path)
        weights = QoEWeights(rebuffer_per_s=50.0)
        live = compute_qoe(result, content, weights)
        assert rescore_log(path, weights).as_dict() == live.as_dict()


class TestTornLogs:
    def test_torn_log_replays_prefix(self, content, tmp_path):
        _, path = record_run(content, tmp_path)
        whole = scan_events(path)
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) - 41)  # tear mid final line
        replayed = replay_session(path)
        assert replayed.damage == "truncated"
        assert not replayed.has_verdict
        assert len(replayed.events) == len(whole.events) - 1
        # The torn prefix still yields a well-formed partial result.
        assert replayed.result.summary()
        assert replayed.qoe().as_dict()

    def test_every_tear_point_replays_cleanly(self, content, tmp_path):
        _, path = record_run(content, tmp_path)
        with open(path, "rb") as f:
            data = f.read()
        header_len = data.index(b"\n") + 1
        for cut in range(header_len + 1, min(len(data), header_len + 400), 13):
            torn = str(tmp_path / "torn.jsonl")
            with open(torn, "wb") as f:
                f.write(data[:cut])
            replayed = replay_session(torn)  # must never raise
            assert replayed.result.summary()

    def test_corrupt_mid_log_stops_at_damage(self, content, tmp_path):
        _, path = record_run(content, tmp_path)
        with open(path, "r+b") as f:
            data = f.read()
            # Flip a byte inside the 5th line's payload.
            offset = 0
            for _ in range(4):
                offset = data.index(b"\n", offset) + 1
            f.seek(offset + 40)
            f.write(b"~")
        replayed = replay_session(path)
        assert replayed.damage == "corrupt"
        assert replayed.damage_line == 5
        with pytest.raises(ReplayError):
            replay_session(path, strict=True)

    def test_strict_tolerates_truncation(self, content, tmp_path):
        _, path = record_run(content, tmp_path)
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) - 7)
        replayed = replay_session(path, strict=True)  # tears are contract
        assert replayed.damage == "truncated"


def rewrite_log(path, edit):
    """Re-frame a log after ``edit(events)``: CRC-valid, content changed."""
    from repro.framing import frame_line
    from repro.replay.events import encode_event

    events = scan_events(path).events
    edit(events)
    with open(path, "wb") as f:
        for event in events:
            f.write(frame_line(encode_event(event)))


def first_of(events, kind):
    return next(event for event in events if event["k"] == kind)


class TestMalformedLogs:
    """CRC-valid logs with bad content fail typed, never silently."""

    def _replay_error(self, path):
        with pytest.raises(ReplayError) as info:
            replay_session(path)
        return str(info.value)

    def test_missing_field_names_log_seq_kind_and_field(self, content, tmp_path):
        _, path = record_run(content, tmp_path)
        seqs = []

        def drop_size(events):
            event = first_of(events, "download_complete")
            seqs.append(event["seq"])
            del event["size_bits"]

        rewrite_log(path, drop_size)
        message = self._replay_error(path)
        assert message.startswith(path)
        assert f"download_complete event at seq {seqs[0]}" in message
        assert "missing field 'size_bits'" in message

    def test_unknown_medium_is_refused_not_dropped(self, content, tmp_path):
        _, path = record_run(content, tmp_path)
        rewrite_log(
            path,
            lambda events: first_of(events, "download_start").update(
                medium="subtitles"
            ),
        )
        message = self._replay_error(path)
        assert "download_start event at seq" in message
        assert "field 'medium' holds 'subtitles'" in message

    @pytest.mark.parametrize(
        "kind", ["download_progress", "download_complete", "failure"]
    )
    def test_unknown_medium_on_any_medium_kind(self, content, tmp_path, kind):
        _, path = record_run(
            content,
            tmp_path,
            failure_model=ResilienceModel(0.2, seed=1),
            retry_policy=RetryPolicy(),
        )
        rewrite_log(
            path, lambda events: first_of(events, kind).update(medium="text")
        )
        assert f"{kind} event at seq" in self._replay_error(path)

    @pytest.mark.parametrize(
        "field,literal", [("chunk_index", b"1e999"), ("size_bits", b"1" + b"0" * 400)]
    )
    def test_out_of_range_number_is_named(self, content, tmp_path, field, literal):
        # The canonical encoder cannot write these numbers (inf, an int
        # too large for a float), so splice them into the JSON text.
        from repro.framing import frame_line, scan_line_file

        _, path = record_run(content, tmp_path)
        rewrite_log(
            path,
            lambda events: first_of(events, "download_start").update(
                {field: "PLACEHOLDER"}
            ),
        )
        payloads = scan_line_file(path).payloads
        with open(path, "wb") as f:
            for payload in payloads:
                f.write(frame_line(payload.replace(b'"PLACEHOLDER"', literal)))
        assert f"field {field!r} holds" in self._replay_error(path)

    def test_malformed_header_content_is_a_replay_error(self, content, tmp_path):
        _, path = record_run(content, tmp_path)
        rewrite_log(path, lambda events: events[0]["content"].pop("video"))
        message = self._replay_error(path)
        assert "session_meta at seq 0: malformed content description" in message
        assert "'video'" in message

    def test_cli_reports_malformed_log_and_exits_2(self, content, tmp_path, capsys):
        from repro.cli import main

        _, path = record_run(content, tmp_path)
        rewrite_log(
            path, lambda events: first_of(events, "estimate").pop("kbps")
        )
        assert main(["replay", path]) == 2
        assert "missing field 'kbps'" in capsys.readouterr().err


#: One event of each kind the replayer rebuilds from, with every field
#: it reads, in an order that replays (start before progress, stall
#: begin before end).
_FULL_EVENTS = [
    {"k": "download_start", "t": 0.5, "medium": "video", "track_id": "V1",
     "chunk_index": 0, "size_bits": 100.0, "resumed_bits": 0.0},
    {"k": "download_progress", "t0": 0.5, "t1": 1.0, "medium": "video",
     "bits": 10.0},
    {"k": "download_complete", "t": 1.0, "medium": "video", "track_id": "V1",
     "chunk_index": 0, "size_bits": 100.0, "started_at": 0.5,
     "resumed_bits": 0.0},
    {"k": "download_abort", "t": 1.5, "medium": "audio", "track_id": "A1",
     "chunk_index": 1, "bits_done": 5.0, "size_bits": 50.0},
    {"k": "failure", "t": 2.0, "medium": "audio", "track_id": "A1",
     "chunk_index": 1, "bits_done": 5.0, "kind": "timeout", "attempt": 1,
     "resumable": True, "retry_at": 2.5},
    {"k": "skip", "t": 2.5, "medium": "video", "track_id": "V1",
     "chunk_index": 2, "attempts": 2},
    {"k": "stall_begin", "t": 3.0},
    {"k": "stall_end", "t": 3.5, "duration_s": 0.5},
    {"k": "playback_start", "t": 0.8},
    {"k": "buffer_sample", "t": 3.5, "video_s": 1.0, "audio_s": 2.0},
    {"k": "estimate", "t": 3.5, "kbps": 900.0},
    {"k": "verdict", "t": 4.0, "completed": True, "startup_delay_s": 0.8,
     "termination_reason": None, "n_stalls": 1},
]

_FIELD_CASES = [
    (index, field)
    for index, event in enumerate(_FULL_EVENTS)
    for field in event
    if field != "k"
]

#: Fields a log may leave out: the replayer defaults or ignores them.
_OPTIONAL = {
    ("download_start", "resumed_bits"),
    ("download_complete", "resumed_bits"),
    ("failure", "attempt"),
    ("failure", "resumable"),
    ("failure", "retry_at"),
    ("stall_end", "duration_s"),
    ("verdict", "startup_delay_s"),
    ("verdict", "termination_reason"),
    ("verdict", "n_stalls"),
}

#: Fields whose value is kept as recorded (or ignored), never decoded.
_UNDECODED = {
    "track_id", "kind", "resumable", "completed", "termination_reason",
    "duration_s", "n_stalls",
}


class TestFieldErrors:
    """Whatever field of a rebuilt kind goes bad, the error names it.

    Dropping a required field, or giving a decoded field a value no
    decoder takes, raises a ReplayError naming that event and that
    field — never a raw exception, never another field. Optional and
    undecoded fields still replay.
    """

    def _replay(self, content, tmp_path, index=None, edit=None):
        from repro.framing import frame_line
        from repro.replay.events import encode_event

        _, recorded = record_run(content, tmp_path)
        events = [scan_events(recorded).events[0]]
        for i, event in enumerate(_FULL_EVENTS, 1):
            event = dict(event, seq=i)
            if i - 1 == index:
                edit(event)
            events.append(event)
        path = str(tmp_path / "built.events.jsonl")
        with open(path, "wb") as f:
            for event in events:
                f.write(frame_line(encode_event(event)))
        return path

    def test_full_events_replay(self, content, tmp_path):
        replayed = replay_session(self._replay(content, tmp_path))
        assert replayed.has_verdict
        (download,) = replayed.result.downloads
        assert len(download.segments) == 1
        assert len(replayed.result.failures) == len(replayed.result.skips) == 1

    @pytest.mark.parametrize("index,field", _FIELD_CASES)
    def test_dropped_field_is_named_or_optional(self, content, tmp_path, index, field):
        path = self._replay(content, tmp_path, index, lambda e: e.pop(field))
        kind = _FULL_EVENTS[index]["k"]
        if (kind, field) in _OPTIONAL:
            assert replay_session(path).has_verdict
            return
        with pytest.raises(ReplayError) as info:
            replay_session(path)
        assert f"{kind} event at seq {index + 1}: missing field {field!r}" in str(
            info.value
        )

    @pytest.mark.parametrize("index,field", _FIELD_CASES)
    def test_bogus_value_is_named_or_unread(self, content, tmp_path, index, field):
        path = self._replay(
            content, tmp_path, index, lambda e: e.update({field: ["bogus"]})
        )
        kind = _FULL_EVENTS[index]["k"]
        if field in _UNDECODED:
            assert replay_session(path).has_verdict
            return
        with pytest.raises(ReplayError) as info:
            replay_session(path)
        assert f"{kind} event at seq {index + 1}: field {field!r} holds ['bogus']" in (
            str(info.value)
        )

    @pytest.mark.parametrize("kind", ["future", "decision", "download_progress"])
    def test_bogus_time_is_named_on_any_kind(self, content, tmp_path, kind):
        # ``t`` is read from every event carrying one, even kinds that
        # are otherwise skipped or, like progress, use t0/t1 instead.
        path = self._replay(
            content, tmp_path, 1, lambda e: e.update(k=kind, t="x")
        )
        with pytest.raises(ReplayError, match=f"{kind} event at seq 2: field 't'"):
            replay_session(path)

    def test_replayer_own_errors_pass_through(self, content, tmp_path):
        path = self._replay(
            content, tmp_path, 6, lambda e: e.update(k="stall_end")
        )
        with pytest.raises(ReplayError, match="stall_end at seq 7 without an open"):
            replay_session(path)


class TestSchema:
    def test_header_carries_schema_and_content(self, content, tmp_path):
        _, path = record_run(content, tmp_path)
        meta = scan_events(path).events[0]
        assert meta["k"] == "session_meta"
        # Writers stamp the lowest version their fields need (schema 2
        # is only for topology-bearing headers), never past the reader.
        assert meta["schema"] == EVENT_SCHEMA_BASE_VERSION
        assert meta["schema"] <= EVENT_SCHEMA_VERSION
        ladder = meta["content"]["video"]
        assert [t["id"] for t in ladder] == [t.track_id for t in content.video]

    def test_newer_schema_refused(self, content, tmp_path):
        _, path = record_run(content, tmp_path)
        scan = scan_events(path)
        scan.events[0]["schema"] = EVENT_SCHEMA_VERSION + 1
        from repro.framing import frame_line
        from repro.replay.events import encode_event

        with open(path, "wb") as f:
            for event in scan.events:
                f.write(frame_line(encode_event(event)))
        with pytest.raises(ReplayError, match="newer than this reader"):
            replay_session(path)

    def test_unknown_event_kinds_ignored(self, content, tmp_path):
        result, path = record_run(content, tmp_path)
        from repro.framing import frame_line
        from repro.replay.events import encode_event

        scan = scan_events(path)
        with open(path, "wb") as f:
            for i, event in enumerate(scan.events):
                f.write(frame_line(encode_event(event)))
                if i == 3:
                    f.write(
                        frame_line(
                            encode_event({"k": "future_kind", "seq": -1, "t": 0.0})
                        )
                    )
        assert replay_session(path).result.summary() == result.summary()

    def test_missing_header_refused(self, tmp_path):
        from repro.framing import frame_line
        from repro.replay.events import encode_event

        path = str(tmp_path / "headless.jsonl")
        with open(path, "wb") as f:
            f.write(frame_line(encode_event({"k": "estimate", "t": 0.0, "kbps": 1})))
        with pytest.raises(ReplayError, match="session_meta"):
            replay_session(path)

    def test_topology_meta_promotes_to_schema_2(self, content, tmp_path):
        from repro.replay import TOPOLOGY_META_FIELDS, schema_for_meta

        path = str(tmp_path / "topo.events.jsonl")
        recorder = EventRecorder(
            path, extra_meta={"edges": ["edge-1", "edge-2"]}
        )
        player = PlayerSpec("shaka").build(content)
        network = shared(constant(2000.0))
        Session(
            content, player, network, SessionConfig(observer=recorder)
        ).run()
        meta = scan_events(path).events[0]
        assert meta["schema"] == 2
        assert meta["edges"] == ["edge-1", "edge-2"]
        # And the replayer accepts the topology-bearing header.
        assert replay_session(path).result.completed
        # The stamping rule itself: any topology field promotes.
        assert schema_for_meta({}) == EVENT_SCHEMA_BASE_VERSION
        for name in TOPOLOGY_META_FIELDS:
            assert schema_for_meta({name: 1}) == 2

    def test_v1_log_replays_unchanged(self, content, tmp_path):
        # Back-compat: a pre-topology (schema 1) log must replay to the
        # identical session under the schema-2 reader.
        result, path = record_run(content, tmp_path)
        meta = scan_events(path).events[0]
        assert meta["schema"] == EVENT_SCHEMA_BASE_VERSION
        for name in ("edge_id", "edges", "failover_hops"):
            assert name not in meta
        assert replay_session(path).result.summary() == result.summary()

    def test_payload_is_strict_json(self, content, tmp_path):
        # Wait-forever decisions carry until=inf; it must be encoded as
        # a string, keeping every payload parseable by a strict reader.
        _, path = record_run(content, tmp_path)
        from repro.framing import scan_line_file

        for payload in scan_line_file(path).payloads:
            json.loads(payload.decode("utf-8"))  # must not need NaN/Infinity


class TestRunnerRecording:
    def test_record_dir_writes_keyed_logs(self, tmp_path):
        from repro.runner.engine import run_jobs

        record_dir = str(tmp_path / "rec")
        jobs = [
            SimulationJob(
                player=PlayerSpec("shaka"), trace=TraceSpec.constant(900.0)
            ),
            SimulationJob(
                player=PlayerSpec("dashjs"), trace=TraceSpec.constant(700.0)
            ),
        ]
        outcomes = run_jobs(jobs, record_dir=record_dir)
        for job, outcome in zip(jobs, outcomes):
            path = record_path(record_dir, job.key())
            assert os.path.exists(path)
            replayed = replay_session(path)
            assert replayed.meta["key"] == job.key()
            assert replayed.result.summary() == outcome.result.summary()
            # The embedded spec is re-runnable.
            assert SimulationJob.from_spec(replayed.job_spec).key() == job.key()

    def test_intact_log_replays_instead_of_resimulating(self, tmp_path):
        from repro.runner.engine import run_jobs

        record_dir = str(tmp_path / "rec")
        jobs = [
            SimulationJob(player=PlayerSpec("shaka"), trace=TraceSpec.constant(900.0))
        ]
        first = run_jobs(jobs, record_dir=record_dir)
        second = run_jobs(jobs, record_dir=record_dir)
        assert not first[0].replayed
        assert second[0].replayed and second[0].cached
        assert second[0].result.summary() == first[0].result.summary()

    def test_torn_log_falls_back_to_simulation(self, tmp_path):
        from repro.runner.engine import run_jobs

        record_dir = str(tmp_path / "rec")
        jobs = [
            SimulationJob(player=PlayerSpec("shaka"), trace=TraceSpec.constant(900.0))
        ]
        run_jobs(jobs, record_dir=record_dir)
        path = record_path(record_dir, jobs[0].key())
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) - 10)
        outcome = run_jobs(jobs, record_dir=record_dir)[0]
        assert not outcome.replayed  # torn log is not trusted as a cache
        assert replay_session(path).has_verdict  # ...and was re-recorded whole

    @pytest.mark.parametrize(
        "edit",
        [
            lambda events: first_of(events, "download_start").update(
                medium="subtitles"
            ),
            lambda events: first_of(events, "download_complete").pop("size_bits"),
        ],
        ids=["unknown_medium", "missing_field"],
    )
    def test_malformed_log_is_resimulated_not_trusted(self, tmp_path, edit):
        from repro.runner.engine import run_jobs

        record_dir = str(tmp_path / "rec")
        jobs = [
            SimulationJob(player=PlayerSpec("shaka"), trace=TraceSpec.constant(900.0))
        ]
        first = run_jobs(jobs, record_dir=record_dir)[0]
        path = record_path(record_dir, jobs[0].key())
        rewrite_log(path, edit)
        outcome = run_jobs(jobs, record_dir=record_dir)[0]
        assert not outcome.replayed
        assert outcome.result.summary() == first.result.summary()
        assert replay_session(path).has_verdict  # ...and was re-recorded whole

    def test_pool_workers_record_too(self, tmp_path):
        from repro.runner.engine import run_jobs

        record_dir = str(tmp_path / "rec")
        jobs = [
            SimulationJob(player=PlayerSpec("shaka"), trace=TraceSpec.constant(900.0)),
            SimulationJob(player=PlayerSpec("dashjs"), trace=TraceSpec.constant(700.0)),
        ]
        outcomes = run_jobs(jobs, workers=2, record_dir=record_dir)
        for job, outcome in zip(jobs, outcomes):
            replayed = replay_session(record_path(record_dir, job.key()))
            assert replayed.result.summary() == outcome.result.summary()

    def test_grid_runner_reports_provenance(self, tmp_path):
        from repro.runner.engine import GridRunner

        record_dir = str(tmp_path / "rec")
        runner = GridRunner(record_dir=record_dir)
        jobs = [
            SimulationJob(player=PlayerSpec("shaka"), trace=TraceSpec.constant(900.0))
        ]
        runner.run(jobs)
        runner.run(jobs)
        params = runner.params()
        assert params["record_dir"] == record_dir
        assert params["replayed_from_log"] == 1

    def test_spec_round_trip_through_json(self):
        job = SimulationJob(
            player=PlayerSpec("exoplayer-hls", audio_order=("A3", "A1")),
            trace=TraceSpec.pairs([(10.0, 600.0), (5.0, 1800.0)]),
            retry_policy=RetryPolicy(max_attempts=3),
            rtt_s=0.08,
            live_offset_s=4.0,
            seed=9,
        )
        spec = json.loads(json.dumps(job.spec_dict()))
        assert SimulationJob.from_spec(spec).key() == job.key()


class TestRecorder:
    def test_truncates_on_open(self, content, tmp_path):
        _, path = record_run(content, tmp_path, name="same")
        first_size = os.path.getsize(path)
        _, path2 = record_run(content, tmp_path, name="same")
        assert path2 == path
        assert os.path.getsize(path) == first_size  # rewritten, not appended
        assert replay_session(path).intact

    def test_emit_after_close_raises(self, tmp_path):
        recorder = EventRecorder(str(tmp_path / "log.jsonl"))
        recorder.close()
        with pytest.raises(ValueError):
            recorder.emit("estimate", {"t": 0.0, "kbps": 1.0})

    def test_creates_parent_directories(self, tmp_path):
        path = str(tmp_path / "a" / "b" / "log.jsonl")
        with EventRecorder(path) as recorder:
            recorder.emit("session_meta", {"content": {}})
        assert os.path.exists(path)
