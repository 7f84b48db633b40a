"""Session results without per-sample object churn.

``SessionResult`` keeps the kernel's buffer samples as three float
columns and builds ``buffer_timeline`` records only on first read; the
hot frozen records store through their slot descriptors; HLS players
are built from the master playlist alone; ``selected_combinations`` is
one pass over the downloads. None of that may change a value a reader
sees. These tests pin each layer against a reference implementation of
the record-based code it replaced, and pin the allocation counts the
change exists for.
"""

import dataclasses
import inspect
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos.invariants import check_session
from repro.core.combinations import all_combinations, hsub_combinations
from repro.errors import ManifestError
from repro.experiments.corpus import drama_show
from repro.framing import frame_payload
from repro.manifest import packager
from repro.manifest.packager import package_hls
from repro.media.tracks import MediaType
from repro.net.link import shared
from repro.net.traces import random_walk
from repro.qoe.metrics import compute_qoe
from repro.runner import PlayerSpec, ResultCache
from repro.runner.jobs import PLAYER_NAMES
from repro.sim.records import (
    BufferSample,
    DownloadRecord,
    EstimateSample,
    FailureRecord,
    ProgressSegment,
    SessionResult,
)
from repro.sim.session import simulate

CONTENT = drama_show()


def _session(player="shaka", seed=3):
    trace = random_walk(900.0, seed=seed, n_segments=240, segment_duration_s=0.5)
    return simulate(CONTENT, PlayerSpec(player).build(CONTENT), shared(trace))


# -- reference implementations (the record-based code) -------------------------


def _reference_combinations(result):
    return [
        (
            index,
            result.track_for(MediaType.VIDEO, index),
            result.track_for(MediaType.AUDIO, index),
        )
        for index in range(result.n_chunks)
    ]


def _reference_max_imbalance(timeline):
    if not timeline:
        return 0.0
    return max(s.imbalance_s for s in timeline)


def _reference_mean_imbalance(timeline):
    if len(timeline) < 2:
        return 0.0
    total = 0.0
    span = timeline[-1].t - timeline[0].t
    if span <= 0:
        return timeline[-1].imbalance_s
    for a, b in zip(timeline, timeline[1:]):
        total += a.imbalance_s * (b.t - a.t)
    return total / span


def _reference_witness(timeline):
    for sample in timeline:
        if sample.video_level_s < -1e-9 or sample.audio_level_s < -1e-9:
            return (
                f"t={sample.t:.3f}: video={sample.video_level_s:.6f}s "
                f"audio={sample.audio_level_s:.6f}s"
            )
    return None


def _witness(result):
    details = [
        v.detail for v in check_session(result) if v.invariant == "non-negative-buffers"
    ]
    assert len(details) <= 1
    return details[0] if details else None


def _same_float(a, b):
    """Bit-for-bit: tells -0.0 from 0.0."""
    return a.hex() == b.hex()


# -- selected_combinations -------------------------------------------------------

_download = st.builds(
    lambda medium, track, index: DownloadRecord(
        medium=medium,
        track_id=track,
        chunk_index=index,
        size_bits=1.0,
        started_at=0.0,
        completed_at=1.0,
    ),
    st.sampled_from(list(MediaType)),
    st.sampled_from(["V1", "V2", "A1", "A2"]),
    st.integers(min_value=-1, max_value=7),
)


class TestSelectedCombinations:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_download, max_size=30), st.integers(min_value=0, max_value=8))
    def test_matches_the_track_for_scan(self, downloads, n_chunks):
        # Duplicate (medium, index) pairs, missing positions and indices
        # outside [0, n_chunks) all occur in the generated lists.
        result = SessionResult(60.0, 2.0, n_chunks)
        for record in downloads:
            result.add_download(record)
        assert result.selected_combinations() == _reference_combinations(result)

    def test_first_record_of_a_position_wins(self):
        result = SessionResult(8.0, 2.0, 2)
        for track in ("V2", "V1"):
            result.add_download(
                DownloadRecord(MediaType.VIDEO, track, 0, 1.0, 0.0, 1.0)
            )
        assert result.selected_combinations() == [(0, "V2", None), (1, None, None)]

    def test_on_a_simulated_session(self):
        result = _session("dashjs")
        assert result.selected_combinations() == _reference_combinations(result)


# -- buffer columns --------------------------------------------------------------

_level = st.one_of(
    st.floats(min_value=-5.0, max_value=60.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, -1e-9, -2e-9, 1e-12]),
)


@st.composite
def _columns(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    steps = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=10.0)),
            min_size=n,
            max_size=n,
        )
    )
    t, now = [], draw(st.floats(min_value=0.0, max_value=100.0))
    for step in steps:
        now += step
        t.append(now)
    video = draw(st.lists(_level, min_size=n, max_size=n))
    audio = draw(st.lists(_level, min_size=n, max_size=n))
    return t, video, audio


def _result_from(columns):
    result = SessionResult(60.0, 2.0, 30)
    result.extend_buffer_samples(*columns)
    return result


class TestBufferColumns:
    @settings(max_examples=400, deadline=None)
    @given(_columns())
    def test_metrics_and_witness_match_the_records(self, columns):
        result = _result_from(columns)
        max_s = result.max_buffer_imbalance_s()
        mean_s = result.mean_buffer_imbalance_s()
        witness = _witness(result)
        assert "buffer_timeline" not in vars(result)  # nothing materialised
        timeline = [BufferSample(*row) for row in zip(*columns)]
        assert _same_float(max_s, _reference_max_imbalance(timeline))
        assert _same_float(mean_s, _reference_mean_imbalance(timeline))
        assert witness == _reference_witness(timeline)
        # The same numbers once the records exist.
        assert result.buffer_timeline == timeline
        assert _same_float(result.max_buffer_imbalance_s(), max_s)
        assert _same_float(result.mean_buffer_imbalance_s(), mean_s)
        assert _witness(result) == witness

    def test_to_dict_reads_the_columns(self):
        result = _session()
        data = result.to_dict()
        assert "buffer_timeline" not in vars(result)
        assert data["buffer_timeline"] == [
            {"t": s.t, "video_level_s": s.video_level_s, "audio_level_s": s.audio_level_s}
            for s in result.buffer_timeline
        ]
        assert result.to_dict() == data

    def test_records_appended_after_materialising_are_seen(self):
        result = _session()
        before = result.max_buffer_imbalance_s()
        result.buffer_timeline.append(BufferSample(1.0, -0.5, 30.0 + before))
        assert _witness(result) == "t=1.000: video=-0.500000s audio=%.6fs" % (
            30.0 + before
        )
        assert result.max_buffer_imbalance_s() == 30.5 + before
        assert result.to_dict()["buffer_timeline"][-1]["video_level_s"] == -0.5

    def test_add_and_extend_feed_one_timeline(self):
        result = SessionResult(60.0, 2.0, 30)
        result.extend_buffer_samples([0.0, 1.0], [2.0, 3.0], [1.0, 1.0])
        result.add_buffer_sample(BufferSample(2.0, 4.0, 1.0))
        result.extend_buffer_samples([3.0], [5.0], [1.0])
        assert result.buffer_timeline == [
            BufferSample(0.0, 2.0, 1.0),
            BufferSample(1.0, 3.0, 1.0),
            BufferSample(2.0, 4.0, 1.0),
            BufferSample(3.0, 5.0, 1.0),
        ]
        assert result.buffer_columns() == (
            [0.0, 1.0, 2.0, 3.0],
            [2.0, 3.0, 4.0, 5.0],
            [1.0, 1.0, 1.0, 1.0],
        )

    def test_timeline_is_built_once(self):
        result = _session()
        assert result.buffer_timeline is result.buffer_timeline

    def test_unknown_attributes_still_raise(self):
        result = SessionResult(60.0, 2.0, 30)
        with pytest.raises(AttributeError, match="no_such_field"):
            result.no_such_field  # noqa: B018
        assert not hasattr(SessionResult.__new__(SessionResult), "buffer_timeline")


# -- parent-layout pickles -----------------------------------------------------


def _parent_layout_payload(result):
    """Pickle bytes of ``result`` as the record-list layout wrote them:
    ``buffer_timeline`` a plain attribute, no columns."""
    t, video, audio = result.buffer_columns()
    state = {k: v for k, v in vars(result).items() if not k.startswith("_buffer_")}
    state["buffer_timeline"] = list(map(BufferSample, t, video, audio))
    old = SessionResult.__new__(SessionResult)
    old.__dict__.update(state)
    payload = pickle.dumps(old, protocol=pickle.HIGHEST_PROTOCOL)
    assert b"_buffer_t" not in payload and b"buffer_timeline" in payload
    return payload


def _reads(result):
    return (
        result.buffer_timeline,
        result.to_dict(),
        result.max_buffer_imbalance_s(),
        result.mean_buffer_imbalance_s(),
        check_session(result),
        result.summary(),
    )


class TestParentLayoutCacheEntries:
    @pytest.mark.parametrize("negative", [False, True])
    def test_entry_loads_and_reads_identically(self, tmp_path, negative):
        fresh = _session("exoplayer-hls")
        if negative:
            fresh.add_buffer_sample(BufferSample(0.5, -1.0, 2.0))
        key = "ab" + "0" * 62
        path = tmp_path / key[:2] / f"{key}.pkl"
        path.parent.mkdir(parents=True)
        path.write_bytes(frame_payload(_parent_layout_payload(fresh)))

        cache = ResultCache(str(tmp_path))
        loaded = cache.get(key)
        assert isinstance(loaded, SessionResult)
        assert cache.stats.hits == 1 and cache.stats.evictions == 0
        assert _reads(loaded) == _reads(fresh)
        assert bool(check_session(loaded)) is negative

    def test_new_layout_round_trips_unmaterialised(self, tmp_path):
        fresh = _session()
        cache = ResultCache(str(tmp_path))
        cache.put("cd" + "1" * 62, fresh)
        loaded = cache.get("cd" + "1" * 62)
        assert "buffer_timeline" not in vars(loaded)
        assert _reads(loaded) == _reads(fresh)


# -- slot-store records --------------------------------------------------------

HOT_RECORDS = {
    ProgressSegment: (
        ("start_s", "end_s", "bits"),
        dict(start_s=1.0, end_s=2.5, bits=4000.0),
    ),
    BufferSample: (
        ("t", "video_level_s", "audio_level_s"),
        dict(t=3.0, video_level_s=12.0, audio_level_s=9.5),
    ),
    DownloadRecord: (
        (
            "medium",
            "track_id",
            "chunk_index",
            "size_bits",
            "started_at",
            "completed_at",
            "segments",
            "resumed_bits",
        ),
        dict(
            medium=MediaType.VIDEO,
            track_id="V3",
            chunk_index=4,
            size_bits=8e6,
            started_at=10.0,
            completed_at=13.0,
            segments=(ProgressSegment(10.0, 13.0, 8e6),),
            resumed_bits=0.0,
        ),
    ),
    EstimateSample: (("t", "kbps"), dict(t=5.0, kbps=1234.5)),
    FailureRecord: (
        (
            "medium",
            "track_id",
            "chunk_index",
            "failed_at",
            "bits_done",
            "kind",
            "attempt",
            "resumable",
            "retry_at",
        ),
        dict(
            medium=MediaType.AUDIO,
            track_id="A2",
            chunk_index=7,
            failed_at=20.0,
            bits_done=1e5,
            kind="timeout",
            attempt=2,
            resumable=True,
            retry_at=21.5,
        ),
    ),
}


def _generated_signature(cls):
    """The ``__init__`` signature ``@dataclass`` generates for ``cls``."""
    reference = dataclasses.make_dataclass(
        cls.__name__,
        [
            (f.name, f.type, dataclasses.field(default=f.default))
            if f.default is not dataclasses.MISSING
            else (f.name, f.type)
            for f in dataclasses.fields(cls)
        ],
        frozen=True,
        slots=True,
    )
    return [
        (p.name, p.kind, p.default)
        for p in inspect.signature(reference.__init__).parameters.values()
    ]


@pytest.mark.parametrize("cls", list(HOT_RECORDS), ids=lambda c: c.__name__)
class TestSlotStoreRecords:
    def test_fields_unchanged(self, cls):
        names, _ = HOT_RECORDS[cls]
        assert tuple(f.name for f in dataclasses.fields(cls)) == names
        assert dataclasses.is_dataclass(cls)
        assert cls.__dataclass_params__.frozen
        assert cls.__slots__ == names

    def test_same_parameters_defaults_and_keywords(self, cls):
        own = [
            (p.name, p.kind, p.default)
            for p in inspect.signature(cls.__init__).parameters.values()
        ]
        assert own == _generated_signature(cls)
        assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"

    def test_keyword_positional_and_default_construction(self, cls):
        _, kwargs = HOT_RECORDS[cls]
        by_keyword = cls(**kwargs)
        by_position = cls(*kwargs.values())
        assert by_keyword == by_position
        for name, value in kwargs.items():
            assert getattr(by_keyword, name) is value
        required = {
            f.name: kwargs[f.name]
            for f in dataclasses.fields(cls)
            if f.default is dataclasses.MISSING
        }
        bare = cls(**required)
        for f in dataclasses.fields(cls):
            if f.default is not dataclasses.MISSING:
                assert getattr(bare, f.name) == f.default
        with pytest.raises(TypeError):
            cls(**kwargs, unexpected=1)
        with pytest.raises(TypeError):
            cls()

    def test_frozen(self, cls):
        record = cls(**HOT_RECORDS[cls][1])
        first = dataclasses.fields(cls)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, first, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, first)
        with pytest.raises((AttributeError, TypeError)):
            record.extra = 1

    def test_eq_hash_replace_asdict_pickle(self, cls):
        _, kwargs = HOT_RECORDS[cls]
        record = cls(**kwargs)
        twin = cls(**kwargs)
        assert record == twin and hash(record) == hash(twin)
        last = dataclasses.fields(cls)[-1].name
        changed = dataclasses.replace(record, **{last: None})
        assert getattr(changed, last) is None and changed != record
        assert dataclasses.asdict(record) == dataclasses.asdict(twin)
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            restored = pickle.loads(pickle.dumps(record, protocol=protocol))
            assert restored == record and hash(restored) == hash(record)


# -- master-only HLS build -----------------------------------------------------


def _package_kwargs(spec):
    kwargs = {}
    if spec.combinations == "hsub":
        kwargs["combinations"] = hsub_combinations(CONTENT)
    if spec.audio_order and spec.name == "exoplayer-hls":
        kwargs["audio_order"] = list(spec.audio_order)
    return kwargs


class TestMasterOnlyBuild:
    @pytest.mark.parametrize("name", PLAYER_NAMES)
    @pytest.mark.parametrize("combinations", ["hsub", "all"])
    @pytest.mark.parametrize("audio_order", [None, ("A3", "A2", "A1")])
    def test_master_equals_the_packaged_one(
        self, monkeypatch, name, combinations, audio_order
    ):
        built = []
        media_playlists = []
        real_master = packager._hls_master
        real_media = packager._media_playlist_for

        def spy_master(*args, **kwargs):
            built.append(real_master(*args, **kwargs))
            return built[-1]

        def spy_media(*args, **kwargs):
            media_playlists.append(args[1].track_id)
            return real_media(*args, **kwargs)

        monkeypatch.setattr(packager, "_hls_master", spy_master)
        monkeypatch.setattr(packager, "_media_playlist_for", spy_media)
        spec = PlayerSpec(name, combinations=combinations, audio_order=audio_order)
        spec.build(CONTENT)
        assert media_playlists == []
        if name not in ("exoplayer-hls", "shaka"):
            assert built == []
            return
        assert len(built) == 1
        package = package_hls(CONTENT, **_package_kwargs(spec))
        assert built[0] == package.master
        assert len(media_playlists) == len(package.media_playlists) > 0

    @pytest.mark.parametrize("combinations", ["hsub", "all"])
    def test_missing_audio_error_is_kept(self, combinations):
        spec = PlayerSpec("exoplayer-hls", combinations, audio_order=("A3",))
        with pytest.raises(ManifestError, match="audio_order omits") as built:
            spec.build(CONTENT)
        combos = (
            hsub_combinations(CONTENT)
            if combinations == "hsub"
            else all_combinations(CONTENT)
        )
        with pytest.raises(ManifestError) as packaged:
            package_hls(CONTENT, combinations=combos, audio_order=["A3"])
        assert str(built.value) == str(packaged.value)


# -- allocation counts ---------------------------------------------------------


class _Counter:
    def __init__(self):
        self.calls = 0


def _count_calls(monkeypatch, owner, name):
    counter = _Counter()
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        counter.calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return counter


class TestAllocationCounts:
    def test_no_buffer_sample_until_the_timeline_is_read(self, monkeypatch):
        samples = _count_calls(monkeypatch, BufferSample, "__init__")
        lookups = _count_calls(monkeypatch, SessionResult, "track_for")
        for name in PLAYER_NAMES:
            result = _session(name)
            report = compute_qoe(result, CONTENT)
            assert report.chunks_scored > 0
            assert check_session(result) == []
            result.summary()
            assert samples.calls == 0
            assert lookups.calls == 0
            n = len(result.buffer_columns()[0])
            assert n > 0
            assert len(result.buffer_timeline) == n
            assert samples.calls == n
            result.buffer_timeline
            check_session(result)
            assert samples.calls == n
            samples.calls = 0

    def test_hls_builds_package_no_media_playlist(self, monkeypatch):
        media = _count_calls(monkeypatch, packager, "_media_playlist_for")
        for name in ("exoplayer-hls", "shaka"):
            for combinations in ("hsub", "all"):
                PlayerSpec(name, combinations).build(CONTENT)
        assert media.calls == 0
        package_hls(CONTENT)
        assert media.calls == 9  # what every HLS build used to package
