"""Property-based manifest round-trips over random ladders.

For any synthesizable ladder, packaging then serializing then parsing
must preserve every fact a player consumes: bandwidths, track
identities, combination structure, byte ranges, languages.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.manifest.dash import parse_mpd, write_mpd
from repro.manifest.hls import (
    parse_master_playlist,
    parse_media_playlist,
    write_master_playlist,
    write_media_playlist,
)
from repro.manifest.packager import package_dash, package_hls
from repro.media.content import drama_show, synthetic_content


@st.composite
def ladder_content(draw):
    n_video = draw(st.integers(min_value=1, max_value=5))
    n_audio = draw(st.integers(min_value=1, max_value=3))
    video = draw(
        st.lists(
            st.integers(min_value=80, max_value=6000),
            min_size=n_video,
            max_size=n_video,
            unique=True,
        )
    )
    audio = draw(
        st.lists(
            st.integers(min_value=24, max_value=800),
            min_size=n_audio,
            max_size=n_audio,
            unique=True,
        )
    )
    n_chunks = draw(st.integers(min_value=2, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return synthetic_content("fuzz", video, audio, n_chunks=n_chunks, seed=seed)


class TestDashRoundTripProperties:
    @settings(max_examples=30, deadline=None)
    @given(content=ladder_content())
    def test_mpd_roundtrip_preserves_semantics(self, content):
        manifest = package_dash(content)
        parsed = parse_mpd(write_mpd(manifest))
        assert parsed.duration_s == pytest.approx(manifest.duration_s)
        for original_set, parsed_set in zip(
            manifest.adaptation_sets, parsed.adaptation_sets
        ):
            assert parsed_set.content_type == original_set.content_type
            assert parsed_set.representations == original_set.representations
            assert parsed_set.segment_template == original_set.segment_template

    @settings(max_examples=20, deadline=None)
    @given(content=ladder_content())
    def test_declared_bandwidths_match_tracks(self, content):
        parsed = parse_mpd(write_mpd(package_dash(content)))
        for rep in parsed.video.representations:
            track = content.video.by_id(rep.rep_id)
            assert rep.bandwidth_kbps == pytest.approx(track.declared_kbps, abs=0.001)


class TestHlsRoundTripProperties:
    @settings(max_examples=30, deadline=None)
    @given(content=ladder_content())
    def test_master_roundtrip_preserves_variants(self, content):
        package = package_hls(content)
        parsed = parse_master_playlist(write_master_playlist(package.master))
        assert len(parsed.variants) == len(content.video) * len(content.audio)
        for original, reparsed in zip(package.master.variants, parsed.variants):
            assert reparsed.bandwidth_bps == original.bandwidth_bps
            assert reparsed.average_bandwidth_bps == original.average_bandwidth_bps
            assert reparsed.video_id == original.video_id
            assert reparsed.audio_id == original.audio_id

    @settings(max_examples=20, deadline=None)
    @given(content=ladder_content())
    def test_variant_bandwidth_is_peak_sum(self, content):
        package = package_hls(content)
        for variant in package.master.variants:
            video = content.video.by_id(variant.video_id)
            audio = content.audio.by_id(variant.audio_id)
            assert variant.bandwidth_bps == int(
                round((video.peak_kbps + audio.peak_kbps) * 1000)
            )

    @settings(max_examples=20, deadline=None)
    @given(content=ladder_content())
    def test_media_playlists_reconstruct_chunk_bitrates(self, content):
        package = package_hls(content)  # byte-range packaging
        for track_id in content.chunk_table.track_ids:
            playlist = package.media_playlist(track_id)
            reparsed = parse_media_playlist(
                write_media_playlist(playlist), track_id=track_id
            )
            derived = reparsed.derived_bitrates_kbps()
            assert derived is not None
            for index, kbps in enumerate(derived):
                true_kbps = content.chunk(track_id, index).bitrate_kbps
                # Byte ranges are integer-rounded: ~1 byte/chunk error.
                assert kbps == pytest.approx(true_kbps, rel=0.01)

    @settings(max_examples=20, deadline=None)
    @given(content=ladder_content())
    def test_derived_track_stats_match_ladder(self, content):
        package = package_hls(content)
        derived = package.derived_track_bitrates()
        for track in list(content.video) + list(content.audio):
            avg, peak = derived[track.track_id]
            assert avg == pytest.approx(track.avg_kbps, rel=0.02)
            assert peak == pytest.approx(track.peak_kbps, rel=0.02)


def _packaged_documents():
    content = drama_show()
    byte_ranges = package_hls(content)
    per_chunk = package_hls(content, single_file=False, include_bitrate_tag=True)
    return [
        (parse_mpd, write_mpd(package_dash(content))),
        (parse_master_playlist, write_master_playlist(byte_ranges.master)),
        (parse_media_playlist, write_media_playlist(byte_ranges.media_playlist("V2"))),
        (parse_media_playlist, write_media_playlist(per_chunk.media_playlist("A3"))),
    ]


_DOCUMENTS = _packaged_documents()
_NUMBERS = re.compile(r"\d+(?:\.\d+)?")


class TestHostileNumericFields:
    """Mutating any number of a packaged manifest either still parses or
    is rejected with a :class:`ReproError`; nothing else escapes."""

    @settings(max_examples=400, deadline=None)
    @given(
        st.sampled_from(_DOCUMENTS),
        st.data(),
        st.text(alphabet="0123456789.-+eEx@,: ab\"_", max_size=8),
    )
    def test_every_rejection_is_a_repro_error(self, document, data, replacement):
        parse, text = document
        spans = [m.span() for m in _NUMBERS.finditer(text)]
        start, end = data.draw(st.sampled_from(spans))
        try:
            parse(text[:start] + replacement + text[end:])
        except ReproError:
            pass
