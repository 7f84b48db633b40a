"""HLS master/media playlist model, writer and parser."""

import re

import pytest

from repro.errors import ManifestError, ManifestParseError
from repro.manifest.hls import (
    HlsMasterPlaylist,
    HlsMediaPlaylist,
    HlsRendition,
    HlsSegment,
    HlsVariant,
    _parse_attributes,
    parse_master_playlist,
    parse_media_playlist,
    write_master_playlist,
    write_media_playlist,
)


class TestAttributeParser:
    def test_simple(self):
        assert _parse_attributes("BANDWIDTH=253000") == {"BANDWIDTH": "253000"}

    def test_quoted_value_with_comma(self):
        attrs = _parse_attributes('CODECS="avc1.640028,mp4a.40.2",BANDWIDTH=100')
        assert attrs["CODECS"] == "avc1.640028,mp4a.40.2"
        assert attrs["BANDWIDTH"] == "100"

    def test_multiple(self):
        attrs = _parse_attributes('TYPE=AUDIO,GROUP-ID="audio",NAME="A1"')
        assert attrs == {"TYPE": "AUDIO", "GROUP-ID": "audio", "NAME": "A1"}

    def test_unterminated_quote(self):
        with pytest.raises(ManifestParseError):
            _parse_attributes('NAME="oops')

    def test_key_without_value(self):
        with pytest.raises(ManifestParseError):
            _parse_attributes("KEYONLY,X=1")


class TestModelValidation:
    def test_variant_positive_bandwidth(self):
        with pytest.raises(ManifestError):
            HlsVariant(bandwidth_bps=0, uri="v.m3u8")

    def test_variant_needs_uri(self):
        with pytest.raises(ManifestError):
            HlsVariant(bandwidth_bps=1000, uri="")

    def test_rendition_fields(self):
        with pytest.raises(ManifestError):
            HlsRendition(group_id="", name="A1", uri="a.m3u8")

    def test_master_needs_variants(self):
        with pytest.raises(ManifestError):
            HlsMasterPlaylist(variants=())

    def test_segment_positive_duration(self):
        with pytest.raises(ManifestError):
            HlsSegment(duration_s=0, uri="x.mp4")

    def test_media_playlist_needs_segments(self):
        with pytest.raises(ManifestError):
            HlsMediaPlaylist(track_id="V1", segments=())


class TestMasterPlaylist:
    def test_bandwidth_semantics(self, hls_all, hall_combos):
        # BANDWIDTH must be the aggregate *peak* of the combination.
        by_name = {v.name: v for v in hls_all.master.variants}
        for combo in hall_combos:
            variant = by_name[combo.name]
            assert variant.bandwidth_bps == int(round(combo.peak_kbps * 1000))
            assert variant.average_bandwidth_bps == int(round(combo.avg_kbps * 1000))

    def test_hall_lists_18_variants(self, hls_all):
        assert len(hls_all.master.variants) == 18

    def test_hsub_lists_6_variants(self, hls_sub):
        assert len(hls_sub.master.variants) == 6

    def test_audio_renditions_in_ladder_order_by_default(self, hls_all):
        assert [r.name for r in hls_all.master.renditions] == ["A1", "A2", "A3"]

    def test_first_variant_bandwidth_overestimates(self, hls_sub, content):
        # ExoPlayer's HLS video pricing: V3's first variant is V3+A2.
        assert hls_sub.master.first_variant_bandwidth("V3") == 840_000
        assert 840 > content.video.by_id("V3").peak_kbps

    def test_first_variant_bandwidth_missing_video(self, hls_sub):
        with pytest.raises(ManifestError):
            hls_sub.master.first_variant_bandwidth("V9")

    def test_combination_names(self, hls_sub):
        assert set(hls_sub.master.combination_names) == {
            "V1+A1",
            "V2+A1",
            "V3+A2",
            "V4+A2",
            "V5+A3",
            "V6+A3",
        }

    def test_audio_group_ids(self, hls_all):
        assert hls_all.master.audio_group_ids == ("audio",)
        assert len(hls_all.master.audio_renditions("audio")) == 3


class TestMasterRoundTrip:
    def test_roundtrip(self, hls_all):
        text = write_master_playlist(hls_all.master)
        parsed = parse_master_playlist(text)
        assert len(parsed.variants) == len(hls_all.master.variants)
        for original, reparsed in zip(hls_all.master.variants, parsed.variants):
            assert reparsed.bandwidth_bps == original.bandwidth_bps
            assert reparsed.average_bandwidth_bps == original.average_bandwidth_bps
            assert reparsed.video_id == original.video_id
            assert reparsed.audio_id == original.audio_id
            assert reparsed.audio_group == original.audio_group
        assert [r.name for r in parsed.renditions] == [
            r.name for r in hls_all.master.renditions
        ]

    def test_written_text_structure(self, hls_sub):
        text = write_master_playlist(hls_sub.master)
        assert text.startswith("#EXTM3U")
        assert text.count("#EXT-X-STREAM-INF:") == 6
        assert text.count("#EXT-X-MEDIA:") == 3
        assert 'TYPE=AUDIO,GROUP-ID="audio"' in text

    def test_first_rendition_is_default(self, hls_sub):
        text = write_master_playlist(hls_sub.master)
        first_media_line = next(
            line for line in text.splitlines() if line.startswith("#EXT-X-MEDIA")
        )
        assert "DEFAULT=YES" in first_media_line


class TestMasterParserErrors:
    def test_missing_header(self):
        with pytest.raises(ManifestParseError):
            parse_master_playlist("#EXT-X-VERSION:6\n")

    def test_uri_without_stream_inf(self):
        with pytest.raises(ManifestParseError):
            parse_master_playlist("#EXTM3U\nvariant.m3u8\n")

    def test_stream_inf_without_uri(self):
        with pytest.raises(ManifestParseError):
            parse_master_playlist("#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH=100\n")

    def test_stream_inf_without_bandwidth(self):
        with pytest.raises(ManifestParseError):
            parse_master_playlist(
                "#EXTM3U\n#EXT-X-STREAM-INF:CODECS=\"x\"\nv.m3u8\n"
            )

    def test_bad_resolution(self):
        with pytest.raises(ManifestParseError):
            parse_master_playlist(
                "#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH=1,RESOLUTION=wide\nv.m3u8\n"
            )


class TestMediaPlaylist:
    def test_byterange_roundtrip(self, hls_all):
        playlist = hls_all.media_playlist("V1")
        text = write_media_playlist(playlist)
        parsed = parse_media_playlist(text, track_id="V1")
        assert parsed.track_id == "V1"
        assert len(parsed.segments) == len(playlist.segments)
        for original, reparsed in zip(playlist.segments, parsed.segments):
            assert reparsed.byterange == original.byterange
            assert reparsed.duration_s == pytest.approx(original.duration_s)

    def test_target_duration_is_ceiling(self, hls_all):
        playlist = hls_all.media_playlist("V1")
        assert playlist.target_duration_s == 5

    def test_total_duration(self, hls_all, content):
        playlist = hls_all.media_playlist("A1")
        assert playlist.total_duration_s == pytest.approx(content.duration_s)

    def test_endlist_written(self, hls_all):
        text = write_media_playlist(hls_all.media_playlist("A1"))
        assert text.rstrip().endswith("#EXT-X-ENDLIST")

    def test_implicit_byterange_offset(self):
        text = (
            "#EXTM3U\n#EXT-X-TARGETDURATION:5\n"
            "#EXTINF:5.0,\n#EXT-X-BYTERANGE:100@0\nf.mp4\n"
            "#EXTINF:5.0,\n#EXT-X-BYTERANGE:50\nf.mp4\n"
            "#EXT-X-ENDLIST\n"
        )
        parsed = parse_media_playlist(text, track_id="T")
        assert parsed.segments[1].byterange == (50, 100)

    def test_uri_without_extinf_rejected(self):
        with pytest.raises(ManifestParseError):
            parse_media_playlist("#EXTM3U\nchunk.mp4\n")

    def test_empty_playlist_rejected(self):
        with pytest.raises(ManifestParseError):
            parse_media_playlist("#EXTM3U\n#EXT-X-ENDLIST\n")


class TestBitrateDerivation:
    def test_from_byteranges(self, hls_all, content):
        # Section 4.1 case (i): byte ranges give per-chunk bitrates.
        playlist = hls_all.media_playlist("V3")
        rates = playlist.derived_bitrates_kbps()
        assert rates is not None
        track = content.video.by_id("V3")
        assert playlist.derived_avg_kbps() == pytest.approx(track.avg_kbps, rel=0.01)
        assert playlist.derived_peak_kbps() == pytest.approx(track.peak_kbps, rel=0.01)

    def test_from_bitrate_tags(self, content):
        # Section 4.1 case (ii): EXT-X-BITRATE in chunk-per-file mode.
        from repro.manifest.packager import package_hls

        package = package_hls(content, single_file=False, include_bitrate_tag=True)
        playlist = package.media_playlist("A3")
        rates = playlist.derived_bitrates_kbps()
        assert rates is not None
        assert playlist.derived_avg_kbps() == pytest.approx(384, rel=0.01)

    def test_unavailable_without_either(self, content):
        # The gap the paper's recommendation closes: chunk-per-file with
        # no EXT-X-BITRATE leaves the client blind.
        from repro.manifest.packager import package_hls

        package = package_hls(content, single_file=False, include_bitrate_tag=False)
        playlist = package.media_playlist("A3")
        assert playlist.derived_bitrates_kbps() is None
        assert playlist.derived_avg_kbps() is None
        assert playlist.derived_peak_kbps() is None

    def test_bitrate_tag_roundtrip(self, content):
        from repro.manifest.packager import package_hls

        package = package_hls(content, single_file=False, include_bitrate_tag=True)
        playlist = package.media_playlist("V2")
        parsed = parse_media_playlist(write_media_playlist(playlist), track_id="V2")
        assert parsed.derived_bitrates_kbps() is not None


def _spoil(text, pattern, bad):
    """Replace the first match of ``pattern``'s group 1 with ``bad``;
    returns the text and the 1-based line it sits on."""
    match = re.search(pattern, text, flags=re.MULTILINE)
    assert match is not None, pattern
    start, end = match.span(1)
    return text[:start] + bad + text[end:], text.count("\n", 0, start) + 1


class TestNumericValueErrors:
    """Every numeric tag value and attribute rejects a non-number with a
    ManifestParseError naming it and its line, never a bare ValueError."""

    @pytest.mark.parametrize(
        "name,pattern",
        [
            ("EXT-X-VERSION", r"^#EXT-X-VERSION:(\d+)"),
            ("BANDWIDTH", r"[:,]BANDWIDTH=(\d+)"),
            ("AVERAGE-BANDWIDTH", r"AVERAGE-BANDWIDTH=(\d+)"),
            ("CHANNELS", r'CHANNELS="(\d+)"'),
        ],
    )
    def test_master_playlist(self, hls_all, name, pattern):
        text, line_no = _spoil(write_master_playlist(hls_all.master), pattern, "abc")
        with pytest.raises(ManifestParseError) as exc:
            parse_master_playlist(text)
        assert str(exc.value) == f"line {line_no}: {name} value 'abc' is not a valid number"

    @pytest.mark.parametrize(
        "name,pattern,bad",
        [
            ("EXT-X-VERSION", r"^#EXT-X-VERSION:(\d+)", "x"),
            ("EXTINF", r"^#EXTINF:([\d.]+),", "x"),
            ("EXT-X-BYTERANGE", r"^#EXT-X-BYTERANGE:(\d+@\d+)", "x@y"),
            ("EXT-X-BYTERANGE", r"^#EXT-X-BYTERANGE:\d+@(\d+)", "y"),
            ("EXT-X-BYTERANGE", r"^#EXT-X-BYTERANGE:(\d+@\d+)", "x"),
        ],
    )
    def test_media_playlist(self, hls_all, name, pattern, bad):
        text, line_no = _spoil(
            write_media_playlist(hls_all.media_playlist("V1")), pattern, bad
        )
        with pytest.raises(ManifestParseError) as exc:
            parse_media_playlist(text)
        shown = bad.split("@")[0]
        assert str(exc.value) == f"line {line_no}: {name} value {shown!r} is not a valid number"

    def test_media_playlist_bitrate_tag(self, content):
        from repro.manifest.packager import package_hls

        package = package_hls(content, single_file=False, include_bitrate_tag=True)
        text, line_no = _spoil(
            write_media_playlist(package.media_playlist("A1")),
            r"^#EXT-X-BITRATE:(\d+)",
            "fast",
        )
        with pytest.raises(ManifestParseError) as exc:
            parse_media_playlist(text)
        assert str(exc.value) == (
            f"line {line_no}: EXT-X-BITRATE value 'fast' is not a valid number"
        )

    def test_line_numbers_count_blank_lines(self):
        text = "#EXTM3U\n\n#EXTINF:5,\nf.mp4\n\n#EXTINF:soon,\nf.mp4\n"
        with pytest.raises(ManifestParseError, match="^line 6: EXTINF"):
            parse_media_playlist(text)
