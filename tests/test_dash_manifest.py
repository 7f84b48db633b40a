"""DASH MPD model, writer and parser."""

import re

import pytest

from repro.errors import ManifestError, ManifestParseError
from repro.manifest.dash import (
    DashAdaptationSet,
    DashManifest,
    DashRepresentation,
    DashSegmentTemplate,
    _format_duration,
    _parse_duration,
    build_dash_manifest,
    parse_mpd,
    write_mpd,
)
from repro.manifest.packager import package_dash


class TestDurationFormat:
    @pytest.mark.parametrize(
        "seconds,text",
        [
            (300.0, "PT5M0.000S"),
            (0.5, "PT0.500S"),
            (3725.25, "PT1H2M5.250S"),
            (59.999, "PT59.999S"),
        ],
    )
    def test_format(self, seconds, text):
        assert _format_duration(seconds) == text

    @pytest.mark.parametrize("seconds", [300.0, 0.5, 3725.25, 0.0, 86399.123])
    def test_roundtrip(self, seconds):
        assert _parse_duration(_format_duration(seconds)) == pytest.approx(seconds)

    def test_parse_rejects_non_pt(self):
        with pytest.raises(ManifestParseError):
            _parse_duration("5M")

    def test_parse_rejects_trailing_number(self):
        with pytest.raises(ManifestParseError):
            _parse_duration("PT5M3")

    def test_parse_rejects_bad_component(self):
        with pytest.raises(ManifestParseError):
            _parse_duration("PT5X")

    def test_format_rejects_negative(self):
        with pytest.raises(ManifestError):
            _format_duration(-1)


class TestModelValidation:
    def test_representation_requires_positive_bandwidth(self):
        with pytest.raises(ManifestError):
            DashRepresentation(rep_id="V1", bandwidth_bps=0)

    def test_representation_requires_id(self):
        with pytest.raises(ManifestError):
            DashRepresentation(rep_id="", bandwidth_bps=1000)

    def test_adaptation_set_content_type(self):
        rep = DashRepresentation(rep_id="V1", bandwidth_bps=1000)
        with pytest.raises(ManifestError):
            DashAdaptationSet(content_type="subtitles", representations=(rep,))

    def test_adaptation_set_needs_representations(self):
        with pytest.raises(ManifestError):
            DashAdaptationSet(content_type="video", representations=())

    def test_adaptation_set_duplicate_ids(self):
        rep = DashRepresentation(rep_id="V1", bandwidth_bps=1000)
        with pytest.raises(ManifestError):
            DashAdaptationSet(content_type="video", representations=(rep, rep))

    def test_manifest_duration_positive(self):
        rep = DashRepresentation(rep_id="V1", bandwidth_bps=1000)
        aset = DashAdaptationSet(content_type="video", representations=(rep,))
        with pytest.raises(ManifestError):
            DashManifest(duration_s=0, adaptation_sets=(aset,))

    def test_manifest_duplicate_sets(self):
        rep = DashRepresentation(rep_id="V1", bandwidth_bps=1000)
        aset = DashAdaptationSet(content_type="video", representations=(rep,))
        with pytest.raises(ManifestError):
            DashManifest(duration_s=10, adaptation_sets=(aset, aset))

    def test_missing_adaptation_set_lookup(self, dash_manifest):
        with pytest.raises(ManifestError):
            dash_manifest.adaptation_set("subtitles")


class TestBuildFromContent:
    def test_declared_bitrates(self, content, dash_manifest):
        # The MPD bandwidth attribute carries the *declared* bitrate.
        by_id = {r.rep_id: r for r in dash_manifest.video.representations}
        assert by_id["V3"].bandwidth_bps == 473_000
        assert by_id["V6"].bandwidth_bps == 3_746_000

    def test_audio_channels(self, dash_manifest):
        by_id = {r.rep_id: r for r in dash_manifest.audio.representations}
        assert by_id["A1"].audio_channels == 2
        assert by_id["A3"].audio_channels == 6

    def test_duration(self, content, dash_manifest):
        assert dash_manifest.duration_s == content.duration_s

    def test_no_allowed_combinations_by_default(self, dash_manifest):
        # Standard DASH: no combination restriction (the paper's critique).
        assert dash_manifest.allowed_combinations is None

    def test_allowed_combinations_extension(self, content, hsub_combos):
        manifest = package_dash(content, allowed_combinations=hsub_combos)
        assert manifest.allowed_combinations == (
            ("V1", "A1"),
            ("V2", "A1"),
            ("V3", "A2"),
            ("V4", "A2"),
            ("V5", "A3"),
            ("V6", "A3"),
        )


class TestRoundTrip:
    def test_roundtrip_preserves_everything(self, dash_manifest):
        parsed = parse_mpd(write_mpd(dash_manifest))
        assert parsed.duration_s == pytest.approx(dash_manifest.duration_s)
        assert len(parsed.adaptation_sets) == 2
        for original, reparsed in zip(
            dash_manifest.video.representations, parsed.video.representations
        ):
            assert original == reparsed
        for original, reparsed in zip(
            dash_manifest.audio.representations, parsed.audio.representations
        ):
            assert original == reparsed

    def test_roundtrip_with_extension(self, content, hsub_combos):
        manifest = package_dash(content, allowed_combinations=hsub_combos)
        parsed = parse_mpd(write_mpd(manifest))
        assert parsed.allowed_combinations == manifest.allowed_combinations

    def test_xml_declares_namespace(self, dash_manifest):
        text = write_mpd(dash_manifest)
        assert 'xmlns="urn:mpeg:dash:schema:mpd:2011"' in text
        assert text.startswith("<?xml")


class TestSegmentTemplate:
    def test_defaults_valid(self):
        template = DashSegmentTemplate()
        assert template.segment_duration_s == 5.0

    def test_media_url_expansion(self):
        template = DashSegmentTemplate(start_number=1)
        assert template.media_url("V3", 0) == "V3_1.m4s"
        assert template.media_url("V3", 7) == "V3_8.m4s"

    def test_init_url(self):
        assert DashSegmentTemplate().init_url("A2") == "A2_init.mp4"

    def test_negative_index_rejected(self):
        with pytest.raises(ManifestError):
            DashSegmentTemplate().media_url("V1", -1)

    def test_validation(self):
        with pytest.raises(ManifestError):
            DashSegmentTemplate(duration=0)
        with pytest.raises(ManifestError):
            DashSegmentTemplate(media="no_number.m4s")
        with pytest.raises(ManifestError):
            DashSegmentTemplate(start_number=-1)

    def test_built_manifest_carries_template(self, content, dash_manifest):
        template = dash_manifest.video.segment_template
        assert template is not None
        assert template.segment_duration_s == content.chunk_duration_s

    def test_template_roundtrips_through_xml(self, dash_manifest):
        parsed = parse_mpd(write_mpd(dash_manifest))
        assert parsed.video.segment_template == dash_manifest.video.segment_template
        assert parsed.audio.segment_template == dash_manifest.audio.segment_template

    def test_bad_template_in_xml_rejected(self):
        text = (
            '<MPD xmlns="urn:mpeg:dash:schema:mpd:2011" '
            'mediaPresentationDuration="PT10.000S"><Period>'
            '<AdaptationSet contentType="video">'
            '<SegmentTemplate media="x_$Number$.m4s" duration="abc"/>'
            '<Representation id="V1" bandwidth="1000"/>'
            "</AdaptationSet></Period></MPD>"
        )
        with pytest.raises(ManifestParseError):
            parse_mpd(text)


class TestParserErrors:
    def test_invalid_xml(self):
        with pytest.raises(ManifestParseError):
            parse_mpd("<not-closed")

    def test_wrong_root(self):
        with pytest.raises(ManifestParseError):
            parse_mpd("<foo/>")

    def test_missing_duration(self):
        text = '<MPD xmlns="urn:mpeg:dash:schema:mpd:2011"><Period/></MPD>'
        with pytest.raises(ManifestParseError):
            parse_mpd(text)

    def test_missing_period(self):
        text = (
            '<MPD xmlns="urn:mpeg:dash:schema:mpd:2011" '
            'mediaPresentationDuration="PT10.000S"/>'
        )
        with pytest.raises(ManifestParseError):
            parse_mpd(text)

    def test_representation_without_bandwidth(self):
        text = (
            '<MPD xmlns="urn:mpeg:dash:schema:mpd:2011" '
            'mediaPresentationDuration="PT10.000S"><Period>'
            '<AdaptationSet contentType="video">'
            '<Representation id="V1"/>'
            "</AdaptationSet></Period></MPD>"
        )
        with pytest.raises(ManifestParseError):
            parse_mpd(text)

    def test_content_type_inferred_from_mime(self):
        text = (
            '<MPD xmlns="urn:mpeg:dash:schema:mpd:2011" '
            'mediaPresentationDuration="PT10.000S"><Period>'
            '<AdaptationSet mimeType="video/mp4">'
            '<Representation id="V1" bandwidth="1000"/>'
            "</AdaptationSet></Period></MPD>"
        )
        parsed = parse_mpd(text)
        assert parsed.video.representations[0].rep_id == "V1"

    def test_uninferable_content_type_rejected(self):
        text = (
            '<MPD xmlns="urn:mpeg:dash:schema:mpd:2011" '
            'mediaPresentationDuration="PT10.000S"><Period>'
            "<AdaptationSet>"
            '<Representation id="V1" bandwidth="1000"/>'
            "</AdaptationSet></Period></MPD>"
        )
        with pytest.raises(ManifestParseError):
            parse_mpd(text)


class TestNumericAttributeErrors:
    """Every numeric MPD attribute rejects a non-number with a
    ManifestParseError naming the attribute, never a bare ValueError."""

    @pytest.mark.parametrize(
        "attribute,where",
        [
            ("bandwidth", "Representation 'V1'"),
            ("width", "Representation 'V1'"),
            ("height", "Representation 'V1'"),
            ("audioSamplingRate", "Representation 'A1'"),
            ("duration", "video SegmentTemplate"),
            ("timescale", "video SegmentTemplate"),
            ("startNumber", "video SegmentTemplate"),
            ("value", "AudioChannelConfiguration of Representation 'A1'"),
        ],
    )
    def test_non_number_names_the_attribute(self, dash_manifest, attribute, where):
        text, n = re.subn(
            rf' {attribute}="[^"]*"', f' {attribute}="x"', write_mpd(dash_manifest), 1
        )
        assert n == 1
        with pytest.raises(ManifestParseError) as exc:
            parse_mpd(text)
        assert str(exc.value) == f"{where}: {attribute}='x' is not a valid number"

    @pytest.mark.parametrize("duration", ["PT1.2.3S", "PTS", "PT.M0S"])
    def test_malformed_duration_number(self, dash_manifest, duration):
        text = write_mpd(dash_manifest).replace("PT5M0.000S", duration)
        with pytest.raises(ManifestParseError, match="mediaPresentationDuration"):
            parse_mpd(text)
