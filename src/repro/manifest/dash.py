"""DASH MPD model, writer and parser.

Implements the subset of ISO/IEC 23009-1 the paper exercises: a single
Period containing one video Adaptation Set and one audio Adaptation Set,
each Representation carrying a ``bandwidth`` attribute (bits per second)
"which is close to the peak bitrate" (Section 2.3, Table 1's *Declared
Bitrate for DASH* column).

The model is also the vehicle for the paper's Section 4.1 proposal:
DASH has no standard way to restrict audio/video combinations, so we
provide an *extension* element (``repro:AllowedCombinations``) that a
server may embed; standard-compliant parsers ignore it, while the
best-practices player honours it. This mirrors the paper's suggestion
that "the DASH specification can be expanded to support this feature."
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from ..errors import ManifestError, ManifestParseError
from ..media.content import Content
from ..media.tracks import MediaType

MPD_NS = "urn:mpeg:dash:schema:mpd:2011"
REPRO_NS = "urn:repro:dash:extensions:2019"

_N = TypeVar("_N", int, float)


@dataclass(frozen=True)
class DashRepresentation:
    """One Representation: a single audio or video track."""

    rep_id: str
    bandwidth_bps: int
    codecs: str = ""
    width: Optional[int] = None
    height: Optional[int] = None
    audio_channels: Optional[int] = None
    audio_sampling_rate_hz: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.rep_id:
            raise ManifestError("Representation id must be non-empty")
        if self.bandwidth_bps <= 0:
            raise ManifestError(
                f"Representation {self.rep_id}: bandwidth must be positive, "
                f"got {self.bandwidth_bps}"
            )

    @property
    def bandwidth_kbps(self) -> float:
        return self.bandwidth_bps / 1000.0


@dataclass(frozen=True)
class DashSegmentTemplate:
    """A ``SegmentTemplate`` element (number-based addressing).

    The common live/VOD packaging: segment URLs are generated from a
    template with ``$RepresentationID$`` and ``$Number$`` substitutions,
    and every segment has a fixed duration in ``timescale`` units.
    """

    media: str = "$RepresentationID$_$Number$.m4s"
    initialization: str = "$RepresentationID$_init.mp4"
    duration: int = 5000  # in timescale units
    timescale: int = 1000
    start_number: int = 1

    def __post_init__(self) -> None:
        if self.duration <= 0 or self.timescale <= 0:
            raise ManifestError("SegmentTemplate duration/timescale must be positive")
        if self.start_number < 0:
            raise ManifestError("SegmentTemplate startNumber must be non-negative")
        if "$Number$" not in self.media:
            raise ManifestError("media template must contain $Number$")

    @property
    def segment_duration_s(self) -> float:
        return self.duration / self.timescale

    def media_url(self, rep_id: str, index: int) -> str:
        """URL of chunk ``index`` (0-based) for a representation."""
        if index < 0:
            raise ManifestError(f"chunk index must be non-negative, got {index}")
        return self.media.replace("$RepresentationID$", rep_id).replace(
            "$Number$", str(self.start_number + index)
        )

    def init_url(self, rep_id: str) -> str:
        return self.initialization.replace("$RepresentationID$", rep_id)


@dataclass(frozen=True)
class DashAdaptationSet:
    """One Adaptation Set: "a set of interchangeable encoded versions"."""

    content_type: str  # "video" or "audio"
    representations: Tuple[DashRepresentation, ...]
    mime_type: str = ""
    lang: Optional[str] = None
    segment_template: Optional[DashSegmentTemplate] = None

    def __post_init__(self) -> None:
        if self.content_type not in ("video", "audio"):
            raise ManifestError(
                f"content_type must be 'video' or 'audio', got {self.content_type!r}"
            )
        if not self.representations:
            raise ManifestError(
                f"{self.content_type} AdaptationSet needs at least one Representation"
            )
        ids = [r.rep_id for r in self.representations]
        if len(set(ids)) != len(ids):
            raise ManifestError(f"duplicate Representation ids: {ids}")

    @property
    def media_type(self) -> MediaType:
        return MediaType.VIDEO if self.content_type == "video" else MediaType.AUDIO


@dataclass(frozen=True)
class DashManifest:
    """A single-period MPD with demuxed audio and video Adaptation Sets."""

    duration_s: float
    adaptation_sets: Tuple[DashAdaptationSet, ...]
    min_buffer_time_s: float = 2.0
    #: Optional Section-4.1 extension: explicit allowed (video_id, audio_id)
    #: combinations. ``None`` means the manifest does not restrict pairs
    #: (the standard-DASH situation the paper critiques).
    allowed_combinations: Optional[Tuple[Tuple[str, str], ...]] = None

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ManifestError(f"duration must be positive, got {self.duration_s}")
        types = [a.content_type for a in self.adaptation_sets]
        if len(set(types)) != len(types):
            raise ManifestError(f"duplicate AdaptationSet content types: {types}")

    def adaptation_set(self, content_type: str) -> DashAdaptationSet:
        for aset in self.adaptation_sets:
            if aset.content_type == content_type:
                return aset
        raise ManifestError(f"no {content_type!r} AdaptationSet in MPD")

    @property
    def video(self) -> DashAdaptationSet:
        return self.adaptation_set("video")

    @property
    def audio(self) -> DashAdaptationSet:
        return self.adaptation_set("audio")


def build_dash_manifest(
    content: Content,
    allowed_combinations: Optional[Sequence[Tuple[str, str]]] = None,
) -> DashManifest:
    """Build an MPD for a title, declaring Table-1-style bitrates.

    The per-track ``bandwidth`` is the track's *declared* bitrate (the
    value Table 1 lists in its "Declared Bitrate for DASH" column).
    """
    video_reps = tuple(
        DashRepresentation(
            rep_id=t.track_id,
            bandwidth_bps=int(round(t.declared_kbps * 1000)),
            codecs="avc1.640028",
            height=t.height,
            width=None if t.height is None else int(round(t.height * 16 / 9)),
        )
        for t in content.video
    )
    audio_reps = tuple(
        DashRepresentation(
            rep_id=t.track_id,
            bandwidth_bps=int(round(t.declared_kbps * 1000)),
            codecs="mp4a.40.2",
            audio_channels=t.channels,
            audio_sampling_rate_hz=(
                None if t.sampling_khz is None else int(round(t.sampling_khz * 1000))
            ),
        )
        for t in content.audio
    )
    template = DashSegmentTemplate(
        duration=int(round(content.chunk_duration_s * 1000)), timescale=1000
    )
    return DashManifest(
        duration_s=content.duration_s,
        adaptation_sets=(
            DashAdaptationSet(
                content_type="video",
                representations=video_reps,
                mime_type="video/mp4",
                segment_template=template,
            ),
            DashAdaptationSet(
                content_type="audio",
                representations=audio_reps,
                mime_type="audio/mp4",
                segment_template=template,
            ),
        ),
        allowed_combinations=(
            None if allowed_combinations is None else tuple(allowed_combinations)
        ),
    )


def _format_duration(seconds: float) -> str:
    """ISO 8601 duration, e.g. 300.0 -> ``PT5M0.000S``."""
    if seconds < 0:
        raise ManifestError(f"duration must be non-negative, got {seconds}")
    hours = int(seconds // 3600)
    minutes = int((seconds % 3600) // 60)
    secs = seconds - hours * 3600 - minutes * 60
    out = "PT"
    if hours:
        out += f"{hours}H"
    if minutes or hours:
        out += f"{minutes}M"
    out += f"{secs:.3f}S"
    return out


def _number(text: str, parse: Callable[[str], _N], attribute: str, where: str) -> _N:
    """``parse(text)`` for a numeric MPD attribute.

    A value ``int``/``float`` rejects raises :class:`ManifestParseError`
    naming the attribute and the element that carries it.
    """
    try:
        return parse(text)
    except ValueError:
        raise ManifestParseError(
            f"{where}: {attribute}={text!r} is not a valid number"
        ) from None


def _parse_duration(text: str, attribute: str = "duration") -> float:
    """Parse the ISO 8601 durations :func:`_format_duration` emits."""
    if not text.startswith("PT"):
        raise ManifestParseError(f"unsupported duration format: {text!r}")
    remainder = text[2:]
    seconds = 0.0
    number = ""
    component = f"{attribute} component"
    for char in remainder:
        if char.isdigit() or char == ".":
            number += char
        elif char == "H":
            seconds += _number(number, float, component, "MPD") * 3600
            number = ""
        elif char == "M":
            seconds += _number(number, float, component, "MPD") * 60
            number = ""
        elif char == "S":
            seconds += _number(number, float, component, "MPD")
            number = ""
        else:
            raise ManifestParseError(f"bad duration component {char!r} in {text!r}")
    if number:
        raise ManifestParseError(f"trailing number in duration {text!r}")
    return seconds


def write_mpd(manifest: DashManifest) -> str:
    """Serialize to MPD XML text."""
    ET.register_namespace("", MPD_NS)
    ET.register_namespace("repro", REPRO_NS)
    root = ET.Element(
        f"{{{MPD_NS}}}MPD",
        attrib={
            "type": "static",
            "mediaPresentationDuration": _format_duration(manifest.duration_s),
            "minBufferTime": _format_duration(manifest.min_buffer_time_s),
            "profiles": "urn:mpeg:dash:profile:isoff-on-demand:2011",
        },
    )
    if manifest.allowed_combinations is not None:
        combos_el = ET.SubElement(root, f"{{{REPRO_NS}}}AllowedCombinations")
        for video_id, audio_id in manifest.allowed_combinations:
            ET.SubElement(
                combos_el,
                f"{{{REPRO_NS}}}Combination",
                attrib={"video": video_id, "audio": audio_id},
            )
    period = ET.SubElement(root, f"{{{MPD_NS}}}Period", attrib={"id": "0"})
    for aset in manifest.adaptation_sets:
        aset_attrib = {"contentType": aset.content_type}
        if aset.mime_type:
            aset_attrib["mimeType"] = aset.mime_type
        if aset.lang:
            aset_attrib["lang"] = aset.lang
        aset_el = ET.SubElement(
            period, f"{{{MPD_NS}}}AdaptationSet", attrib=aset_attrib
        )
        if aset.segment_template is not None:
            template = aset.segment_template
            ET.SubElement(
                aset_el,
                f"{{{MPD_NS}}}SegmentTemplate",
                attrib={
                    "media": template.media,
                    "initialization": template.initialization,
                    "duration": str(template.duration),
                    "timescale": str(template.timescale),
                    "startNumber": str(template.start_number),
                },
            )
        for rep in aset.representations:
            rep_attrib = {"id": rep.rep_id, "bandwidth": str(rep.bandwidth_bps)}
            if rep.codecs:
                rep_attrib["codecs"] = rep.codecs
            if rep.width is not None:
                rep_attrib["width"] = str(rep.width)
            if rep.height is not None:
                rep_attrib["height"] = str(rep.height)
            if rep.audio_sampling_rate_hz is not None:
                rep_attrib["audioSamplingRate"] = str(rep.audio_sampling_rate_hz)
            rep_el = ET.SubElement(
                aset_el, f"{{{MPD_NS}}}Representation", attrib=rep_attrib
            )
            if rep.audio_channels is not None:
                ET.SubElement(
                    rep_el,
                    f"{{{MPD_NS}}}AudioChannelConfiguration",
                    attrib={
                        "schemeIdUri": (
                            "urn:mpeg:dash:23003:3:audio_channel_configuration:2011"
                        ),
                        "value": str(rep.audio_channels),
                    },
                )
    return '<?xml version="1.0" encoding="utf-8"?>\n' + ET.tostring(
        root, encoding="unicode"
    )


def parse_mpd(text: str) -> DashManifest:
    """Parse MPD XML text back into a :class:`DashManifest`."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ManifestParseError(f"invalid MPD XML: {exc}") from exc
    if root.tag != f"{{{MPD_NS}}}MPD":
        raise ManifestParseError(f"root element is {root.tag}, expected MPD")
    duration_attr = root.get("mediaPresentationDuration")
    if duration_attr is None:
        raise ManifestParseError("MPD lacks mediaPresentationDuration")
    duration_s = _parse_duration(duration_attr, "mediaPresentationDuration")
    min_buffer = root.get("minBufferTime")
    min_buffer_s = _parse_duration(min_buffer, "minBufferTime") if min_buffer else 2.0

    allowed: Optional[Tuple[Tuple[str, str], ...]] = None
    combos_el = root.find(f"{{{REPRO_NS}}}AllowedCombinations")
    if combos_el is not None:
        pairs: List[Tuple[str, str]] = []
        for combo_el in combos_el.findall(f"{{{REPRO_NS}}}Combination"):
            video_id, audio_id = combo_el.get("video"), combo_el.get("audio")
            if not video_id or not audio_id:
                raise ManifestParseError("Combination element missing video/audio id")
            pairs.append((video_id, audio_id))
        allowed = tuple(pairs)

    period = root.find(f"{{{MPD_NS}}}Period")
    if period is None:
        raise ManifestParseError("MPD has no Period")
    asets: List[DashAdaptationSet] = []
    for aset_el in period.findall(f"{{{MPD_NS}}}AdaptationSet"):
        content_type = aset_el.get("contentType")
        mime = aset_el.get("mimeType", "")
        if content_type is None:
            # Infer from mimeType like real parsers do.
            if mime.startswith("video"):
                content_type = "video"
            elif mime.startswith("audio"):
                content_type = "audio"
            else:
                raise ManifestParseError(
                    "AdaptationSet lacks contentType and mimeType is "
                    f"{mime!r}; cannot infer medium"
                )
        template: Optional[DashSegmentTemplate] = None
        template_el = aset_el.find(f"{{{MPD_NS}}}SegmentTemplate")
        if template_el is not None:
            where = f"{content_type} SegmentTemplate"
            duration = _number(
                template_el.get("duration", "5000"), int, "duration", where
            )
            timescale = _number(
                template_el.get("timescale", "1000"), int, "timescale", where
            )
            start_number = _number(
                template_el.get("startNumber", "1"), int, "startNumber", where
            )
            try:
                template = DashSegmentTemplate(
                    media=template_el.get("media", "$RepresentationID$_$Number$.m4s"),
                    initialization=template_el.get(
                        "initialization", "$RepresentationID$_init.mp4"
                    ),
                    duration=duration,
                    timescale=timescale,
                    start_number=start_number,
                )
            except ManifestError as exc:
                raise ManifestParseError(f"bad SegmentTemplate: {exc}") from exc
        reps: List[DashRepresentation] = []
        for rep_el in aset_el.findall(f"{{{MPD_NS}}}Representation"):
            rep_id = rep_el.get("id")
            bandwidth = rep_el.get("bandwidth")
            if rep_id is None or bandwidth is None:
                raise ManifestParseError("Representation lacks id or bandwidth")
            where = f"Representation {rep_id!r}"
            channels: Optional[int] = None
            chan_el = rep_el.find(f"{{{MPD_NS}}}AudioChannelConfiguration")
            if chan_el is not None and chan_el.get("value"):
                channels = _number(
                    chan_el.get("value"),
                    int,
                    "value",
                    f"AudioChannelConfiguration of {where}",
                )
            sampling = rep_el.get("audioSamplingRate")
            width = rep_el.get("width")
            height = rep_el.get("height")
            reps.append(
                DashRepresentation(
                    rep_id=rep_id,
                    bandwidth_bps=_number(bandwidth, int, "bandwidth", where),
                    codecs=rep_el.get("codecs", ""),
                    width=_number(width, int, "width", where) if width else None,
                    height=_number(height, int, "height", where) if height else None,
                    audio_channels=channels,
                    audio_sampling_rate_hz=(
                        _number(sampling, int, "audioSamplingRate", where)
                        if sampling
                        else None
                    ),
                )
            )
        asets.append(
            DashAdaptationSet(
                content_type=content_type,
                representations=tuple(reps),
                mime_type=mime,
                lang=aset_el.get("lang"),
                segment_template=template,
            )
        )
    return DashManifest(
        duration_s=duration_s,
        adaptation_sets=tuple(asets),
        min_buffer_time_s=min_buffer_s,
        allowed_combinations=allowed,
    )
