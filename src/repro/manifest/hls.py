"""HLS master/media playlist model, writer and parser.

Implements the HLS constructs the paper analyses (Section 2.3, 4.1):

* ``EXT-X-STREAM-INF`` variant streams in the master playlist, each one
  an audio+video *combination* whose ``BANDWIDTH`` attribute is "the sum
  of the peak bitrates of the audio and video tracks in the combination";
* ``EXT-X-MEDIA`` audio renditions grouped by ``GROUP-ID`` (their order
  matters: ExoPlayer locks onto the first rendition);
* second-level media playlists with ``EXTINF`` chunk durations, optional
  ``EXT-X-BYTERANGE`` (single-file packaging) and the optional
  ``EXT-X-BITRATE`` tag the paper recommends making mandatory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..errors import ManifestError, ManifestParseError

_N = TypeVar("_N", int, float)


@dataclass(frozen=True)
class HlsRendition:
    """An ``EXT-X-MEDIA`` entry (we model TYPE=AUDIO renditions)."""

    group_id: str
    name: str
    uri: str
    channels: Optional[int] = None
    default: bool = False
    autoselect: bool = True
    language: Optional[str] = None  # BCP-47, e.g. "en"

    def __post_init__(self) -> None:
        if not self.group_id or not self.name or not self.uri:
            raise ManifestError("rendition needs group_id, name and uri")


@dataclass(frozen=True)
class HlsVariant:
    """An ``EXT-X-STREAM-INF`` entry: one audio+video combination.

    ``bandwidth_bps`` is the aggregate *peak* bandwidth of the pair;
    ``average_bandwidth_bps`` the aggregate average (both per RFC 8216).
    The variant's URI points at the *video* media playlist; the audio
    rendition group is referenced via ``AUDIO=group-id``.
    """

    bandwidth_bps: int
    uri: str
    average_bandwidth_bps: Optional[int] = None
    resolution: Optional[Tuple[int, int]] = None
    codecs: str = ""
    audio_group: Optional[str] = None
    #: Which (video_track, audio_track) pair this variant represents.
    #: Real playlists carry this only implicitly (via URI and group);
    #: we keep it explicit for analysis and round-trip it through URIs.
    video_id: Optional[str] = None
    audio_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise ManifestError(
                f"variant bandwidth must be positive, got {self.bandwidth_bps}"
            )
        if not self.uri:
            raise ManifestError("variant needs a URI")

    @property
    def bandwidth_kbps(self) -> float:
        return self.bandwidth_bps / 1000.0

    @property
    def average_bandwidth_kbps(self) -> Optional[float]:
        if self.average_bandwidth_bps is None:
            return None
        return self.average_bandwidth_bps / 1000.0

    @property
    def name(self) -> Optional[str]:
        """Paper-style combination name when track ids are known."""
        if self.video_id and self.audio_id:
            return f"{self.video_id}+{self.audio_id}"
        return None


@dataclass(frozen=True)
class HlsMasterPlaylist:
    """A top-level master playlist: variants + audio renditions."""

    variants: Tuple[HlsVariant, ...]
    renditions: Tuple[HlsRendition, ...] = ()
    version: int = 6

    def __post_init__(self) -> None:
        if not self.variants:
            raise ManifestError("master playlist needs at least one variant")

    def audio_renditions(self, group_id: str) -> Tuple[HlsRendition, ...]:
        """Renditions of one group, in playlist order (order matters!)."""
        return tuple(r for r in self.renditions if r.group_id == group_id)

    @property
    def audio_group_ids(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for r in self.renditions:
            if r.group_id not in seen:
                seen.append(r.group_id)
        return tuple(seen)

    def variants_for_video(self, video_id: str) -> Tuple[HlsVariant, ...]:
        return tuple(v for v in self.variants if v.video_id == video_id)

    def first_variant_bandwidth(self, video_id: str) -> int:
        """Aggregate bandwidth of the *first* variant containing a video.

        This is exactly the (over)estimate ExoPlayer uses as the video
        track's bitrate under HLS (Section 3.2): "it uses the aggregate
        bitrate of the first variant in the top-level manifest file that
        contains this video track as its bitrate, which is clearly an
        overestimation."
        """
        for variant in self.variants:
            if variant.video_id == video_id:
                return variant.bandwidth_bps
        raise ManifestError(f"no variant contains video track {video_id!r}")

    @property
    def combination_names(self) -> Tuple[str, ...]:
        return tuple(v.name for v in self.variants if v.name is not None)


@dataclass(frozen=True)
class HlsSegment:
    """One ``EXTINF`` entry of a media playlist."""

    duration_s: float
    uri: str
    byterange: Optional[Tuple[int, int]] = None  # (length, offset) bytes
    bitrate_kbps: Optional[float] = None  # EXT-X-BITRATE, kbps

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ManifestError(f"segment duration must be positive: {self.duration_s}")
        if not self.uri:
            raise ManifestError("segment needs a URI")


@dataclass(frozen=True)
class HlsMediaPlaylist:
    """A second-level media playlist for a single track."""

    track_id: str
    segments: Tuple[HlsSegment, ...]
    version: int = 6

    def __post_init__(self) -> None:
        if not self.segments:
            raise ManifestError("media playlist needs at least one segment")

    @property
    def target_duration_s(self) -> int:
        return int(-(-max(s.duration_s for s in self.segments) // 1))  # ceil

    @property
    def total_duration_s(self) -> float:
        return sum(s.duration_s for s in self.segments)

    def derived_bitrates_kbps(self) -> Optional[List[float]]:
        """Per-chunk bitrates derivable from this playlist, if any.

        Section 4.1's recommendation: per-track bitrates are not in the
        master playlist but can be derived from the media playlist,
        either from ``EXT-X-BYTERANGE`` (case i) or ``EXT-X-BITRATE``
        (case ii). Returns ``None`` when neither is present — the
        situation the paper's best practices exist to eliminate.
        """
        rates: List[float] = []
        for segment in self.segments:
            if segment.bitrate_kbps is not None:
                rates.append(segment.bitrate_kbps)
            elif segment.byterange is not None:
                length_bytes, _ = segment.byterange
                rates.append(length_bytes * 8.0 / segment.duration_s / 1000.0)
            else:
                return None
        return rates

    def derived_peak_kbps(self) -> Optional[float]:
        rates = self.derived_bitrates_kbps()
        return None if rates is None else max(rates)

    def derived_avg_kbps(self) -> Optional[float]:
        rates = self.derived_bitrates_kbps()
        if rates is None:
            return None
        total_bits = sum(
            r * 1000.0 * s.duration_s for r, s in zip(rates, self.segments)
        )
        return total_bits / self.total_duration_s / 1000.0


def _attr_string(pairs: Sequence[Tuple[str, str]]) -> str:
    return ",".join(f"{key}={value}" for key, value in pairs)


def _quote(value: str) -> str:
    return f'"{value}"'


def write_master_playlist(master: HlsMasterPlaylist) -> str:
    """Serialize a master playlist to m3u8 text."""
    lines: List[str] = ["#EXTM3U", f"#EXT-X-VERSION:{master.version}"]
    for rendition in master.renditions:
        pairs: List[Tuple[str, str]] = [
            ("TYPE", "AUDIO"),
            ("GROUP-ID", _quote(rendition.group_id)),
            ("NAME", _quote(rendition.name)),
            ("DEFAULT", "YES" if rendition.default else "NO"),
            ("AUTOSELECT", "YES" if rendition.autoselect else "NO"),
        ]
        if rendition.language is not None:
            pairs.append(("LANGUAGE", _quote(rendition.language)))
        if rendition.channels is not None:
            pairs.append(("CHANNELS", _quote(str(rendition.channels))))
        pairs.append(("URI", _quote(rendition.uri)))
        lines.append(f"#EXT-X-MEDIA:{_attr_string(pairs)}")
    for variant in master.variants:
        pairs = [("BANDWIDTH", str(variant.bandwidth_bps))]
        if variant.average_bandwidth_bps is not None:
            pairs.append(("AVERAGE-BANDWIDTH", str(variant.average_bandwidth_bps)))
        if variant.resolution is not None:
            width, height = variant.resolution
            pairs.append(("RESOLUTION", f"{width}x{height}"))
        if variant.codecs:
            pairs.append(("CODECS", _quote(variant.codecs)))
        if variant.audio_group is not None:
            pairs.append(("AUDIO", _quote(variant.audio_group)))
        lines.append(f"#EXT-X-STREAM-INF:{_attr_string(pairs)}")
        lines.append(variant.uri)
    return "\n".join(lines) + "\n"


def write_media_playlist(playlist: HlsMediaPlaylist) -> str:
    """Serialize a media playlist to m3u8 text."""
    lines = [
        "#EXTM3U",
        f"#EXT-X-VERSION:{playlist.version}",
        f"#EXT-X-TARGETDURATION:{playlist.target_duration_s}",
        "#EXT-X-MEDIA-SEQUENCE:0",
        "#EXT-X-PLAYLIST-TYPE:VOD",
    ]
    for segment in playlist.segments:
        if segment.bitrate_kbps is not None:
            lines.append(f"#EXT-X-BITRATE:{int(round(segment.bitrate_kbps))}")
        lines.append(f"#EXTINF:{segment.duration_s:.5f},")
        if segment.byterange is not None:
            length_bytes, offset = segment.byterange
            lines.append(f"#EXT-X-BYTERANGE:{length_bytes}@{offset}")
        lines.append(segment.uri)
    lines.append("#EXT-X-ENDLIST")
    return "\n".join(lines) + "\n"


def _parse_attributes(text: str) -> Dict[str, str]:
    """Parse an HLS attribute list, honouring quoted strings."""
    attrs: Dict[str, str] = {}
    key = ""
    value = ""
    state = "key"
    in_quotes = False
    for char in text + ",":
        if state == "key":
            if char == "=":
                state = "value"
            elif char == ",":
                if key.strip():
                    raise ManifestParseError(f"attribute {key!r} has no value")
            else:
                key += char
        else:  # value
            if char == '"':
                in_quotes = not in_quotes
                value += char
            elif char == "," and not in_quotes:
                attrs[key.strip()] = value.strip().strip('"')
                key, value, state = "", "", "key"
            else:
                value += char
    if in_quotes:
        raise ManifestParseError(f"unterminated quote in attribute list: {text!r}")
    return attrs


def _ids_from_uri(uri: str) -> Tuple[Optional[str], Optional[str]]:
    """Recover (video_id, audio_id) from packager URI conventions.

    The packager names variant URIs ``<video>_<audio>.m3u8`` (muxed
    naming kept for readability) or ``<video>.m3u8`` plus an audio group.
    """
    stem = uri.rsplit("/", 1)[-1]
    if stem.endswith(".m3u8"):
        stem = stem[: -len(".m3u8")]
    if "_" in stem:
        video_id, audio_id = stem.split("_", 1)
        return video_id or None, audio_id or None
    return stem or None, None


def _number(text: str, parse: Callable[[str], _N], name: str, line_no: int) -> _N:
    """``parse(text)`` for a numeric tag value or attribute.

    A value ``int``/``float`` rejects raises :class:`ManifestParseError`
    naming the tag or attribute and its line (1-based).
    """
    try:
        return parse(text)
    except ValueError:
        raise ManifestParseError(
            f"line {line_no}: {name} value {text!r} is not a valid number"
        ) from None


def _numbered_lines(text: str) -> List[Tuple[int, str]]:
    """Non-blank stripped lines with their 1-based line numbers."""
    return [
        (line_no, line.strip())
        for line_no, line in enumerate(text.splitlines(), 1)
        if line.strip()
    ]


def parse_master_playlist(text: str) -> HlsMasterPlaylist:
    """Parse master playlist m3u8 text."""
    lines = _numbered_lines(text)
    if not lines or lines[0][1] != "#EXTM3U":
        raise ManifestParseError("master playlist must start with #EXTM3U")
    version = 1
    renditions: List[HlsRendition] = []
    variants: List[HlsVariant] = []
    pending_inf: Optional[Dict[str, str]] = None
    inf_line_no = 0
    for line_no, line in lines[1:]:
        if line.startswith("#EXT-X-VERSION:"):
            version = _number(line.split(":", 1)[1], int, "EXT-X-VERSION", line_no)
        elif line.startswith("#EXT-X-MEDIA:"):
            attrs = _parse_attributes(line.split(":", 1)[1])
            if attrs.get("TYPE") != "AUDIO":
                continue  # only audio renditions are modelled
            renditions.append(
                HlsRendition(
                    group_id=attrs.get("GROUP-ID", ""),
                    name=attrs.get("NAME", ""),
                    uri=attrs.get("URI", ""),
                    channels=(
                        _number(attrs["CHANNELS"], int, "CHANNELS", line_no)
                        if "CHANNELS" in attrs
                        else None
                    ),
                    default=attrs.get("DEFAULT") == "YES",
                    autoselect=attrs.get("AUTOSELECT", "YES") == "YES",
                    language=attrs.get("LANGUAGE"),
                )
            )
        elif line.startswith("#EXT-X-STREAM-INF:"):
            pending_inf = _parse_attributes(line.split(":", 1)[1])
            inf_line_no = line_no
        elif line.startswith("#"):
            continue
        else:  # a URI line closing a pending EXT-X-STREAM-INF
            if pending_inf is None:
                raise ManifestParseError(f"URI {line!r} without EXT-X-STREAM-INF")
            if "BANDWIDTH" not in pending_inf:
                raise ManifestParseError("EXT-X-STREAM-INF lacks BANDWIDTH")
            resolution: Optional[Tuple[int, int]] = None
            if "RESOLUTION" in pending_inf:
                try:
                    width_s, height_s = pending_inf["RESOLUTION"].split("x")
                    resolution = (int(width_s), int(height_s))
                except ValueError as exc:
                    raise ManifestParseError(
                        f"bad RESOLUTION {pending_inf['RESOLUTION']!r}"
                    ) from exc
            video_id, audio_id = _ids_from_uri(line)
            variants.append(
                HlsVariant(
                    bandwidth_bps=_number(
                        pending_inf["BANDWIDTH"], int, "BANDWIDTH", inf_line_no
                    ),
                    average_bandwidth_bps=(
                        _number(
                            pending_inf["AVERAGE-BANDWIDTH"],
                            int,
                            "AVERAGE-BANDWIDTH",
                            inf_line_no,
                        )
                        if "AVERAGE-BANDWIDTH" in pending_inf
                        else None
                    ),
                    uri=line,
                    resolution=resolution,
                    codecs=pending_inf.get("CODECS", ""),
                    audio_group=pending_inf.get("AUDIO"),
                    video_id=video_id,
                    audio_id=audio_id,
                )
            )
            pending_inf = None
    if pending_inf is not None:
        raise ManifestParseError("EXT-X-STREAM-INF without a following URI")
    return HlsMasterPlaylist(
        variants=tuple(variants), renditions=tuple(renditions), version=version
    )


def parse_media_playlist(text: str, track_id: str = "") -> HlsMediaPlaylist:
    """Parse media playlist m3u8 text."""
    lines = _numbered_lines(text)
    if not lines or lines[0][1] != "#EXTM3U":
        raise ManifestParseError("media playlist must start with #EXTM3U")
    version = 1
    segments: List[HlsSegment] = []
    pending_duration: Optional[float] = None
    pending_byterange: Optional[Tuple[int, int]] = None
    pending_bitrate: Optional[float] = None
    for line_no, line in lines[1:]:
        if line.startswith("#EXT-X-VERSION:"):
            version = _number(line.split(":", 1)[1], int, "EXT-X-VERSION", line_no)
        elif line.startswith("#EXT-X-BITRATE:"):
            pending_bitrate = _number(
                line.split(":", 1)[1], float, "EXT-X-BITRATE", line_no
            )
        elif line.startswith("#EXTINF:"):
            body = line.split(":", 1)[1]
            pending_duration = _number(
                body.split(",", 1)[0], float, "EXTINF", line_no
            )
        elif line.startswith("#EXT-X-BYTERANGE:"):
            body = line.split(":", 1)[1]
            if "@" in body:
                length_s, offset_s = body.split("@", 1)
                pending_byterange = (
                    _number(length_s, int, "EXT-X-BYTERANGE", line_no),
                    _number(offset_s, int, "EXT-X-BYTERANGE", line_no),
                )
            else:
                previous_end = (
                    segments[-1].byterange[0] + segments[-1].byterange[1]
                    if segments and segments[-1].byterange
                    else 0
                )
                pending_byterange = (
                    _number(body, int, "EXT-X-BYTERANGE", line_no),
                    previous_end,
                )
        elif line.startswith("#"):
            continue
        else:
            if pending_duration is None:
                raise ManifestParseError(f"URI {line!r} without EXTINF")
            segments.append(
                HlsSegment(
                    duration_s=pending_duration,
                    uri=line,
                    byterange=pending_byterange,
                    bitrate_kbps=pending_bitrate,
                )
            )
            pending_duration = None
            pending_byterange = None
            pending_bitrate = None
    if not segments:
        raise ManifestParseError("media playlist has no segments")
    track = track_id or segments[0].uri.split("_", 1)[0].rsplit("/", 1)[-1]
    return HlsMediaPlaylist(track_id=track, segments=tuple(segments), version=version)
