"""QoE metrics for demuxed A/V sessions.

Extends the standard ABR QoE formulation (quality − rebuffering −
instability, cf. Yin et al. SIGCOMM'15) to two media: per-chunk quality
is a weighted sum of video and audio utilities, and instability counts
switches in *either* medium — reflecting the paper's goal of
"maximizing quality, minimizing stalls and minimizing quality variation"
for both tracks (Section 4.2).

Utilities are logarithmic in bitrate relative to the medium's lowest
rung, so one video ladder step counts comparably to one audio ladder
step regardless of absolute rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ReproError
from ..media.content import Content
from ..media.tracks import MediaType
from ..sim.records import SessionResult


@dataclass(frozen=True)
class QoEWeights:
    """Weights of the composite score.

    Defaults weight video quality highest, audio at a third (a common
    production weighting), penalize rebuffering at 4.3 per second (the
    MPC-lineage constant, cf. Yin et al. SIGCOMM'15), and charge
    switches their utility jump.
    """

    video_quality: float = 1.0
    audio_quality: float = 0.34
    rebuffer_per_s: float = 4.3
    switch: float = 1.0
    startup_per_s: float = 0.2

    def __post_init__(self) -> None:
        for name in (
            "video_quality",
            "audio_quality",
            "rebuffer_per_s",
            "switch",
            "startup_per_s",
        ):
            if getattr(self, name) < 0:
                raise ReproError(f"QoE weight {name} must be non-negative")


DEFAULT_WEIGHTS = QoEWeights()


@dataclass
class QoEReport:
    """Decomposed QoE for one session."""

    quality: float
    video_quality: float
    audio_quality: float
    rebuffer_s: float
    n_stalls: int
    startup_delay_s: float
    switch_cost: float
    video_switches: int
    audio_switches: int
    score: float
    chunks_scored: int
    undesirable_chunks: int = 0

    def as_dict(self) -> Dict[str, float]:
        return {
            "score": round(self.score, 3),
            "quality": round(self.quality, 3),
            "video_quality": round(self.video_quality, 3),
            "audio_quality": round(self.audio_quality, 3),
            "rebuffer_s": round(self.rebuffer_s, 3),
            "n_stalls": self.n_stalls,
            "startup_delay_s": round(self.startup_delay_s, 3),
            "switch_cost": round(self.switch_cost, 3),
            "video_switches": self.video_switches,
            "audio_switches": self.audio_switches,
            "undesirable_chunks": self.undesirable_chunks,
        }


def track_utility(content: Content, medium: MediaType, track_id: str) -> float:
    """Log utility of a track relative to its ladder's lowest rung."""
    ladder = content.ladder(medium)
    track = ladder.by_id(track_id)
    return math.log(track.avg_kbps / ladder.lowest.avg_kbps)


def combination_utility(
    content: Content,
    video_id: str,
    audio_id: str,
    weights: QoEWeights = DEFAULT_WEIGHTS,
) -> float:
    return weights.video_quality * track_utility(
        content, MediaType.VIDEO, video_id
    ) + weights.audio_quality * track_utility(content, MediaType.AUDIO, audio_id)


def is_undesirable(
    content: Content, video_id: str, audio_id: str, tolerance: float = 0.34
) -> bool:
    """Flag clearly mismatched pairs (Section 2.1's "lowest quality
    audio with highest quality video, or vice versa").

    A pair is undesirable when the relative ladder positions of its two
    tracks differ by more than ``tolerance`` (fraction of the ladder).
    """
    video_ladder, audio_ladder = content.video, content.audio
    video_pos = (
        video_ladder.index_of(video_id) / (len(video_ladder) - 1)
        if len(video_ladder) > 1
        else 0.5
    )
    audio_pos = (
        audio_ladder.index_of(audio_id) / (len(audio_ladder) - 1)
        if len(audio_ladder) > 1
        else 0.5
    )
    return abs(video_pos - audio_pos) > tolerance + 1e-9


def compute_qoe(
    result: SessionResult,
    content: Content,
    weights: QoEWeights = DEFAULT_WEIGHTS,
) -> QoEReport:
    """Score one finished session."""
    video_quality = 0.0
    audio_quality = 0.0
    chunks = 0
    undesirable = 0
    prev_utils: Dict[MediaType, Optional[float]] = {
        MediaType.VIDEO: None,
        MediaType.AUDIO: None,
    }
    switch_cost = 0.0
    video_switches = result.switch_count(MediaType.VIDEO)
    audio_switches = result.switch_count(MediaType.AUDIO)
    # A session uses a handful of tracks and pairs; score each once.
    video_utils: Dict[str, float] = {}
    audio_utils: Dict[str, float] = {}
    undesirable_pairs: Dict[Tuple[str, str], bool] = {}

    for index, video_id, audio_id in result.selected_combinations():
        if video_id is None and audio_id is None:
            continue
        if video_id is not None:
            util = video_utils.get(video_id)
            if util is None:
                util = track_utility(content, MediaType.VIDEO, video_id)
                video_utils[video_id] = util
            video_quality += util
            prev = prev_utils[MediaType.VIDEO]
            if prev is not None:
                switch_cost += weights.switch * abs(util - prev)
            prev_utils[MediaType.VIDEO] = util
        if audio_id is not None:
            util = audio_utils.get(audio_id)
            if util is None:
                util = track_utility(content, MediaType.AUDIO, audio_id)
                audio_utils[audio_id] = util
            audio_quality += util
            prev = prev_utils[MediaType.AUDIO]
            if prev is not None:
                switch_cost += weights.switch * abs(util - prev)
            prev_utils[MediaType.AUDIO] = util
        if video_id is not None and audio_id is not None:
            chunks += 1
            pair = (video_id, audio_id)
            flagged = undesirable_pairs.get(pair)
            if flagged is None:
                flagged = undesirable_pairs[pair] = is_undesirable(
                    content, video_id, audio_id
                )
            if flagged:
                undesirable += 1

    quality = (
        weights.video_quality * video_quality + weights.audio_quality * audio_quality
    )
    startup = result.startup_delay_s or 0.0
    score = (
        quality
        - weights.rebuffer_per_s * result.total_rebuffer_s
        - switch_cost
        - weights.startup_per_s * startup
    )
    return QoEReport(
        quality=quality,
        video_quality=video_quality,
        audio_quality=audio_quality,
        rebuffer_s=result.total_rebuffer_s,
        n_stalls=result.n_stalls,
        startup_delay_s=startup,
        switch_cost=switch_cost,
        video_switches=video_switches,
        audio_switches=audio_switches,
        score=score,
        chunks_scored=chunks,
        undesirable_chunks=undesirable,
    )
