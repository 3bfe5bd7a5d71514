"""Audio-pipeline plugins: ambisonic encoding and binaural playback."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.audio.encoding import AudioEncoder
from repro.audio.playback import AudioPlayback
from repro.audio.sources import MusicLikeSource, SpeechLikeSource
from repro.core.config import SystemConfig
from repro.core.plugin import InvocationContext, IterationResult, Periodic, Plugin
from repro.maths.se3 import Pose


@dataclass(frozen=True)
class BinauralBlock:
    """One rendered stereo block (energy only is retained in long runs)."""

    timestamp: float
    rms: float
    peak: float


class AudioEncodingPlugin(Plugin):
    """Encodes the scene's mono sources into the HOA soundfield."""

    name = "audio_encoding"
    component = "audio_encoding"
    pipeline = "audio"

    def __init__(self, config: SystemConfig) -> None:
        super().__init__(Periodic(config.audio_period))
        self.config = config
        self.encoder = AudioEncoder(
            [SpeechLikeSource(), MusicLikeSource()], block_size=config.audio_block_size
        )

    def iteration(self, ctx: InvocationContext) -> IterationResult:
        result = IterationResult()
        if self.config.fidelity == "full":
            soundfield = self.encoder.encode_next_block()
            result.publish("soundfield", soundfield, data_time=ctx.now)
        else:
            result.publish("soundfield", None, data_time=ctx.now)
        return result


class AudioPlaybackPlugin(Plugin):
    """Binauralizes the latest soundfield with the freshest head pose."""

    name = "audio_playback"
    component = "audio_playback"
    pipeline = "audio"

    def __init__(self, config: SystemConfig) -> None:
        super().__init__(Periodic(config.audio_period))
        self.config = config
        self.playback = AudioPlayback(block_size=config.audio_block_size)
        self.blocks_rendered = 0

    def iteration(self, ctx: InvocationContext) -> IterationResult:
        result = IterationResult()
        assert self.switchboard is not None
        soundfield_event = self.switchboard.topic("soundfield").get_latest()
        if soundfield_event is None:
            result.skipped = True
            return result
        if self.config.fidelity == "full":
            if soundfield_event.data is None:
                result.skipped = True
                return result
            pose_event = self.switchboard.topic("fast_pose").get_latest()
            pose: Pose = (
                pose_event.data
                if pose_event is not None and pose_event.data is not None
                else Pose(np.zeros(3))
            )
            stereo = self.playback.render_block(soundfield_event.data, pose)
            block = BinauralBlock(
                timestamp=ctx.now,
                rms=float(np.sqrt((stereo**2).mean())),
                peak=float(np.abs(stereo).max()),
            )
            result.publish("binaural", block, data_time=soundfield_event.effective_data_time)
        else:
            result.publish("binaural", None, data_time=soundfield_event.effective_data_time)
        self.blocks_rendered += 1
        return result
