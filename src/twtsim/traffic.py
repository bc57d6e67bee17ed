"""Synthetic DASH-like traffic models.

A streaming server periodically pushes a burst (video segment) over TCP.  CBR
sends a fixed-size burst on a fixed interval; VBR draws the inter-burst time
from a truncated normal distribution and builds each burst from Weibull-sized
frames at the configured frame rate.  VBR draws come from a ``pcg64.PCG64``;
a numpy ``Generator`` with the same seed draws the same values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .pcg64 import PCG64


@dataclass(frozen=True)
class VideoParams:
    """Parameters of the synthetic video stream (sizes in bytes, times in s)."""

    bitrate_mbps: float = 15.6
    frame_rate: float = 30.0
    weibull_k: float = 0.8099
    ibt_mean_s: float = 6.0
    ibt_var_s2: float = 1.8
    ibt_min_s: float = 2.0
    ibt_max_s: float = 10.0
    cbr_interval_s: float = 6.0

    def __post_init__(self) -> None:
        if self.bitrate_mbps <= 0:
            raise ValueError(f"bitrate_mbps must be > 0, got {self.bitrate_mbps}")
        if self.frame_rate <= 0:
            raise ValueError(f"frame_rate must be > 0, got {self.frame_rate}")
        if self.weibull_k <= 0:
            raise ValueError(f"weibull_k must be > 0, got {self.weibull_k}")
        if self.cbr_interval_s <= 0:
            raise ValueError(f"cbr_interval_s must be > 0, got {self.cbr_interval_s}")
        if self.cbr_burst_bytes < 1:
            raise ValueError(f"bitrate_mbps must fill a byte per CBR burst, got {self.bitrate_mbps}")
        if not (self.ibt_min_s <= self.ibt_mean_s <= self.ibt_max_s):
            raise ValueError("inter-burst bounds must bracket the mean")
        if self.ibt_var_s2 < 0:
            raise ValueError(f"ibt_var_s2 must be >= 0, got {self.ibt_var_s2}")
        if round(self.ibt_min_s * self.frame_rate) < 1:
            raise ValueError(
                f"ibt_min_s must span at least one frame at {self.frame_rate} fps, "
                f"got {self.ibt_min_s}"
            )

    @property
    def lambda_bytes(self) -> float:
        """Weibull scale: 6950 * bitrate / 2 bytes."""
        return 6950.0 * self.bitrate_mbps / 2.0

    @property
    def cbr_burst_bytes(self) -> int:
        return int(round(self.bitrate_mbps * 1e6 * self.cbr_interval_s / 8.0))


@dataclass(frozen=True)
class Burst:
    """One video segment pushed by the server."""

    index: int
    release_time_s: float
    size_bytes: int
    inter_burst_time_s: float

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"burst size must be > 0, got {self.size_bytes}")
        if self.release_time_s < 0 or self.inter_burst_time_s <= 0:
            raise ValueError("burst times must be non-negative / positive")


def sample_frame_size(params: VideoParams, rng: PCG64) -> int:
    """Draw one Weibull(k, lambda) frame size in bytes, floored and >= 1."""
    size = int(params.lambda_bytes * rng.weibull(params.weibull_k))
    return max(size, 1)


def sample_inter_burst_time(params: VideoParams, rng: PCG64) -> float:
    """Draw one truncated-normal inter-burst time via rejection sampling."""
    sd = math.sqrt(params.ibt_var_s2)
    while True:
        x = rng.normal(params.ibt_mean_s, sd)
        if params.ibt_min_s <= x <= params.ibt_max_s:
            return float(x)


def generate_cbr_bursts(params: VideoParams, duration_s: float) -> list[Burst]:
    """Fixed-size bursts every cbr_interval_s for release times in [0, duration)."""
    if duration_s <= 0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
    size = params.cbr_burst_bytes
    interval = params.cbr_interval_s
    bursts = []
    i = 0
    while i * interval < duration_s:
        bursts.append(
            Burst(
                index=i,
                release_time_s=i * interval,
                size_bytes=size,
                inter_burst_time_s=interval,
            )
        )
        i += 1
    return bursts


def generate_vbr_bursts(
    params: VideoParams, duration_s: float, rng: PCG64
) -> list[Burst]:
    """Variable bursts: ibt ~ truncated normal, size = sum of round(ibt * fps) frames."""
    if duration_s <= 0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
    bursts = []
    release = 0.0
    i = 0
    while release < duration_s:
        ibt = sample_inter_burst_time(params, rng)
        frames = int(round(ibt * params.frame_rate))
        size = sum(sample_frame_size(params, rng) for _ in range(frames))
        bursts.append(
            Burst(
                index=i,
                release_time_s=release,
                size_bytes=size,
                inter_burst_time_s=ibt,
            )
        )
        release += ibt
        i += 1
    return bursts
