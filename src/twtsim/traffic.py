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
from functools import cached_property
from typing import TYPE_CHECKING

from .transport import check_finite_positive

if TYPE_CHECKING:
    from .pcg64 import PCG64


# the least share of normal draws the inter-burst window must take: the
# rejection sampler then makes at most 1000 draws per burst on average
_IBT_HIT_FLOOR = 1e-3
# the largest standard exponential PCG64 draws: its ziggurat tail at the
# largest double below 1 (pcg64._EXP_R - log1p(-(1 - 2**-53))); a Weibull(k)
# frame is at most that to the 1/k times the Weibull scale
_EXP_MAX = 7.6971174701310497140446280481 + 53 * math.log(2)
_LOG_FLOAT_MAX = 709.0  # just below the log of the largest double, 709.78
# log Γ(1 + 1/k) of the paper's shape: a Weibull(k) draw of scale 1 has mean Γ(1 + 1/k)
_LGAMMA_BUNDLED = math.lgamma(1.0 + 1.0 / 0.8099)


@dataclass(frozen=True)
class VideoParams:
    """Parameters of the synthetic video stream (sizes in bytes, times in s).

    It refuses a stream it cannot draw: an inter-burst window that a normal
    draw hits less often than ``_IBT_HIT_FLOOR``, and a ``weibull_k`` so small
    that the Weibull scale underflows to 0 or the largest VBR burst, ``round(ibt_max_s
    * frame_rate)`` frames of the largest Weibull frame, would overflow a float."""

    bitrate_mbps: float = 15.6
    frame_rate: float = 30.0
    weibull_k: float = 0.8099
    ibt_mean_s: float = 6.0
    ibt_var_s2: float = 1.8
    ibt_min_s: float = 2.0
    ibt_max_s: float = 10.0
    cbr_interval_s: float = 6.0

    def __post_init__(self) -> None:
        for name in ("bitrate_mbps", "frame_rate", "weibull_k", "ibt_mean_s", "ibt_min_s",
                     "ibt_max_s", "cbr_interval_s"):
            check_finite_positive(name, getattr(self, name))
        burst = self.bitrate_mbps * 1e6 * self.cbr_interval_s / 8.0  # rounds to cbr_burst_bytes
        if not 0.5 < burst < math.inf:
            raise ValueError(f"bitrate_mbps {self.bitrate_mbps} makes a {self.cbr_interval_s} s "
                             f"CBR burst of {burst:.4g} bytes, not a finite count of 1 or more")
        if not (self.ibt_min_s <= self.ibt_mean_s <= self.ibt_max_s):
            raise ValueError("inter-burst bounds must bracket the mean")
        if self.ibt_var_s2 < 0:
            raise ValueError(f"ibt_var_s2 must be >= 0, got {self.ibt_var_s2}")
        if self.ibt_var_s2 != 0:  # 0 is a point mass at the mean; NaN fails the test below
            scale = math.sqrt(2 * self.ibt_var_s2)
            hit = (math.erf((self.ibt_max_s - self.ibt_mean_s) / scale)
                   - math.erf((self.ibt_min_s - self.ibt_mean_s) / scale)) / 2
            if not hit >= _IBT_HIT_FLOOR:
                raise ValueError(
                    f"ibt_var_s2 {self.ibt_var_s2} puts a normal inter-burst draw in "
                    f"[{self.ibt_min_s}, {self.ibt_max_s}] s with probability {hit:.3g}, "
                    f"below {_IBT_HIT_FLOOR}")
        frames = self.ibt_max_s * self.frame_rate + 1  # no burst has more, round(ibt * frame_rate)
        if not self.lambda_bytes > 0:
            raise ValueError(f"weibull_k {self.weibull_k} at frame_rate {self.frame_rate} makes "
                             f"the Weibull scale of a VBR frame underflow to 0 bytes")
        room = _LOG_FLOAT_MAX - math.log(self.lambda_bytes * frames)
        if not room > 0:
            raise ValueError(f"frame_rate {self.frame_rate} over ibt_max_s {self.ibt_max_s} s "
                             f"at bitrate_mbps {self.bitrate_mbps} overflows a VBR burst")
        if self.weibull_k * room <= math.log(_EXP_MAX):
            raise ValueError(f"weibull_k {self.weibull_k} lets a VBR burst of {frames - 1:.4g} "
                             f"frames overflow a float")
        if round(self.ibt_min_s * self.frame_rate) < 1:
            raise ValueError(
                f"ibt_min_s must span at least one frame at {self.frame_rate} fps, "
                f"got {self.ibt_min_s}"
            )

    @cached_property
    def lambda_bytes(self) -> float:
        """Weibull scale: 6950 * bitrate / 2 bytes (the paper's, at 30 fps and shape 0.8099)
        times 30 / frame_rate and Γ(1 + 1/0.8099) / Γ(1 + 1/weibull_k): the same mean load.
        Computed once: every VBR frame reads it."""
        try:
            shape = math.lgamma(1.0 + 1.0 / self.weibull_k)
        except OverflowError:  # log Γ(1 + 1/k) past the largest double: the scale is 0
            return 0.0
        return (6950.0 * self.bitrate_mbps / 2.0 * (30.0 / self.frame_rate)
                * math.exp(_LGAMMA_BUNDLED - shape))

    @property
    def cbr_burst_bytes(self) -> int:
        return int(round(self.bitrate_mbps * 1e6 * self.cbr_interval_s / 8.0))


@dataclass(frozen=True)
class Burst:
    """One video segment pushed by the server; its index is its place in the list."""

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
        bursts.append(Burst(release_time_s=i * interval, size_bytes=size,
                            inter_burst_time_s=interval))
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
    while release < duration_s:
        ibt = sample_inter_burst_time(params, rng)
        frames = int(round(ibt * params.frame_rate))
        size = sum(sample_frame_size(params, rng) for _ in range(frames))
        bursts.append(Burst(release_time_s=release, size_bytes=size, inter_burst_time_s=ibt))
        release += ibt
    return bursts
