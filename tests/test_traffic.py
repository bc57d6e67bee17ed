import math
from dataclasses import fields

import numpy as np
import pytest

from twtsim import Burst, VideoParams, generate_cbr_bursts, generate_vbr_bursts
from twtsim.pcg64 import PCG64
from twtsim.traffic import _EXP_MAX, sample_frame_size, sample_inter_burst_time

# Frozen oracles, computed by numerical quadrature (see tests/oracles.py):
#   E[Weibull(k, lam=1)] = integral_0^inf x * (k/1) * x^(k-1) * exp(-x^k) dx
#   E[TruncNormal(6, sqrt(1.8), [2, 10])] by direct quadrature of x*pdf/Z.
WEIBULL_UNIT_MEAN_K08099 = 1.1232077315775444
TRUNC_NORMAL_MEAN = 6.0


def test_oracles_match_quadrature():
    pytest.importorskip("scipy")
    from scipy import integrate

    k = 0.8099
    val, err = integrate.quad(lambda x: x * k * x ** (k - 1) * math.exp(-(x**k)), 0, np.inf)
    assert err < 1e-7
    assert val == pytest.approx(WEIBULL_UNIT_MEAN_K08099, abs=1e-9)

    mean, sd, lo, hi = 6.0, math.sqrt(1.8), 2.0, 10.0

    def pdf(x):
        return math.exp(-((x - mean) ** 2) / (2 * sd * sd))

    z, _ = integrate.quad(pdf, lo, hi)
    m, _ = integrate.quad(lambda x: x * pdf(x), lo, hi)
    assert m / z == pytest.approx(TRUNC_NORMAL_MEAN, abs=1e-12)


def test_default_lambda_tracks_bitrate():
    p = VideoParams(bitrate_mbps=15.6)
    assert p.lambda_bytes == pytest.approx(6950 * 15.6 / 2)


def test_frame_size_mean_matches_oracle():
    p = VideoParams(bitrate_mbps=15.6)
    rng = np.random.default_rng(7)
    n = 100_000  # the tolerance below is at least 5 standard errors of the mean
    draws = np.array([sample_frame_size(p, rng) for _ in range(n)], dtype=float)
    expected = p.lambda_bytes * WEIBULL_UNIT_MEAN_K08099
    assert abs(draws.mean() - expected) / expected < 0.02
    assert draws.min() >= 1


def test_frame_size_exponential_degenerate_case():
    # lambda = 1000 bytes at shape 0.8099, so the bundled shape's mean frame,
    # 1000 * Γ(1 + 1/0.8099) bytes, is the exponential scale and mean
    p = VideoParams(bitrate_mbps=1000 / 3475, weibull_k=1.0)
    expected = 1000 * WEIBULL_UNIT_MEAN_K08099
    assert p.lambda_bytes == pytest.approx(expected, rel=1e-9)
    rng = np.random.default_rng(11)
    n = 100_000  # the tolerance below is at least 5 standard errors of the mean
    mean = float(np.mean([sample_frame_size(p, rng) for _ in range(n)]))
    assert abs(mean - expected) / expected < 0.02


def test_inter_burst_time_bounds_and_mean():
    p = VideoParams(bitrate_mbps=15.6)
    rng = np.random.default_rng(3)
    n = 100_000  # the tolerance below is at least 5 standard errors of the mean
    draws = np.array([sample_inter_burst_time(p, rng) for _ in range(n)])
    assert draws.min() >= 2.0 and draws.max() <= 10.0
    assert abs(draws.mean() - TRUNC_NORMAL_MEAN) / TRUNC_NORMAL_MEAN < 0.01


def test_inter_burst_time_zero_variance_is_constant():
    p = VideoParams(bitrate_mbps=15.6, ibt_var_s2=0.0)
    rng = np.random.default_rng(5)
    assert all(sample_inter_burst_time(p, rng) == 6.0 for _ in range(100))


def test_cbr_burst_sizes_and_timing():
    p = VideoParams(bitrate_mbps=15.6)
    assert p.cbr_burst_bytes == 11_700_000
    bursts = generate_cbr_bursts(p, 120.0)
    assert len(bursts) == 20
    assert [b.release_time_s for b in bursts] == [6.0 * i for i in range(20)]
    assert all(b.size_bytes == 11_700_000 for b in bursts)
    assert all(b.inter_burst_time_s == 6.0 for b in bursts)
    total_rate = 8 * sum(b.size_bytes for b in bursts) / 120.0 / 1e6
    assert total_rate == pytest.approx(15.6)


def test_a_burst_stores_no_index():
    # a burst's index is its place in the session's list
    assert [f.name for f in fields(Burst)] == ["release_time_s", "size_bytes",
                                               "inter_burst_time_s"]


@pytest.mark.parametrize("release, size, ibt", [(0.0, 0, 6.0), (-1.0, 1, 6.0), (0.0, 1, 0.0)],
                         ids=["empty", "released before 0", "no inter-burst time"])
def test_a_burst_holds_bytes_and_is_released_in_time(release, size, ibt):
    with pytest.raises(ValueError, match="^burst "):
        Burst(release_time_s=release, size_bytes=size, inter_burst_time_s=ibt)


@pytest.mark.parametrize("generate", [
    generate_cbr_bursts, lambda p, d: generate_vbr_bursts(p, d, np.random.default_rng(1))],
    ids=["cbr", "vbr"])
def test_a_session_of_no_time_is_refused(generate):
    with pytest.raises(ValueError, match="^duration_s must be > 0, got 0"):
        generate(VideoParams(), 0.0)


def test_vbr_bursts_follow_the_frame_model():
    p = VideoParams(bitrate_mbps=15.6)
    bursts = generate_vbr_bursts(p, 120.0, np.random.default_rng(17))
    assert bursts[0].release_time_s == 0.0
    for prev, cur in zip(bursts, bursts[1:]):
        gap = cur.release_time_s - prev.release_time_s
        assert gap == pytest.approx(prev.inter_burst_time_s)
        assert 2.0 <= gap <= 10.0
    # sizes are sums of whole frames at 30 fps
    for b in bursts:
        frames = round(b.inter_burst_time_s * p.frame_rate)
        assert b.size_bytes >= frames  # every frame at least 1 byte
    # long-run offered rate sits near lambda * gamma-mean * fps
    total = sum(b.size_bytes for b in bursts)
    span = bursts[-1].release_time_s + bursts[-1].inter_burst_time_s
    per_s = total / span
    expected = p.lambda_bytes * WEIBULL_UNIT_MEAN_K08099 * p.frame_rate
    assert abs(per_s - expected) / expected < 0.1


def test_vbr_offered_load_follows_the_bitrate_at_any_frame_rate_and_shape():
    def offered_mbps(video: VideoParams) -> float:
        bursts = generate_vbr_bursts(video, 3600.0, np.random.default_rng(12345))
        span = bursts[-1].release_time_s + bursts[-1].inter_burst_time_s
        return 8 * sum(b.size_bytes for b in bursts) / span / 1e6

    # the bundled stream offers about 94% of its bitrate, 14.6 of 15.6 Mbit/s
    bundled = offered_mbps(VideoParams())
    assert 14.4 < bundled < 14.8
    # within 2% of it: over seeds 1-5 these streams differed by at most 0.4%,
    # where a rate following frame_rate and shape differed by -20% to +100%
    for fps in (24, 30, 60):
        for k in (0.6, 0.8099, 1.2):
            got = offered_mbps(VideoParams(frame_rate=fps, weibull_k=k))
            assert abs(got / bundled - 1) < 0.02, (fps, k, got)


def test_vbr_reproducible_per_seed():
    p = VideoParams(bitrate_mbps=15.6)
    a = generate_vbr_bursts(p, 60.0, np.random.default_rng(23))
    b = generate_vbr_bursts(p, 60.0, np.random.default_rng(23))
    c = generate_vbr_bursts(p, 60.0, np.random.default_rng(24))
    assert a == b
    assert a != c


def test_video_params_reject_nonpositive_sizes_and_intervals():
    with pytest.raises(ValueError, match="cbr_interval_s"):
        VideoParams(bitrate_mbps=15.6, cbr_interval_s=0)
    with pytest.raises(ValueError, match="ibt_var_s2"):
        VideoParams(bitrate_mbps=15.6, ibt_var_s2=-1)
    # a VBR burst of round(ibt * frame_rate) = 0 frames would be empty
    with pytest.raises(ValueError, match="ibt_min_s"):
        VideoParams(bitrate_mbps=15.6, ibt_mean_s=0.02, ibt_min_s=0.005, ibt_max_s=0.04)


VIDEO_FIELDS = ["bitrate_mbps", "frame_rate", "weibull_k", "ibt_mean_s", "ibt_min_s", "ibt_max_s",
                "cbr_interval_s"]


@pytest.mark.parametrize("name", VIDEO_FIELDS)
@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_video_params_must_be_finite_and_positive(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite and > 0"):
        VideoParams(**{name: value})


@pytest.mark.parametrize("value", [-1.0, math.inf, math.nan, 1e12])
def test_inter_burst_variance_must_leave_the_window_drawable(value):
    # 1e12 hits [2, 10] s with probability 3.2e-6: about 300,000 draws a burst
    with pytest.raises(ValueError, match="^ibt_var_s2 "):
        VideoParams(ibt_var_s2=value)


def test_a_window_the_normal_never_hits_is_refused_but_a_point_mass_is_drawn():
    with pytest.raises(ValueError, match=r"^ibt_var_s2 1.8 .* probability 0,"):
        VideoParams(ibt_min_s=6.0, ibt_max_s=6.0)
    point = VideoParams(ibt_min_s=6.0, ibt_max_s=6.0, ibt_var_s2=0.0)
    bursts = generate_vbr_bursts(point, 60.0, np.random.default_rng(1))
    assert {b.inter_burst_time_s for b in bursts} == {6.0}


class _CountingRng:
    def __init__(self, rng):
        self.rng, self.draws = rng, 0

    def normal(self, loc, scale):
        self.draws += 1
        return self.rng.normal(loc, scale)


def test_the_inter_burst_floor_bounds_the_rejection_draws():
    # a variance that hits [2, 10] s with probability 2e-3 is taken; the
    # sampler then makes about 500 draws a burst, fewer than the floor's 1000
    rng = _CountingRng(np.random.default_rng(9))
    for _ in range(40):
        sample_inter_burst_time(VideoParams(ibt_var_s2=2.5e6), rng)
    assert 250 < rng.draws / 40 < 1000
    with pytest.raises(ValueError, match=r"^ibt_var_s2 .* probability 0.000498, below 0.001"):
        VideoParams(ibt_var_s2=4.1e7)


def _tail_draw(rng: PCG64) -> int:
    """The PCG64 output that takes the exponential's ziggurat tail (layer 0)
    with the largest uniform, 1 - 2**-53."""
    return (2**64 - 1) & ~(0xFF << 3)


def test_the_largest_exponential_is_pcg64s_tail_at_its_largest_uniform():
    rng = PCG64(1)
    rng._next64 = _tail_draw.__get__(rng)
    assert rng._standard_exponential() == _EXP_MAX


def test_weibull_k_is_bounded_by_the_largest_burst():
    with pytest.raises(ValueError, match="^weibull_k 1e-300 "):
        VideoParams(weibull_k=1e-300)
    # below about 3.6e-306, log Γ(1 + 1/k) overflows a float (down to the
    # smallest normal and past it, until 1/k is inf): the scale is 0
    for k in (1e-306, 2.2250738585072014e-308, 5e-309):
        with pytest.raises(ValueError, match=rf"^weibull_k {k} at frame_rate 30.0 .* to 0 bytes"):
            VideoParams(weibull_k=k)
    # the Weibull scale is divided by Γ(1 + 1/k), and below k = 0.00563 that
    # factor underflows to 0 at any bitrate; above it, the largest frame of the
    # bundled stream is about e^-58 bytes, floored to 1
    with pytest.raises(ValueError, match=r"^weibull_k 0.0056 at frame_rate 30.0 .* to 0 bytes"):
        VideoParams(weibull_k=0.0056)
    video = VideoParams(weibull_k=0.0057)
    rng = PCG64(1)
    rng._next64 = _tail_draw.__get__(rng)
    assert 0 < video.lambda_bytes < 1e-300 and sample_frame_size(video, rng) == 1
    # so the largest draw, _EXP_MAX ** (1 / k), is finite; a large enough scale
    # still overflows the largest burst
    assert VideoParams(bitrate_mbps=1e299, cbr_interval_s=1e-10).lambda_bytes > 1e302
    with pytest.raises(ValueError, match=r"^weibull_k 0.8099 lets a VBR burst of 300 frames "):
        VideoParams(bitrate_mbps=1e300, cbr_interval_s=1e-10)


def test_a_stream_whose_bursts_overflow_is_refused_by_the_field_that_overflows():
    with pytest.raises(ValueError, match="^bitrate_mbps 1e[+]303 makes a 6.0 s CBR burst of inf bytes"):
        VideoParams(bitrate_mbps=1e303)
    # a frame's scale falls as 1 / frame_rate, so only a frame count past the
    # largest double overflows the burst
    with pytest.raises(ValueError, match="^frame_rate 1e[+]308 .* overflows a VBR burst"):
        VideoParams(frame_rate=1e308)
