import math

import numpy as np
import pytest

from twtsim import (
    VideoParams,
    generate_cbr_bursts,
    generate_vbr_bursts,
    sample_frame_size,
    sample_inter_burst_time,
)

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
    p = VideoParams(bitrate_mbps=1000 / 3475, weibull_k=1.0)  # lambda = 1000 bytes
    rng = np.random.default_rng(11)
    n = 100_000  # the tolerance below is at least 5 standard errors of the mean
    mean = float(np.mean([sample_frame_size(p, rng) for _ in range(n)]))
    assert abs(mean - 1000.0) / 1000.0 < 0.02


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
