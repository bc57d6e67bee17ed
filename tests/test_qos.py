import math

import pytest

from hand_trace import hand_trace
from twtsim import Burst, QosReport, VideoParams, compute_qos, generate_cbr_bursts, qos_pass
from twtsim.qos import burst_service


def make_trace(deliveries, duration=12.0, background=()):
    """A trace of the DUT flow's (time, bytes) deliveries, and of the
    background flow's, in time order."""
    rows = [(t, "dut", "stream", nb) for t, nb in deliveries]
    rows += [(t, "bg", "noise", nb) for t, nb in background]
    return hand_trace(duration, deliveries=sorted(rows))


def cbr_bursts(n, size=1_000_000, ibt=6.0):
    return [Burst(index=i, release_time_s=i * ibt, size_bytes=size, inter_burst_time_s=ibt)
            for i in range(n)]


def test_burst_service_follows_the_cumulative_bytes():
    bursts = [Burst(index=i, release_time_s=0.0, size_bytes=size, inter_burst_time_s=1.0)
              for i, size in enumerate((1000, 2000, 500, 700))]
    tr = make_trace([(0.1, 600), (0.2, 1400), (0.3, 1000), (0.4, 100), (0.5, 400), (0.6, 300)],
                    background=[(0.15, 5000)])  # other flows do not count
    assert burst_service(tr, bursts) == [
        (0, 0.1, 0.2),  # 0.2 ends burst 0 and starts burst 1
        (1, 0.2, 0.3),  # 0.3 lands exactly on burst 1's end: burst 2 has not started
        (2, 0.4, 0.5),
    ]  # burst 3 started at 0.6 but is unfinished


def test_average_and_instantaneous_series():
    tr = make_trace([(0.5, 3_000_000), (1.5, 3_000_000)], duration=4.0)
    rep = compute_qos(tr, cbr_bursts(1, size=6_000_000))
    assert rep.avg_throughput_mbps == pytest.approx(8 * 6_000_000 / 4.0 / 1e6)
    assert rep.instantaneous_mbps == [
        (0.0, pytest.approx(24.0)),
        (1.0, pytest.approx(24.0)),
        (2.0, 0.0),
        (3.0, 0.0),
    ]


def test_throughput_variation_is_population_cv():
    tr = make_trace([(0.5, 1_000_000), (1.5, 3_000_000)], duration=2.0)
    rep = compute_qos(tr, cbr_bursts(1, size=4_000_000))
    series = [v for _, v in rep.instantaneous_mbps]
    mean = sum(series) / len(series)
    var = sum((v - mean) ** 2 for v in series) / len(series)
    assert rep.throughput_variation == pytest.approx(var**0.5 / mean)


def test_throughput_variation_adds_left_to_right():
    # bytes per 1-s bin whose Mbit/s values, and their squared deviations, a
    # left-to-right sum and a correctly rounded one add differently
    bins = (2624462, 2436271, 274848, 2540069)
    tr = make_trace([(i + 0.5, nb) for i, nb in enumerate(bins)], duration=4.0)
    rep = compute_qos(tr, cbr_bursts(1, size=sum(bins)))
    series = [v for _, v in rep.instantaneous_mbps]
    total = 0.0
    for v in series:
        total += v
    mean = total / len(series)
    squares = [(v - mean) ** 2 for v in series]
    ss = 0.0
    for d in squares:
        ss += d
    assert total != math.fsum(series) and ss != math.fsum(squares)
    assert rep.throughput_variation == math.sqrt(ss / len(series)) / mean


def test_zero_delivery_gives_zero_cv():
    tr = make_trace([], duration=2.0)
    rep = compute_qos(tr, cbr_bursts(1))
    assert rep.avg_throughput_mbps == 0.0
    assert rep.throughput_variation == 0.0


def test_on_time_bursts_are_not_underruns():
    tr = make_trace([(5.0, 1_000_000), (11.9, 1_000_000)], duration=12.0)  # deadlines 6 and 12
    rep = compute_qos(tr, cbr_bursts(2))
    assert rep.underrun_events == 0
    assert rep.underrun_time_s == 0.0
    assert rep.late_bursts == []


def test_late_burst_counts_and_accumulates_lateness():
    # deadlines 6.0 and 12.0
    tr = make_trace([(5.0, 500_000), (7.5, 1_000_000), (13.0, 500_000)], duration=20.0)
    rep = compute_qos(tr, cbr_bursts(2))
    assert rep.underrun_events == 2
    assert rep.underrun_time_s == pytest.approx(1.5 + 1.0)
    assert rep.late_bursts == [(0, pytest.approx(1.5)), (1, pytest.approx(1.0))]


def test_unserved_burst_truncated_at_horizon():
    # deadline 6.0, never finished; horizon 9 -> lateness 3
    tr = make_trace([(1.0, 500)], duration=9.0)
    rep = compute_qos(tr, cbr_bursts(1))
    assert rep.underrun_events == 1
    assert rep.underrun_time_s == pytest.approx(3.0)


def test_unserved_burst_with_deadline_beyond_horizon_is_ignored():
    # deadline 6.0 > duration 5: cannot be judged late yet
    tr = make_trace([(1.0, 500)], duration=5.0)
    rep = compute_qos(tr, cbr_bursts(1))
    assert rep.underrun_events == 0


def report(delivered_bytes, due_bytes, underruns=3):
    return QosReport(
        duration_s=120.0,
        delivered_bytes=delivered_bytes,
        avg_throughput_mbps=8 * delivered_bytes / 120.0 / 1e6,
        instantaneous_mbps=[],
        underrun_events=underruns,
        underrun_time_s=1.0,
        throughput_variation=0.1,
        due_bytes=due_bytes,
        late_bursts=[],
    )


def test_qos_pass_thresholds():
    rep = report(234_000_000, due_bytes=240_000_000)  # 15.6 of 16 Mbit/s due: bitrate floor
    assert qos_pass(rep, 15.6, max_underruns=3)
    assert not qos_pass(rep, 15.61, max_underruns=3)
    assert not qos_pass(rep, 15.6, max_underruns=2)
    assert not qos_pass(report(234_000_000 - 1, due_bytes=240_000_000), 15.6, max_underruns=3)


def test_qos_pass_floor_is_the_load_due_when_below_bitrate():
    due = 213_000_017  # about 14.2 Mbit/s over the 120 s
    assert qos_pass(report(due, due), 15.6, max_underruns=3)
    assert qos_pass(report(due + 1, due), 15.6, max_underruns=3)
    assert not qos_pass(report(due - 1, due), 15.6, max_underruns=3)
    assert not qos_pass(report(due, due, underruns=4), 15.6, max_underruns=3)


def test_due_load_counts_bursts_whose_deadline_is_within_the_horizon():
    video = VideoParams(bitrate_mbps=15.6)  # one burst every 6 s
    aligned = compute_qos(make_trace([], duration=24.0), generate_cbr_bursts(video, 24.0))
    assert aligned.due_bytes == 4 * video.cbr_burst_bytes
    # released at 0, 6 and 12 s; the deadline of the last one (18 s) is past 16 s
    cut = compute_qos(make_trace([], duration=16.0), generate_cbr_bursts(video, 16.0))
    assert cut.due_bytes == 2 * video.cbr_burst_bytes


def test_requires_dut_flow():
    tr = hand_trace(1.0, dut_flow_id=None)
    with pytest.raises(ValueError):
        compute_qos(tr, cbr_bursts(1))
