import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from twtsim import Flow
from twtsim.transport import (CWND_INIT_SEGMENTS, MAX_TIME_S, offer_load, on_ack,
                              on_idle_restart, on_loss)

SEG = 1500


def make_flow(**kw) -> Flow:
    defaults = dict(id="f", dst="sta", kind="saturated")
    defaults.update(kw)
    return Flow(**defaults)


@pytest.mark.parametrize("name", ["base_rtt_s", "idle_restart_s"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_flow_times_must_be_finite_and_positive(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite and > 0"):
        make_flow(**{name: value})


@pytest.mark.parametrize("name", ["base_rtt_s", "idle_restart_s"])
def test_flow_times_fit_the_engine_clock(name):
    # the engine counts integer ns, which its trace stores as int64
    assert MAX_TIME_S == pytest.approx(146 * 365.25 * 86400, rel=1e-3)
    make_flow(**{name: MAX_TIME_S})
    with pytest.raises(ValueError, match=f"^{name} must be at most"):
        make_flow(**{name: 1e300})


def test_queue_limit_is_refused_under_its_field_name():
    # the config reports a message at the line of the key it starts with
    with pytest.raises(ValueError, match="^queue_limit_segments must be >= 1, got 0$"):
        make_flow(queue_limit_segments=0)
    make_flow(queue_limit_segments=1)  # the least queue, one segment, is taken


def test_slow_start_grows_one_segment_per_ack():
    assert on_ack(10.0, math.inf, 4) == 14.0


def test_congestion_avoidance_grows_reciprocally():
    assert on_ack(10.0, 10.0, 1) == pytest.approx(10.0 + 1 / 10.0)
    # ten acks add roughly one segment
    cwnd = 10.0
    for _ in range(10):
        cwnd = on_ack(cwnd, 10.0, 1)
    assert cwnd == pytest.approx(11.0, abs=0.05)


def test_slow_start_hands_over_to_avoidance_at_threshold():
    cwnd = on_ack(7.0, 8.0, 4)  # 7 -> 8 exponential, then reciprocal
    assert 8.0 < cwnd < 9.0


def per_segment_on_ack(cwnd: float, ssthresh: float, acked_segments: int) -> float:
    """The window rule applied one segment at a time."""
    for _ in range(acked_segments):
        cwnd += 1.0 if cwnd < ssthresh else 1.0 / cwnd
    return cwnd


WINDOW = st.floats(1.0, 1e4, allow_nan=False)


@given(cwnd=WINDOW, ssthresh=st.one_of(WINDOW, st.just(math.inf)),
       acked=st.integers(1, 300))
def test_on_ack_is_the_per_segment_rule_bit_for_bit(cwnd, ssthresh, acked):
    assert on_ack(cwnd, ssthresh, acked).hex() == per_segment_on_ack(cwnd, ssthresh, acked).hex()


def test_loss_halves_and_floors():
    assert on_loss(20.0) == 10.0  # the new cwnd and the new ssthresh
    assert on_loss(on_loss(on_loss(3.0))) == 2.0


def test_idle_restart_resets_window_but_remembers_rate():
    cwnd, ssthresh = on_idle_restart(80.0, 40.0)
    assert cwnd == CWND_INIT_SEGMENTS
    assert ssthresh == 60.0  # max(old, 3/4 * cwnd)
    cwnd, ssthresh = on_idle_restart(4.0, 100.0)
    assert cwnd == 4.0  # never grows the window
    assert ssthresh == 100.0


def test_offer_load_respects_cwnd_and_in_flight():
    assert offer_load(10.0, pending_bytes=10**9, in_flight_bytes=0, limit_segments=256) == 10 * SEG
    assert offer_load(10.0, pending_bytes=10**9, in_flight_bytes=4 * SEG,
                      limit_segments=256) == 6 * SEG
    assert offer_load(10.0, pending_bytes=10**9, in_flight_bytes=10 * SEG,
                      limit_segments=256) == 0


def test_offer_load_respects_pending_and_queue_limit():
    assert offer_load(1000.0, pending_bytes=3 * SEG, in_flight_bytes=0,
                      limit_segments=256) == 3 * SEG
    assert offer_load(1000.0, pending_bytes=10**9, in_flight_bytes=0,
                      limit_segments=256) == 256 * SEG


def test_offer_load_sends_partial_tail():
    assert offer_load(10.0, pending_bytes=700, in_flight_bytes=0, limit_segments=256) == 700
    assert offer_load(10.0, pending_bytes=0, in_flight_bytes=0, limit_segments=256) == 0


def min_offer_load(cwnd, pending_bytes, in_flight_bytes, limit_segments):
    """The reference: ``offer_load`` written with the builtin ``min``."""
    if pending_bytes < 0 or in_flight_bytes < 0:
        raise ValueError("pending_bytes and in_flight_bytes must be >= 0")
    headroom = int(cwnd) * SEG - in_flight_bytes
    if headroom <= 0:
        return 0
    admissible = min(pending_bytes, headroom, limit_segments * SEG)
    segments = int(admissible // SEG)
    if segments == 0 and 0 < pending_bytes < SEG:
        return int(pending_bytes)
    return segments * SEG


@st.composite
def offer_args(draw):
    limit = draw(st.integers(1, 300))
    cwnd = draw(st.floats(1.0, 400.0, allow_nan=False))
    in_flight = draw(st.integers(0, int(cwnd) * SEG + SEG))
    headroom = int(cwnd) * SEG - in_flight
    # a burst's backlog is a float (bytes released less bytes sent), a
    # saturated source's is inf; some ties the headroom or the queue limit
    pending = draw(st.one_of(
        st.integers(0, 10**6), st.floats(0.0, 1e6, allow_nan=False), st.just(math.inf),
        st.integers(0, SEG - 1).map(float), st.sampled_from([max(headroom, 0), limit * SEG])))
    return limit, cwnd, pending, in_flight


@given(offer_args())
@example((10, 10.0, 10 * SEG, 0))  # the backlog ties the headroom and the queue limit
@example((20, 10.0, 6 * SEG, 4 * SEG))  # the backlog ties the headroom
@example((20, 10.0, 6.0 * SEG, 4 * SEG))
@example((4, 10.0, 4.0 * SEG, 0))  # the backlog ties the queue limit
@example((256, 10.0, math.inf, 0))
@example((2, 10.0, math.inf, 0))
@example((256, 10.0, 700.0, 0))  # a burst tail shorter than one segment
@example((256, 10.0, 700.0, 9 * SEG + 800))  # ...that ties the headroom left
@example((256, 10.0, 0.0, 0))
@example((256, 10.0, 3 * SEG, 10 * SEG))  # no headroom
@example((256, 10.0, 700.0, 10 * SEG))  # no headroom for a burst tail
@example((256, 10.0, float(SEG), 9 * SEG + 800))  # one segment pending, headroom for less
def test_offer_load_is_the_min_rule(args):
    limit, cwnd, pending, in_flight = args
    got = offer_load(cwnd, pending, in_flight, limit)
    want = min_offer_load(cwnd, pending, in_flight, limit)
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("pending, in_flight", [(-1.0, 0), (0.0, -1)])
def test_offer_load_refuses_a_negative_backlog_or_flight(pending, in_flight):
    with pytest.raises(ValueError, match=">= 0"):
        offer_load(10.0, pending, in_flight, 256)


def test_fractional_cwnd_truncates():
    assert offer_load(5.9, pending_bytes=10**9, in_flight_bytes=0, limit_segments=256) == 5 * SEG
