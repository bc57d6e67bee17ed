import gc
import hashlib
import heapq
import math
import random
import tracemalloc
import weakref
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import twtsim.macsim
from hand_trace import wake_windows_s
from twtsim import (
    Burst,
    Flow,
    MacParams,
    Scenario,
    Station,
    TwtSchedule,
    VideoParams,
    compute_qos,
    generate_cbr_bursts,
    generate_vbr_bursts,
    paper_setup,
    run_sim,
    schedule_from,
)
from twtsim.macsim import (
    COLLISION_ID,
    _Contender,
    _Engine,
    _FlowState,
    _index_typecode,
    aggregate_ns,
    back_solve_phy_rate,
    backoff_draw,
    mpdu_airtime_ns,
    seed_state,
)
from twtsim.pcg64 import PCG64
from twtsim.qos import burst_service
from twtsim.transport import MAX_TIME_S

MAC = MacParams()


def single_contender_bound_mbps(phy_rate_mbps: float, mac: MacParams) -> float:
    """Closed-form saturation throughput of a lone contender (upper bound)."""
    t_mpdu_us = Flow.segment_bytes * 8 / phy_rate_mbps
    n = min(mac.max_ampdu_mpdus,
            int((mac.txop_limit_us - mac.per_frame_overhead_us) // t_mpdu_us))
    payload_us = n * t_mpdu_us
    mean_backoff_us = mac.cw_min / 2 * mac.slot_us
    return phy_rate_mbps * payload_us / (payload_us + mac.per_frame_overhead_us + mean_backoff_us)


def two_station_scenario(**kw) -> Scenario:
    defaults = dict(
        stations=(
            Station(id="ap", role="ap"),
            Station(id="sta", role="client", phy_rate_mbps=100.0),
        ),
        flows=(Flow(id="f1", dst="sta", kind="saturated", base_rtt_s=0.002),),
        duration_s=5.0,
        seed=1,
    )
    defaults.update(kw)
    return Scenario(**defaults)


# ---------------------------------------------------------------- backoff ---

def test_backoff_range_per_stage():
    rng = random.Random(0)
    for stage, cw in ((0, 15), (1, 31), (2, 63), (3, 127), (4, 255), (5, 511), (6, 1023)):
        draws = [backoff_draw(MAC, stage, rng) for _ in range(4000)]
        assert min(draws) >= 0 and max(draws) <= cw
        assert max(draws) > cw // 2  # actually explores the upper half


def test_backoff_uniform_mean():
    rng = random.Random(1)
    n = 200_000
    mean = sum(backoff_draw(MAC, 0, rng) for _ in range(n)) / n
    assert mean == pytest.approx(7.5, abs=0.1)


def test_backoff_draws_what_randint_draws():
    # the pinned digests were recorded with rng.randint(0, cw)
    for stage in range(MAC.max_stage + 1):
        cw = min(MAC.cw_max, ((MAC.cw_min + 1) << stage) - 1)
        ours, ref = random.Random(stage), random.Random(stage)
        assert ([backoff_draw(MAC, stage, ours) for _ in range(500)]
                == [ref.randint(0, cw) for _ in range(500)])


def test_backoff_stage_bounds_checked():
    rng = random.Random(2)
    with pytest.raises(ValueError):
        backoff_draw(MAC, -1, rng)
    with pytest.raises(ValueError):
        backoff_draw(MAC, MAC.max_stage + 1, rng)


# ---------------------------------------------------------------- seeding ---

WORD = st.integers(0, 2**32 - 1)
BIG = st.integers(0, 2**128)  # up to five 32-bit words


def numpy_state(entropy, spawn_key=(), n_words=1) -> int:
    words = np.random.SeedSequence(entropy, spawn_key=spawn_key).generate_state(n_words)
    return int.from_bytes(words.astype("<u4").tobytes(), "little")


@settings(deadline=None)
@given(entropy=st.one_of(BIG, st.lists(BIG, max_size=6)),
       spawn_key=st.lists(BIG, max_size=3).map(tuple))
def test_seed_state_is_numpys_first_state_word(entropy, spawn_key):
    assert seed_state(entropy, spawn_key) == numpy_state(entropy, spawn_key)


@settings(deadline=None)
@given(entropy=st.one_of(BIG, st.lists(BIG, max_size=6)),
       spawn_key=st.lists(BIG, max_size=3).map(tuple), n_words=st.integers(1, 9))
def test_seed_state_is_numpys_first_n_state_words(entropy, spawn_key, n_words):
    # the pool holds four words, so n_words > 4 cycles through it
    assert (seed_state(entropy, spawn_key, n_words)
            == numpy_state(entropy, spawn_key, n_words))


@settings(deadline=None)
@given(entropy=st.lists(WORD, max_size=3), spawn_key=st.lists(WORD, min_size=1, max_size=3))
def test_seed_state_pads_short_entropy_before_a_spawn_key(entropy, spawn_key):
    # fewer than four entropy words: numpy pads them with zeros to the pool size
    assert seed_state(entropy, tuple(spawn_key)) == numpy_state(entropy, tuple(spawn_key))


@pytest.mark.parametrize("entropy, spawn_key", [(-1, ()), ([3, -2], ()), (7, (0, -1))])
def test_seed_state_rejects_negative_words_as_numpy_does(entropy, spawn_key):
    with pytest.raises(ValueError, match="expected non-negative integer"):
        numpy_state(entropy, spawn_key)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        seed_state(entropy, spawn_key)


def test_cw_values_must_be_powers_of_two_minus_one():
    with pytest.raises(ValueError):
        MacParams(cw_min=16)
    with pytest.raises(ValueError):
        MacParams(cw_max=1000)
    with pytest.raises(ValueError):
        MacParams(cw_min=31, cw_max=15)
    # the bounds themselves: the smallest window, and one stage only
    assert MacParams(cw_min=1).backoff_stages[0] == (1, 2)
    assert MacParams(cw_min=15, cw_max=15).backoff_stages == ((15, 5),)


@pytest.mark.parametrize("name", ["slot_us", "difs_us", "max_ampdu_mpdus", "txop_limit_us",
                                  "per_frame_overhead_us"])
def test_mac_fields_of_zero_are_refused(name):
    with pytest.raises(ValueError, match=f"^{name} must be > 0$"):
        MacParams(**{name: 0})


def test_a_txop_limit_equal_to_the_overhead_is_refused():
    with pytest.raises(ValueError, match="^txop_limit_us must exceed per_frame_overhead_us$"):
        MacParams(txop_limit_us=100, per_frame_overhead_us=100)


def test_txop_limit_is_at_most_802_11s_longest():
    # with an overhead just below it, what starts before a run's end ends inside int64 ns
    MacParams(txop_limit_us=65535 * 32, per_frame_overhead_us=65535 * 32 - 1)
    with pytest.raises(ValueError, match="^txop_limit_us must be at most 2097120"):
        MacParams(txop_limit_us=65535 * 32 + 1)


# -------------------------------------------------------------- aggregate ---

# aggregate_ns(t_mpdu_ns, budget_ns, overhead_ns, max_ampdu, queued_segments)
TXOP_NS = MAC.txop_limit_us * 1000
OVERHEAD_NS = MAC.per_frame_overhead_us * 1000


def test_aggregate_caps_by_txop_budget():
    # 100 Mbit/s -> 120 us per 1500-byte MPDU; (5484 - 100) / 120 = 44.8
    t_mpdu = mpdu_airtime_ns(100.0)
    assert aggregate_ns(t_mpdu, TXOP_NS, OVERHEAD_NS, 64, 10**6) == 44


def test_aggregate_caps_by_ampdu_limit():
    t_mpdu = mpdu_airtime_ns(100.0)
    assert aggregate_ns(t_mpdu, 100_000_000, OVERHEAD_NS, 64, 10**6) == 64


def test_aggregate_caps_by_window_remaining():
    # 95 Mbit/s -> 126.31 us per MPDU; (8191 - 100) // 126.31 = 64
    t_mpdu = mpdu_airtime_ns(95.0)
    assert aggregate_ns(t_mpdu, 8_191_000, OVERHEAD_NS, 64, 10**6) == 64
    assert aggregate_ns(t_mpdu, 300_000, OVERHEAD_NS, 64, 10**6) == 1
    assert aggregate_ns(t_mpdu, 220_000, OVERHEAD_NS, 64, 10**6) == 0


def test_aggregate_caps_by_queue():
    # the engine queues full segments plus a tail: 1501 bytes are 2 MPDUs
    t_mpdu = mpdu_airtime_ns(100.0)
    assert aggregate_ns(t_mpdu, TXOP_NS, OVERHEAD_NS, 64, 1) == 1
    assert aggregate_ns(t_mpdu, TXOP_NS, OVERHEAD_NS, 64, 2) == 2
    assert aggregate_ns(t_mpdu, TXOP_NS, OVERHEAD_NS, 64, 0) == 0


def min_aggregate_ns(t_mpdu_ns, budget_ns, overhead_ns, max_ampdu, queued_segments):
    """The reference: ``aggregate_ns`` written with the builtin ``min``."""
    if queued_segments <= 0:
        return 0
    avail = budget_ns - overhead_ns
    if avail < t_mpdu_ns:
        return 0
    return min(max_ampdu, queued_segments, avail // t_mpdu_ns)


@st.composite
def aggregate_args(draw):
    t_mpdu = draw(st.integers(1, 10**6))
    overhead = draw(st.integers(0, 10**6))
    # budgets below, at and past the overhead, by up to 300 MPDUs and a part of one
    budget = overhead + draw(st.integers(-2, 300)) * t_mpdu + draw(st.integers(0, t_mpdu - 1))
    if draw(st.booleans()):
        budget = float(budget)  # the result's type follows min's choice among ties
    return t_mpdu, budget, overhead, draw(st.integers(1, 256)), draw(st.integers(-1, 300))


@given(aggregate_args())
# a budget at the overhead, at and just below one MPDU past it, and below it;
# zero and negative queues
@example((120_000, OVERHEAD_NS, OVERHEAD_NS, 64, 10))
@example((120_000, OVERHEAD_NS + 120_000, OVERHEAD_NS, 64, 10))
@example((120_000, OVERHEAD_NS + 119_999, OVERHEAD_NS, 64, 10))
@example((120_000, OVERHEAD_NS - 1, OVERHEAD_NS, 64, 10))
@example((120_000, TXOP_NS, OVERHEAD_NS, 64, 0))
@example((120_000, TXOP_NS, OVERHEAD_NS, 64, -1))
# each cap binding alone: the A-MPDU limit, the queue, what fits the budget
@example((100, 10**6, 0, 64, 100))
@example((120_000, TXOP_NS, OVERHEAD_NS, 64, 10))
@example((120_000, TXOP_NS, OVERHEAD_NS, 64, 100))
# ties among the A-MPDU cap, the queue and what fits, in int and float
@example((100, 6400, 0, 64, 64))
@example((100, 6400.0, 0, 64, 64))
@example((100, 6400.0, 0, 64, 65))
@example((100, 6400.0, 0, 65, 64))
def test_aggregate_ns_is_the_min_rule(args):
    got, want = aggregate_ns(*args), min_aggregate_ns(*args)
    assert got == want and type(got) is type(want)


# ----------------------------------------------------------- steady state ---

def test_single_contender_near_closed_form_bound():
    sc = two_station_scenario(duration_s=8.0)
    got = run_sim(sc).flow_throughput_mbps("f1")
    bound = single_contender_bound_mbps(100.0, MAC)
    assert got <= bound + 1e-6
    assert got >= 0.85 * bound


def test_back_solve_reproduces_standalone_figure():
    for target in (63.5, 95.0):
        rate = back_solve_phy_rate(target, MAC, two_station_scenario().flows[0])
        sc = two_station_scenario(
            stations=(
                Station(id="ap", role="ap"),
                Station(id="sta", role="client", phy_rate_mbps=rate),
            ),
            duration_s=10.0,
            seed=123,
        )
        got = run_sim(sc).flow_throughput_mbps("f1")
        assert got == pytest.approx(target, rel=0.03)


def test_bundled_rates_are_pinned():
    # the rates bisection gives the bundled clients, kept in macsim._CALIBRATED
    rates = {s.id: s.phy_rate_mbps for s in paper_setup().stations if s.role == "client"}
    assert rates == {"client1": 71.7596078068018, "client2": 85.37158116698265,
                     "client3": 194.12763938307762, "client4": 107.01004639267921}


# the bundled config's calibration stream to client "c"
CAL = Flow(id="cal", dst="c", kind="saturated", base_rtt_s=0.002)


def test_calibration_table_is_recomputed(monkeypatch):
    # each entry of the table is what bisection gives, bit for bit
    table = dict(twtsim.macsim._CALIBRATED)
    monkeypatch.setattr(twtsim.macsim, "_CALIBRATED", {})
    got = {key: back_solve_phy_rate(key[0], key[1], replace(key[2], id="cal", dst="c"))
           for key in table}
    entries = "".join(f"    {key!r}: {rate!r},\n" for key, rate in got.items())
    assert [r.hex() for r in got.values()] == [r.hex() for r in table.values()], (
        f"bisection disagrees with the table; after a labelled model change, "
        f"set in macsim.py\n_CALIBRATED = {{\n{entries}}}")


@pytest.mark.parametrize("figure", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_back_solve_refuses_a_figure_that_is_not_finite_and_positive(monkeypatch, figure):
    monkeypatch.setattr(twtsim.macsim, "run_sim", _no_run)
    with pytest.raises(ValueError, match="^standalone_mbps must be finite and > 0"):
        back_solve_phy_rate(figure, MAC, CAL)


class _Ran(Exception):
    pass


def _no_run(sc):
    raise _Ran


MAC_CHANGES = {"slot_us": 10, "difs_us": 43, "cw_min": 31, "cw_max": 511, "max_ampdu_mpdus": 32,
               "txop_limit_us": 3000, "per_frame_overhead_us": 50}


@pytest.mark.parametrize("standalone, mac, flow", [
    (63.6, MacParams(), CAL),
    *[(63.5, MacParams(**{k: v}), CAL) for k, v in MAC_CHANGES.items()],
    *[(63.5, MacParams(), replace(CAL, **{k: v}))
      for k, v in (("base_rtt_s", 0.003), ("queue_limit_segments", 128), ("idle_restart_s", 2.0))],
], ids=["standalone_mbps", *MAC_CHANGES, "base_rtt_s", "queue_limit_segments", "idle_restart_s"])
def test_a_changed_calibration_input_misses_the_table(monkeypatch, standalone, mac, flow):
    monkeypatch.setattr(twtsim.macsim, "run_sim", _no_run)
    with pytest.raises(_Ran):
        back_solve_phy_rate(standalone, mac, flow)


def _fake_run(throughput):
    """A ``run_sim`` stand-in whose trace gives ``throughput(client rate)`` for every flow."""
    def run(sc):
        rate = sc.stations[1].phy_rate_mbps
        return SimpleNamespace(flow_throughput_mbps=lambda flow_id: throughput(rate))
    return run


def test_back_solve_refuses_a_figure_whose_bracket_overflows_without_a_run(monkeypatch):
    monkeypatch.setattr(twtsim.macsim, "run_sim", _no_run)
    assert 1e308 * 4 == math.inf
    with pytest.raises(ValueError, match="^standalone_mbps 1e\\+308 is not reachable"):
        back_solve_phy_rate(1e308, MAC, CAL)


def test_back_solve_accepts_a_figure_reached_exactly_at_the_top_of_its_bracket(monkeypatch):
    # the throughput is a quarter of the rate, so the figure is reached at 4x it
    monkeypatch.setattr(twtsim.macsim, "run_sim", _fake_run(lambda rate: rate / 4))
    assert back_solve_phy_rate(50.0, MAC, CAL) == pytest.approx(200.0, rel=1e-6)


def test_back_solve_returns_the_least_rate_that_reaches_the_figure(monkeypatch):
    # every rate at or above the figure delivers exactly the figure
    monkeypatch.setattr(twtsim.macsim, "run_sim", _fake_run(lambda rate: min(rate, 50.0)))
    assert back_solve_phy_rate(50.0, MAC, CAL) == pytest.approx(50.0, rel=1e-6)


def test_every_mac_field_is_changed_by_a_miss_case():
    assert set(MAC_CHANGES) == {f.name for f in fields(MacParams)}


def test_renamed_calibration_stream_hits_the_table(monkeypatch):
    # the station and flow ids only label the run
    monkeypatch.setattr(twtsim.macsim, "run_sim", _no_run)
    assert back_solve_phy_rate(63.5, MacParams(), replace(CAL, id="x", dst="laptop")) \
        == 71.7596078068018


def test_throughput_splits_between_clients():
    sc = Scenario(
        stations=(
            Station(id="ap", role="ap"),
            Station(id="a", role="client", phy_rate_mbps=100.0),
            Station(id="b", role="client", phy_rate_mbps=100.0),
        ),
        flows=(
            Flow(id="fa", dst="a", kind="saturated", base_rtt_s=0.002),
            Flow(id="fb", dst="b", kind="saturated", base_rtt_s=0.002),
        ),
        duration_s=8.0,
        seed=3,
    )
    tr = run_sim(sc)
    fa, fb = tr.flow_throughput_mbps("fa"), tr.flow_throughput_mbps("fb")
    assert fa + fb > 0.75 * single_contender_bound_mbps(100.0, MAC)
    assert abs(fa - fb) / max(fa, fb) < 0.1  # fair round-robin split
    assert tr.collisions > 0  # uplink ack returns do collide sometimes


# ------------------------------------------------------------ determinism ---

def test_identical_seeds_identical_traces():
    a = run_sim(two_station_scenario(seed=42))
    b = run_sim(two_station_scenario(seed=42))
    assert list(a.deliveries) == list(b.deliveries)
    assert list(a.airtime) == list(b.airtime)
    assert a.delivered_bytes == b.delivered_bytes
    assert a.collisions == b.collisions


def test_different_seeds_differ():
    a = run_sim(two_station_scenario(seed=1))
    b = run_sim(two_station_scenario(seed=2))
    assert list(a.deliveries) != list(b.deliveries)


def test_airtime_entries_never_overlap():
    sc = Scenario(
        stations=(
            Station(id="ap", role="ap"),
            Station(id="a", role="client", phy_rate_mbps=100.0),
            Station(id="b", role="client", phy_rate_mbps=160.0),
        ),
        flows=(
            Flow(id="fa", dst="a", kind="saturated", base_rtt_s=0.002),
            Flow(id="fb", dst="b", kind="saturated", base_rtt_s=0.002),
        ),
        duration_s=4.0,
        seed=9,
    )
    tr = run_sim(sc)
    spans = sorted(tr.airtime)
    assert spans
    for (a0, a1, _), (b0, b1, _) in zip(spans, spans[1:]):
        assert a1 <= b0 + 1e-12, "overlapping transmissions"
        assert a1 > a0


# ------------------------------------------------------------------ TWT -----

def gated_scenario(duty: int, mf: int, seed: int = 5, duration_s: float = 6.0) -> Scenario:
    return Scenario(
        stations=(
            Station(id="ap", role="ap"),
            Station(id="dut", role="client", phy_rate_mbps=100.0),
            Station(id="bg", role="client", phy_rate_mbps=100.0),
        ),
        twt=("dut", schedule_from(duty, mf)),
        flows=(
            Flow(id="stream", dst="dut", kind="saturated", base_rtt_s=0.002),
            Flow(id="noise", dst="bg", kind="saturated", base_rtt_s=0.002),
        ),
        duration_s=duration_s,
        seed=seed,
    )


def test_no_dut_delivery_outside_wake_windows():
    for seed in (5, 6, 7):
        sc = gated_scenario(duty=25, mf=4, seed=seed)
        tr, windows = run_sim(sc), wake_windows_s(sc)
        assert windows
        for t, _station, flow, _nb in tr.deliveries:
            if flow == "stream":
                assert any(a <= t <= b for a, b in windows), (seed, t)


def test_dut_airtime_inside_wake_windows():
    sc = gated_scenario(duty=20, mf=2)
    tr, windows = run_sim(sc), wake_windows_s(sc)

    def inside(a, b):
        return any(w0 <= a and b <= w1 + 1e-12 for w0, w1 in windows)

    # the AP's A-MPDU to the DUT ends at the delivery time it produced
    ap_start = {b: a for a, b, station in tr.airtime if station == "ap"}
    dut_rx = [(ap_start[t], t) for t, _station, flow, _nb in tr.deliveries if flow == "stream"]
    dut_tx = [(a, b) for a, b, station in tr.airtime if station == "dut"]
    assert dut_rx and dut_tx
    for a, b in dut_rx + dut_tx:
        assert inside(a, b), (a, b)


def test_gating_throttles_throughput():
    open_tr = run_sim(gated_scenario(duty=100, mf=1))
    gated_tr = run_sim(gated_scenario(duty=20, mf=1))
    assert gated_tr.flow_throughput_mbps("stream") < 0.5 * open_tr.flow_throughput_mbps("stream")


def test_full_duty_equals_twt_disabled():
    # a schedule that never sleeps gates nothing, whatever its MF
    pinned = _pinned_scenarios()
    for name, sc, mf in (("gated", gated_scenario(duty=20, mf=1), 1),
                         ("cbr_mf64", pinned["cbr_mf64"], 64), ("vbr_mf4", pinned["vbr_mf4"], 4),
                         ("gated_mid", pinned["gated_mid"], 32)):
        ta = run_sim(replace(sc, twt=(sc.twt[0], schedule_from(100, mf))))
        tb = run_sim(replace(sc, twt=None))
        assert ta.deliveries, name
        assert list(ta.deliveries) == list(tb.deliveries), name
        assert list(ta.airtime) == list(tb.airtime), name
        assert ta.drops == tb.drops, name


# ------------------------------------------------------------- validation ---

def test_ampdu_beyond_the_queue_raises_naming_the_station():
    engine = _Engine(two_station_scenario())
    (sta,) = engine.clients
    with pytest.raises(RuntimeError, match="'sta'"):
        engine._on_ampdu_end(0, (sta, 1))  # nothing queued
    engine._on_arrive(0, (engine.flows["f1"], 4 * 1500 + 700))  # four segments and a tail
    assert sta.qsegs == 5
    with pytest.raises(RuntimeError, match="'sta'.* 5 queued"):
        engine._on_ampdu_end(0, (sta, 6))
    assert sta.qsegs == 5  # the failed dequeue took nothing
    engine._on_ampdu_end(0, (sta, 5))
    assert sta.qsegs == 0
    assert list(engine.trace.deliveries) == [(0.0, "sta", "f1", 6700)]


def test_a_tail_that_overflows_the_queue_by_exactly_itself_is_dropped():
    flow = Flow(id="f1", dst="sta", kind="saturated", base_rtt_s=0.002, queue_limit_segments=4)
    engine = _Engine(two_station_scenario(flows=(flow,)))
    (sta,) = engine.clients
    fs = engine.flows["f1"]
    fs.sent = fs.in_flight = 4 * 1500 + 700
    engine.busy_until = engine.horizon  # an arrival on a busy channel starts no cycle
    engine._on_arrive(0, (fs, 4 * 1500 + 700))  # the full segments fill the queue
    assert sta.qsegs == fs.queued_segments == 4
    assert engine.trace.drops == {"f1": 1}
    assert fs.sent == fs.in_flight == 4 * 1500


def test_a_transmission_on_a_busy_channel_raises():
    engine = _Engine(two_station_scenario())
    engine._on_arrive(0, (engine.flows["f1"], 4 * 1500))  # the idle channel starts an A-MPDU
    end = engine.tx_end[0]
    engine.ap_cont.bo = 0
    engine.race = race = ([engine.ap_cont], 0)  # a scheduled cycle, resumed before the end
    with pytest.raises(RuntimeError, match="another was on the channel"):
        engine._contend(end - 1, race)


def test_an_ap_with_nothing_to_send_raises_instead_of_selecting_none():
    # _ap_pending and _select_ap_tx must agree; if they do not, the collision
    # path would index the missing selection
    engine = _Engine(two_station_scenario())
    with pytest.raises(RuntimeError, match="at 0 ns with nothing it can send"):
        engine._select_ap_tx(0)


def _idle_flow(cwnd: float, in_flight_segments: int) -> tuple[_Engine, _FlowState]:
    """An engine whose saturated 'f1' last sent at 0 and has ``cwnd`` and
    ``in_flight_segments`` segments in flight."""
    engine = _Engine(two_station_scenario())
    fs = engine.flows["f1"]
    fs.cwnd = cwnd
    fs.sent = fs.in_flight = in_flight_segments * 1500
    fs.last_send_ns = 0
    return engine, fs


def test_a_gap_of_exactly_the_idle_time_does_not_restart_the_window():
    engine, fs = _idle_flow(20.0, 0)
    engine._try_send(fs.idle_ns, fs)
    assert (fs.cwnd, fs.ssthresh) == (20.0, math.inf)
    assert [event[3][1] for event in engine.heap] == [20 * 1500]
    assert fs.last_send_ns == fs.idle_ns


def test_a_gap_one_ns_past_the_idle_time_restarts_the_window():
    engine, fs = _idle_flow(20.0, 0)
    engine._try_send(fs.idle_ns + 1, fs)
    assert (fs.cwnd, fs.ssthresh) == (10.0, math.inf)
    assert [event[3][1] for event in engine.heap] == [10 * 1500]
    assert fs.last_send_ns == fs.idle_ns + 1


def test_an_idle_restart_that_leaves_no_headroom_sends_nothing():
    # 10 of the 20 segments are in flight: the restarted window of 10 has no room
    engine, fs = _idle_flow(20.0, 10)
    engine._try_send(fs.idle_ns + 1, fs)
    assert fs.cwnd == 10.0
    assert engine.heap == []  # no arrival, not even an empty one
    assert fs.last_send_ns == 0
    assert fs.sent == fs.in_flight == 10 * 1500


def _queued_engine(**kw) -> _Engine:
    """An engine whose AP holds four segments for 'sta' and whose backoff
    counter is 0, so the next cycle starts DIFS after it is resolved."""
    engine = _Engine(two_station_scenario(**kw))
    engine.busy_until = engine.horizon  # an arrival on a busy channel starts no cycle
    engine._on_arrive(0, (engine.flows["f1"], 4 * 1500))
    engine.busy_until = 0
    engine.ap_cont.bo = 0
    return engine


def test_an_event_due_at_a_cycle_start_runs_before_the_transmission():
    engine = _queued_engine()
    start = engine.difs
    due = (start, next(engine.seq), engine.h_contend, None)  # a collision's end, say
    engine.heap.append(due)
    engine._contend(0)
    assert engine.tx_end is None
    assert len(engine.trace.airtime) == 0  # the cycle waits on the heap, behind the event
    assert heapq.heappop(engine.heap) is due
    deferred = heapq.heappop(engine.heap)
    assert deferred[:3:2] == (start, engine._contend)
    assert deferred[3] is engine.race == ([engine.ap_cont], 0)  # the race is its payload


def test_a_cycle_starting_at_the_horizon_logs_no_airtime():
    engine = _queued_engine()
    engine._contend(engine.horizon - engine.difs)
    assert engine.tx_end is None
    assert len(engine.trace.airtime) == 0
    assert engine.heap[0][0] == engine.horizon  # the loop stops there without running it


def test_colliders_at_the_last_stage_stay_there_and_redraw():
    engine = _queued_engine()
    (sta,) = engine.clients
    sta.acks.append([engine.flows["f1"], 1, 1500])
    sta.bo = 0
    last = engine.mac.max_stage
    colliders = (engine.ap_cont, sta)
    for c in colliders:
        c.stage = last
    rngs = [random.Random() for _ in colliders]
    for c, rng in zip(colliders, rngs):
        rng.setstate(c.rng.getstate())
    engine._contend(0)
    assert engine.trace.collisions == 1
    assert list(engine.trace.airtime)[0][2] == COLLISION_ID
    assert engine.tx_end[2:] == (engine._contend, None)  # its end starts the next cycle
    for c, rng in zip(colliders, rngs):
        assert c.stage == last
        assert c.bo == backoff_draw(engine.mac, last, rng) <= engine.mac.cw_max


def _gated_engine() -> _Engine:
    """An engine whose 'dut' sleeps every other millisecond, with nothing queued."""
    sc = gated_scenario(30, 1)
    return _Engine(replace(sc, twt=("dut", TwtSchedule(sp_us=1000, wi_us=1000))))


def test_a_gated_ampdu_that_ends_exactly_at_its_window_end_is_sent():
    engine = _gated_engine()
    dut = engine.clients[0]
    engine.busy_until = engine.horizon  # an arrival on a busy channel starts no cycle
    engine._on_arrive(0, (engine.flows["stream"], 10 * 1500))
    engine.busy_until = 0
    engine.ap_cont.bo = 0
    # at the start the window has the overhead and exactly three MPDUs left
    start = engine.sp - (engine.overhead + 3 * dut.t_mpdu)
    engine._contend(start - engine.difs)
    assert engine.tx_end[0] == engine.sp
    assert engine.tx_end[3] == (dut, 3)
    assert list(engine.trace.airtime) == [(start / 1e9, engine.sp / 1e9, "ap")]


def test_a_gated_ack_return_that_fills_what_is_left_of_its_window_is_sent():
    engine = _gated_engine()
    dut = engine.clients[0]
    dut.acks.append([engine.flows["stream"], 1, 1500])
    dut.bo = 0
    dur = engine._ack_duration(dut)
    # at the start, what _gated_acks_fit leaves of the window (its end less a
    # DIFS) is the return's airtime to the ns
    start = engine.sp - engine.difs - dur
    engine._contend(start - engine.difs)
    assert list(engine.trace.airtime) == [(start / 1e9, (start + dur) / 1e9, "dut")]
    assert engine.tx_end[2:] == (engine._on_ack_end, dut)


def test_the_gated_client_alone_makes_the_ap_pending_while_its_window_holds_one_mpdu():
    # _ap_pending keeps the window's last DIFS: what is left after it must hold
    # the overhead and one MPDU, and no ungated client has a backlog here
    engine = _gated_engine()
    dut = engine.clients[0]
    engine.busy_until = engine.horizon  # an arrival on a busy channel starts no cycle
    engine._on_arrive(0, (engine.flows["stream"], 10 * 1500))
    assert engine.backlog == 0
    assert not engine._ap_pending(engine.sp - engine.difs)
    assert not engine._ap_pending(engine.sp - engine.difs - 1)  # 1 ns: too short for an MPDU
    edge = engine.sp - (engine.difs + engine.overhead + dut.t_mpdu)
    assert engine._ap_pending(edge)
    assert not engine._ap_pending(edge + 1)


def test_an_ap_whose_only_client_sleeps_raises_instead_of_selecting_none():
    # with no ungated client the round robin is empty: the AP's choice still
    # fails with its own error, not an IndexError
    sc = gated_scenario(30, 1)
    engine = _Engine(replace(sc, stations=sc.stations[:2], flows=sc.flows[:1],
                             twt=("dut", TwtSchedule(sp_us=1000, wi_us=1000))))
    engine.busy_until = engine.horizon  # an arrival on a busy channel starts no cycle
    engine._on_arrive(0, (engine.flows["stream"], 10 * 1500))
    asleep = engine.sp  # its window has just closed
    assert not engine._ap_pending(asleep)
    with pytest.raises(RuntimeError, match=f"at {asleep} ns with nothing it can send"):
        engine._select_ap_tx(asleep)


def test_an_event_exactly_at_the_horizon_does_not_run():
    # the 2 ms wake period puts a wake event exactly at the 10 ms horizon
    wakes = []

    class Probe(_Engine):
        def _on_wake(self, t, payload):
            wakes.append(t)
            super()._on_wake(t, payload)

    sc = replace(gated_scenario(30, 1), twt=("dut", TwtSchedule(sp_us=1000, wi_us=1000)),
                 duration_s=0.01)
    Probe(sc).run()
    assert wakes == list(range(0, 10_000_000, 2_000_000))


def test_a_cycle_of_stale_claims_is_followed_by_one_at_its_start():
    engine = _gated_engine()
    dut, bg = engine.clients
    dut.acks.append([engine.flows["stream"], 1, 1500])
    bg.acks.append([engine.flows["noise"], 1, 1500])
    dut.bo, bg.bo = 2, 5
    # dut's ACK return no longer fits its window 1 ns after the winning count ends
    stale_at = engine.sp - engine.difs - engine._ack_duration(dut) + 1
    built = stale_at - engine.difs - 2 * engine.slot
    assert engine._gated_acks_fit(built) and not engine._gated_acks_fit(stale_at)
    engine._contend(built)
    assert dut.bo is None  # its claim went stale: it redraws when its ACKs fit again
    # bg's remaining three slots count from a cycle built at the stale start
    start = stale_at + engine.difs + 3 * engine.slot
    assert list(engine.trace.airtime.columns[0]) == [start]
    assert list(engine.trace.airtime)[0][2] == "bg"
    assert bg.bo is None


def test_the_ap_and_every_client_contend_as_one_type():
    # the racer loops read every contender's fields at one site, which CPython
    # keeps specialized only while it sees one type there
    engine = _Engine(_pinned_scenarios()["bundled"])
    assert len(engine.clients) == 4
    assert {type(c) for c in (engine.ap_cont, *engine.clients)} == {_Contender}


def test_scenario_requires_exactly_one_ap():
    with pytest.raises(ValueError):
        Scenario(
            stations=(Station(id="x", role="client", phy_rate_mbps=10.0),),
            flows=(),
            duration_s=1.0,
            seed=1,
        )


@pytest.mark.parametrize("rate", [None, 0.0, -1.0, math.inf, -math.inf, math.nan])
def test_station_rate_must_be_finite_and_positive(rate):
    with pytest.raises(ValueError, match="^phy_rate_mbps must be finite and > 0"):
        Station(id="sta", role="client", phy_rate_mbps=rate)


@pytest.mark.parametrize("duration", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_scenario_duration_must_be_finite_and_positive(duration):
    with pytest.raises(ValueError, match="^duration_s must be finite and > 0"):
        two_station_scenario(duration_s=duration)


def test_station_role_is_named_first():
    # config reports the message at the role's line
    with pytest.raises(ValueError, match="^role must be 'ap' or 'client', got 'router'"):
        Station(id="x", role="router")


def test_times_past_the_engine_clock_are_refused():
    two_station_scenario(duration_s=MAX_TIME_S)
    with pytest.raises(ValueError, match="^duration_s must be at most 4.612e[+]09"):
        two_station_scenario(duration_s=1e300)


def test_flow_times_at_the_clock_end_run():
    # a segment that takes the clock's range to reach the AP never arrives
    slow = Flow(id="f1", dst="sta", kind="saturated", base_rtt_s=MAX_TIME_S)
    assert run_sim(two_station_scenario(flows=(slow,), duration_s=0.5)).delivered_bytes == {"f1": 0}
    # a saturated sender never idles, so no restart time changes its run
    lazy = replace(two_station_scenario().flows[0], idle_restart_s=MAX_TIME_S)
    assert (run_sim(two_station_scenario(flows=(lazy,), duration_s=0.5)).delivered_bytes
            == run_sim(two_station_scenario(duration_s=0.5)).delivered_bytes)


def test_scenario_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="^seed must be >= 0, got -5"):
        two_station_scenario(seed=-5)
    assert two_station_scenario(seed=0).seed == 0


def test_scenario_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        Scenario(
            stations=(
                Station(id="ap", role="ap"),
                Station(id="ap", role="client", phy_rate_mbps=10.0),
            ),
            flows=(),
            duration_s=1.0,
            seed=1,
        )


def test_scenario_twt_must_name_a_client():
    sc = gated_scenario(duty=30, mf=4)
    for sid in ("ap", "ghost"):
        with pytest.raises(ValueError, match=f"^the TWT agreement names .*'{sid}'"):
            replace(sc, twt=(sid, sc.twt[1]))


def test_scenario_burst_flow_must_target_the_twt_client():
    sc = _pinned_scenarios()["cbr_mf64"]
    with pytest.raises(ValueError, match="^the burst-driven flow must target the TWT station"):
        replace(sc, twt=("bg", sc.twt[1]))
    assert replace(sc, twt=None).dut_flow_id == "stream"  # without TWT it may go anywhere


def test_scenario_refuses_bursts_out_of_release_order():
    # the engine queues burst bytes in release order and qos reads the bursts
    # in list order: accepted, this list would charge the first 100 kB to the
    # 3 MB burst and report the 100 kB one 0.57 s late
    flows = (Flow(id="stream", dst="sta", kind="burst"),)
    big = Burst(release_time_s=3.0, size_bytes=3_000_000, inter_burst_time_s=3.0)
    small = Burst(release_time_s=0.0, size_bytes=100_000, inter_burst_time_s=3.0)
    with pytest.raises(ValueError, match="^burst release times must not decrease along the list"):
        two_station_scenario(flows=flows, bursts=(big, small))
    sc = two_station_scenario(flows=flows, bursts=(small, big))
    tr = run_sim(sc)
    assert [i for i, _, _ in burst_service(tr, sc.bursts)] == [0, 1]
    assert compute_qos(tr, sc.bursts).late_bursts == []
    # equal release times are in order: the engine keeps their list order
    two_station_scenario(flows=flows, bursts=(small, replace(big, release_time_s=0.0)))


def test_scenario_rejects_flow_to_unknown_station():
    with pytest.raises(ValueError):
        two_station_scenario(flows=(Flow(id="f", dst="ghost", kind="saturated"),))


def test_mpdu_must_fit_txop():
    with pytest.raises(ValueError, match="^phy_rate_mbps .*'sta'"):
        two_station_scenario(
            stations=(
                Station(id="ap", role="ap"),
                Station(id="sta", role="client", phy_rate_mbps=2.0),
            )
        )
    # 100 Mbit/s fits the default limit, so a short one is what to change
    with pytest.raises(ValueError, match="^txop_limit_us 200 .*'sta'"):
        two_station_scenario(mac=MacParams(txop_limit_us=200))
    # at 10 Mbit/s an MPDU takes 1200 us: exactly the room of a 1300 us TXOP
    exact = (Station(id="ap", role="ap"), Station(id="sta", role="client", phy_rate_mbps=10.0))
    two_station_scenario(stations=exact, mac=MacParams(txop_limit_us=1300))
    # at 3 Mbit/s it takes 4000 us, exactly the default limit's room after a
    # 1484 us overhead: the rate fits that, so the short limit is what to change
    slow = (Station(id="ap", role="ap"), Station(id="sta", role="client", phy_rate_mbps=3.0))
    with pytest.raises(ValueError, match="^txop_limit_us 3000 is too short: .* needs 5484 us$"):
        two_station_scenario(stations=slow,
                             mac=MacParams(txop_limit_us=3000, per_frame_overhead_us=1484))


# ---------------------------------------------------------- pinned output ---

def _pinned_scenarios() -> dict[str, Scenario]:
    ap = Station(id="ap", role="ap")
    # three small-limit flows interleave in a's queue, which one A-MPDU of
    # eight 600 us MPDUs cannot empty, so arrivals overflow it
    drops = Scenario(
        stations=(ap, Station(id="a", role="client", phy_rate_mbps=20.0),
                  Station(id="b", role="client", phy_rate_mbps=160.0)),
        flows=(Flow(id="a1", dst="a", kind="saturated", base_rtt_s=0.002, queue_limit_segments=8),
               Flow(id="a2", dst="a", kind="saturated", base_rtt_s=0.004, queue_limit_segments=8),
               Flow(id="a3", dst="a", kind="saturated", base_rtt_s=0.003, queue_limit_segments=6),
               Flow(id="b1", dst="b", kind="saturated", base_rtt_s=0.002)),
        duration_s=3.0, seed=11, record_cwnd=True)
    # 500 kB CBR bursts (333 segments and a 500-byte tail) to a DUT whose
    # 1023 us windows hold at most seven MPDUs, so queued runs are split
    cbr = Scenario(
        stations=(ap, Station(id="dut", role="client", phy_rate_mbps=95.0),
                  Station(id="bg", role="client", phy_rate_mbps=100.0)),
        twt=("dut", schedule_from(30, 64)),
        flows=(Flow(id="stream", dst="dut", kind="burst"),
               Flow(id="bg1", dst="bg", kind="saturated", base_rtt_s=0.002, queue_limit_segments=8),
               Flow(id="bg2", dst="bg", kind="saturated", base_rtt_s=0.003, queue_limit_segments=8)),
        bursts=tuple(generate_cbr_bursts(VideoParams(bitrate_mbps=4.0, cbr_interval_s=1.0), 4.0)),
        duration_s=4.0, seed=12, record_cwnd=True)
    # VBR bursts from the package's generator: its digest was recorded with
    # numpy's default_rng(13), which draws the same values
    video = VideoParams(bitrate_mbps=3.0, ibt_mean_s=1.5, ibt_min_s=1.0, ibt_max_s=2.0,
                        ibt_var_s2=0.1)
    vbr = Scenario(
        stations=(ap, Station(id="dut", role="client", phy_rate_mbps=95.0),
                  Station(id="bg", role="client", phy_rate_mbps=70.0)),
        twt=("dut", schedule_from(30, 4)),
        flows=(Flow(id="stream", dst="dut", kind="burst", queue_limit_segments=16),
               Flow(id="bg1", dst="bg", kind="saturated", base_rtt_s=0.002, queue_limit_segments=24),
               Flow(id="bg2", dst="bg", kind="saturated", base_rtt_s=0.002, queue_limit_segments=24)),
        bursts=tuple(generate_vbr_bursts(video, 5.0, PCG64(13))),
        duration_s=5.0, seed=13, record_cwnd=True)
    # a DUT with 2047 us windows between two background clients: the AP
    # collides with clients holding ACK records, and a's long-RTT flow lets
    # its queue run dry and refill; the stream's sender restarts when idle
    gated_mid = Scenario(
        stations=(Station(id="a", role="client", phy_rate_mbps=40.0), ap,
                  Station(id="dut", role="client", phy_rate_mbps=95.0),
                  Station(id="b", role="client", phy_rate_mbps=120.0)),
        twt=("dut", schedule_from(20, 32)),
        flows=(Flow(id="stream", dst="dut", kind="burst", queue_limit_segments=32,
                    idle_restart_s=0.25),
               Flow(id="a1", dst="a", kind="saturated", base_rtt_s=0.04, queue_limit_segments=64),
               Flow(id="b1", dst="b", kind="saturated", base_rtt_s=0.002, queue_limit_segments=12),
               Flow(id="b2", dst="b", kind="saturated", base_rtt_s=0.003, queue_limit_segments=12)),
        bursts=tuple(generate_cbr_bursts(VideoParams(bitrate_mbps=3.1, cbr_interval_s=0.5), 4.0)),
        duration_s=4.0, seed=14, record_cwnd=True)
    # the paper's shape: the bundled four-client BSS, 24 background streams
    # and a CBR stream at duty 20, MF 4, so up to five contenders race
    bundled = replace(replace(paper_setup(), session_duration_s=10.0)
                      .session_scenario(20, 4, "cbr", 7), record_cwnd=True)
    return {"drops": drops, "cbr_mf64": cbr, "vbr_mf4": vbr, "gated_mid": gated_mid,
            "bundled": bundled}


# SHA-256 of each scenario's trace, recorded before the downlink queue held
# run-length runs ("gated_mid": before the engine kept per-client state;
# "bundled": before the transmission end left the event heap); any change to
# queue admission, A-MPDU dequeue or contention moves them.
PINNED_DIGESTS = {
    "drops": "a2a60b2d05d05088fdd0d70e8cf1d3d3e1f1941f2076c5c500f53ec4044eb87b",
    "cbr_mf64": "7f645896869f0323502433102cffd623b24ee31a3737cbd519fc41b0d7d4ec20",
    "vbr_mf4": "82316ef1028b4fc03d9dc4691ae52267a6bec004a841b2e2f0b6ffd12dbaf284",
    "gated_mid": "54313bff4b9e68d99792578c0520a6a5f50f555f7e5274cd093448e9836e42ae",
    "bundled": "a6c3f47a35836d8424d25ef228666bf4119a2c67ba96e660939307d2422507ca",
}


def _assert_gated_mid_edges(tr) -> None:
    """The per-client edges that the "gated_mid" scenario is there for."""
    ampdus: dict[tuple[float, str], int] = {}  # (end, client) -> MPDUs
    for t, dst, _, nbytes in tr.deliveries:
        ampdus[t, dst] = ampdus.get((t, dst), 0) + -(-nbytes // 1500)
    acks = [(start, end, sid) for start, end, sid in tr.airtime if sid not in ("ap", COLLISION_ID)]
    # a client holds ACK records from an A-MPDU's end to the end of its next return
    holding, most = set(), 0
    for _, got, sid in sorted([(t, 1, dst) for t, dst in ampdus] + [(e, 0, s) for _, e, s in acks]):
        (holding.add if got else holding.discard)(sid)
        most = max(most, len(holding))
    assert most >= 2
    # a collision longer than twice any ACK return has the AP in it
    longest_ack = max(end - start for start, end, _ in acks)
    assert any(end - start > 2 * longest_ack
               for start, end, sid in tr.airtime if sid == COLLISION_ID)
    # an A-MPDU to a below its TXOP cap took the whole queue, and more followed
    cap = aggregate_ns(mpdu_airtime_ns(40.0), TXOP_NS, OVERHEAD_NS, 64, 10**6)
    to_a = [n for (_, dst), n in sorted(ampdus.items()) if dst == "a"]
    assert any(n < cap for n in to_a[:-1])
    # the DUT's A-MPDUs fill, and never exceed, what one short window holds
    window_cap = aggregate_ns(mpdu_airtime_ns(95.0), 2047 * 1000, OVERHEAD_NS, 64, 10**6)
    assert max(n for (_, dst), n in ampdus.items() if dst == "dut") == window_cap


def test_engine_trace_digest_is_pinned():
    for name, sc in _pinned_scenarios().items():
        tr = run_sim(sc)
        # the queue edges the scenario is there for
        assert tr.drops, name
        a_mpdus = {}
        for t, dst, fid, nbytes in tr.deliveries:
            a_mpdus.setdefault((t, dst), []).append(fid)
        if name == "drops":
            assert {"a1", "a2", "a3"} <= set(tr.drops)
            assert any(len(fids) > 1 for fids in a_mpdus.values())
        elif name == "bundled":
            assert len(sc.flows) == 25 and tr.collisions
            assert any(len(fids) > 1 for fids in a_mpdus.values())
        else:
            assert burst_service(tr, sc.bursts)
            assert any(nb % 1500 for _, _, fid, nb in tr.deliveries if fid == "stream")
        if name == "gated_mid":
            _assert_gated_mid_edges(tr)
        assert _trace_digest(sc, tr) == PINNED_DIGESTS[name], name


def _trace_digest(sc: Scenario, tr) -> str:
    blob = repr((list(tr.deliveries), list(tr.airtime), burst_service(tr, sc.bursts),
                 list(tr.cwnd_series), tr.delivered_bytes, tr.drops, tr.collisions))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_an_arrival_at_a_wake_instant_reads_the_window_that_opens_there():
    # the DUT's half-RTT equals its 500 us TWT period, so its arrivals land on
    # wake instants ahead of the wake event there: the window they read comes
    # from the clock, not from state that only the wake handler sets
    sc = Scenario(
        stations=(Station(id="ap", role="ap"), Station(id="o0", role="client", phy_rate_mbps=86.0),
                  Station(id="d", role="client", phy_rate_mbps=600.0)),
        flows=(Flow(id="go0", dst="o0", kind="saturated", base_rtt_s=0.002),
               Flow(id="f", dst="d", kind="saturated", base_rtt_s=0.001)),
        twt=("d", TwtSchedule(sp_us=250, wi_us=250)), seed=33721, duration_s=0.05)
    assert (_trace_digest(sc, run_sim(sc))
            == "baab5a79d2e64e8dae9ee5eb17bbd24f2273ae1f51647b270a91d0512b39cbe2")


def test_trace_rows_decode_their_integer_columns():
    for name, sc in _pinned_scenarios().items():
        tr = run_sim(sc)
        stations = [s.id for s in sc.stations if s.role == "ap"]
        stations += [s.id for s in sc.stations if s.role == "client"] + [COLLISION_ID]
        flows = [f.id for f in sc.flows]
        dst = {f.id: f.dst for f in sc.flows}  # a delivery's station is its flow's destination
        start, end, sid = tr.airtime.columns
        airtime = [(a / 1e9, b / 1e9, stations[i]) for a, b, i in zip(start, end, sid)]
        t, fid, nbytes = tr.deliveries.columns
        deliveries = [(a / 1e9, dst[flows[f]], flows[f], n) for a, f, n in zip(t, fid, nbytes)]
        t, fid, cwnd = tr.cwnd_series.columns
        cwnd_series = [(a / 1e9, flows[f], w) for a, f, w in zip(t, fid, cwnd)]
        assert sc.record_cwnd, name
        for view, rows in ((tr.airtime, airtime), (tr.deliveries, deliveries),
                           (tr.cwnd_series, cwnd_series)):
            assert list(view) == rows, name
            assert repr(list(view)) == repr(rows), name  # the same types, not just equal values
            assert len(view) == len(rows) > 40, name
            with pytest.raises(TypeError):
                view[0] = rows[0]


def _assert_deliveries_decode(sc: Scenario, tr) -> None:
    """Each delivery row names its flow's destination and the flow whose bytes
    the engine counted."""
    dst = {f.id: f.dst for f in sc.flows}
    sums = dict.fromkeys(dst, 0)
    for _, station, fid, nbytes in tr.deliveries:
        assert station == dst[fid]
        sums[fid] += nbytes
    assert sums == tr.delivered_bytes


def test_an_index_column_holds_every_index_below_its_count():
    assert [_index_typecode(n) for n in (256, 257, 65536, 65537)] == ["B", "H", "H", "I"]


def test_more_than_255_flows_take_a_wider_flow_column():
    sc = Scenario(
        stations=(Station(id="ap", role="ap"), Station(id="a", role="client", phy_rate_mbps=100.0),
                  Station(id="b", role="client", phy_rate_mbps=150.0)),
        flows=tuple(Flow(id=f"f{i}", dst="ab"[i % 2], kind="saturated", base_rtt_s=0.002,
                         queue_limit_segments=2) for i in range(300)),
        duration_s=0.3, seed=21)
    tr = run_sim(sc)
    assert tr.deliveries.columns[1].typecode == "H"
    assert tr.airtime.columns[2].typecode == "B"
    assert max(tr.deliveries.columns[1]) > 255  # a flow index a byte cannot hold
    _assert_deliveries_decode(sc, tr)


def test_records_beyond_int32_take_a_wider_byte_column():
    # an A-MPDU of up to two million 12 ns MPDUs: the saturated flow's
    # records double each round trip until one outgrows int32
    sc = Scenario(
        stations=(Station(id="ap", role="ap"), Station(id="sta", role="client", phy_rate_mbps=1e6)),
        flows=(Flow(id="f", dst="sta", kind="saturated", base_rtt_s=0.002,
                    queue_limit_segments=2_000_000),),
        duration_s=0.1, seed=3, mac=MacParams(max_ampdu_mpdus=2_000_000, txop_limit_us=2_097_120))
    tr = run_sim(sc)
    assert tr.deliveries.columns[2].typecode == "q"
    assert max(nbytes for *_, nbytes in tr.deliveries) == 2_000_000 * 1500 > 2**31
    _assert_deliveries_decode(sc, tr)
    # the default MAC and queue limit keep records to 64 segments: int32 holds them
    assert run_sim(two_station_scenario(duration_s=0.1)).deliveries.columns[2].typecode == "i"


def test_trace_rows_hold_a_few_bytes_each():
    template = paper_setup()
    # warm up on a shorter run: what a first run caches is not the trace's
    run_sim(replace(template, session_duration_s=1.0).session_scenario(20, 4, "cbr", 7))
    sc = replace(template, session_duration_s=8.0).session_scenario(20, 4, "cbr", 7)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tr = run_sim(sc)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    rows = len(tr.airtime) + len(tr.deliveries)
    assert rows > 4000
    # narrow columns: 17 bytes per airtime row (two int64 ns and a one-byte
    # station) and 13 per delivery (int64 ns, a one-byte flow and int32
    # bytes); a tuple of floats and strings per row took about 117 here
    assert held <= 20 * rows


def test_finished_engine_is_freed_without_the_cyclic_collector():
    # pending events hold bound methods of the engine, and queued runs and ACK
    # records hold flow states that point at their client; run() must drop them
    def alive() -> int:
        return sum(isinstance(o, (_Contender, _FlowState)) for o in gc.get_objects())

    gc.disable()
    try:
        before = alive()
        for name, sc in _pinned_scenarios().items():
            engine = _Engine(sc)
            ref = weakref.ref(engine)
            trace = engine.run()
            rows = list(trace.airtime), list(trace.deliveries)
            del engine  # keep the trace: its rows must hold no reference to the engine
            assert ref() is None, name
            assert alive() == before, name
            assert list(trace.airtime) == rows[0] and list(trace.deliveries) == rows[1], name
    finally:
        gc.enable()
