"""Discrete-event simulator of a single 20 MHz Wi-Fi 6 BSS.

The AP is one CSMA/CA contender holding a FIFO downlink queue per
destination; the queue holds run-length runs ``[flow, segments, bytes per
segment]``, so admission and A-MPDU dequeue cost one step per run, not per
MPDU.  Stations contend to return transport ACKs.  Channel access is
resolved in contention cycles: after the medium goes idle every backlogged
contender waits DIFS and counts down its binary-exponential backoff, the
smallest counter transmits, ties collide and escalate their stage.  A
transmission is an A-MPDU bounded by the aggregation cap, the TXOP limit and,
for the client that the scenario's one TWT agreement gates (``Scenario.twt``),
what ``_Engine._window_left`` leaves of its wake window: that method states
the window rule.  The engine only moves bytes and gates that client: when each
video burst was served is worked out afterwards from the deliveries
(``qos.burst_service``).

Each client's state -- its queue, its ACK records, its contender -- is one
object that events and queue runs carry, as they carry each flow's state.  The
AP contends while one count, of the ungated clients with queued segments, is
nonzero, or while the gated client has a backlog and, a DIFS before its window
ends, room for the overhead and one MPDU (``_Engine._ap_pending``).
Each event carries the handler it fires and one payload, as ``(t, seq,
handler, payload)``, and the loop calls ``handler(t, payload)``; the handler
unpacks it: ``(client, n)`` for an A-MPDU end, the client for an ACK end, the
ACK record for a server ACK, ``(flow state, bytes)`` for an arrival or a
burst, ``(racers, min_bo)`` for a deferred cycle start, None for the rest.  It
is not ``handler(t, *args)``, because CPython 3.11 specializes a call of fixed
arity and not a star call, which took about three times as long.  Three more
rules keep the per-event sites specialized (``tests/specialization.py`` lists
the generic ones).  One type per site: the AP and the clients are all
``_Contender``.  No per-event read of a name that the class also defines, as a
dataclass default, a ClassVar or a ``cached_property``: 3.12 and later
specialize none of them, 3.11 none of a ``cached_property``.  So the engine
copies the MAC and flow constants it reads, and ``MacParams.backoff_stages``
is a plain attribute.  No call of a method held in a slot (``next(self.seq)``,
not a ``count.__next__`` slot), and no load of a method that is not called:
the handlers that events carry are bound once, into slots.  ``seq`` breaks
time ties in push order.  The channel carries at most one transmission or
collision, so its end event waits in one slot of the engine, not on the heap,
and the loop runs whichever of the slot and the heap's first event is earlier.
One handler, ``_Engine._contend``, builds, defers and resumes each contention
cycle: a start that no pending event precedes runs at once, off the heap; any
other waits there with its race.  A backoff draw looks its window and
``getrandbits`` width up in a per-stage table (``MacParams.backoff_stages``).
Time is tracked in integer nanoseconds, and so is the trace: each
transmission, delivery and recorded cwnd appends numbers to ``array`` columns
-- ns, station or flow index, bytes or cwnd -- each in the narrowest type its
values need, which ``SimTrace.airtime``, ``SimTrace.deliveries`` and
``SimTrace.cwnd_series`` decode into rows of seconds and names on read
(``Rows``).  A delivery's station is its flow's destination and the wake
windows follow from ``Scenario.twt``, so the trace stores neither.  All
randomness comes from streams derived from the scenario seed, so a scenario
replays byte-identically.  Contender i -- the AP as 0, then the clients in
station order -- draws its backoffs from a ``random.Random`` seeded with
``seed_state(seed, (i,))``: the first word of the i-th child of numpy's
``SeedSequence(seed)``, hashed without numpy.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from array import array
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import partial
from heapq import heappop, heappush

from .schedule import TwtSchedule
# perfbench's layer trace wraps this name here; the engine does not call it
from .schedule import wake_windows  # noqa: F401
from .traffic import Burst
from .transport import (CWND_INIT_SEGMENTS, MAX_TIME_S, SEGMENT_BYTES, Flow,
                        check_finite_positive, offer_load, on_ack, on_idle_restart, on_loss)

NS_PER_US = 1000
TCP_ACK_BYTES = 64

COLLISION_ID = "!collision"
_TXOP_LIMIT_MAX_US = 65535 * 32  # 802.11's TXOP Limit field: 16 bits of 32 us units


@dataclass(frozen=True)
class MacParams:
    """802.11 MAC constants (microseconds unless noted).

    ``max_stage``, the last backoff stage, and ``backoff_stages`` are set
    from the fields.  Per stage, ``backoff_stages`` holds ``(cw, bits)``: the
    window ``min(cw_max, (cw_min+1)*2^stage - 1)`` and the ``getrandbits``
    width ``(cw + 1).bit_length()`` that ``random.randint(0, cw)`` asks for."""

    slot_us: int = 9
    difs_us: int = 34
    cw_min: int = 15
    cw_max: int = 1023
    max_ampdu_mpdus: int = 64
    txop_limit_us: int = 5484
    per_frame_overhead_us: int = 100

    def __post_init__(self) -> None:
        for name in ("slot_us", "difs_us", "max_ampdu_mpdus", "txop_limit_us",
                     "per_frame_overhead_us"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        for name in ("cw_min", "cw_max"):
            v = getattr(self, name)
            if v < 1 or (v & (v + 1)) != 0:
                raise ValueError(f"{name} must be of the form 2^k - 1, got {v}")
        if self.cw_min > self.cw_max:
            raise ValueError("cw_min must be <= cw_max")
        if self.txop_limit_us <= self.per_frame_overhead_us:
            raise ValueError("txop_limit_us must exceed per_frame_overhead_us")
        if self.txop_limit_us > _TXOP_LIMIT_MAX_US:
            raise ValueError(f"txop_limit_us must be at most {_TXOP_LIMIT_MAX_US}, "
                             f"802.11's longest TXOP, got {self.txop_limit_us}")
        # not fields, nor properties: backoff_draw reads the table per event
        max_stage = ((self.cw_max + 1) // (self.cw_min + 1)).bit_length() - 1
        cws = (min(self.cw_max, ((self.cw_min + 1) << stage) - 1) for stage in range(max_stage + 1))
        object.__setattr__(self, "max_stage", max_stage)
        object.__setattr__(self, "backoff_stages", tuple((cw, (cw + 1).bit_length()) for cw in cws))


@dataclass(frozen=True)
class Station:
    """One node of the BSS.  Its TWT agreement, if any, is the scenario's
    (``Scenario.twt``), not the station's.

    A client's PHY rate sets its MPDU and ACK airtime; the AP takes none, as
    nothing the engine times depends on it."""

    id: str
    role: str  # "ap" | "client"
    phy_rate_mbps: float | None = None

    def __post_init__(self) -> None:
        if self.role not in ("ap", "client"):
            raise ValueError(f"role must be 'ap' or 'client', got {self.role!r}")
        if self.role == "client":
            check_finite_positive("phy_rate_mbps", self.phy_rate_mbps)
        elif self.phy_rate_mbps is not None:
            raise ValueError("phy_rate_mbps applies to clients; the AP takes no rate")


@dataclass(frozen=True)
class Scenario:
    """A complete simulation input: stations, flows, DUT traffic, duration, seed.

    ``twt`` is the one individual TWT agreement, ``(client id, schedule)``, or
    None for none; the burst-driven flow, if any, goes to that client.  It
    checks itself when it is built."""

    stations: tuple[Station, ...]
    flows: tuple[Flow, ...]
    bursts: tuple[Burst, ...] = ()
    duration_s: float = 120.0
    seed: int = 1
    mac: MacParams = MacParams()
    record_cwnd: bool = False
    twt: tuple[str, TwtSchedule] | None = None

    def __post_init__(self) -> None:
        check_finite_positive("duration_s", self.duration_s, MAX_TIME_S)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        aps = [s for s in self.stations if s.role == "ap"]
        if len(aps) != 1:
            raise ValueError(f"scenario needs exactly one AP, got {len(aps)}")
        ids = [s.id for s in self.stations]
        if len(set(ids)) != len(ids):
            raise ValueError("station ids must be unique")
        for s in self.stations:
            if s.role == "client":
                check_mpdu_fits(self.mac, s.id, s.phy_rate_mbps)
        clients = {s.id for s in self.stations if s.role == "client"}
        if self.twt is not None and self.twt[0] not in clients:
            raise ValueError(f"the TWT agreement names unknown or non-client {self.twt[0]!r}")
        flow_ids = [f.id for f in self.flows]
        if len(set(flow_ids)) != len(flow_ids):
            raise ValueError("flow ids must be unique")
        burst_flows = [f for f in self.flows if f.kind == "burst"]
        if len(burst_flows) > 1:
            raise ValueError("at most one burst-driven flow is supported")
        for f in self.flows:
            if f.dst not in clients:
                raise ValueError(f"flow {f.id!r} targets unknown or non-client {f.dst!r}")
        if burst_flows:
            if not self.bursts:
                raise ValueError("a burst-driven flow requires a burst list")
            if self.twt is not None and burst_flows[0].dst != self.twt[0]:
                raise ValueError("the burst-driven flow must target the TWT station")
            # the engine releases bursts in time order and qos reads them in list order
            if any(b.release_time_s < a.release_time_s for a, b in itertools.pairwise(self.bursts)):
                raise ValueError("burst release times must not decrease along the list")
        elif self.bursts:
            raise ValueError("bursts supplied without a burst-driven flow")

    @property
    def dut_flow_id(self) -> str | None:
        for f in self.flows:
            if f.kind == "burst":
                return f.id
        return None


def _seconds(ns):
    """Seconds from integer ns, each as ``ns / 1e9`` gives it."""
    return map(operator.truediv, ns, itertools.repeat(1e9))


def _named(names: Sequence[str]):
    """Decoder of a column of indices into ``names``."""
    return partial(map, list(names).__getitem__)  # a list's is the faster call


def _index_typecode(count: int) -> str:
    """The smallest unsigned ``array`` typecode that holds indices below ``count``."""
    return next(code for code in "BHIQ" if count <= 1 << 8 * array(code).itemsize)


def _bytes_typecode(sc: Scenario) -> str:
    """``'i'`` when the largest delivery record the scenario allows fits it,
    else ``'q'``.  A record is one flow's bytes in one A-MPDU: at most
    ``max_ampdu_mpdus`` MPDUs and the flow's queue limit, a segment each."""
    most = min(sc.mac.max_ampdu_mpdus, max((f.queue_limit_segments for f in sc.flows), default=0))
    return "i" if most * SEGMENT_BYTES < 1 << 8 * array("i").itemsize - 1 else "q"


class Rows:
    """Read-only trace rows, kept as numeric columns and decoded on read.

    The engine appends to the columns, one ``array`` per typecode given.  Each
    field of a row is ``(column, decoder)``: the decoder maps that column to
    the field's values (``_seconds``, ``_named`` or ``iter``), and two fields
    may read one column.  The rows count and iterate as tuples.
    """

    __slots__ = ("columns", "_fields")

    def __init__(self, typecodes: str, *fields):
        self.columns = tuple(array(code) for code in typecodes)
        self._fields = fields

    def __len__(self) -> int:
        return len(self.columns[0])

    def decoded(self) -> tuple:
        """One iterator per field over its decoded values, in row order."""
        return tuple(decode(self.columns[i]) for i, decode in self._fields)

    def __iter__(self):
        return zip(*self.decoded())


@dataclass
class SimTrace:
    """Everything observable from one run (times in seconds).

    The airtime, deliveries and cwnd series are ``Rows``: numeric columns
    decoded on read into rows ``(start, end, station)``, ``(time, station,
    flow, bytes)`` and ``(time, flow, cwnd segments)``.  The wake windows are
    not kept: they follow from the scenario's ``twt`` schedule.
    """

    duration_s: float
    dut_flow_id: str | None
    deliveries: Rows
    airtime: Rows
    cwnd_series: Rows
    delivered_bytes: dict[str, int] = field(default_factory=dict)
    drops: dict[str, int] = field(default_factory=dict)
    collisions: int = 0

    def flow_throughput_mbps(self, flow_id: str) -> float:
        return 8.0 * self.delivered_bytes.get(flow_id, 0) / self.duration_s / 1e6


def backoff_draw(mac: MacParams, stage: int, rng: random.Random) -> int:
    """Draw a backoff counter uniform on [0, cw] with cw = min(cw_max, (cw_min+1)*2^stage - 1)."""
    stages = mac.backoff_stages
    if not 0 <= stage < len(stages):
        raise ValueError(f"stage must be in [0, {mac.max_stage}], got {stage}")
    cw, k = stages[stage]
    # rejection sampling on getrandbits, bit for bit what rng.randint(0, cw) does
    r = rng.getrandbits(k)
    while r > cw:
        r = rng.getrandbits(k)
    return r


# numpy's SeedSequence constants: pool size (32-bit words) and hash multipliers
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(x) -> list[int]:
    """The 32-bit words of an int, least significant first (0 is one word), or
    of each item of a sequence in turn."""
    try:
        n = operator.index(x)
    except TypeError:
        return [w for item in x for w in _words(item)]
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def seed_state(entropy, spawn_key: tuple[int, ...] = (), n_words: int = 1) -> int:
    """``numpy.random.SeedSequence(entropy, spawn_key=spawn_key).generate_state(n_words)``
    word for word, in pure Python, as one int whose 32-bit words, least
    significant first, are numpy's.

    ``entropy`` is a non-negative int or a sequence of them.  As numpy does,
    a spawn key follows the entropy words padded with zeros to the pool size.
    """
    data = _words(entropy)
    data += [0] * (_POOL - len(data)) + _words(spawn_key)
    mult = _INIT_A

    def hashmix(v: int) -> int:
        nonlocal mult
        v ^= mult
        mult = mult * _MULT_A & _MASK32
        v = v * mult & _MASK32
        return v ^ (v >> 16)

    def mix(x: int, y: int) -> int:
        r = (_MIX_L * x - _MIX_R * y) & _MASK32
        return r ^ (r >> 16)

    pool = [hashmix(data[i]) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in data[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(w))
    state = 0
    hash_const = _INIT_B
    for i in range(n_words):
        v = pool[i % _POOL] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        v = v * hash_const & _MASK32
        state |= (v ^ (v >> 16)) << 32 * i
    return state


def mpdu_airtime_ns(phy_rate_mbps: float) -> int:
    """Airtime of one full MPDU in ns (ceil); an MPDU carries one TCP segment."""
    return math.ceil(SEGMENT_BYTES * 8 * NS_PER_US / phy_rate_mbps)


def ack_airtime_ns(mac: MacParams, records: int, phy_rate_mbps: float) -> int:
    """Airtime in ns of one station's return of ``records`` transport ACK records."""
    bits = records * TCP_ACK_BYTES * 8
    return mac.per_frame_overhead_us * NS_PER_US + math.ceil(bits * NS_PER_US / phy_rate_mbps)


def check_mpdu_fits(mac: MacParams, sid: str, phy_rate_mbps: float) -> None:
    """Raise ValueError unless one MPDU to client ``sid`` fits the TXOP limit.

    The message starts with the key to change: the rate when one MPDU would not
    fit even the default limit, else ``txop_limit_us``.
    """
    # mpdu_airtime_ns before its ceil, which a rate below ~1e-302 would overflow;
    # the room is whole ns, and ceil(x) <= n exactly when x <= n for a whole n
    mpdu_ns = SEGMENT_BYTES * 8 * NS_PER_US / phy_rate_mbps
    if mpdu_ns <= (mac.txop_limit_us - mac.per_frame_overhead_us) * NS_PER_US:
        return
    need = (f"one MPDU to station {sid!r} at {phy_rate_mbps} Mbps needs "
            f"{mpdu_ns / NS_PER_US + mac.per_frame_overhead_us:g} us")
    if mpdu_ns > (MacParams.txop_limit_us - mac.per_frame_overhead_us) * NS_PER_US:
        raise ValueError(f"phy_rate_mbps {phy_rate_mbps} is too low: {need}, "
                         f"more than the {mac.txop_limit_us} us TXOP limit")
    raise ValueError(f"txop_limit_us {mac.txop_limit_us} is too short: {need}")


_CALIBRATION_SEED = 0xCA11B
_CALIBRATION_DURATION_S = 4.0

# back_solve_phy_rate's bisection results for the bundled config's four
# clients, keyed as it looks them up: the figure, the MAC and the calibration
# flow with its names blanked.  A Tier-1 test bisects them again.
_CALIBRATED = {
    (63.5, MacParams(), Flow("", "", "saturated", base_rtt_s=0.002)): 71.7596078068018,
    (75.4, MacParams(), Flow("", "", "saturated", base_rtt_s=0.002)): 85.37158116698265,
    (163.0, MacParams(), Flow("", "", "saturated", base_rtt_s=0.002)): 194.12763938307762,
    (95.0, MacParams(), Flow("", "", "saturated", base_rtt_s=0.002)): 107.01004639267921,
}


def back_solve_phy_rate(standalone_mbps: float, mac: MacParams, flow: Flow) -> float:
    """PHY rate at which ``flow`` alone delivers a measured throughput figure.

    Bisects on short fixed-seed calibration runs of ``flow`` to its client, so
    the returned rate is consistent with the engine's contention and
    aggregation and with the stream's RTT and queue limit.  The config passes
    the template's local stream (``ScenarioTemplate.local_flow``).  The bundled
    config's figures are looked up in ``_CALIBRATED`` instead.
    """
    check_finite_positive("standalone_mbps", standalone_mbps)
    known = _CALIBRATED.get((standalone_mbps, mac, replace(flow, id="", dst="")))
    if known is not None:
        return known
    sid = flow.dst

    def throughput_mbps(rate: float) -> float:
        return run_sim(Scenario(
            stations=(Station(id="ap", role="ap"),
                      Station(id=sid, role="client", phy_rate_mbps=rate)),
            flows=(flow,),
            duration_s=_CALIBRATION_DURATION_S,
            seed=_CALIBRATION_SEED,
            mac=mac,
        )).flow_throughput_mbps(flow.id)

    lo, hi = standalone_mbps, standalone_mbps * 4
    if hi == math.inf or throughput_mbps(hi) < standalone_mbps:
        raise ValueError(
            f"standalone_mbps {standalone_mbps} is not reachable "
            f"by station {sid!r} under the configured MAC parameters"
        )
    for _ in range(24):
        mid = (lo + hi) / 2
        if throughput_mbps(mid) < standalone_mbps:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class _Contender:
    """One station's engine state and CSMA/CA contender: the AP's, as index 0,
    or client i's.  A client holds its downlink FIFO of runs ``[flow state,
    segments, bytes per segment]`` (``qsegs`` segments in all), the ACK records
    ``[flow state, segments, bytes]`` it has yet to return, and the airtime of
    n records for each n timed; the AP's stay empty."""

    __slots__ = ("idx", "is_ap", "bo", "stage", "rng", "sid", "rate", "t_mpdu", "queue", "qsegs",
                 "acks", "ack_ns", "rr_next")

    def __init__(self, st: Station, idx: int, rng: random.Random):
        self.idx = idx  # its station index in the trace: 0 for the AP, i for client i
        self.is_ap = not idx
        self.bo: int | None = None
        self.stage = 0
        self.rng = rng
        self.sid = st.id
        self.rate = st.phy_rate_mbps
        self.t_mpdu = None if self.is_ap else mpdu_airtime_ns(st.phy_rate_mbps)
        self.queue: deque = deque()
        self.qsegs = 0
        self.acks: list = []
        self.ack_ns: dict[int, int] = {}
        self.rr_next: int | None = None  # the _Engine.rr order after it; None off the round robin


class _FlowState:
    """The running state of one flow; its TCP window state lives here only."""

    __slots__ = ("flow", "idx", "dst", "limit", "cwnd", "ssthresh", "half_rtt_ns", "idle_ns",
                 "released", "sent", "in_flight", "queued_segments", "last_send_ns")

    def __init__(self, flow: Flow, idx: int, dst: _Contender):
        self.flow = flow
        self.idx = idx  # its flow index in the trace
        self.dst = dst
        self.limit = flow.queue_limit_segments
        self.cwnd = CWND_INIT_SEGMENTS
        self.ssthresh = math.inf
        self.half_rtt_ns = round(flow.base_rtt_s * 1e9 / 2)
        self.idle_ns = round(flow.idle_restart_s * 1e9)
        self.released: float = math.inf if flow.kind == "saturated" else 0.0
        self.sent = 0
        self.in_flight = 0
        self.queued_segments = 0
        self.last_send_ns: int | None = None


class _Engine:
    # slotted: one more attribute in a dict this size cost ~6% per session on CPython 3.11
    __slots__ = ("sc", "mac", "horizon", "slot", "difs", "overhead", "txop", "cw_max",
                 "max_ampdu", "ap_cont", "clients", "gated", "backlog", "rr", "rr_ptr", "flows",
                 "heap", "seq", "h_arrive", "h_contend", "h_ampdu_end",
                 "h_ack_end", "h_server_ack", "h_wake", "busy_until", "race", "record_cwnd",
                 "tx_end", "sp", "period", "collision_idx", "log_airtime", "log_delivery",
                 "log_cwnd", "trace", "__weakref__")

    def __init__(self, sc: Scenario):
        self.sc = sc
        self.mac = sc.mac
        self.horizon = round(sc.duration_s * 1e9 / NS_PER_US) * NS_PER_US  # exact us grid
        self.slot = sc.mac.slot_us * NS_PER_US
        self.difs = sc.mac.difs_us * NS_PER_US
        self.overhead = sc.mac.per_frame_overhead_us * NS_PER_US
        self.txop = sc.mac.txop_limit_us * NS_PER_US
        # copies: a field's default is also a class attribute of MacParams
        self.cw_max = sc.mac.cw_max
        self.max_ampdu = sc.mac.max_ampdu_mpdus

        ap = next(s for s in sc.stations if s.role == "ap")
        stations = [s for s in sc.stations if s.role == "client"]
        self.ap_cont = _Contender(ap, 0, random.Random(seed_state(sc.seed, (0,))))
        self.clients = [_Contender(s, i, random.Random(seed_state(sc.seed, (i,))))
                        for i, s in enumerate(stations, 1)]
        by_id = {c.sid: c for c in self.clients}
        # the gated client: the TWT agreement's, unless its schedule never
        # sleeps; its wake windows (integer ns) start at 0
        sid, sched = sc.twt if sc.twt is not None and sc.twt[1].wi_us > 0 else (None, None)
        self.gated = by_id.get(sid)
        self.backlog = 0  # ungated clients with queued segments
        # the round robin's rotations of the ungated clients; one empty one if none
        ungated = [c for c in self.clients if c is not self.gated]
        for i, c in enumerate(ungated):
            c.rr_next = (i + 1) % len(ungated)
        self.rr = [ungated[i:] + ungated[:i] for i in range(len(ungated) or 1)]
        self.rr_ptr = 0
        self.flows: dict[str, _FlowState] = {f.id: _FlowState(f, i, by_id[f.dst])
                                             for i, f in enumerate(sc.flows)}

        self.heap: list = []
        self.seq = itertools.count()
        # the handlers events carry, bound once: 3.11 specializes no load of a
        # method that is not called.  run() unbinds them, so the engine is freed
        self.h_arrive, self.h_contend, self.h_ampdu_end = (
            self._on_arrive, self._contend, self._on_ampdu_end)
        self.h_ack_end, self.h_server_ack, self.h_wake = (
            self._on_ack_end, self._on_server_ack, self._on_wake)
        self.busy_until = 0
        self.race: tuple | None = None  # the scheduled cycle's (racers, min_bo), until it runs
        self.record_cwnd = sc.record_cwnd
        # the end event of the one transmission or collision on the channel
        self.tx_end: tuple | None = None

        if sched is not None:
            self.sp, self.period = sched.sp_us * NS_PER_US, sched.period_us * NS_PER_US
        # station indices: the contenders', then the collision pseudo-station
        names = (ap.id, *(c.sid for c in self.clients), COLLISION_ID)
        self.collision_idx = len(names) - 1
        # start ns, end ns, station
        airtime = Rows("qq" + _index_typecode(len(names)),
                       (0, _seconds), (1, _seconds), (2, _named(names)))
        # A-MPDU end ns, flow, bytes: a flow's deliveries leave its
        # destination's queue, so the station field reads the flow column
        flow_code = _index_typecode(len(sc.flows))
        flow_ids = _named([f.id for f in sc.flows])
        deliveries = Rows("q" + flow_code + _bytes_typecode(sc), (0, _seconds),
                          (1, _named([f.dst for f in sc.flows])), (1, flow_ids), (2, iter))
        # ns, flow, cwnd
        cwnd = Rows("q" + flow_code + "d", (0, _seconds), (1, flow_ids), (2, iter))
        self.log_airtime = tuple(col.append for col in airtime.columns)
        self.log_delivery = tuple(col.append for col in deliveries.columns)
        self.log_cwnd = tuple(col.append for col in cwnd.columns)
        self.trace = SimTrace(
            duration_s=sc.duration_s,
            dut_flow_id=sc.dut_flow_id,
            deliveries=deliveries,
            airtime=airtime,
            cwnd_series=cwnd,
        )
        for f in sc.flows:
            self.trace.delivered_bytes[f.id] = 0

    # -- transport ------------------------------------------------------
    def _record_cwnd(self, t: int, fs: _FlowState) -> None:
        """Log the flow's window; callers check ``record_cwnd`` first."""
        log_t, log_flow, log_cwnd = self.log_cwnd
        log_t(t)
        log_flow(fs.idx)
        log_cwnd(fs.cwnd)

    def _try_send(self, t: int, fs: _FlowState) -> None:
        pending = fs.released - fs.sent
        offer = offer_load(fs.cwnd, pending, fs.in_flight, fs.limit)
        if offer <= 0:
            return
        if fs.last_send_ns is not None and t - fs.last_send_ns > fs.idle_ns:
            fs.cwnd, fs.ssthresh = on_idle_restart(fs.cwnd, fs.ssthresh)
            if self.record_cwnd:
                self._record_cwnd(t, fs)
            offer = offer_load(fs.cwnd, pending, fs.in_flight, fs.limit)
            if offer <= 0:
                return
        fs.sent += offer
        fs.in_flight += offer
        fs.last_send_ns = t
        heappush(self.heap, (t + fs.half_rtt_ns, next(self.seq), self.h_arrive, (fs, offer)))

    def _on_arrive(self, t: int, load: tuple[_FlowState, int]) -> None:
        """Queue the full segments, then the tail, up to the flow's limit; drop the rest."""
        fs, nbytes = load
        full = nbytes // SEGMENT_BYTES
        tail = nbytes - full * SEGMENT_BYTES
        segs = full + 1 if tail else full
        room = fs.limit - fs.queued_segments  # never negative
        c = fs.dst
        took = room if room < full else full
        took_tail = 1 if tail and room > full else 0
        accepted = took + took_tail
        if accepted:
            if took:
                c.queue.append([fs, took, SEGMENT_BYTES])
            if took_tail:
                c.queue.append([fs, 1, tail])
            if not c.qsegs and c.rr_next is not None:
                self.backlog += 1
            c.qsegs += accepted
            fs.queued_segments += accepted
        dropped = segs - accepted
        if dropped:
            fid = fs.flow.id
            dbytes = nbytes - took * SEGMENT_BYTES - took_tail * tail
            fs.in_flight -= dbytes
            fs.sent -= dbytes
            self.trace.drops[fid] = self.trace.drops.get(fid, 0) + dropped
            fs.cwnd = fs.ssthresh = on_loss(fs.cwnd)
            if self.record_cwnd:
                self._record_cwnd(t, fs)
        self._contend(t)

    def _on_server_ack(self, t: int, record: list) -> None:
        fs, segs, nbytes = record
        fs.in_flight -= nbytes
        fs.cwnd = on_ack(fs.cwnd, fs.ssthresh, segs)
        if self.record_cwnd:
            self._record_cwnd(t, fs)
        self._try_send(t, fs)

    def _on_burst(self, t: int, load: tuple[_FlowState, int]) -> None:
        fs, size = load
        fs.released += size
        self._try_send(t, fs)

    # -- contention -----------------------------------------------------
    def _window_left(self, s: int) -> int:
        """What is left of the gated client's wake window at ``s`` in ns, at most 0 (no
        room) while it sleeps.  The rule as it stands: where a cycle is built and where it
        starts, the gated ACK return (``_gated_acks_fit``) must fit what is left less a
        DIFS, and so must the overhead and one MPDU for the gated client's backlog to make
        the AP pending (``_ap_pending``; the count of ungated backlogs makes it pending on
        its own); the A-MPDU chosen at the start (``_select_ap_tx``) need not leave the
        DIFS; nothing gated crosses it (``_contend``).  It reads the clock, not state set
        on waking: an event at a wake instant may run first."""
        return self.sp - s % self.period

    def _ack_duration(self, c: _Contender) -> int:
        n = len(c.acks)
        dur = c.ack_ns.get(n)
        if dur is None:
            dur = c.ack_ns[n] = ack_airtime_ns(self.mac, n, c.rate)
        return dur

    def _gated_acks_fit(self, t: int) -> bool:
        """The gated client's ACK records fit what is left of its wake window."""
        g = self.gated
        return (self._window_left(t) - self.difs
                >= (g.ack_ns.get(len(g.acks)) or self._ack_duration(g)))

    def _ap_pending(self, t: int) -> bool:
        if self.backlog:
            return True
        g = self.gated
        if (g is not None and g.qsegs
                and self._window_left(t) - self.difs >= self.overhead + g.t_mpdu):
            return True
        return False

    def _select_ap_tx(self, t: int):
        """Pick (client, n_mpdus, duration); DUT first inside windows.  Call it
        only when ``_ap_pending(t)`` holds."""
        g = self.gated
        if g is not None and g.qsegs:
            budget = self._window_left(t)
            n = aggregate_ns(g.t_mpdu, budget if budget < self.txop else self.txop,
                             self.overhead, self.max_ampdu, g.qsegs)
            if n >= 1:
                return (g, n, self.overhead + n * g.t_mpdu)
        for c in self.rr[self.rr_ptr]:
            if c.qsegs:  # one MPDU fits the TXOP (check_mpdu_fits): n >= 1
                n = aggregate_ns(c.t_mpdu, self.txop, self.overhead, self.max_ampdu, c.qsegs)
                return (c, n, self.overhead + n * c.t_mpdu)
        raise RuntimeError(f"the AP won the channel at {t} ns with nothing it can send: "
                           f"_ap_pending and _select_ap_tx disagree")

    def _contend(self, t: int, race: tuple | None = None) -> None:
        """Build, start and resolve a contention cycle at ``t``, or resume ``race``.

        A cycle is built only on an idle channel with none scheduled.  A start
        that an earlier event precedes waits on the heap, as this handler's
        event with the race as payload.  A cycle whose claims are all stale is
        followed by a new one at its start."""
        g = self.gated
        while True:
            if race is None:
                if self.race is not None or t < self.busy_until:
                    return
                racers = [self.ap_cont] if self._ap_pending(t) else []
                for c in self.clients:  # racer order does not matter: each draws its own
                    if c.acks and (c is not g or self._gated_acks_fit(t)):
                        racers.append(c)
                if not racers:
                    return
                mac = self.mac
                min_bo = self.cw_max  # no counter exceeds it
                for c in racers:
                    bo = c.bo
                    if bo is None:
                        bo = c.bo = backoff_draw(mac, c.stage, c.rng)
                    if bo < min_bo:
                        min_bo = bo
                start = t + self.difs + min_bo * self.slot
                # every caller ends with this call, so a start that no pending event
                # precedes, on a channel with no transmission, is the next event
                heap = self.heap
                if (start >= self.horizon or heap and heap[0][0] <= start
                        or self.tx_end is not None):
                    self.race = race = (racers, min_bo)
                    heappush(heap, (start, next(self.seq), self.h_contend, race))
                    return
                t = start
            else:
                racers, min_bo = race
                self.race = race = None
            w = None  # the first winner; a second makes the list of all of them
            winners = None
            for c in racers:
                c.bo -= min_bo
                if not c.bo:
                    if self._ap_pending(t) if c.is_ap else (c is not g or self._gated_acks_fit(t)):
                        if w is None:
                            w = c
                        elif winners is None:
                            winners = [w, c]
                        else:
                            winners.append(c)
                    else:
                        c.bo = None  # stale claim; redraw when pending again
            if w is not None:
                break
        if winners is not None:
            # every winner is pending, so each duration is at least the overhead
            dur = 0
            max_stage = self.mac.max_stage
            for w in winners:  # max and min without the builtin calls, which 3.11 leaves generic
                d = self._select_ap_tx(t)[2] if w.is_ap else self._ack_duration(w)
                if d > dur:
                    dur = d
                if w.stage < max_stage:
                    w.stage += 1
                w.bo = backoff_draw(self.mac, w.stage, w.rng)
            self.trace.collisions += 1
            idx, handler, payload = self.collision_idx, self.h_contend, None
        else:
            if w.is_ap:
                c, n, dur = self._select_ap_tx(t)
                handler, payload = self.h_ampdu_end, (c, n)
            else:
                c = w
                dur = c.ack_ns.get(len(c.acks)) or self._ack_duration(c)
                handler, payload = self.h_ack_end, c
            if c is g and dur > self._window_left(t):
                raise RuntimeError("gated transmission would cross window end")
            w.bo = None
            w.stage = 0
            idx = w.idx
        if self.tx_end is not None:
            raise RuntimeError("a transmission started while another was on the channel")
        end = t + dur
        self.busy_until = end
        log_start, log_end, log_station = self.log_airtime
        log_start(t)
        log_end(end)
        log_station(idx)
        self.tx_end = (end, next(self.seq), handler, payload)

    def _on_ampdu_end(self, t: int, ampdu: tuple[_Contender, int]) -> None:
        c, n = ampdu
        left = c.qsegs - n
        if n < 1 or left < 0:
            raise RuntimeError(f"A-MPDU of {n} MPDUs to station {c.sid!r} "
                               f"exceeds its {c.qsegs} queued segments")
        c.qsegs = left
        if not left and c.rr_next is not None:
            self.backlog -= 1
        q = c.queue
        records = []  # [flow state, segments, bytes], first-dequeued first
        while n:
            run = q[0]
            fs, count, size = run
            if count <= n:
                q.popleft()
            else:
                run[1] = count - n
                count = n
            n -= count
            for r in records:  # an A-MPDU holds few flows: a scan beats a dict
                if r[0] is fs:
                    r[1] += count
                    r[2] += count * size
                    break
            else:
                records.append([fs, count, count * size])
        log_end, log_flow, log_bytes = self.log_delivery
        delivered = self.trace.delivered_bytes
        for record in records:
            fs, segs, nbytes = record
            fs.queued_segments -= segs
            delivered[fs.flow.id] += nbytes
            log_end(t)
            log_flow(fs.idx)
            log_bytes(nbytes)
            c.acks.append(record)
        if c.rr_next is not None:  # the round robin serves every client but the gated one
            self.rr_ptr = c.rr_next
        self._contend(t)

    def _on_ack_end(self, t: int, c: _Contender) -> None:
        records, c.acks = c.acks, []
        on_server_ack = self.h_server_ack
        for record in records:  # each record is the server ACK's payload
            heappush(self.heap, (t + record[0].half_rtt_ns, next(self.seq), on_server_ack, record))
        self._contend(t)

    def _on_wake(self, t: int, _) -> None:
        heappush(self.heap, (t + self.period, next(self.seq), self.h_wake, None))
        self._contend(t)

    # -- main loop ------------------------------------------------------
    def run(self) -> SimTrace:
        sc = self.sc
        heap = self.heap
        horizon = self.horizon
        try:
            for b in sc.bursts:
                heappush(heap, (round(b.release_time_s * 1e9), next(self.seq), self._on_burst,
                                (self.flows[sc.dut_flow_id], b.size_bytes)))
            if self.gated is not None:
                heappush(heap, (0, next(self.seq), self.h_wake, None))
            for fs in self.flows.values():
                if fs.flow.kind == "saturated":
                    self._try_send(0, fs)
            self._contend(0)
            while True:
                # the next event is the transmission end or the heap's first,
                # whichever is earlier as (t, seq)
                end = self.tx_end
                if end is not None and (not heap or end < heap[0]):
                    self.tx_end = None
                    t, _, handler, payload = end
                elif heap:
                    t, _, handler, payload = heappop(heap)
                else:
                    break
                if t >= horizon:
                    break
                handler(t, payload)
        finally:
            # the engine holds its bound handlers, as do pending events, and
            # queued runs and ACK records hold flow states that point at their
            # client: drop them so a finished engine is freed without the
            # cyclic collector
            heap.clear()
            self.tx_end = None
            self.h_arrive = self.h_contend = self.h_ampdu_end = None
            self.h_ack_end = self.h_server_ack = self.h_wake = None
            for c in self.clients:
                c.queue.clear()
                c.acks.clear()
        return self.trace


def aggregate_ns(t_mpdu_ns: int, budget_ns: int, overhead_ns: int, max_ampdu: int,
                 queued_segments: int) -> int:
    """MPDUs in the next A-MPDU: as many as fit the budget after the per-exchange
    overhead, capped by the A-MPDU limit and the queued segments; 0 if none fits."""
    if queued_segments <= 0:
        return 0
    avail = budget_ns - overhead_ns
    if avail < t_mpdu_ns:
        return 0
    # min(max_ampdu, queued_segments, avail // t_mpdu_ns) without the builtin call
    n = max_ampdu
    if queued_segments < n:
        n = queued_segments
    fit = avail // t_mpdu_ns
    if fit < n:
        n = fit
    return n


def run_sim(scenario: Scenario) -> SimTrace:
    """Execute a scenario and return its trace (deterministic per seed)."""
    return _Engine(scenario).run()
