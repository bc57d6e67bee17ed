"""Discrete-event simulator of a single 20 MHz Wi-Fi 6 BSS.

The AP is one CSMA/CA contender holding a FIFO downlink queue per
destination; the queue holds run-length runs ``[flow, segments, bytes per
segment]``, so admission and A-MPDU dequeue cost one step per run, not per
MPDU.  Stations contend to return transport ACKs.  Channel access is
resolved in contention cycles: after the medium goes idle every backlogged
contender waits DIFS and counts down its binary-exponential backoff, the
smallest counter transmits, ties collide and escalate their stage.  A
transmission is an A-MPDU bounded by the aggregation cap, the TXOP limit and
-- for a TWT station -- the remainder of the current wake window; nothing
addressed to or sent by a TWT station may cross a wake-window boundary.
The engine only moves bytes and gates the TWT station: when each video burst
was served is worked out afterwards from the deliveries
(``qos.burst_service``).

Each event on the heap carries the handler it fires, as ``(t, seq, handler,
args)``; ``seq`` breaks time ties in push order.  Time is tracked in integer
nanoseconds; all randomness comes from streams derived from the scenario
seed, so a scenario replays byte-identically.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .schedule import TwtSchedule, wake_windows
from .traffic import Burst
from .transport import Flow, offer_load, on_ack, on_idle_restart, on_loss

NS_PER_US = 1000
TCP_ACK_BYTES = 64

COLLISION_ID = "!collision"


@dataclass(frozen=True)
class MacParams:
    """802.11 MAC constants (microseconds unless noted)."""

    slot_us: int = 9
    difs_us: int = 34
    cw_min: int = 15
    cw_max: int = 1023
    max_ampdu_mpdus: int = 64
    mpdu_payload_bytes: int = 1500
    txop_limit_us: int = 5484
    per_frame_overhead_us: int = 100

    def __post_init__(self) -> None:
        for name in ("slot_us", "difs_us", "max_ampdu_mpdus", "mpdu_payload_bytes",
                     "txop_limit_us", "per_frame_overhead_us"):
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

    @property
    def max_stage(self) -> int:
        return ((self.cw_max + 1) // (self.cw_min + 1)).bit_length() - 1


@dataclass(frozen=True)
class Station:
    """One node of the BSS; the DUT is the station carrying a TWT schedule.

    A client's PHY rate sets its MPDU and ACK airtime; the AP takes none, as
    nothing the engine times depends on it."""

    id: str
    role: str  # "ap" | "client"
    phy_rate_mbps: float | None = None
    twt: TwtSchedule | None = None

    def __post_init__(self) -> None:
        if self.role not in ("ap", "client"):
            raise ValueError(f"station role must be 'ap' or 'client', got {self.role!r}")
        if self.role == "ap":
            if self.phy_rate_mbps is not None:
                raise ValueError("phy_rate_mbps applies to clients; the AP takes no rate")
        elif self.phy_rate_mbps is None or self.phy_rate_mbps <= 0:
            raise ValueError(f"phy_rate_mbps must be > 0, got {self.phy_rate_mbps}")


@dataclass(frozen=True)
class Scenario:
    """A complete simulation input: stations, flows, DUT traffic, duration, seed.

    It checks itself when it is built."""

    stations: tuple[Station, ...]
    flows: tuple[Flow, ...]
    bursts: tuple[Burst, ...] = ()
    duration_s: float = 120.0
    seed: int = 1
    mac: MacParams = MacParams()
    record_cwnd: bool = False

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be > 0, got {self.duration_s}")
        aps = [s for s in self.stations if s.role == "ap"]
        if len(aps) != 1:
            raise ValueError(f"scenario needs exactly one AP, got {len(aps)}")
        ids = [s.id for s in self.stations]
        if len(set(ids)) != len(ids):
            raise ValueError("station ids must be unique")
        twt_holders = [s for s in self.stations if s.twt is not None]
        if len(twt_holders) > 1:
            raise ValueError("at most one station may carry a TWT schedule")
        if twt_holders and twt_holders[0].role != "client":
            raise ValueError("the TWT schedule must sit on a client")
        for s in self.stations:
            if s.role == "client":
                check_mpdu_fits(self.mac, s.id, s.phy_rate_mbps)
        by_id = {s.id: s for s in self.stations}
        flow_ids = [f.id for f in self.flows]
        if len(set(flow_ids)) != len(flow_ids):
            raise ValueError("flow ids must be unique")
        burst_flows = [f for f in self.flows if f.kind == "burst"]
        if len(burst_flows) > 1:
            raise ValueError("at most one burst-driven flow is supported")
        for f in self.flows:
            dst = by_id.get(f.dst)
            if dst is None or dst.role != "client":
                raise ValueError(f"flow {f.id!r} targets unknown or non-client {f.dst!r}")
        if burst_flows:
            if not self.bursts:
                raise ValueError("a burst-driven flow requires a burst list")
            if twt_holders and burst_flows[0].dst != twt_holders[0].id:
                raise ValueError("the burst-driven flow must target the TWT station")
            for i, b in enumerate(self.bursts):
                if b.index != i:
                    raise ValueError("burst indices must be contiguous from 0")
        elif self.bursts:
            raise ValueError("bursts supplied without a burst-driven flow")

    @property
    def dut_flow_id(self) -> str | None:
        for f in self.flows:
            if f.kind == "burst":
                return f.id
        return None


@dataclass
class SimTrace:
    """Everything observable from one run (times in seconds)."""

    duration_s: float
    dut_flow_id: str | None
    wake_windows_s: list[tuple[float, float]] | None
    deliveries: list[tuple[float, str, str, int]] = field(default_factory=list)
    airtime: list[tuple[float, float, str]] = field(default_factory=list)
    cwnd_series: list[tuple[float, str, float]] = field(default_factory=list)
    delivered_bytes: dict[str, int] = field(default_factory=dict)
    drops: dict[str, int] = field(default_factory=dict)
    collisions: int = 0

    def flow_throughput_mbps(self, flow_id: str) -> float:
        return 8.0 * self.delivered_bytes.get(flow_id, 0) / self.duration_s / 1e6


def backoff_draw(mac: MacParams, stage: int, rng: random.Random) -> int:
    """Draw a backoff counter uniform on [0, cw] with cw = min(cw_max, (cw_min+1)*2^stage - 1)."""
    if not (0 <= stage <= mac.max_stage):
        raise ValueError(f"stage must be in [0, {mac.max_stage}], got {stage}")
    cw = min(mac.cw_max, ((mac.cw_min + 1) << stage) - 1)
    return rng.randint(0, cw)


def mpdu_airtime_ns(mac: MacParams, phy_rate_mbps: float) -> int:
    """Airtime of one full MPDU in ns (ceil)."""
    return math.ceil(mac.mpdu_payload_bytes * 8 * NS_PER_US / phy_rate_mbps)


def check_mpdu_fits(mac: MacParams, sid: str, phy_rate_mbps: float) -> None:
    """Raise ValueError unless one MPDU to client ``sid`` fits the TXOP limit.

    The message starts with the key to change: the rate when one MPDU would not
    fit even the default limit, else ``txop_limit_us``.
    """
    need_ns = mpdu_airtime_ns(mac, phy_rate_mbps) + mac.per_frame_overhead_us * NS_PER_US
    if need_ns <= mac.txop_limit_us * NS_PER_US:
        return
    need = f"one MPDU to station {sid!r} at {phy_rate_mbps} Mbps needs {need_ns / NS_PER_US:g} us"
    if need_ns > MacParams.txop_limit_us * NS_PER_US:
        raise ValueError(f"phy_rate_mbps {phy_rate_mbps} is too low: {need}, "
                         f"more than the {mac.txop_limit_us} us TXOP limit")
    raise ValueError(f"txop_limit_us {mac.txop_limit_us} is too short: {need}")


_CALIBRATION_SEED = 0xCA11B
_CALIBRATION_DURATION_S = 4.0


def _calibration_throughput_mbps(phy_rate_mbps: float, mac: MacParams, sid: str) -> float:
    """Simulated saturation throughput of a lone client ``sid`` at a given PHY rate."""
    scenario = Scenario(
        stations=(
            Station(id="ap", role="ap"),
            Station(id=sid, role="client", phy_rate_mbps=phy_rate_mbps),
        ),
        flows=(Flow(id="cal", dst=sid, kind="saturated", base_rtt_s=0.002),),
        duration_s=_CALIBRATION_DURATION_S,
        seed=_CALIBRATION_SEED,
        mac=mac,
    )
    return run_sim(scenario).flow_throughput_mbps("cal")


def back_solve_phy_rate(standalone_mbps: float, mac: MacParams, sid: str) -> float:
    """PHY rate whose simulated single-client saturation matches a measured figure.

    Bisects on short fixed-seed calibration runs, so the returned rate is
    consistent with the engine's own contention/aggregation behaviour rather
    than an analytic approximation of it.  ``sid`` names the calibration
    client in errors; it does not change the result.
    """
    if standalone_mbps <= 0:
        raise ValueError("standalone_mbps must be > 0")
    lo, hi = standalone_mbps, standalone_mbps * 4
    if _calibration_throughput_mbps(hi, mac, sid) < standalone_mbps:
        raise ValueError(
            f"standalone_mbps {standalone_mbps} is not reachable "
            f"by station {sid!r} under the configured MAC parameters"
        )
    for _ in range(24):
        mid = (lo + hi) / 2
        if _calibration_throughput_mbps(mid, mac, sid) < standalone_mbps:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class _FlowState:
    """The running state of one flow; its TCP window state lives here only."""

    __slots__ = ("flow", "cwnd", "ssthresh", "half_rtt_ns", "idle_ns", "released", "sent",
                 "in_flight", "queued_segments", "last_send_ns")

    def __init__(self, flow: Flow):
        self.flow = flow
        self.cwnd = flow.cwnd_init_segments
        self.ssthresh = math.inf
        self.half_rtt_ns = round(flow.base_rtt_s * 1e9 / 2)
        self.idle_ns = round(flow.idle_restart_s * 1e9)
        self.released: float = math.inf if flow.kind == "saturated" else 0.0
        self.sent = 0
        self.in_flight = 0
        self.queued_segments = 0
        self.last_send_ns: int | None = None


class _Contender:
    __slots__ = ("sid", "is_ap", "bo", "stage", "rng")

    def __init__(self, sid: str, is_ap: bool, rng: random.Random):
        self.sid = sid
        self.is_ap = is_ap
        self.bo: int | None = None
        self.stage = 0
        self.rng = rng


class _Gate:
    """Wake-window arithmetic for the DUT (integer ns); windows start at 0."""

    __slots__ = ("sp", "period")

    def __init__(self, twt: TwtSchedule):
        self.sp = twt.sp_us * NS_PER_US
        self.period = twt.period_us * NS_PER_US

    def remaining(self, t: int) -> int:
        """ns of wake window left at t (0 if asleep)."""
        into = t % self.period
        return self.sp - into if into < self.sp else 0


class _Engine:
    def __init__(self, sc: Scenario):
        self.sc = sc
        self.mac = sc.mac
        self.horizon = round(sc.duration_s * 1e9 / NS_PER_US) * NS_PER_US  # exact us grid
        self.slot = sc.mac.slot_us * NS_PER_US
        self.difs = sc.mac.difs_us * NS_PER_US
        self.overhead = sc.mac.per_frame_overhead_us * NS_PER_US
        self.txop = sc.mac.txop_limit_us * NS_PER_US

        self.ap = next(s for s in sc.stations if s.role == "ap")
        self.clients = [s for s in sc.stations if s.role == "client"]
        # the gated station: the TWT holder, unless its schedule never sleeps
        holder = next((s for s in sc.stations if s.twt is not None and s.twt.wi_us > 0), None)
        self.gate = _Gate(holder.twt) if holder is not None else None
        self.gated = holder.id if holder is not None else None

        self.t_mpdu = {s.id: mpdu_airtime_ns(sc.mac, s.phy_rate_mbps) for s in self.clients}
        self.phy_rate = {s.id: s.phy_rate_mbps for s in self.clients}

        ss = np.random.SeedSequence(sc.seed)
        children = ss.spawn(1 + len(self.clients))
        self.ap_cont = _Contender(self.ap.id, True,
                                  random.Random(int(children[0].generate_state(1)[0])))
        self.client_cont = {
            s.id: _Contender(s.id, False, random.Random(int(c.generate_state(1)[0])))
            for s, c in zip(self.clients, children[1:])
        }

        self.flows: dict[str, _FlowState] = {
            f.id: _FlowState(f) for f in sc.flows
        }
        # per destination: FIFO of runs [fid, segments, bytes per segment],
        # with the queued segments counted beside it
        self.queues: dict[str, deque] = {s.id: deque() for s in self.clients}
        self.qsegs: dict[str, int] = {s.id: 0 for s in self.clients}
        # ACK records of the stations that have some to return, nothing else
        self.acks: dict[str, list] = {}

        self.rr = [s.id for s in self.clients]
        self.rr_ptr = 0
        self.rr_next = {sid: (i + 1) % len(self.rr) for i, sid in enumerate(self.rr)}

        self.heap: list = []
        self.seq = 0
        self.busy_until = 0
        self.race: tuple | None = None  # (contender list, min_bo) of the scheduled cycle

        windows = None
        if holder is not None:
            win_us = wake_windows(holder.twt, round(sc.duration_s * 1e6))
            windows = [(a / 1e6, b / 1e6) for a, b in win_us]
        self.trace = SimTrace(
            duration_s=sc.duration_s,
            dut_flow_id=sc.dut_flow_id,
            wake_windows_s=windows,
        )
        for f in sc.flows:
            self.trace.delivered_bytes[f.id] = 0

    # -- heap helpers ---------------------------------------------------
    def _push(self, t: int, handler, *args) -> None:
        heapq.heappush(self.heap, (t, self.seq, handler, args))
        self.seq += 1

    # -- transport ------------------------------------------------------
    def _record_cwnd(self, t: int, fs: _FlowState) -> None:
        if self.sc.record_cwnd:
            self.trace.cwnd_series.append((t / 1e9, fs.flow.id, fs.cwnd))

    def _try_send(self, t: int, fid: str) -> None:
        fs = self.flows[fid]
        pending = fs.released - fs.sent
        offer = offer_load(fs.flow, fs.cwnd, pending, fs.in_flight)
        if offer <= 0:
            return
        if fs.last_send_ns is not None and t - fs.last_send_ns > fs.idle_ns:
            fs.cwnd, fs.ssthresh = on_idle_restart(fs.flow, fs.cwnd, fs.ssthresh)
            self._record_cwnd(t, fs)
            offer = offer_load(fs.flow, fs.cwnd, pending, fs.in_flight)
            if offer <= 0:
                return
        fs.sent += offer
        fs.in_flight += offer
        fs.last_send_ns = t
        self._push(t + fs.half_rtt_ns, self._on_arrive, fid, offer)

    def _on_arrive(self, t: int, fid: str, nbytes: int) -> None:
        """Queue the full segments, then the tail, up to the flow's limit; drop the rest."""
        fs = self.flows[fid]
        seg = fs.flow.segment_bytes
        full, tail = divmod(nbytes, seg)
        room = max(0, fs.flow.queue_limit_segments - fs.queued_segments)
        took = min(full, room)
        took_tail = 1 if tail and room > full else 0
        accepted = took + took_tail
        if accepted:
            dst = fs.flow.dst
            q = self.queues[dst]
            if took:
                q.append([fid, took, seg])
            if took_tail:
                q.append([fid, 1, tail])
            self.qsegs[dst] += accepted
            fs.queued_segments += accepted
        dropped = full + (1 if tail else 0) - accepted
        if dropped:
            dbytes = nbytes - took * seg - took_tail * tail
            fs.in_flight -= dbytes
            fs.sent -= dbytes
            self.trace.drops[fid] = self.trace.drops.get(fid, 0) + dropped
            fs.cwnd = fs.ssthresh = on_loss(fs.cwnd)
            self._record_cwnd(t, fs)
        self._kick(t)

    def _on_server_ack(self, t: int, fid: str, segs: int, nbytes: int) -> None:
        fs = self.flows[fid]
        fs.in_flight -= nbytes
        fs.cwnd = on_ack(fs.cwnd, fs.ssthresh, segs)
        self._record_cwnd(t, fs)
        self._try_send(t, fid)

    def _on_burst(self, t: int, fid: str, size: int) -> None:
        self.flows[fid].released += size
        self._try_send(t, fid)

    # -- contention -----------------------------------------------------
    def _ack_duration(self, sid: str) -> int:
        bits = len(self.acks[sid]) * TCP_ACK_BYTES * 8
        return self.overhead + math.ceil(bits * NS_PER_US / self.phy_rate[sid])

    def _client_pending(self, t: int, sid: str) -> bool:
        """``sid`` has ACKs to return and, if gated, time left to send them."""
        return sid in self.acks and (
            sid != self.gated or self.gate.remaining(t) >= self.difs + self._ack_duration(sid))

    def _ap_pending(self, t: int) -> bool:
        for dst, nseg in self.qsegs.items():
            if not nseg:
                continue
            if dst == self.gated:
                rem = self.gate.remaining(t)
                if rem > self.difs and aggregate_ns(
                        self.t_mpdu[dst], min(self.txop, rem - self.difs), self.overhead,
                        self.mac.max_ampdu_mpdus, nseg) >= 1:
                    return True
            else:
                return True
        return False

    def _select_ap_tx(self, t: int):
        """Pick (dest, n_mpdus, duration, from_rr) or None; DUT first inside windows.

        Returns a selection whenever ``_ap_pending(t)`` holds."""
        g = self.gated
        if g is not None and self.qsegs[g]:
            n = aggregate_ns(self.t_mpdu[g], min(self.txop, self.gate.remaining(t)),
                             self.overhead, self.mac.max_ampdu_mpdus, self.qsegs[g])
            if n >= 1:
                return (g, n, self.overhead + n * self.t_mpdu[g], False)
        k = len(self.rr)
        for i in range(k):
            dst = self.rr[(self.rr_ptr + i) % k]
            if dst == self.gated:
                continue  # handled above (or asleep)
            nseg = self.qsegs[dst]
            if not nseg:
                continue
            n = aggregate_ns(self.t_mpdu[dst], self.txop, self.overhead,
                             self.mac.max_ampdu_mpdus, nseg)
            if n >= 1:
                dur = self.overhead + n * self.t_mpdu[dst]
                return (dst, n, dur, True)
        return None

    def _kick(self, t: int) -> None:
        """Resolve the next contention cycle if the channel is idle."""
        if self.race is not None or t < self.busy_until:
            return
        racers = []
        if self._ap_pending(t):
            racers.append(self.ap_cont)
        for sid in self.acks:  # racer order does not matter: each draws from its own stream
            if self._client_pending(t, sid):
                racers.append(self.client_cont[sid])
        if not racers:
            return
        for c in racers:
            if c.bo is None:
                c.bo = backoff_draw(self.mac, c.stage, c.rng)
        min_bo = min(c.bo for c in racers)
        start = t + self.difs + min_bo * self.slot
        self.race = (racers, min_bo)
        self._push(start, self._on_tx_start)

    def _on_tx_start(self, t: int) -> None:
        racers, min_bo = self.race
        self.race = None
        for c in racers:
            c.bo = max(0, c.bo - min_bo)
        winners = []
        for c in racers:
            if c.bo == 0:
                ok = self._ap_pending(t) if c.is_ap else self._client_pending(t, c.sid)
                if ok:
                    winners.append(c)
                else:
                    c.bo = None  # stale claim; redraw when pending again
        if not winners:
            self._kick(t)
            return
        if len(winners) > 1:
            # every winner is pending, so each duration is at least the overhead
            dur = 0
            for w in winners:
                dur = max(dur, self._select_ap_tx(t)[2] if w.is_ap else self._ack_duration(w.sid))
                w.stage = min(w.stage + 1, self.mac.max_stage)
                w.bo = backoff_draw(self.mac, w.stage, w.rng)
            end = t + dur
            self.busy_until = end
            self.trace.collisions += 1
            self.trace.airtime.append((t / 1e9, end / 1e9, COLLISION_ID))
            self._push(end, self._kick)
            return
        w = winners[0]
        if w.is_ap:
            dst, n, dur, from_rr = self._select_ap_tx(t)
            event = (self._on_ampdu_end, dst, n, from_rr)
        else:
            dst = w.sid
            dur = self._ack_duration(dst)
            event = (self._on_ack_end, dst)
        if dst == self.gated and dur > self.gate.remaining(t):
            raise RuntimeError("gated transmission would cross window end")
        w.bo = None
        w.stage = 0
        end = t + dur
        self.busy_until = end
        self.trace.airtime.append((t / 1e9, end / 1e9, w.sid))
        self._push(end, *event)

    def _on_ampdu_end(self, t: int, dst: str, n: int, from_rr: bool) -> None:
        left = self.qsegs[dst] - n
        if n < 1 or left < 0:
            raise RuntimeError(f"A-MPDU of {n} MPDUs to station {dst!r} "
                               f"exceeds its {self.qsegs[dst]} queued segments")
        self.qsegs[dst] = left
        q = self.queues[dst]
        per_flow: dict[str, list] = {}  # fid -> [segments, bytes], first-dequeued first
        while n:
            run = q[0]
            fid, count, size = run
            if count <= n:
                q.popleft()
            else:
                run[1] = count - n
                count = n
            n -= count
            nbytes = count * size
            acc = per_flow.get(fid)
            if acc is None:
                per_flow[fid] = [count, nbytes]
            else:
                acc[0] += count
                acc[1] += nbytes
        ts = t / 1e9
        records = self.acks.setdefault(dst, [])
        for fid, (segs, nbytes) in per_flow.items():
            fs = self.flows[fid]
            fs.queued_segments -= segs
            self.trace.delivered_bytes[fid] += nbytes
            self.trace.deliveries.append((ts, dst, fid, nbytes))
            records.append((fid, segs, nbytes))
        if from_rr:
            self.rr_ptr = self.rr_next[dst]
        self._kick(t)

    def _on_ack_end(self, t: int, sid: str) -> None:
        for fid, segs, nbytes in self.acks.pop(sid):
            self._push(t + self.flows[fid].half_rtt_ns, self._on_server_ack, fid, segs, nbytes)
        self._kick(t)

    def _on_wake(self, t: int) -> None:
        self._push(t + self.gate.period, self._on_wake)
        self._kick(t)

    # -- main loop ------------------------------------------------------
    def run(self) -> SimTrace:
        sc = self.sc
        for b in sc.bursts:
            self._push(round(b.release_time_s * 1e9), self._on_burst, sc.dut_flow_id, b.size_bytes)
        if self.gate is not None:
            self._push(0, self._on_wake)
        for f in sc.flows:
            if f.kind == "saturated":
                self._try_send(0, f.id)
        self._kick(0)

        heap = self.heap
        horizon = self.horizon
        try:
            while heap:
                t, _, handler, args = heapq.heappop(heap)
                if t >= horizon:
                    break
                handler(t, *args)
        finally:
            # the pending events hold bound methods of this engine: drop them
            # so a finished engine is freed without the cyclic collector
            heap.clear()
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
    return min(max_ampdu, queued_segments, avail // t_mpdu_ns)


def run_sim(scenario: Scenario) -> SimTrace:
    """Execute a scenario and return its trace (deterministic per seed)."""
    return _Engine(scenario).run()
