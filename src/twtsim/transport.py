"""Simplified ACK-clocked TCP used by all downlink flows.

The congestion window lives at the server.  ACKs advance it through slow
start and congestion avoidance; a queue-overflow drop halves it (instant
recovery, no retransmission timers).  A sender that has been idle longer
than ``idle_restart_s`` falls back to its initial window before sending
again, as real stacks do after an application-limited pause.

A ``Flow`` only describes a flow; the running window (``cwnd``) and slow-start
threshold (``ssthresh``), both in segments, are owned by the engine and
passed to these functions as numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Literal

FlowKind = Literal["saturated", "burst"]

# the engine counts time in integer ns, and its trace stores them as int64: a
# run ends by 2**62 ns (about 146 years), so what starts before then also ends
# inside int64, as no transmission lasts longer than a TXOP
MAX_TIME_S = 2**62 / 1e9


def check_finite_positive(name: str, value: float | None, most: float = math.inf) -> None:
    """Raise ValueError, its message led by ``name``, unless ``value`` is a
    finite number > 0 and at most ``most``."""
    if value is None or not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value}")
    if value > most:
        raise ValueError(f"{name} must be at most {most:.4g}, got {value}")


@dataclass(frozen=True)
class Flow:
    """One TCP flow from a server through the AP to a station."""

    id: str
    dst: str
    kind: FlowKind
    base_rtt_s: float = 0.030
    segment_bytes: ClassVar[int] = 1500  # one MPDU carries one segment
    queue_limit_segments: int = 256
    cwnd_init_segments: ClassVar[float] = 10.0  # the initial and the idle-restart window
    idle_restart_s: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("saturated", "burst"):
            raise ValueError(f"unknown flow kind {self.kind!r}")
        check_finite_positive("base_rtt_s", self.base_rtt_s, MAX_TIME_S)
        check_finite_positive("idle_restart_s", self.idle_restart_s, MAX_TIME_S)
        if self.queue_limit_segments < 1:
            raise ValueError(f"queue_limit_segments must be >= 1, got {self.queue_limit_segments}")


def on_ack(cwnd: float, ssthresh: float, acked_segments: int) -> float:
    """Advance the window: slow start below ssthresh, else congestion avoidance.

    Clumped ACKs are processed as if each segment were acknowledged
    individually.  Returns the new cwnd.
    """
    if acked_segments < 1:
        raise ValueError(f"acked_segments must be >= 1, got {acked_segments}")
    # slow start until cwnd reaches ssthresh; as cwnd only grows, the rest
    # of the segments are all congestion avoidance, where most calls start,
    # so the outer test spares them the loop's
    left = acked_segments
    if cwnd < ssthresh:
        while left and cwnd < ssthresh:
            cwnd += 1.0
            left -= 1
    for _ in range(left):
        cwnd += 1.0 / cwnd
    return cwnd


def on_loss(cwnd: float) -> float:
    """Multiplicative decrease on a queue drop: cwnd/2, floor 2, is both the
    new cwnd and the new ssthresh."""
    return max(cwnd / 2.0, 2.0)


def on_idle_restart(flow: Flow, cwnd: float, ssthresh: float) -> tuple[float, float]:
    """Collapse to the initial window after a sender-idle period; returns
    (cwnd, ssthresh)."""
    return min(cwnd, flow.cwnd_init_segments), max(ssthresh, 0.75 * cwnd)


def offer_load(flow: Flow, cwnd: float, pending_bytes: float, in_flight_bytes: int) -> int:
    """Bytes the server may push now: window headroom, clipped at the queue limit.

    ``pending_bytes`` is the unsent backlog (``math.inf`` for a saturated
    source).  The result is a whole number of segments.
    """
    if pending_bytes < 0 or in_flight_bytes < 0:
        raise ValueError("pending_bytes and in_flight_bytes must be >= 0")
    headroom = int(cwnd) * flow.segment_bytes - in_flight_bytes
    if headroom <= 0:
        return 0
    # min(pending_bytes, headroom, queue limit in bytes) without the builtin call
    admissible = pending_bytes
    if headroom < admissible:
        admissible = headroom
    limit = flow.queue_limit_segments * flow.segment_bytes
    if limit < admissible:
        admissible = limit
    segments = int(admissible // flow.segment_bytes)
    # a burst tail smaller than one segment still needs to travel
    if segments == 0 and 0 < pending_bytes < flow.segment_bytes:
        return int(pending_bytes)
    return segments * flow.segment_bytes
