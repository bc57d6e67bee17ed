"""Streaming QoS metrics for the device under test.

A burst left unserved when its successor is released stalls the client's
playout buffer: burst i underruns iff its last byte lands after
release_i + inter_burst_time_i.  When each burst was served is derived from
the DUT flow's deliveries (``burst_service``).  Underrun time is how far past
that deadline service finished (truncated at the simulation horizon for
bursts that never finished).  A session passes when its average throughput
reaches the lower of the bitrate and the load due within it, with at most
``max_underruns`` underruns.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import accumulate, compress, repeat

from .macsim import SimTrace
from .traffic import Burst

INTERVAL_S = 1.0  # width of an instantaneous-throughput bin


@dataclass(frozen=True)
class QosReport:
    """QoS of one streaming session: what was measured, and the figures derived from it."""

    duration_s: float
    delivered_bytes: int
    instantaneous_mbps: list[tuple[float, float]]
    due_bytes: int  # bytes of the bursts whose deadline is within the horizon
    late_bursts: list[tuple[int, float]]  # (burst index, lateness s) of each underrun

    @property
    def avg_throughput_mbps(self) -> float:
        return 8.0 * self.delivered_bytes / self.duration_s / 1e6

    @property
    def underrun_events(self) -> int:
        return len(self.late_bursts)

    @property
    def underrun_time_s(self) -> float:
        return _sum_left(lateness for _, lateness in self.late_bursts)

    @property
    def throughput_variation(self) -> float:
        """Population coefficient of variation of the instantaneous series."""
        values = [v for _, v in self.instantaneous_mbps]
        mean = _sum_left(values) / len(values) if values else 0.0
        if mean > 0:
            var = _sum_left((v - mean) ** 2 for v in values) / len(values)
            return math.sqrt(var) / mean
        return 0.0

    def to_dict(self) -> dict:
        return {
            "duration_s": self.duration_s,
            "delivered_bytes": self.delivered_bytes,
            "avg_throughput_mbps": self.avg_throughput_mbps,
            "underrun_events": self.underrun_events,
            "underrun_time_s": self.underrun_time_s,
            "throughput_variation": self.throughput_variation,
            "late_bursts": [list(x) for x in self.late_bursts],
        }


def _dut_deliveries(trace: SimTrace) -> Iterator[tuple[float, int]]:
    """An iterator over (time, bytes) of each delivery of the DUT flow, in order.

    The deliveries are filtered column by column, without building a row
    tuple for any other flow.
    """
    t, _, flow, nbytes = trace.deliveries.decoded()
    return compress(zip(t, nbytes), map(operator.eq, flow, repeat(trace.dut_flow_id)))


def _served(dut: Iterable[tuple[float, int]],
            bursts: Sequence[Burst]) -> list[tuple[int, float, float]]:
    edges = [0, *accumulate(b.size_bytes for b in bursts)]  # burst i spans edges[i:i + 2]
    starts: list[float] = []
    served: list[tuple[int, float, float]] = []
    delivered = 0
    for t, nbytes in dut:
        delivered += nbytes
        while len(starts) < len(bursts) and edges[len(starts)] < delivered:
            starts.append(t)
        while len(served) < len(starts) and edges[len(served) + 1] <= delivered:
            served.append((len(served), starts[len(served)], t))
    return served


def burst_service(trace: SimTrace, bursts: Sequence[Burst]) -> list[tuple[int, float, float]]:
    """(index, serve start, serve end) of each burst the DUT flow finished, in order.

    The bursts lie end to end in the flow's byte stream.  A burst starts at the
    first DUT delivery that takes the cumulative bytes past its offset and ends
    at the first that reaches its offset + size.
    """
    return _served(_dut_deliveries(trace), bursts)


def _sum_left(xs) -> float:
    """Add floats left to right: from Python 3.12 on, ``sum`` compensates."""
    total = 0.0
    for x in xs:
        total += x
    return total


def compute_qos(trace: SimTrace, bursts: Sequence[Burst]) -> QosReport:
    """Derive the DUT stream's QoS from a trace and its generated burst list."""
    if trace.dut_flow_id is None:
        raise ValueError("trace has no DUT stream to score")

    duration = trace.duration_s

    nbins = math.ceil(duration / INTERVAL_S)
    bins = [0] * nbins

    # one walk over the DUT's deliveries: _served reads every one of them, and
    # each fills its throughput bin on the way
    def binned():
        for t, nbytes in _dut_deliveries(trace):
            bins[min(int(t / INTERVAL_S), nbins - 1)] += nbytes
            yield t, nbytes

    # an unserved burst ends at the horizon
    ends = [end for _, _, end in _served(binned(), bursts)]
    ends += [duration] * (len(bursts) - len(ends))
    series = [(i * INTERVAL_S, 8.0 * b / INTERVAL_S / 1e6) for i, b in enumerate(bins)]

    due_bytes = sum(b.size_bytes for b in bursts
                    if b.release_time_s + b.inter_burst_time_s <= duration)

    late: list[tuple[int, float]] = []
    for i, (b, end) in enumerate(zip(bursts, ends)):
        lateness = end - (b.release_time_s + b.inter_burst_time_s)
        if lateness > 0:
            late.append((i, lateness))

    return QosReport(
        duration_s=duration,
        delivered_bytes=trace.delivered_bytes.get(trace.dut_flow_id, 0),
        instantaneous_mbps=series,
        due_bytes=due_bytes,
        late_bursts=late,
    )


def qos_pass(report: QosReport, bitrate_mbps: float, max_underruns: int) -> bool:
    """True iff average throughput meets the floor and underruns are tolerable.

    The floor is the lower of the bitrate and the load due within the session,
    in bytes: VBR releases less than nominal on average, and a session that ends
    between two deadlines has less due.
    """
    met = report.avg_throughput_mbps >= bitrate_mbps or report.delivered_bytes >= report.due_bytes
    return met and report.underrun_events <= max_underruns
