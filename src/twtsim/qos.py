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
from dataclasses import dataclass, field
from itertools import accumulate, compress, repeat

from .macsim import SimTrace
from .traffic import Burst

INTERVAL_S = 1.0  # width of an instantaneous-throughput bin


@dataclass(frozen=True)
class QosReport:
    """QoS of one streaming session."""

    duration_s: float
    delivered_bytes: int
    avg_throughput_mbps: float
    instantaneous_mbps: list[tuple[float, float]]
    underrun_events: int
    underrun_time_s: float
    throughput_variation: float
    due_bytes: int  # bytes of the bursts whose deadline is within the horizon
    late_bursts: list[tuple[int, float]] = field(default_factory=list)

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
            served.append((bursts[len(served)].index, starts[len(served)], t))
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
    fid = trace.dut_flow_id
    total = trace.delivered_bytes.get(fid, 0)

    nbins = math.ceil(duration / INTERVAL_S)
    bins = [0] * nbins

    # one walk over the DUT's deliveries: _served reads every one of them, and
    # each fills its throughput bin on the way
    def binned():
        for t, nbytes in _dut_deliveries(trace):
            bins[min(int(t / INTERVAL_S), nbins - 1)] += nbytes
            yield t, nbytes

    serve_end = {index: end for index, _, end in _served(binned(), bursts)}
    series = [(i * INTERVAL_S, 8.0 * b / INTERVAL_S / 1e6) for i, b in enumerate(bins)]

    due_bytes = sum(b.size_bytes for b in bursts
                    if b.release_time_s + b.inter_burst_time_s <= duration)

    events = 0
    late_time = 0.0
    late: list[tuple[int, float]] = []
    for b in bursts:
        deadline = b.release_time_s + b.inter_burst_time_s
        end = serve_end.get(b.index)
        if end is None:
            if duration > deadline:
                lateness = duration - deadline
            else:
                continue  # deadline beyond the horizon: unobservable
        else:
            lateness = end - deadline
        if lateness > 0:
            events += 1
            late_time += lateness
            late.append((b.index, lateness))

    values = [v for _, v in series]
    mean = _sum_left(values) / len(values) if values else 0.0
    if mean > 0:
        var = _sum_left((v - mean) ** 2 for v in values) / len(values)
        cv = math.sqrt(var) / mean
    else:
        cv = 0.0

    return QosReport(
        duration_s=duration,
        delivered_bytes=total,
        avg_throughput_mbps=trace.flow_throughput_mbps(fid),
        instantaneous_mbps=series,
        underrun_events=events,
        underrun_time_s=late_time,
        throughput_variation=cv,
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
