"""Session traces built by hand, held as a run holds its own.

``hand_trace`` appends each given row to the integer columns of a ``Rows``
(times as ns, names as indices), so a hand-built trace is read through the
same decoders as the engine's.  ``wake_windows_s`` gives a scenario's wake
windows, which a trace does not keep.  Import them from a test module::

    from hand_trace import hand_trace, wake_windows_s
"""

from twtsim import wake_windows
from twtsim.macsim import Rows, SimTrace, _named, _seconds

# per field kind: the column typecode; s seconds, n a name, i an int, f a float
_TYPECODES = {"s": "q", "n": "H", "i": "q", "f": "d"}


def _rows(kinds: str, rows) -> Rows:
    """A ``Rows`` of the given tuples, one field per letter of ``kinds``."""
    rows = list(rows)
    fields, encoders = [], []
    for k, kind in enumerate(kinds):
        if kind == "s":
            fields.append((k, _seconds))
            encoders.append(lambda t: round(t * 1e9))
        elif kind == "n":
            names = sorted({row[k] for row in rows})
            fields.append((k, _named(names)))
            encoders.append(names.index)
        else:
            fields.append((k, iter))
            encoders.append(lambda v: v)
    view = Rows("".join(map(_TYPECODES.get, kinds)), *fields)
    for row in rows:
        for column, encode, value in zip(view.columns, encoders, row):
            column.append(encode(value))
    if list(view) != rows:
        raise ValueError("a row does not survive its columns: each time must be whole ns")
    return view


def hand_trace(duration_s: float, dut_flow_id: str | None = "stream",
               deliveries=(), airtime=(), cwnd_series=()) -> SimTrace:
    """A trace of the given rows: deliveries ``(time, station, flow, bytes)``,
    airtime ``(start, end, station)`` and cwnd ``(time, flow, segments)``.
    Each flow's delivered bytes are the sum of its deliveries."""
    deliveries = list(deliveries)
    delivered: dict[str, int] = {}
    for _, _, fid, nbytes in deliveries:
        delivered[fid] = delivered.get(fid, 0) + nbytes
    return SimTrace(duration_s=duration_s, dut_flow_id=dut_flow_id,
                    deliveries=_rows("snni", deliveries), airtime=_rows("ssn", airtime),
                    cwnd_series=_rows("snf", cwnd_series), delivered_bytes=delivered)


def wake_windows_s(sc) -> list[tuple[float, float]]:
    """The wake windows ``(start, end)`` in seconds of ``sc``'s gated client,
    clipped to its horizon."""
    return [(a / 1e6, b / 1e6) for a, b in wake_windows(sc.twt[1], round(sc.duration_s * 1e6))]
