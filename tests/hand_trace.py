"""Session traces built by hand, held as a run holds its own.

``hand_trace`` appends each given row to the integer columns of a ``Rows``
(times as ns, names as indices), so a hand-built trace is read through the
same decoders as the engine's.  Import it from a test module::

    from hand_trace import hand_trace
"""

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


def hand_trace(duration_s: float, dut_flow_id: str | None = "stream", schedule=None,
               deliveries=(), airtime=(), cwnd_series=()) -> SimTrace:
    """A trace of the given rows: deliveries ``(time, station, flow, bytes)``,
    airtime ``(start, end, station)`` and cwnd ``(time, flow, segments)``.
    Each flow's delivered bytes are the sum of its deliveries."""
    deliveries = list(deliveries)
    delivered: dict[str, int] = {}
    for _, _, fid, nbytes in deliveries:
        delivered[fid] = delivered.get(fid, 0) + nbytes
    return SimTrace(duration_s=duration_s, dut_flow_id=dut_flow_id, schedule=schedule,
                    deliveries=_rows("snni", deliveries), airtime=_rows("ssn", airtime),
                    cwnd_series=_rows("snf", cwnd_series), delivered_bytes=delivered)
