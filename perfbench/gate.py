"""Correctness gate: golden digests, seed-independent trace invariants, self-checks.

A digest covers the bytes a user or a later stage sees:
``SearchResult.to_dict()`` and every CLI artifact file, which hold a session
trace (deliveries, airtime, burst service, delivered bytes, drops,
collisions) and its QoS report.  Digests are compared with ``golden.json``
(recorded at the default seed); the trace rebuilt from the artifacts and the
search decisions at every seed are checked against invariants that hold
whatever the seed, so held-out seeds are still checked.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import json
import math
from pathlib import Path
from types import SimpleNamespace

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
COLLISION_ID = "!collision"
DUT_FLOW_ID = "dut-stream"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def json_bytes(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True).encode()


def dir_digests(directory: Path) -> dict[str, str]:
    """SHA-256 of every file in a CLI output directory, by file name."""
    return {p.name: sha256(p.read_bytes()) for p in sorted(directory.iterdir()) if p.is_file()}


def load_golden() -> dict:
    if not GOLDEN_PATH.is_file():
        return {}
    return json.loads(GOLDEN_PATH.read_text())


def compare(expected: dict | None, got: dict) -> list[str]:
    """Mismatches between recorded and observed digests; no record means no check."""
    if expected is None:
        return []
    keys = sorted(set(expected) | set(got))
    return [f"{k}: expected {expected.get(k)}, got {got.get(k)}"
            for k in keys if expected.get(k) != got.get(k)]


# -- trace invariants -------------------------------------------------------

def check_trace(trace) -> list[str]:
    """Invariants every session trace satisfies at any seed.

    * airtime intervals do not overlap and start inside [0, horizon);
    * every DUT airtime entry and DUT delivery lies inside a wake window;
    * per flow, delivered_bytes equals the sum of its delivery records;
    * burst serve ends are monotone.
    """
    errors: list[str] = []
    horizon = trace.duration_s
    prev_end = 0.0
    for i, (start, end, _) in enumerate(trace.airtime):
        if not (0.0 <= start < horizon) or end < start:
            errors.append(f"airtime {i} [{start}, {end}) outside [0, {horizon})")
            break
        if start < prev_end:
            errors.append(f"airtime {i} starts at {start} before the previous end {prev_end}")
            break
        prev_end = end

    windows = trace.wake_windows_s
    dut = trace.dut_station_id
    if windows is not None and dut is not None:
        starts = [a for a, _ in windows]

        def inside(a: float, b: float) -> bool:
            k = bisect.bisect_right(starts, a) - 1
            return k >= 0 and windows[k][0] <= a and b <= windows[k][1]

        for start, end, sid in trace.airtime:
            if sid == dut and not inside(start, end):
                errors.append(f"DUT airtime [{start}, {end}) outside every wake window")
                break
        for t, dst, _, _ in trace.deliveries:
            # a delivery is stamped at the end of its A-MPDU, which started
            # strictly earlier, so it may coincide with the window end
            if dst == dut and not inside(math.nextafter(t, -math.inf), t):
                errors.append(f"DUT delivery at {t} outside every wake window")
                break

    sums: dict[str, int] = {}
    for _, _, fid, nbytes in trace.deliveries:
        sums[fid] = sums.get(fid, 0) + nbytes
    for fid in sorted(set(sums) | set(trace.delivered_bytes)):
        if sums.get(fid, 0) != trace.delivered_bytes.get(fid, 0):
            errors.append(f"flow {fid}: delivered_bytes {trace.delivered_bytes.get(fid, 0)} "
                          f"!= sum of deliveries {sums.get(fid, 0)}")

    prev = -math.inf
    for index, start, end in trace.dut_burst_serve:
        if end < prev or end < start:
            errors.append(f"burst {index} serve end {end} not monotone")
            break
        prev = end
    return errors


# -- search decisions -------------------------------------------------------

def check_search(result: dict, seeds: int, bitrate_mbps: float) -> list[str]:
    """Each search decision follows from the curves and sessions it reports."""
    errors = []
    curve1 = result["phase1_curve"]
    if [p["duty_percent"] for p in curve1] != list(range(5, 101, 5)):
        errors.append("phase-1 curve does not sweep duty 5..100")
    first = next((p["duty_percent"] for p in curve1
                  if p["mean_throughput_mbps"] >= bitrate_mbps), None)
    if result["phase1_duty_percent"] != first:
        errors.append(f"phase-1 duty {result['phase1_duty_percent']} is not the first "
                      f"duty meeting {bitrate_mbps} Mbit/s ({first})")
    curve2 = result["phase2_curve"]
    mf = 1
    for prev, point in zip(curve2, curve2[1:]):
        if point["mf"] != 2 * prev["mf"]:
            errors.append("phase-2 curve does not double MF")
        if point["mean_underrun_time_s"] < prev["mean_underrun_time_s"]:
            mf = point["mf"]
        else:
            break
    if result["mf"] != mf:
        errors.append(f"phase-2 picked MF {result['mf']}, the curve gives {mf}")
    cbr = [s for s in result["sessions"] if s["model"] == "cbr"]
    vbr = [s for s in result["sessions"] if s["model"] == "vbr"]
    duties = sorted({s["duty_percent"] for s in cbr})
    if not duties or duties != list(range(result["phase1_duty_percent"], duties[-1] + 1, 5)):
        errors.append("phase-3 duties do not step by 5 from the phase-1 duty")
    for d in duties:
        at = [s for s in cbr if s["duty_percent"] == d]
        if len(at) != seeds:
            errors.append(f"phase 3 ran {len(at)} sessions at duty {d}, expected {seeds}")
        if all(s["passed"] for s in at) != (d == result["duty_percent"]):
            errors.append(f"phase-3 pass/fail at duty {d} contradicts the chosen duty")
    if result["converged"]:
        sched = result["schedule"]
        if len(vbr) != seeds or any(s["duty_percent"] != result["duty_percent"] for s in vbr):
            errors.append("VBR replay does not cover every seed at the chosen duty")
        if sched is None or sched["sp_us"] != 65535 // result["mf"]:
            errors.append("schedule does not match the chosen MF")
    return errors


# -- CLI artifacts ----------------------------------------------------------

def _csv(path: Path) -> list[list[str]]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[1:]


def wake_windows_s(schedule: dict | None, duration_s: float) -> list[tuple[float, float]] | None:
    """Wake windows of a schedule dict, worked out here so the check does not
    rely on the schedule code it checks."""
    if schedule is None or schedule["wi_us"] == 0:
        return None
    sp, period, start = schedule["sp_us"], schedule["sp_us"] + schedule["wi_us"], schedule["offset_us"]
    horizon = round(duration_s * 1e6)
    out = []
    while start < horizon:
        out.append((start / 1e6, min(start + sp, horizon) / 1e6))
        start += period
    return out


def simulate_artifacts(out: Path) -> tuple[SimpleNamespace, dict]:
    """Rebuild a trace from the CSV/JSON written by ``--command simulate``."""
    summary = json.loads((out / "summary.json").read_text())
    deliveries = [(float(t), st, fl, int(nb)) for t, st, fl, nb in _csv(out / "deliveries.csv")]
    airtime = [(float(a), float(b), st) for a, b, st in _csv(out / "airtime.csv")]
    serve = [(int(i), float(a), float(b)) for i, a, b in _csv(out / "burst_serve.csv")]
    dut = next((st for _, st, fl, _ in deliveries if fl == DUT_FLOW_ID), None)
    trace = SimpleNamespace(
        duration_s=summary["duration_s"],
        dut_flow_id=DUT_FLOW_ID,
        dut_station_id=dut,
        wake_windows_s=wake_windows_s(summary["twt_schedule"], summary["duration_s"]),
        deliveries=deliveries,
        airtime=airtime,
        dut_burst_serve=serve,
        delivered_bytes=summary["delivered_bytes"],
        drops=summary["drops"],
        collisions=summary["collisions"],
    )
    return trace, summary


def check_simulate(out: Path) -> list[str]:
    """Invariants on a ``simulate`` output directory."""
    trace, summary = simulate_artifacts(out)
    errors = check_trace(trace)
    collisions = sum(1 for *_, st in trace.airtime if st == COLLISION_ID)
    if collisions != summary["collisions"]:
        errors.append(f"summary collisions {summary['collisions']} != airtime rows {collisions}")
    cwnd = _csv(out / "cwnd.csv")
    if not cwnd:
        errors.append("cwnd.csv is empty although simulate records cwnd")
    times = [float(r[0]) for r in cwnd]
    if any(b < a for a, b in zip(times, times[1:])) or (times and not 0 <= times[-1] < trace.duration_s):
        errors.append("cwnd samples are not time-ordered inside the horizon")
    return errors


def check_qos_artifacts(out: Path, summary: dict | None) -> list[str]:
    """Invariants on a ``qos`` output directory, cross-checked with ``simulate``."""
    report = json.loads((out / "qos_report.json").read_text())
    series = _csv(out / "instantaneous.csv")
    errors = []
    if report["underrun_events"] != len(report["late_bursts"]):
        errors.append("qos_report underrun_events differs from its late-burst list")
    if len(series) != math.ceil(report["duration_s"]):
        errors.append(f"instantaneous.csv has {len(series)} rows for {report['duration_s']} s")
    if summary is not None and report["delivered_bytes"] != summary["delivered_bytes"][DUT_FLOW_ID]:
        errors.append("qos delivered_bytes differs from simulate at the same seed")
    return errors


# -- self-checks ------------------------------------------------------------

def _synthetic_trace() -> SimpleNamespace:
    return SimpleNamespace(
        duration_s=1.0,
        dut_flow_id=DUT_FLOW_ID,
        dut_station_id="dut",
        wake_windows_s=[(0.0, 0.25), (0.5, 0.75)],
        deliveries=[(0.1, "dut", DUT_FLOW_ID, 3000), (0.3, "bg", "bg-0", 1500),
                    (0.75, "dut", DUT_FLOW_ID, 1500)],
        airtime=[(0.05, 0.1, "ap"), (0.1, 0.12, "dut"), (0.2, 0.3, "ap"),
                 (0.6, 0.75, "ap")],
        dut_burst_serve=[(0, 0.05, 0.1), (1, 0.6, 0.75)],
        delivered_bytes={DUT_FLOW_ID: 4500, "bg-0": 1500},
        drops={},
        collisions=0,
    )


def self_check(sample: bytes) -> list[str]:
    """The gate must pass a valid trace, flag each invariant broken on its own,
    and flag a one-byte change in a real output of this run."""
    failures = []
    if check_trace(_synthetic_trace()):
        failures.append("gate rejects a valid synthetic trace: "
                        + "; ".join(check_trace(_synthetic_trace())))
    breakers = {  # name: (break one invariant, words of the error it must raise)
        "overlapping airtime": (lambda t: t.airtime.insert(1, (0.08, 0.09, "bg")),
                                "before the previous end"),
        "airtime past the horizon": (lambda t: t.airtime.append((1.0, 1.01, "ap")),
                                     "outside [0,"),
        "DUT airtime while asleep": (lambda t: t.airtime.insert(3, (0.3, 0.31, "dut")),
                                     "DUT airtime"),
        "DUT delivery while asleep": (lambda t: t.deliveries.append((0.4, "dut", DUT_FLOW_ID, 0)),
                                      "DUT delivery"),
        "delivered_bytes mismatch": (lambda t: t.delivered_bytes.update({"bg-0": 1501}),
                                     "sum of deliveries"),
        "burst ends not monotone": (lambda t: t.dut_burst_serve.append((2, 0.6, 0.7)),
                                    "not monotone"),
    }
    for name, (breaker, words) in breakers.items():
        trace = _synthetic_trace()
        breaker(trace)
        errors = check_trace(trace)
        if len(errors) != 1 or words not in errors[0]:
            failures.append(f"gate misreports a synthetic violation ({name}): {errors}")
    perturbed = bytearray(sample)
    perturbed[len(perturbed) // 2] ^= 0x01
    if not compare({"sample": sha256(sample)}, {"sample": sha256(bytes(perturbed))}):
        failures.append("gate misses a one-byte change in an output")
    return failures
