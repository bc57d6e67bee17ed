"""Outside-in layer trace: wraps twtsim's public functions at the module
attribute each caller looks up at call time.

Run-level calls (setup, back-solving, scenario building, simulation, scoring,
search phases, CLI commands) become spans with parent ids.  Per-event calls
made inside the engine (about 130k per session) are only counted and timed
in aggregate; each ``run_sim`` span stores the per-event deltas it caused.
Everything stays in memory until ``Tracer.dump``.

The wrapping cannot see inside ``run_sim``: MAC contention and A-MPDU
delivery share ``macsim.self_s``; backoff draws, aggregation calls and MPDUs
per A-MPDU are their proxies.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

# (module, attribute) -> span name; every call of these is one span.
SPAN_SITES = {
    ("twtsim.scenarios", "paper_setup"): "paper_setup",
    ("twtsim.scenarios", "back_solve_phy_rate"): "back_solve",
    ("twtsim.config", "back_solve_phy_rate"): "back_solve",
    ("twtsim.scenarios", "generate_cbr_bursts"): "generate_bursts",
    ("twtsim.scenarios", "generate_vbr_bursts"): "generate_bursts",
    ("twtsim.macsim", "run_sim"): "run_sim",
    ("twtsim.search", "run_sim"): "run_sim",
    ("twtsim.cli", "run_sim"): "run_sim",
    ("twtsim.qos", "compute_qos"): "compute_qos",
    ("twtsim.search", "compute_qos"): "compute_qos",
    ("twtsim.cli", "compute_qos"): "compute_qos",
    ("twtsim.search", "run_full_search"): "run_full_search",
    ("twtsim.search", "phase1_min_duty"): "phase1",
    ("twtsim.search", "phase2_select_mf"): "phase2",
    ("twtsim.search", "phase3_validate"): "phase3",
    ("twtsim.cli", "parse"): "config.parse",
}
# (module, attribute) -> (counter name, items per result); a counter keeps
# calls, seconds and items in aggregate.
COUNTER_SITES = {
    ("twtsim.macsim", "on_ack"): ("transport.on_ack", None),
    ("twtsim.macsim", "offer_load"): ("transport.offer_load", None),
    ("twtsim.macsim", "on_loss"): ("transport.on_loss", None),
    ("twtsim.macsim", "on_idle_restart"): ("transport.on_idle_restart", None),
    ("twtsim.macsim", "backoff_draw"): ("macsim.backoff_draw", None),
    ("twtsim.macsim", "aggregate_ns"): ("macsim.aggregate_ns", None),
    ("twtsim.macsim", "wake_windows"): ("schedule.wake_windows", len),
    ("twtsim.traffic", "sample_frame_size"): ("traffic.sample_frame_size", None),
    ("twtsim.qos", "qos_pass"): ("qos.qos_pass", int),
    ("twtsim.search", "qos_pass"): ("qos.qos_pass", int),
    ("twtsim.cli", "qos_pass"): ("qos.qos_pass", int),
}
TRANSPORT = ("transport.on_ack", "transport.offer_load", "transport.on_loss",
             "transport.on_idle_restart")


def _trace_counts(scenario, trace) -> dict:
    """Simulated counts of one run; MPDUs are whole or tail segments delivered."""
    ap = next(s.id for s in scenario.stations if s.role == "ap")
    seg = {f.id: f.segment_bytes for f in scenario.flows}
    return {
        "sim_s": scenario.duration_s,
        "tx": len(trace.airtime),
        "ampdus": sum(1 for *_, sid in trace.airtime if sid == ap),
        "mpdus": sum(-(-nb // seg[fid]) for _, _, fid, nb in trace.deliveries),
        "deliveries": len(trace.deliveries),
        "collisions": trace.collisions,
        "drops": sum(trace.drops.values()),
    }


class Tracer:
    """Installs the wrappers, records spans and counters, restores on ``close``."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, list] = {}
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- installation -----------------------------------------------------
    def install(self) -> "Tracer":
        import importlib

        for (mod, attr), name in SPAN_SITES.items():
            self._patch(importlib.import_module(mod), attr, name, self._span)
        for (mod, attr), (name, items) in COUNTER_SITES.items():
            self._patch(importlib.import_module(mod), attr, name,
                        lambda fn, n, items=items: self._counter(fn, n, items))
        scenarios = importlib.import_module("twtsim.scenarios")
        self._patch(scenarios.ScenarioTemplate, "session_scenario", "session_scenario", self._span)
        # cli.main dispatches through this table, not through the cmd_* names
        handlers = importlib.import_module("twtsim.cli")._HANDLERS
        for command, orig in list(handlers.items()):
            handlers[command] = self._span(orig, f"cli.{command}")
            self._undo.append((handlers.__setitem__, command, orig))
        return self

    def _patch(self, owner, attr, name, wrap) -> None:
        orig = getattr(owner, attr)
        setattr(owner, attr, wrap(orig, name))
        self._undo.append((lambda a, v, o=owner: setattr(o, a, v), attr, orig))

    def close(self) -> None:
        while self._undo:
            setter, key, orig = self._undo.pop()
            setter(key, orig)

    # -- wrappers -----------------------------------------------------------
    def _counter(self, fn, name, items):
        cell = self.counters.setdefault(name, [0, 0.0, 0])
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            cell[1] += clock() - t0
            cell[0] += 1
            if items is not None:
                cell[2] += items(result)
            return result

        return wrapper

    def _span(self, fn, name):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = {"id": len(spans), "parent": stack[-1] if stack else None, "name": name,
                   "post_s": 0.0}
            spans.append(rec)
            stack.append(rec["id"])
            before = {k: (c[0], c[1]) for k, c in counters.items()} if name == "run_sim" else None
            rec["t0"] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["t1"] = clock()
                stack.pop()
            # attributes are read after the span closes; their cost is kept
            # apart so that it is not charged to the enclosing layer
            if before is not None:
                rec["events"] = {k: [c[0] - before.get(k, (0, 0.0))[0],
                                     c[1] - before.get(k, (0, 0.0))[1]]
                                 for k, c in counters.items()}
                rec.update(_trace_counts(args[0], result))
            elif name == "generate_bursts":
                rec["bursts"] = len(result)
            rec["post_s"] = clock() - rec["t1"]
            return result

        return wrapper

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "counters": self.counters}))


# -- aggregation --------------------------------------------------------------

def layer_metrics(spans: list[dict], counters: dict[str, list]) -> dict[str, float]:
    """Per-layer metrics from the spans and counters of one traced run."""
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def dur(s):
        return s["t1"] - s["t0"]

    def ancestors(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            yield s

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(ss):
        return sum(dur(s) for s in ss)

    def self_time(s, excluded=None):
        """Span time minus its children (all, or those named in ``excluded``)."""
        kids = [c for c in children.get(s["id"], ()) if excluded is None or c["name"] in excluded]
        return dur(s) - sum(dur(c) + c["post_s"] for c in kids)

    def descendants(s, names):
        """Top-most spans with a name in ``names`` below ``s``."""
        out = []
        for c in children.get(s["id"], ()):
            out.extend([c] if c["name"] in names else descendants(c, names))
        return out

    # runs that raised carry no counts; the failure is reported elsewhere
    runs = [r for r in named("run_sim") if "events" in r]
    cal = [r for r in runs if any(a["name"] == "back_solve" for a in ancestors(r))]
    sims = [r for r in runs if not any(a["name"] == "back_solve" for a in ancestors(r))]
    run_s = total(sims)

    def ev(key, i):
        return sum(r["events"].get(key, (0, 0.0))[i] for r in sims)

    def count(key):
        return sum(r[key] for r in sims)

    transport_s = sum(ev(k, 1) for k in TRANSPORT)
    schedule_s = ev("schedule.wake_windows", 1)
    tx, ampdus = count("tx"), count("ampdus")

    m: dict[str, float] = {
        "macsim.run_sim.calls": len(sims),
        "macsim.run_sim.s": run_s,
        "macsim.self_s": run_s - transport_s - schedule_s,
        "macsim.sim_speed": count("sim_s") / run_s if run_s else 0.0,
        "macsim.tx_per_s": tx / run_s if run_s else 0.0,
        "macsim.backoff_draw.calls": ev("macsim.backoff_draw", 0),
        "macsim.aggregate_ns.calls": ev("macsim.aggregate_ns", 0),
        "macsim.back_solve_phy_rate.s": total(named("back_solve")),
        "macsim.calibration.runs": len(cal),
        "macsim.tx": tx,
        "macsim.ampdus": ampdus,
        "macsim.mpdus_per_ampdu": count("mpdus") / ampdus if ampdus else 0.0,
        "macsim.deliveries": count("deliveries"),
        "macsim.collisions": count("collisions"),
        "macsim.collision_ratio": count("collisions") / tx if tx else 0.0,
        "macsim.drops": count("drops"),
        "transport.s": transport_s,
    }
    for k in TRANSPORT:
        m[k + ".calls"] = ev(k, 0)

    searches = named("run_full_search")
    work = {"run_sim", "compute_qos", "session_scenario"}
    for phase in ("phase1", "phase2", "phase3"):
        m[f"search.{phase}.s"] = total(named(phase))
        m[f"search.{phase}.runs"] = sum(len(descendants(p, {"run_sim"})) for p in named(phase))
    # the VBR replay is inline in run_full_search: it is the tail after phase 3
    m["search.vbr.s"] = sum(s["t1"] - max((c["t1"] for c in children.get(s["id"], ())
                                            if c["name"] == "phase3"), default=s["t1"])
                            for s in searches)
    m["search.vbr.runs"] = sum(1 for s in searches for c in children.get(s["id"], ())
                               if c["name"] == "run_sim")
    search_s = total(searches)
    m["search.self_s"] = sum(dur(s) - sum(dur(w) + w["post_s"] for w in descendants(s, work))
                             for s in searches)
    m["search.sim_share"] = (sum(total(descendants(s, {"run_sim"})) for s in searches) / search_s
                             if search_s else 0.0)

    qos_pass = counters.get("qos.qos_pass", [0, 0.0, 0])
    m["qos.compute_qos.s"] = total(named("compute_qos"))
    m["qos.compute_qos.calls"] = len(named("compute_qos"))
    m["qos.pass_ratio"] = qos_pass[2] / qos_pass[0] if qos_pass[0] else 0.0

    bursts = named("generate_bursts")
    m["traffic.s"] = total(bursts)
    m["traffic.bursts"] = sum(s["bursts"] for s in bursts)
    m["traffic.frames"] = counters.get("traffic.sample_frame_size", [0])[0]

    m["scenarios.paper_setup.s"] = sum(self_time(s) for s in named("paper_setup"))
    m["scenarios.session_scenario.s"] = sum(self_time(s, {"generate_bursts"})
                                            for s in named("session_scenario"))
    windows = counters.get("schedule.wake_windows", [0, 0.0, 0])
    m["schedule.wake_windows.s"] = windows[1]
    m["schedule.windows"] = windows[2]

    m["config.parse.s"] = sum(self_time(s) for s in named("config.parse"))
    m["config.back_solve.s"] = sum(dur(s) for s in named("back_solve")
                                   if any(a["name"] == "config.parse" for a in ancestors(s)))

    commands = [s for s in spans if s["name"].startswith("cli.")]
    m["cli.cmd.s"] = total(commands)
    m["cli.write_s"] = sum(dur(s) - sum(dur(w) + w["post_s"]
                                        for w in descendants(s, {"run_sim", "compute_qos"}))
                           for s in commands)
    return m


def merge(dumps: list[dict]) -> tuple[list[dict], dict[str, list]]:
    """Join the spans and counters of several traced processes."""
    spans: list[dict] = []
    counters: dict[str, list] = {}
    for d in dumps:
        base = len(spans)
        for s in d["spans"]:
            spans.append({**s, "id": s["id"] + base,
                          "parent": None if s["parent"] is None else s["parent"] + base})
        for k, c in d["counters"].items():
            acc = counters.setdefault(k, [0, 0.0, 0])
            for i in range(3):
                acc[i] += c[i]
    return spans, counters
