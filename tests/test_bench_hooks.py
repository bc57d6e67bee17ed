"""The benchmark's layer trace patches twtsim functions by (module, name).

Installing it raises when a rename or deletion drops one of those names, so
this test fails before the benchmark does.  Running a short gated scenario
under the trace proves the engine calls each patched per-event name through
its module global: a call that bypasses it would zero a layer metric, and the
call counts on the pinned engine scenarios must stay as recorded.  A small
search under the trace pins which phase each simulation is booked to.
"""

import sys
from collections import Counter
from pathlib import Path

import twtsim.macsim
import twtsim.search
from test_macsim import _pinned_scenarios
from test_search import small_template
from twtsim import Flow, Scenario, Station, VideoParams, generate_cbr_bursts, schedule_from

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _gated_stream_scenario() -> Scenario:
    return Scenario(
        stations=(
            Station(id="ap", role="ap"),
            Station(id="dut", role="client", phy_rate_mbps=100.0),
            Station(id="bg", role="client", phy_rate_mbps=100.0),
        ),
        twt=("dut", schedule_from(30, 4)),
        flows=(
            Flow(id="stream", dst="dut", kind="burst"),
            Flow(id="noise", dst="bg", kind="saturated", base_rtt_s=0.002),
        ),
        bursts=tuple(generate_cbr_bursts(VideoParams(bitrate_mbps=15.6), 7.0)),
        duration_s=7.0,
        seed=3,
    )


def _traced(work=None) -> tuple[dict, dict]:
    """Run ``work`` under the layer trace; return the trace's layer metrics and
    the call count of each counter and span name."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers

        tracer = layers.Tracer()
        try:
            tracer.install()
            if work is not None:
                work()
        finally:
            tracer.close()  # a partial install must not leak into later tests
        metrics = layers.layer_metrics(tracer.spans, tracer.counters)
        calls = Counter(span["name"] for span in tracer.spans)
        calls.update({name: cell[0] for name, cell in tracer.counters.items()})
        return metrics, calls
    finally:
        sys.path.remove(str(PERFBENCH))


def test_layer_trace_installs_and_restores():
    _traced()


# calls of each name the layer trace counts in twtsim.macsim, per pinned
# scenario, recorded before the engine kept per-client state; wake_windows is
# 0 since the trace derives the windows on read, which no run does.  The
# aggregate_ns counts of the three gated scenarios fell when the AP's pending
# test stopped asking it about the gated client
PINNED_CALLS = {
    "drops": {"aggregate_ns": 606, "backoff_draw": 1100, "offer_load": 907, "on_ack": 903,
              "on_idle_restart": 0, "on_loss": 79, "wake_windows": 0},
    "cbr_mf64": {"aggregate_ns": 2949, "backoff_draw": 3834, "offer_load": 2115, "on_ack": 2109,
                 "on_idle_restart": 0, "on_loss": 1, "wake_windows": 0},
    "vbr_mf4": {"aggregate_ns": 1465, "backoff_draw": 2064, "offer_load": 1843, "on_ack": 1837,
                "on_idle_restart": 0, "on_loss": 91, "wake_windows": 0},
    "gated_mid": {"aggregate_ns": 1958, "backoff_draw": 2700, "offer_load": 1577, "on_ack": 1564,
                  "on_idle_restart": 2, "on_loss": 5, "wake_windows": 0},
    # recorded before the transmission end left the event heap
    "bundled": {"aggregate_ns": 2944, "backoff_draw": 3869, "offer_load": 2270, "on_ack": 2244,
                "on_idle_restart": 0, "on_loss": 30, "wake_windows": 0},
}


def test_engine_calls_each_traced_name_as_recorded(monkeypatch):
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
    finally:
        sys.path.remove(str(PERFBENCH))
    names = sorted(attr for mod, attr in layers.COUNTER_SITES if mod == "twtsim.macsim")
    calls: dict[str, int] = {}
    for name in names:
        def counted(*args, _name=name, _real=getattr(twtsim.macsim, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(twtsim.macsim, name, counted)
    for scenario, sc in _pinned_scenarios().items():
        calls.update(dict.fromkeys(names, 0))
        twtsim.macsim.run_sim(sc)
        assert calls == PINNED_CALLS[scenario], scenario


def test_layer_trace_counts_every_engine_hook():
    _, calls = _traced(lambda: twtsim.macsim.run_sim(_gated_stream_scenario()))
    for name in ("transport.on_ack", "transport.offer_load", "transport.on_loss",
                 "transport.on_idle_restart", "macsim.backoff_draw", "macsim.aggregate_ns"):
        assert calls.get(name, 0) > 0, (name, calls)


def test_layer_trace_books_each_search_run_to_its_phase():
    template = small_template()
    results = []
    metrics, _ = _traced(lambda: results.append(twtsim.search.run_full_search(template)))
    (result,) = results
    seeds = template.seeds
    kept = Counter(run.key[0] for run in result.runs)  # the search's records per phase
    assert result.converged
    assert metrics["search.phase1.runs"] == kept[1] == 20 * seeds
    assert metrics["search.phase2.runs"] == kept[2] == seeds * len(result.phase2_curve)
    phase3 = metrics["search.phase3.runs"]
    assert phase3 > 0 and phase3 % seeds == 0
    assert phase3 == kept[3] == sum(s.model == "cbr" for s in result.sessions)
    # the VBR replay runs under run_full_search itself, after phase 3
    assert metrics["search.vbr.runs"] == kept[4] == seeds
