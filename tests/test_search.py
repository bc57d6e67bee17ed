import json
import math
import statistics
from dataclasses import replace

import pytest

from twtsim import (
    InfeasibleTargetError,
    MacParams,
    MfPoint,
    ScenarioTemplate,
    Station,
    VideoParams,
    phase1_min_duty,
    phase2_select_mf,
    phase3_validate,
    run_full_search,
)
from twtsim.search import _mean_std, judged_sessions


def small_template(bitrate=10.0, seeds=2) -> ScenarioTemplate:
    return ScenarioTemplate(
        stations=(
            Station(id="ap", role="ap"),
            Station(id="bg1", role="client", phy_rate_mbps=120.0),
            Station(id="dut", role="client", phy_rate_mbps=100.0),
        ),
        dut="dut",
        video=VideoParams(bitrate_mbps=bitrate),
        background_streams=4,
        mac=MacParams(),
        seeds=seeds,
        master_seed=7,
        phase1_duration_s=6.0,
        session_duration_s=24.0,
    )


@pytest.mark.parametrize("seeds", [0, -1])
def test_template_needs_at_least_one_seed(seeds):
    with pytest.raises(ValueError, match="seeds must be >= 1"):
        small_template(seeds=seeds)


def test_template_rejects_a_negative_master_seed():
    with pytest.raises(ValueError, match="^master_seed must be >= 0, got -1"):
        replace(small_template(), master_seed=-1)


@pytest.mark.parametrize("name", ["remote_rtt_s", "local_rtt_s", "phase1_duration_s",
                                  "session_duration_s"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_template_times_must_be_finite_and_positive(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite and > 0"):
        replace(small_template(), **{name: value})


def test_phase1_returns_smallest_sufficient_duty():
    duty, curve = phase1_min_duty(small_template())
    assert len(curve) == 20
    assert [p.duty_percent for p in curve] == list(range(5, 101, 5))
    chosen = next(p for p in curve if p.duty_percent == duty)
    assert chosen.mean_throughput_mbps >= 10.0
    for p in curve:
        if p.duty_percent < duty:
            assert p.mean_throughput_mbps < 10.0


def test_phase1_curve_grows_with_duty():
    _, curve = phase1_min_duty(small_template())
    means = [p.mean_throughput_mbps for p in curve]
    # allow small local noise but demand overall growth
    assert means[-1] > means[0] * 3
    decreases = sum(1 for a, b in zip(means, means[1:]) if b < a - 0.5)
    assert decreases == 0


def test_phase1_unreachable_target_raises():
    with pytest.raises(InfeasibleTargetError):
        phase1_min_duty(small_template(bitrate=500.0))


def test_phase2_curve_stops_after_first_degradation():
    tpl = small_template()
    duty, _ = phase1_min_duty(tpl)
    mf, curve = phase2_select_mf(tpl, duty)
    mfs = [p.mf for p in curve]
    assert mfs == [2**i for i in range(len(mfs))]
    times = [p.mean_underrun_time_s for p in curve]
    for a, b in zip(times[:-2], times[1:-1]):
        assert b < a  # every kept step strictly improved
    if len(times) > 1 and times[-1] >= times[-2]:
        assert mf == mfs[-2]
    else:
        assert mf == mfs[-1]


def test_phase2_points_are_means_of_the_judged_sessions_keyed_by_mf():
    tpl = small_template()
    _, curve = phase2_select_mf(tpl, 30)
    for p in curve:
        sessions = judged_sessions(tpl, 30, p.mf, "cbr", 2, p.mf)
        assert [s.seed for s in sessions] == tpl.rep_seeds(2, p.mf)
        assert all(s.duty_percent == 30 and s.mf == p.mf for s in sessions)
        reports = [s.report for s in sessions]
        assert p == MfPoint(p.mf,
                            statistics.fmean(r.underrun_time_s for r in reports),
                            statistics.fmean(r.underrun_events for r in reports),
                            statistics.fmean(r.throughput_variation for r in reports))


def test_phase3_steps_duty_until_all_sessions_pass():
    tpl = small_template()
    duty, records = phase3_validate(tpl, 20, 2)
    assert records
    assert all(r.model == "cbr" and r.mf == 2 for r in records)
    if duty is not None:
        final = [r for r in records if r.duty_percent == duty]
        assert len(final) == tpl.seeds
        assert all(r.passed for r in final)
        tried = sorted({r.duty_percent for r in records})
        assert tried == list(range(20, duty + 1, 5))


def test_full_search_converges_and_reports_everything():
    res = run_full_search(small_template())
    assert res.converged
    assert res.duty_percent is not None and res.duty_percent >= res.phase1_duty_percent
    assert res.mf >= 1
    assert res.schedule is not None
    from twtsim import duty_cycle

    assert abs(duty_cycle(res.schedule) - res.duty_percent) <= 0.5
    cbr = [s for s in res.sessions if s.model == "cbr"]
    vbr = [s for s in res.sessions if s.model == "vbr"]
    assert len(vbr) == 2
    assert all(s.duty_percent == res.duty_percent for s in vbr)
    final_cbr = [s for s in cbr if s.duty_percent == res.duty_percent]
    assert all(s.passed for s in final_cbr)
    d = res.to_dict()
    assert d["converged"] is True
    assert len(d["phase1_curve"]) == 20
    assert d["schedule"]["sp_us"] == res.schedule.sp_us


def test_full_search_that_does_not_converge_reports_every_failed_duty():
    # 60 Mbit/s passes phase 1 at duty 70, but no loaded session up to duty 100 passes
    tpl = small_template(bitrate=60.0)
    res = run_full_search(tpl)
    assert res.converged is False
    assert res.duty_percent is None and res.schedule is None
    assert all(s.model == "cbr" for s in res.sessions)  # no VBR replay
    assert res.phase1_duty_percent == 70
    for duty in range(70, 101, 5):
        batch = [s for s in res.sessions if s.duty_percent == duty]
        assert len(batch) == tpl.seeds
        assert not all(s.passed for s in batch)
    assert len(res.sessions) == 7 * tpl.seeds
    d = json.loads(json.dumps(res.to_dict()))
    assert d["converged"] is False and d["duty_percent"] is None and d["schedule"] is None


def test_search_is_deterministic():
    a = run_full_search(small_template())
    b = run_full_search(small_template())
    assert a.to_dict() == b.to_dict()


def test_phase1_std_is_the_correctly_rounded_root_of_the_exact_variance():
    # statistics.stdev rounds once from Python 3.11 on (3.10 rounds twice and gives ...638)
    samples = [14.495, 16.516, 17.887, 10.939, 10.283]
    assert _mean_std(samples)[1] == statistics.stdev(samples) == 3.3491409346278633
