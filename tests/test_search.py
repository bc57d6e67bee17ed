import json
import math
import statistics
from dataclasses import fields, replace

import pytest

import twtsim.search
from twtsim import (
    DutyPoint,
    InfeasibleTargetError,
    MacParams,
    MfPoint,
    QosReport,
    Run,
    ScenarioTemplate,
    SearchResult,
    Station,
    VideoParams,
    compute_qos,
    phase1_min_duty,
    phase2_select_mf,
    phase3_validate,
    qos_pass,
    run_full_search,
    run_sim,
    schedule_from,
)
from twtsim.search import MAX_MF, duty_point, mf_point, points


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


@pytest.fixture(scope="module")
def small_search() -> SearchResult:
    return run_full_search(small_template())


def test_phase1_returns_smallest_sufficient_duty():
    duty, runs = phase1_min_duty(small_template())
    curve = points(runs, duty_point)
    assert len(curve) == 20
    assert [p.duty_percent for p in curve] == list(range(5, 101, 5))
    chosen = next(p for p in curve if p.duty_percent == duty)
    assert chosen.mean_throughput_mbps >= 10.0
    for p in curve:
        if p.duty_percent < duty:
            assert p.mean_throughput_mbps < 10.0


def test_phase1_curve_grows_with_duty():
    _, runs = phase1_min_duty(small_template())
    curve = points(runs, duty_point)
    means = [p.mean_throughput_mbps for p in curve]
    # allow small local noise but demand overall growth
    assert means[-1] > means[0] * 3
    decreases = sum(1 for a, b in zip(means, means[1:]) if b < a - 0.5)
    assert decreases == 0


class _FakeTrace:
    """Stands for a run's trace: the DUT stream's throughput is given."""

    def __init__(self, mbps):
        self.mbps = mbps

    def flow_throughput_mbps(self, _flow_id):
        return self.mbps


def test_phase1_a_mean_exactly_at_the_target_meets_it(monkeypatch):
    # every seed of duty d delivers d / 10 Mbit/s: 3.0 at duty 30, the target
    duty_of = {schedule_from(d, 1): d for d in range(5, 101, 5)}
    monkeypatch.setattr(twtsim.search, "run_sim", lambda sc: _FakeTrace(duty_of[sc.twt[1]] / 10))
    duty, runs = phase1_min_duty(small_template(bitrate=3.0))
    assert duty == 30 and points(runs, duty_point)[5] == DutyPoint(30, 3.0, 0.0)


def test_phase2_doubles_mf_up_to_max_mf(monkeypatch):
    # underrun time 1 / MF keeps improving, so only the MF cap stops the doubling
    mf_of = {schedule_from(30, 2**i): 2**i for i in range(10)}
    monkeypatch.setattr(twtsim.search, "run_sim", lambda sc: sc)
    monkeypatch.setattr(twtsim.search, "compute_qos", lambda sc, _bursts: QosReport(
        duration_s=1.0, delivered_bytes=0, instantaneous_mbps=[], due_bytes=0,
        late_bursts=[(0, 1 / mf_of[sc.twt[1]])]))
    mf, runs = phase2_select_mf(small_template(), 30)
    assert mf == MAX_MF == 256
    assert [p.mf for p in points(runs, mf_point)] == [2**i for i in range(9)]


def test_phase1_unreachable_target_raises():
    with pytest.raises(InfeasibleTargetError):
        phase1_min_duty(small_template(bitrate=500.0))


def test_phase2_curve_stops_after_first_degradation():
    tpl = small_template()
    duty, _ = phase1_min_duty(tpl)
    mf, runs = phase2_select_mf(tpl, duty)
    curve = points(runs, mf_point)
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
    _, runs = phase2_select_mf(tpl, 30)
    curve = points(runs, mf_point)
    assert [r.key for r in runs] == [(2, p.mf) for p in curve for _ in range(tpl.seeds)]
    for i, p in enumerate(curve):
        sessions = runs[i * tpl.seeds:(i + 1) * tpl.seeds]
        assert [s.seed for s in sessions] == tpl.rep_seeds(2, p.mf)
        assert all(s.model == "cbr" and s.duty_percent == 30 and s.mf == p.mf for s in sessions)
        reports = [s.report for s in sessions]
        assert p == MfPoint(p.mf,
                            statistics.fmean(r.underrun_time_s for r in reports),
                            statistics.fmean(r.underrun_events for r in reports),
                            statistics.fmean(r.throughput_variation for r in reports))
    # a run holds its session's score and verdict; one session stands for all
    first = runs[0]
    scenario = tpl.session_scenario(30, first.mf, "cbr", first.seed)
    assert first.report == compute_qos(run_sim(scenario), scenario.bursts)
    assert first.throughput_mbps == first.report.avg_throughput_mbps
    assert first.passed == qos_pass(first.report, tpl.bitrate_mbps, tpl.max_underruns)


def test_phase3_steps_duty_until_all_sessions_pass():
    tpl = small_template()
    duty, records = phase3_validate(tpl, 20, 2)
    assert records
    assert all(r.model == "cbr" and r.mf == 2 and r.key == (3, r.duty_percent) for r in records)
    if duty is not None:
        final = [r for r in records if r.duty_percent == duty]
        assert len(final) == tpl.seeds
        assert all(r.passed for r in final)
        tried = sorted({r.duty_percent for r in records})
        assert tried == list(range(20, duty + 1, 5))


def test_full_search_converges_and_reports_everything(small_search):
    res = small_search
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


def test_convergence_and_schedule_follow_the_duty():
    names = {f.name for f in fields(SearchResult)}
    assert "converged" not in names and "schedule" not in names
    assert not {"phase1_curve", "phase2_curve", "sessions"} & names  # read from the runs
    res = SearchResult(duty_percent=30, mf=4, phase1_duty_percent=20)
    assert res.converged is True and res.schedule == schedule_from(30, 4)
    assert res.to_dict()["schedule"] == schedule_from(30, 4).to_dict()
    failed = replace(res, duty_percent=None)
    assert failed.converged is False and failed.schedule is None
    assert failed.to_dict()["converged"] is False and failed.to_dict()["schedule"] is None


def test_search_is_deterministic(small_search):
    b = run_full_search(small_template())
    assert small_search.to_dict() == b.to_dict()


def test_curves_and_sessions_are_read_from_the_runs_kept(small_search):
    res, tpl = small_search, small_template()
    keys = [r.key for r in res.runs]
    for key in dict.fromkeys(keys):
        assert [r.seed for r in res.runs if r.key == key] == tpl.rep_seeds(*key)
    phase = [k[0] for k in keys]
    assert phase == sorted(phase) and set(phase) == {1, 2, 3, 4}
    runs1 = [r for r in res.runs if r.key[0] == 1]
    assert all(r.model is None and r.report is None and r.passed is None for r in runs1)
    assert all(r.key == (1, r.duty_percent) and r.mf == 1 for r in runs1)
    assert res.phase1_curve == tuple(duty_point([r for r in runs1 if r.key == (1, p.duty_percent)])
                                     for p in res.phase1_curve)
    assert [p.duty_percent for p in res.phase1_curve] == [r.duty_percent
                                                          for r in runs1[::tpl.seeds]]
    runs2 = [r for r in res.runs if r.key[0] == 2]
    assert all(r.key == (2, r.mf) and r.duty_percent == res.phase1_duty_percent for r in runs2)
    assert res.phase2_curve == tuple(mf_point([r for r in runs2 if r.key == (2, p.mf)])
                                     for p in res.phase2_curve)
    assert [p.mf for p in res.phase2_curve] == [r.mf for r in runs2[::tpl.seeds]]
    assert res.sessions == tuple(r for r in res.runs if r.key[0] in (3, 4))
    assert all(r.key == (3 + (r.model == "vbr"), r.duty_percent) for r in res.sessions)
    assert all(r.throughput_mbps == r.report.avg_throughput_mbps for r in res.sessions)


def test_phase1_std_is_the_correctly_rounded_root_of_the_exact_variance():
    # statistics.stdev rounds once from Python 3.11 on (3.10 rounds twice and gives ...638)
    samples = [14.495, 16.516, 17.887, 10.939, 10.283]
    runs = [Run((1, 25), None, 25, 1, seed, x, None, None) for seed, x in enumerate(samples)]
    point = duty_point(runs)
    assert point.duty_percent == 25
    assert point.mean_throughput_mbps == statistics.fmean(samples)
    assert point.std_throughput_mbps == statistics.stdev(samples) == 3.3491409346278633
    assert duty_point(runs[:1]).std_throughput_mbps == 0.0
