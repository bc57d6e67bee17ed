"""End-to-end acceptance checks, one test per shipped guarantee.

These run the real engine on the bundled four-client setup.  The heavyweight
piece (the full three-phase schedule search, five seeds per point) runs once
in a module fixture and is shared by the trend and pipeline checks.  Budget
for the whole module is a few minutes on a laptop.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from twtsim import (
    VideoParams,
    compute_qos,
    duty_cycle,
    paper_setup,
    qos_pass,
    run_full_search,
    run_sim,
    schedule_from,
)
from twtsim.cli import main as cli_main
from twtsim.macsim import seed_state
from twtsim.qos import burst_service
from twtsim.traffic import sample_frame_size, sample_inter_burst_time

# Frozen quadrature oracles (tests/oracles.py regenerates them).
WEIBULL_UNIT_MEAN_K08099 = 1.1232077315775444
TRUNC_NORMAL_MEAN = 6.0

BITRATE = 15.6
MASTER_SEED = 1


@pytest.fixture(scope="module")
def template():
    tpl = paper_setup(seeds=5, master_seed=MASTER_SEED)
    assert tpl.bitrate_mbps == BITRATE
    return tpl


@pytest.fixture(scope="module")
def search_result(template):
    return run_full_search(template)


# 1 ─ schedule math is exact -------------------------------------------------

def test_schedule_math_exact():
    s = schedule_from(30, 1)
    assert (s.sp_us, s.wi_us) == (65535, 152915)
    worst = 0.0
    for duty in range(5, 100, 5):
        for mf in (1, 2, 4, 8, 16):
            err = abs(duty_cycle(schedule_from(duty, mf)) - duty)
            worst = max(worst, err)
    assert worst <= 0.5, f"worst duty round-trip error {worst:.4f} pp"
    print(f"PASS schedule math: round-trip error <= {worst:.4f} pp <= 0.5 pp")


# 2 ─ traffic statistics match the quadrature oracles ------------------------

def test_traffic_statistics_match_oracles():
    p = VideoParams(bitrate_mbps=BITRATE)
    rng = np.random.default_rng(2024)
    n = 1_000_000

    frames = np.fromiter(
        (sample_frame_size(p, rng) for _ in range(n)), dtype=np.int64, count=n
    )
    expected = p.lambda_bytes * WEIBULL_UNIT_MEAN_K08099
    frame_err = abs(frames.mean() - expected) / expected
    assert frame_err < 0.02, f"frame-size mean off by {100 * frame_err:.2f}%"

    ibts = np.fromiter(
        (sample_inter_burst_time(p, rng) for _ in range(n)), dtype=np.float64, count=n
    )
    assert ibts.min() >= 2.0 and ibts.max() <= 10.0
    ibt_err = abs(ibts.mean() - TRUNC_NORMAL_MEAN) / TRUNC_NORMAL_MEAN
    assert ibt_err < 0.01, f"inter-burst mean off by {100 * ibt_err:.2f}%"
    print(
        f"PASS traffic statistics: frame mean err {100 * frame_err:.3f}% < 2%, "
        f"ibt mean err {100 * ibt_err:.3f}% < 1%, bounds respected"
    )


# 3 ─ gating soundness -------------------------------------------------------

def test_gating_soundness(template):
    checked = 0
    sessions = replace(template, session_duration_s=30.0)
    for duty, mf, model, seed in ((30, 4, "cbr", 11), (25, 8, "cbr", 12), (40, 2, "vbr", 13)):
        sc = sessions.session_scenario(duty, mf, model, seed)
        tr = run_sim(sc)
        assert tr.wake_windows_s, "gated run must expose its wake windows"
        for t, _station, flow, _nb in tr.deliveries:
            if flow == "dut-stream":
                assert any(a <= t <= b for a, b in tr.wake_windows_s), (duty, mf, seed, t)
                checked += 1
    assert checked > 0

    short = replace(template, session_duration_s=20.0)
    full = short.session_scenario(100, 1, "cbr", seed=21)
    off = short.session_scenario(None, 1, "cbr", seed=21)
    ta, tb = run_sim(full), run_sim(off)
    assert list(ta.deliveries) == list(tb.deliveries)
    assert list(ta.airtime) == list(tb.airtime)
    assert burst_service(ta, full.bursts) == burst_service(tb, off.bursts)
    print(
        f"PASS gating soundness: {checked} gated deliveries all inside wake windows; "
        "100%-duty trace identical to TWT-disabled trace"
    )


# 4 ─ duty sweep trend: throughput grows with duty ---------------------------

def test_duty_sweep_monotone_trend(search_result):
    from scipy import stats

    curve = search_result.phase1_curve
    duties = [p.duty_percent for p in curve]
    means = [p.mean_throughput_mbps for p in curve]
    assert duties == list(range(5, 101, 5))
    rho = stats.spearmanr(duties, means).statistic
    assert rho >= 0.95, f"Spearman rho {rho:.4f} < 0.95"
    print(f"PASS duty sweep trend: Spearman rho {rho:.4f} >= 0.95 over 20 points x 5 seeds")


# 5 ─ MF sweep shows a U: interior minimum, worse at twice the argmin --------

def test_mf_sweep_u_shape(search_result):
    curve = search_result.phase2_curve
    mfs = [p.mf for p in curve]
    times = [p.mean_underrun_time_s for p in curve]
    best = min(range(len(curve)), key=lambda i: times[i])
    mf_star = mfs[best]
    assert mf_star > 1, f"minimum sits at MF=1, no interior minimum: {list(zip(mfs, times))}"
    assert 2 * mf_star in mfs, "sweep should include the first degraded point"
    worse = times[mfs.index(2 * mf_star)]
    assert worse > times[best], (
        f"no degradation at MF={2 * mf_star}: {worse} <= {times[best]}"
    )
    assert search_result.mf == mf_star
    print(
        f"PASS MF sweep U-shape: argmin MF={mf_star} "
        f"({times[best]:.2f} s) degrades to {worse:.2f} s at MF={2 * mf_star}"
    )


# 6 ─ background traffic is not hurt by serving the sleeper ------------------

def test_background_throughput_preserved(template):
    def bg_mbps(trace):
        total = sum(nb for fid, nb in trace.delivered_bytes.items() if fid != "dut-stream")
        return 8 * total / trace.duration_s / 1e6

    with_twt, without_twt = [], []
    for rep in range(3):
        seed = seed_state((MASTER_SEED, 6, rep))
        with_twt.append(bg_mbps(run_sim(template.session_scenario(30, 4, "cbr", seed))))
        without_twt.append(bg_mbps(run_sim(template.session_scenario(None, 1, "cbr", seed))))
    on, off = sum(with_twt) / len(with_twt), sum(without_twt) / len(without_twt)
    delta = abs(on - off) / off
    assert delta < 0.10, f"background aggregate moved {100 * delta:.2f}% (on {on:.2f}, off {off:.2f})"
    print(
        f"PASS background preserved: {off:.2f} -> {on:.2f} Mbit/s aggregate "
        f"({100 * delta:.2f}% < 10%) when the 30%-duty schedule gates the stream"
    )


# 7 ─ the full pipeline converges and the answer holds up --------------------

def test_search_pipeline_end_to_end(template, search_result):
    res = search_result
    assert res.converged, "search did not converge"
    assert res.schedule is not None

    held_out = seed_state((MASTER_SEED, 99))
    sc = template.session_scenario(res.duty_percent, res.mf, "cbr", seed=held_out)
    report = compute_qos(run_sim(sc), sc.bursts)
    assert qos_pass(report, BITRATE, template.max_underruns), (
        f"held-out seed failed: avg {report.avg_throughput_mbps:.2f} Mbit/s, "
        f"{report.underrun_events} underruns"
    )

    cbr = [s for s in res.sessions if s.model == "cbr" and s.duty_percent == res.duty_percent]
    vbr = [s for s in res.sessions if s.model == "vbr"]
    assert len(cbr) == 5 and len(vbr) == 5
    cbr_mean = sum(s.report.underrun_events for s in cbr) / len(cbr)
    vbr_mean = sum(s.report.underrun_events for s in vbr) / len(vbr)
    assert abs(cbr_mean - vbr_mean) <= 2.0, (
        f"VBR underrun mean {vbr_mean} vs CBR {cbr_mean} differ by more than 2"
    )
    print(
        f"PASS pipeline: converged at duty {res.duty_percent}% MF {res.mf} "
        f"(sp {res.schedule.sp_us} us, wi {res.schedule.wi_us} us); held-out seed "
        f"avg {report.avg_throughput_mbps:.2f} Mbit/s with {report.underrun_events} underruns; "
        f"underrun means CBR {cbr_mean:.1f} vs VBR {vbr_mean:.1f} (diff <= 2)"
    )


# 8 ─ artifacts are byte-identical across reruns -----------------------------

def test_artifacts_deterministic(tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(
        "format = 1\n"
        "[sim]\nseed = 9\n"
        "[station.ap]\nrole = ap\n"
        "[station.c1]\nstandalone_mbps = 63.5\n"
        "[station.c4]\nstandalone_mbps = 95\ndut = true\n"
        "[traffic]\nbitrate_mbps = 15.6\n"
        "[twt]\nduty_percent = 30\nmf = 4\n"
        "[background]\nstreams_per_client = 4\n"
        "[search]\nsession_duration_s = 40\n"
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["--config", str(cfg), "--command", "simulate", "--out", str(out)]) == 0
        assert cli_main(["--config", str(cfg), "--command", "qos", "--out", str(out)]) == 0
        outs.append(out)
    a, b = outs
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    summary = json.loads((a / "summary.json").read_text())
    assert summary["twt_schedule"]["sp_us"] == schedule_from(30, 4).sp_us
    print(f"PASS determinism: {len(names)} artifacts byte-identical across reruns")
