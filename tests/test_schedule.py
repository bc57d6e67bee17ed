import pytest

from twtsim import TwtSchedule, duty_cycle, schedule_from, wake_windows


def test_reference_schedule_exact():
    s = schedule_from(30, 1)
    assert (s.sp_us, s.wi_us) == (65535, 152915)
    assert duty_cycle(s) == pytest.approx(30.0, abs=1e-9)


def test_mf_scaling_examples():
    s = schedule_from(30, 8)
    assert (s.sp_us, s.wi_us) == (8191, 19114)
    assert abs(duty_cycle(s) - 30.0) <= 0.5
    s = schedule_from(50, 1)
    assert s.sp_us == 65535 and s.wi_us == 65535
    assert duty_cycle(s) == pytest.approx(50.0)


def test_duty_round_trip_error_under_half_point():
    for duty in range(5, 100, 5):
        for mf in (1, 2, 4, 8, 16):
            s = schedule_from(duty, mf)
            assert abs(duty_cycle(s) - duty) <= 0.5, (duty, mf, s)


def test_full_duty_means_no_sleep():
    s = schedule_from(100, 1)
    assert s.wi_us == 0
    assert duty_cycle(s) == 100.0
    assert wake_windows(s, 500_000) == [(0, 500_000)]


def test_mf_must_be_power_of_two():
    for bad in (0, 3, 6, -1, 12):
        with pytest.raises(ValueError):
            schedule_from(30, bad)


def test_duty_out_of_range_rejected():
    for bad in (0, -5, 101):
        with pytest.raises(ValueError):
            schedule_from(bad, 1)


def test_sp_cap_respected():
    with pytest.raises(ValueError):
        TwtSchedule(sp_us=65536, wi_us=1000)
    with pytest.raises(ValueError):
        TwtSchedule(sp_us=0, wi_us=1000)
    with pytest.raises(ValueError):
        TwtSchedule(sp_us=1000, wi_us=-1)


def test_wake_windows_tile_the_horizon():
    s = schedule_from(25, 4)
    horizon = 1_000_000
    ws = wake_windows(s, horizon)
    assert ws[0][0] == 0
    for (a, b), (c, _) in zip(ws, ws[1:]):
        assert b - a == s.sp_us
        assert c - a == s.period_us
    awake = sum(b - a for a, b in ws)
    assert abs(100 * awake / horizon - 25.0) < 2.0


def test_wake_windows_clip_at_the_horizon():
    s = TwtSchedule(sp_us=100, wi_us=900)
    ws = wake_windows(s, 1200)
    assert ws == [(0, 100), (1000, 1100)]
    ws = wake_windows(s, 1050)
    assert ws == [(0, 100), (1000, 1050)]
    ws = wake_windows(s, 70)
    assert ws == [(0, 70)]


def test_schedule_dict_round_trips_duty():
    s = schedule_from(40, 2)
    d = s.to_dict()
    assert d["sp_us"] == s.sp_us and d["wi_us"] == s.wi_us
    assert d["duty_pct"] == pytest.approx(duty_cycle(s))
