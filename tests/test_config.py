import re
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twtsim.macsim
import twtsim.scenarios
import twtsim.traffic
from test_bench_hooks import _traced
from twtsim import (ConfigError, MacParams, ScenarioTemplate, VideoParams, paper_setup, parse,
                    run_sim)
from twtsim.config import _SECTION_KEYS, default_config_text

MINIMAL = """\
format = 1

[station.ap]
role = ap

[station.c1]
phy_rate_mbps = 100
dut = true

[traffic]
bitrate_mbps = 10
"""


def test_paper_setup_is_the_bundled_template():
    # one cold call under the layer trace: the overrides land after parsing
    # (a master seed of 0 too), and each client is back-solved once, through
    # config, from the calibration table (test_macsim bisects the table again)
    setups = []
    metrics, calls = _traced(
        lambda: setups.append(twtsim.scenarios.paper_setup(seeds=2, master_seed=0)))
    (tpl,) = setups
    assert [s.id for s in tpl.stations] == ["ap", "client1", "client2", "client3", "client4"]
    assert tpl.dut == "client4"
    assert tpl.background_streams == 8
    assert tpl.video.bitrate_mbps == 15.6
    assert tpl.mac == MacParams()
    assert (tpl.seeds, tpl.master_seed) == (2, 0)
    assert calls["back_solve"] == 4
    assert metrics["macsim.calibration.runs"] == 0
    assert calls.get("generate_bursts", 0) == 0  # parsing builds no session


def test_paper_setup_takes_only_what_it_honours():
    # the rates are calibrated for the bundled [mac]; a MAC override would not re-calibrate them
    with pytest.raises(TypeError):
        paper_setup(mac=MacParams())


def test_twt_section_drives_schedule():
    text = MINIMAL + "\n[twt]\nduty_percent = 30\nmf = 8\n"
    scenario = parse(text).scenario()
    dut, sched = scenario.twt
    assert (dut, sched.sp_us, sched.wi_us) == ("c1", 8191, 19114)


def test_twt_disabled_leaves_all_stations_awake():
    text = MINIMAL + "\n[twt]\nenabled = false\nduty_percent = 30\n"
    scenario = parse(text).scenario()
    assert scenario.twt is None


def test_minimal_config_fills_defaults():
    cfg = parse(MINIMAL)
    assert cfg.model == "cbr"
    assert cfg.scenario().duration_s == cfg.template.session_duration_s == 120.0
    assert cfg.template.video.weibull_k == 0.8099
    assert cfg.template.video.ibt_mean_s == 6.0
    assert cfg.template.mac.txop_limit_us == 5484
    assert cfg.seed == 1
    # every default comes from the object that owns the key
    assert cfg.template.mac == MacParams()
    assert cfg.template.video == VideoParams(bitrate_mbps=10)
    for f in fields(ScenarioTemplate):
        if f.name not in ("stations", "dut", "video", "mac"):
            assert getattr(cfg.template, f.name) == f.default, f.name


def test_unknown_key_reports_line_number():
    text = MINIMAL + "\n[twt]\nwibble = 3\n"
    with pytest.raises(ConfigError) as exc:
        parse(text)
    assert exc.value.line == text.count("\n", 0, text.index("wibble")) + 1
    assert "wibble" in str(exc.value)
    assert "duty_percent" in str(exc.value)  # suggests the known keys


# (section, key) -> a value the key once took
DROPPED_KEYS = {
    # the engine models no SIFS, and an MPDU carries one TCP segment of Flow.segment_bytes
    ("mac", "sifs_us"): "750",
    ("mac", "mpdu_payload_bytes"): "750",
    # a session runs for [search] session_duration_s, always under the background
    ("sim", "duration_s"): "120",
    ("sim", "loaded"): "true",
    # every client but the DUT carries background streams
    ("background", "clients"): "c1",
    # throughput bins are 1 s wide, and the Weibull scale follows the bitrate
    ("search", "qos_interval_s"): "1",
    ("traffic", "weibull_lambda_bytes"): "27105",
}


@pytest.mark.parametrize("section, key", DROPPED_KEYS)
def test_dropped_key_is_unknown(section, key):
    # a config that still sets one is told so at that key's line
    header = "" if section == "traffic" else f"\n[{section}]\n"  # MINIMAL ends in [traffic]
    text = MINIMAL + f"{header}{key} = {DROPPED_KEYS[section, key]}\n"
    with pytest.raises(ConfigError) as exc:
        parse(text)
    assert exc.value.line == text.count("\n", 0, text.index(key)) + 1
    assert key in str(exc.value)


def test_offset_is_not_a_twt_key():
    # every config-built schedule starts at offset 0; a config that sets one is told so
    text = MINIMAL + "\n[twt]\nduty_percent = 30\noffset_us = 5000\n"
    with pytest.raises(ConfigError) as exc:
        parse(text)
    assert exc.value.line == text.count("\n", 0, text.index("offset_us")) + 1
    assert "offset_us" in str(exc.value)


def test_master_seed_is_not_a_search_key():
    # [sim] seed (or --seed) is the master seed of every seeded repetition
    text = MINIMAL + "\n[search]\nseeds = 2\nmaster_seed = 99\n"
    with pytest.raises(ConfigError) as exc:
        parse(text)
    assert exc.value.line == text.count("\n", 0, text.index("master_seed")) + 1
    assert "master_seed" in str(exc.value)


def test_rssi_is_not_a_station_key():
    # the engine has no radio model; a config that sets an RSSI is told so
    text = MINIMAL.replace("dut = true\n", "dut = true\nrssi_dbm = -46\n")
    with pytest.raises(ConfigError) as exc:
        parse(text)
    assert exc.value.line == text.count("\n", 0, text.index("rssi_dbm")) + 1
    assert "rssi_dbm" in str(exc.value)


def test_ap_takes_no_rate():
    # the engine times nothing by the AP's rate; a config that gives one is told so
    text = MINIMAL.replace("role = ap\n", "role = ap\nphy_rate_mbps = 1000\n")
    with pytest.raises(ConfigError) as exc:
        parse(text)
    assert exc.value.line == text.count("\n", 0, text.index("phy_rate_mbps")) + 1
    assert "phy_rate_mbps" in str(exc.value)


@pytest.mark.parametrize("bad", ["standalone_mbps = 50", "dut = true"])
def test_ap_is_no_client(bad):
    # the AP has no rate to back-solve and cannot be the DUT
    text = MINIMAL.replace("role = ap\n", f"role = ap\n{bad}\n")
    with pytest.raises(ConfigError) as exc:
        parse(text)
    assert exc.value.line == text.count("\n", 0, text.index(bad)) + 1


def test_standalone_figure_holds_under_the_configured_transport():
    # the calibration runs the template's local stream, so a longer local RTT
    # gives a rate at which the phase-1 stream still reaches the figure
    text = MINIMAL.replace("phy_rate_mbps = 100\n", "standalone_mbps = 95\n") + (
        "\n[transport]\nlocal_rtt_s = 0.010\n\n[search]\nphase1_duration_s = 10\n")
    tpl = parse(text).template
    got = run_sim(tpl.phase1_scenario(100, 123)).flow_throughput_mbps("dut-stream")
    assert got == pytest.approx(95, rel=0.03)


def test_sim_seed_is_the_master_seed():
    cfg = parse(MINIMAL + "\n[sim]\nseed = 42\n")
    assert cfg.seed == cfg.template.master_seed == 42


# every key parse accepts; a station key's last line is station c2's
EVERY_KEY = (MINIMAL + "frame_rate = 30\nweibull_k = 0.8099\nibt_mean_s = 6\nibt_var_s2 = 1.8\n"
             + "ibt_min_s = 2\nibt_max_s = 10\ncbr_interval_s = 6\n"
             + "\n[station.c2]\nrole = client\nphy_rate_mbps = 50\ndut = false\n"
             + "\n[mac]\nslot_us = 9\ndifs_us = 34\ncw_min = 15\ncw_max = 1023\n"
             + "max_ampdu_mpdus = 64\ntxop_limit_us = 5484\nper_frame_overhead_us = 100\n"
             + "\n[twt]\nenabled = true\nduty_percent = 30\nmf = 4\n"
             + "\n[background]\nstreams_per_client = 2\n"
             + "\n[transport]\nremote_rtt_s = 0.03\nlocal_rtt_s = 0.002\n"
             + "queue_limit_segments = 64\n"
             + "\n[search]\nseeds = 2\nphase1_duration_s = 5\nsession_duration_s = 12\n"
             + "max_underruns = 3\n"
             + "\n[sim]\nmodel = cbr\nseed = 1\n")
# a back-solved client: its calibration run meets a short TXOP limit first
BACK_SOLVED = """\
format = 1

[station.ap]
role = ap

[station.c]
standalone_mbps = 20
dut = true

[traffic]
bitrate_mbps = 5

[mac]
txop_limit_us = 5484
"""


@pytest.mark.parametrize(
    "bad, text",
    [pytest.param(bad, EVERY_KEY, id=bad) for bad in (
        "bitrate_mbps = 0", "mf = 3", "duty_percent = 0", "ibt_var_s2 = -1", "ibt_min_s = 0.01",
        "bitrate_mbps = 0.0000001",  # no byte in a CBR burst
        "seeds = 0", "remote_rtt_s = 0", "queue_limit_segments = 0", "session_duration_s = 0",
        "phase1_duration_s = 0", "max_underruns = -1",
        "phy_rate_mbps = -5", "role = ap", "role = router", "streams_per_client = -2", "seed = -1",
        # one MPDU must fit the TXOP: a rate too low for any limit, a limit too short
        "phy_rate_mbps = 2", "txop_limit_us = 200")]
    + [pytest.param("txop_limit_us = 200", BACK_SOLVED, id="back-solved txop_limit_us = 200")]
    # four times the figure, the bisection's upper end, overflows
    + [pytest.param("standalone_mbps = 1e308", BACK_SOLVED, id="standalone_mbps = 1e308")]
    # sweep-mf and table3 use the duty and MF with TWT off too
    + [pytest.param(bad, EVERY_KEY.replace("enabled = true", "enabled = false"),
                    id=f"twt off: {bad}") for bad in ("duty_percent = 0", "mf = 3")]
    # float() takes these; left in, they would crash or hang a run, or be
    # reported at another key's line
    + [pytest.param(f"{key} = {value}", text, id=f"{key} = {value}")
       for value in ("inf", "-inf", "nan", "1e400")
       for key, text in (("phy_rate_mbps", EVERY_KEY), ("standalone_mbps", BACK_SOLVED),
                         ("session_duration_s", EVERY_KEY), ("local_rtt_s", EVERY_KEY),
                         ("bitrate_mbps", EVERY_KEY))],
)
def test_value_error_reports_its_line(bad, text):
    # ``bad`` replaces the last line that sets its key: for a station key, station c2's
    key = bad.split()[0]
    last = list(re.finditer(rf"^{key} = .*$", text, flags=re.M))[-1]
    text = text[:last.start()] + bad + text[last.end():]
    with pytest.raises(ConfigError) as exc:
        parse(text)
    assert exc.value.line == text.count("\n", 0, text.rindex(bad)) + 1
    assert re.search(rf"(?<!\w){key}(?!\w)", str(exc.value))
    # a station the message names is one of the config's
    for sid in re.findall(r"station '([^']*)'", str(exc.value)):
        assert f"[station.{sid}]" in text


def _edited(text: str, **values: str) -> str:
    for key, value in values.items():
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    return text


@pytest.mark.parametrize("values, key", [
    ({"ibt_var_s2": "1e12"}, "ibt_var_s2"),  # hits [2, 10] s with probability 3.2e-6
    ({"ibt_min_s": "6", "ibt_max_s": "6"}, "ibt_var_s2"),  # probability 0
    ({"weibull_k": "1e-300"}, "weibull_k"),  # 44.4 ** 1e300 overflows
], ids=["rare draw", "zero-width window", "tiny weibull_k"])
def test_traffic_that_cannot_be_drawn_is_refused_at_its_line(values, key):
    text = _edited(EVERY_KEY, model="vbr", **values)
    with pytest.raises(ConfigError) as exc:
        parse(text)
    assert exc.value.line == text.count("\n", 0, re.search(rf"^{key} = ", text, re.M).start()) + 1
    assert str(exc.value).startswith(f"line {exc.value.line}: {key} ")


def test_a_zero_width_window_without_variance_draws_its_mean():
    text = _edited(EVERY_KEY, model="vbr", ibt_var_s2="0", ibt_min_s="6", ibt_max_s="6")
    assert {b.inter_burst_time_s for b in parse(text).scenario().bursts} == {6.0}


def test_a_bad_role_is_refused_at_its_line_before_any_calibration(monkeypatch):
    def no_calibration(sc):
        raise AssertionError("calibrated a station of an unknown role")

    monkeypatch.setattr(twtsim.macsim, "run_sim", no_calibration)
    text = BACK_SOLVED.replace("standalone_mbps = 20\n", "role = router\nstandalone_mbps = 20\n")
    with pytest.raises(ConfigError, match="role must be 'ap' or 'client'") as exc:
        parse(text)
    assert exc.value.line == text.count("\n", 0, text.index("role = router")) + 1


def test_session_work_scales_with_its_keys_and_no_key_bounds_it(monkeypatch):
    # README, "Config format": values that would take hours to build still parse
    for key, value in (("frame_rate", "1e9"), ("session_duration_s", "1e9"),
                       ("streams_per_client", str(2**62)), ("cbr_interval_s", "1e-6")):
        parse(_edited(EVERY_KEY, **{key: value}))
    frames = []
    real = twtsim.traffic.sample_frame_size
    monkeypatch.setattr(twtsim.traffic, "sample_frame_size",
                        lambda params, rng: frames.append(1) or real(params, rng))

    def built(**values):
        return parse(_edited(EVERY_KEY, **values)).scenario()

    # one burst per cbr_interval_s of the session
    for session, interval, bursts in (("12", "6", 2), ("24", "6", 4), ("12", "3", 4)):
        assert len(built(session_duration_s=session, cbr_interval_s=interval).bursts) == bursts
    # every client but the DUT takes streams_per_client background streams
    for streams in (2, 4):
        assert len(built(streams_per_client=str(streams)).flows) == 1 + streams
    # a VBR burst draws round(ibt * frame_rate) frames
    for fps in (30, 60):
        frames.clear()
        sc = built(model="vbr", frame_rate=str(fps))
        assert len(frames) == sum(round(b.inter_burst_time_s * fps) for b in sc.bursts) > 0


# (section, key) -> a valid value other than EVERY_KEY's; standalone_mbps
# replaces station c2's phy_rate_mbps
OTHER_VALUES = {
    ("sim", "model"): "vbr", ("sim", "seed"): "2",
    ("mac", "slot_us"): "10", ("mac", "difs_us"): "43", ("mac", "cw_min"): "31",
    ("mac", "cw_max"): "511", ("mac", "max_ampdu_mpdus"): "32", ("mac", "txop_limit_us"): "3000",
    ("mac", "per_frame_overhead_us"): "50",
    ("station", "role"): "ap", ("station", "phy_rate_mbps"): "60",
    ("station", "standalone_mbps"): "60", ("station", "dut"): "true",
    ("traffic", "bitrate_mbps"): "12", ("traffic", "frame_rate"): "25",
    ("traffic", "weibull_k"): "1", ("traffic", "ibt_mean_s"): "5", ("traffic", "ibt_var_s2"): "1",
    ("traffic", "ibt_min_s"): "3", ("traffic", "ibt_max_s"): "9",
    ("traffic", "cbr_interval_s"): "4",
    ("twt", "enabled"): "false", ("twt", "duty_percent"): "40", ("twt", "mf"): "2",
    ("background", "streams_per_client"): "4",
    ("transport", "remote_rtt_s"): "0.05", ("transport", "local_rtt_s"): "0.004",
    ("transport", "queue_limit_segments"): "128",
    ("search", "seeds"): "3", ("search", "phase1_duration_s"): "10",
    ("search", "session_duration_s"): "16", ("search", "max_underruns"): "1",
}


@pytest.mark.parametrize("section, key",
                         [(s, k) for s, keys in _SECTION_KEYS.items() for k in keys])
def test_parse_reads_every_key(section, key):
    # a key that parse accepts but does not read would be a knob the engine ignores
    text = EVERY_KEY
    if key == "standalone_mbps":  # the one back-solved client
        text = text.replace("phy_rate_mbps = 50", "standalone_mbps = 50")
    last = list(re.finditer(rf"^{key} = (.*)$", text, flags=re.M))[-1]
    assert last.group(1) != OTHER_VALUES[section, key]
    base = parse(text)
    changed = text[:last.start()] + f"{key} = {OTHER_VALUES[section, key]}" + text[last.end():]
    try:
        other = parse(changed)
    except ConfigError as exc:  # the value was read, and refused
        assert exc.line == text.count("\n", 0, last.start()) + 1
        return
    assert other != base


@pytest.mark.parametrize("header", ["[station.]", "[station.bg,1]", "[station.my laptop]"])
def test_station_id_must_suit_the_artifacts(header):
    # the id is a field of the deliveries.csv and airtime.csv rows
    text = MINIMAL + f"\n{header}\nphy_rate_mbps = 50\n"
    with pytest.raises(ConfigError, match="station") as exc:
        parse(text)
    assert exc.value.line == text.count("\n", 0, text.index(header)) + 1


def test_station_id_may_hold_dots_dashes_and_underscores():
    text = MINIMAL + "\n[station.bg-1.a_B]\nphy_rate_mbps = 50\n"
    flows = parse(text).template.background_only_scenario(seed=1).flows
    assert [f.dst for f in flows] == ["bg-1.a_B"] * 8


def test_fractional_frame_rate_accepted():
    cfg = parse(MINIMAL.replace("bitrate_mbps = 10\n", "bitrate_mbps = 10\nframe_rate = 29.97\n"))
    assert cfg.template.video.frame_rate == 29.97


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse(MINIMAL + "\n[frobnicate]\nx = 1\n")


def test_empty_config_lists_required_sections():
    with pytest.raises(ConfigError) as exc:
        parse("")
    msg = str(exc.value)
    assert "station" in msg and "traffic" in msg


def test_format_guard():
    with pytest.raises(ConfigError, match="format"):
        parse(MINIMAL.replace("format = 1\n", "") )
    with pytest.raises(ConfigError, match="unsupported"):
        parse(MINIMAL.replace("format = 1", "format = 2"))


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate key"):
        parse(MINIMAL + "\n[twt]\nmf = 1\nmf = 2\n")


def test_bad_value_reports_line():
    with pytest.raises(ConfigError, match="line"):
        parse(MINIMAL + "\n[twt]\nduty_percent = soon\n")


def test_station_needs_some_rate():
    text = MINIMAL.replace("phy_rate_mbps = 100\n", "")
    with pytest.raises(ConfigError, match="phy_rate_mbps or standalone_mbps"):
        parse(text)


def test_station_rejects_both_rates():
    text = MINIMAL.replace(
        "phy_rate_mbps = 100\n", "phy_rate_mbps = 100\nstandalone_mbps = 50\n"
    )
    with pytest.raises(ConfigError, match="not both"):
        parse(text)


def test_exactly_one_dut_required():
    with pytest.raises(ConfigError, match="dut"):
        parse(MINIMAL.replace("dut = true\n", ""))
    text = MINIMAL + "\n[station.c2]\nphy_rate_mbps = 50\ndut = true\n"
    with pytest.raises(ConfigError, match="more than one DUT"):
        parse(text)


def test_invalid_model_rejected():
    text = MINIMAL + "\n[sim]\nmodel = dash\n"
    with pytest.raises(ConfigError, match="model"):
        parse(text)


def test_parse_template_round_trip():
    tpl = parse(MINIMAL + "\n[search]\nsession_duration_s = 12\n").template
    assert tpl.dut == "c1"
    assert tpl.background_only_scenario(seed=1).flows == ()  # only client is the DUT
    sc = tpl.session_scenario(30, 2, "cbr", seed=3)
    assert len(sc.bursts) == 2
    assert sc.duration_s == 12.0


# -------------------------------------------------- edits of the bundled config ---

# the bundled config with each client's back-solved rate given as phy_rate_mbps,
# so that an edit never calibrates
_RATES = {key[0]: rate for key, rate in twtsim.macsim._CALIBRATED.items()}
PHY_SETUP = re.sub(r"^standalone_mbps = (\S+)$",
                   lambda m: f"phy_rate_mbps = {_RATES[float(m.group(1))]!r}",
                   default_config_text(), flags=re.M)
KEY_LINES = [i for i, line in enumerate(PHY_SETUP.splitlines())
             if re.match(r"\w+ = ", line) and not line.startswith("format")]
VALUES = st.one_of(
    st.sampled_from(["0", "-1", "5e-324", "1e-300", "1.7976931348623157e308", "inf", "-inf",
                     "nan", str(2**62), str(2**63), "", "abc", "true", "1,5", "0x10"]),
    st.floats().map(repr))

# Building a session takes work in proportion to session_duration_s, to the
# background streams, to the bursts per second and, under vbr, to the frames
# per burst, round(ibt * frame_rate) (README, "Config format"); no key bounds
# them.  Before building, the test caps these on the parsed template, and
# nothing else: 8 streams per client, a session of at most 2 s, 100 CBR
# intervals and 1000 VBR frame times, and a VBR burst of at most 1000 frames.
def _bounded(tpl: ScenarioTemplate, model: str) -> ScenarioTemplate:
    video = tpl.video
    session = min(tpl.session_duration_s, 2.0)
    if model == "cbr":
        session = min(session, 100 * video.cbr_interval_s)
    else:
        # a lower frame rate still spans a frame in ibt_min_s
        video = replace(video, frame_rate=min(video.frame_rate, 1000 / video.ibt_min_s))
        top = 1000 / video.frame_rate  # >= ibt_min_s
        if top < video.ibt_max_s:
            # a normal of sd <= the window's width, its mean in the window,
            # hits it with probability >= erf(1 / sqrt(2)) / 2 = 0.34
            video = replace(video, ibt_max_s=top, ibt_mean_s=min(video.ibt_mean_s, top),
                            ibt_var_s2=min(video.ibt_var_s2, (top - video.ibt_min_s) ** 2))
        session = min(session, 1000 / video.frame_rate)
    return replace(tpl, video=video, session_duration_s=session,
                   background_streams=min(tpl.background_streams, 8))


@settings(max_examples=200, deadline=None)
@given(model=st.sampled_from(["cbr", "vbr"]),
       edits=st.lists(st.tuples(st.sampled_from(KEY_LINES), VALUES), min_size=1, max_size=2,
                      unique_by=lambda edit: edit[0]))
def test_an_edited_config_parses_and_runs_or_names_a_line(model, edits):
    lines = PHY_SETUP.replace("model = cbr", f"model = {model}").splitlines()
    for i, value in edits:
        lines[i] = f"{lines[i].split(' = ')[0]} = {value}"
    text = "\n".join(lines) + "\n"
    try:
        cfg = parse(text)
    except ConfigError as exc:
        assert exc.line is not None and 1 <= exc.line <= len(lines), exc
        return
    sc = replace(cfg, template=_bounded(cfg.template, cfg.model)).scenario()
    run_sim(replace(sc, duration_s=1.0))
