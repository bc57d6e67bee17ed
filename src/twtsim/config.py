"""Scenario config files: flat sectioned key-value text, diff-friendly.

A config looks like::

    format = 1

    [station.client1]
    rssi_dbm = -46
    standalone_mbps = 63.5

    [twt]
    duty_percent = 30
    mf = 4

Unknown keys, bad values, and structural problems are reported with the line
number they came from.  ``parse`` returns a ParsedConfig: its ``template`` is
what the search and table commands drive, and ``scenario()`` materialises the
one runnable [sim] scenario.
"""

from __future__ import annotations

from dataclasses import dataclass

from .macsim import MacParams, Scenario, Station, back_solve_phy_rate
from .scenarios import LOCAL_RTT_S, REMOTE_RTT_S, ScenarioTemplate
from .schedule import schedule_from
from .traffic import VideoParams

REQUIRED_SECTIONS = ("station.<id> (one 'ap' role and at least one client)", "traffic")

_SECTION_KEYS = {
    "sim": {"duration_s", "model", "loaded", "seed"},
    "mac": {
        "slot_us",
        "difs_us",
        "cw_min",
        "cw_max",
        "max_ampdu_mpdus",
        "mpdu_payload_bytes",
        "txop_limit_us",
        "per_frame_overhead_us",
    },
    "station": {"role", "phy_rate_mbps", "standalone_mbps", "rssi_dbm", "dut"},
    "traffic": {
        "bitrate_mbps",
        "frame_rate",
        "weibull_k",
        "weibull_lambda_bytes",
        "ibt_mean_s",
        "ibt_var_s2",
        "ibt_min_s",
        "ibt_max_s",
        "cbr_interval_s",
    },
    "twt": {"enabled", "duty_percent", "mf"},
    "background": {"streams_per_client", "clients"},
    "transport": {"remote_rtt_s", "local_rtt_s", "queue_limit_segments"},
    "search": {
        "seeds",
        "phase1_duration_s",
        "session_duration_s",
        "max_underruns",
        "qos_interval_s",
    },
}


class ConfigError(ValueError):
    """Config problem, carrying the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass
class _Entry:
    value: str
    line: int


def _tokenize(text: str) -> dict[str, dict[str, _Entry]]:
    """Sections -> key -> (value, line).  Validates structure, not content."""
    sections: dict[str, dict[str, _Entry]] = {}
    current: str | None = None
    saw_format = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("unterminated section header", lineno)
            name = line[1:-1].strip()
            if not name:
                raise ConfigError("empty section name", lineno)
            base = name.split(".", 1)[0]
            if base not in _SECTION_KEYS:
                raise ConfigError(
                    f"unknown section [{name}] (known: {', '.join(sorted(_SECTION_KEYS))})",
                    lineno,
                )
            if base == "station" and "." not in name:
                raise ConfigError("station sections are named [station.<id>]", lineno)
            if base != "station" and "." in name:
                raise ConfigError(f"section [{base}] does not take a suffix", lineno)
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", lineno)
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError("empty key", lineno)
        if current is None:
            if key == "format":
                if value != "1":
                    raise ConfigError(f"unsupported format {value!r} (expected 1)", lineno)
                saw_format = True
                continue
            raise ConfigError(f"key {key!r} before any section (only 'format = 1' may appear here)", lineno)
        base = current.split(".", 1)[0]
        if key not in _SECTION_KEYS[base]:
            raise ConfigError(
                f"unknown key {key!r} in [{current}] (known: {', '.join(sorted(_SECTION_KEYS[base]))})",
                lineno,
            )
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in [{current}]", lineno)
        sections[current][key] = _Entry(value, lineno)
    if not sections:
        raise ConfigError(
            "empty config; required: a 'format = 1' header and sections "
            + ", ".join(f"[{s}]" for s in REQUIRED_SECTIONS)
        )
    if not saw_format:
        raise ConfigError("missing 'format = 1' header line")
    return sections


def _take(section: dict[str, _Entry], key: str, conv, default):
    entry = section.get(key)
    if entry is None:
        return default
    try:
        return conv(entry.value)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}", entry.line) from exc


def _checked(section: dict[str, _Entry], build, *args, **kwargs):
    """Call ``build``; a ValueError it raises is reported at the line of the key
    its message starts with, else at the section's first line."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        msg = str(exc)
        keyed = [e.line for k, e in section.items() if msg.startswith(k + " ")]
        line = keyed[0] if keyed else min((e.line for e in section.values()), default=None)
        raise ConfigError(msg, line) from exc


def _to_bool(value: str) -> bool:
    low = value.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"{value!r} is not a boolean")


@dataclass(frozen=True)
class ParsedConfig:
    """Everything a command needs: the template plus [sim]/[twt] settings."""

    template: ScenarioTemplate
    model: str
    duration_s: float
    loaded: bool
    twt_enabled: bool
    duty_percent: int
    mf: int

    @property
    def seed(self) -> int:
        """The run's seed: the master seed of every seeded repetition."""
        return self.template.master_seed

    def scenario(self) -> Scenario:
        duty = self.duty_percent if self.twt_enabled else None
        return self.template.session_scenario(
            duty,
            self.mf,
            self.model,
            self.seed,
            loaded=self.loaded,
            duration_s=self.duration_s,
            record_cwnd=True,
        )


def parse(text: str) -> ParsedConfig:
    sections = _tokenize(text)

    station_names = [n for n in sections if n.startswith("station.")]
    missing = []
    if not station_names:
        missing.append(REQUIRED_SECTIONS[0])
    if "traffic" not in sections:
        missing.append("traffic")
    if missing:
        raise ConfigError("missing required sections: " + ", ".join(missing))

    mac_sec = sections.get("mac", {})
    mac_kwargs = {}
    for key in _SECTION_KEYS["mac"]:
        val = _take(mac_sec, key, int, None)
        if val is not None:
            mac_kwargs[key] = val
    mac = _checked(mac_sec, MacParams, **mac_kwargs)

    traffic_sec = sections["traffic"]
    video = _checked(
        traffic_sec,
        VideoParams,
        bitrate_mbps=_take(traffic_sec, "bitrate_mbps", float, 15.6),
        frame_rate=_take(traffic_sec, "frame_rate", float, 30.0),
        weibull_k=_take(traffic_sec, "weibull_k", float, 0.8099),
        weibull_lambda_bytes=_take(traffic_sec, "weibull_lambda_bytes", float, None),
        ibt_mean_s=_take(traffic_sec, "ibt_mean_s", float, 6.0),
        ibt_var_s2=_take(traffic_sec, "ibt_var_s2", float, 1.8),
        ibt_min_s=_take(traffic_sec, "ibt_min_s", float, 2.0),
        ibt_max_s=_take(traffic_sec, "ibt_max_s", float, 10.0),
        cbr_interval_s=_take(traffic_sec, "cbr_interval_s", float, 6.0),
    )

    stations: list[Station] = []
    dut: str | None = None
    ap_seen = False
    for name in station_names:
        sec = sections[name]
        sid = name.split(".", 1)[1]
        role = _take(sec, "role", str, "client")
        if role not in ("ap", "client"):
            raise ConfigError(f"station role must be 'ap' or 'client', got {role!r}",
                              sec["role"].line)
        phy = _take(sec, "phy_rate_mbps", float, None)
        standalone = _take(sec, "standalone_mbps", float, None)
        if phy is not None and standalone is not None:
            raise ConfigError(
                f"station {sid!r}: give phy_rate_mbps or standalone_mbps, not both",
                sec["standalone_mbps"].line,
            )
        if role == "ap":
            if standalone is not None:
                raise ConfigError(
                    "standalone_mbps applies to clients; give the AP phy_rate_mbps",
                    sec["standalone_mbps"].line,
                )
            ap_seen = True
            rate = phy if phy is not None else 1000.0
        else:
            if standalone is not None:
                rate = back_solve_phy_rate(standalone, mac)
            elif phy is not None:
                rate = phy
            else:
                first_line = min(e.line for e in sec.values()) if sec else None
                raise ConfigError(
                    f"station {sid!r} needs phy_rate_mbps or standalone_mbps", first_line
                )
        if _take(sec, "dut", _to_bool, False):
            if role == "ap":
                raise ConfigError("the AP cannot be the DUT", sec["dut"].line)
            if dut is not None:
                raise ConfigError(f"more than one DUT ({dut!r} and {sid!r})", sec["dut"].line)
            dut = sid
        stations.append(
            Station(id=sid, role=role, phy_rate_mbps=rate,
                    rssi_dbm=_take(sec, "rssi_dbm", float, None))
        )
    if not ap_seen:
        raise ConfigError("no station with role = ap")
    clients = [s.id for s in stations if s.role == "client"]
    if not clients:
        raise ConfigError("no client stations")
    if dut is None:
        raise ConfigError("no station marked dut = true")

    bg_sec = sections.get("background", {})
    streams = _take(bg_sec, "streams_per_client", int, 8)
    bg_clients_raw = _take(bg_sec, "clients", str, None)
    if bg_clients_raw is None:
        bg_clients = [c for c in clients if c != dut]
    else:
        bg_clients = [c.strip() for c in bg_clients_raw.split(",") if c.strip()]
        for c in bg_clients:
            if c not in clients or c == dut:
                raise ConfigError(
                    f"background client {c!r} is not a non-DUT client",
                    bg_sec["clients"].line,
                )

    tr_sec = sections.get("transport", {})
    search_sec = sections.get("search", {})
    sim_sec = sections.get("sim", {})

    template = _checked(
        search_sec,
        ScenarioTemplate,
        stations=tuple(stations),
        dut=dut,
        video=video,
        background=tuple((c, streams) for c in bg_clients),
        mac=mac,
        remote_rtt_s=_take(tr_sec, "remote_rtt_s", float, REMOTE_RTT_S),
        local_rtt_s=_take(tr_sec, "local_rtt_s", float, LOCAL_RTT_S),
        queue_limit_segments=_take(tr_sec, "queue_limit_segments", int, 256),
        seeds=_take(search_sec, "seeds", int, 5),
        master_seed=_take(sim_sec, "seed", int, 1),
        phase1_duration_s=_take(search_sec, "phase1_duration_s", float, 30.0),
        session_duration_s=_take(search_sec, "session_duration_s", float, 120.0),
        max_underruns=_take(search_sec, "max_underruns", int, 3),
        qos_interval_s=_take(search_sec, "qos_interval_s", float, 1.0),
    )

    model = _take(sim_sec, "model", str, "cbr")
    if model not in ("cbr", "vbr"):
        raise ConfigError(f"model must be 'cbr' or 'vbr', got {model!r}",
                          sim_sec["model"].line)
    twt_sec = sections.get("twt", {})
    duty = _take(twt_sec, "duty_percent", int, 30)
    mf = _take(twt_sec, "mf", int, 1)
    twt_enabled = _take(twt_sec, "enabled", _to_bool, True)
    if twt_enabled:
        _checked(twt_sec, schedule_from, duty, mf)

    parsed = ParsedConfig(
        template=template,
        model=model,
        duration_s=_take(sim_sec, "duration_s", float, template.session_duration_s),
        loaded=_take(sim_sec, "loaded", _to_bool, True),
        twt_enabled=twt_enabled,
        duty_percent=duty,
        mf=mf,
    )
    # Materialise once so schedule/scenario invariant violations surface here
    # with the config as context rather than deep inside a command.
    parsed.scenario()
    return parsed
