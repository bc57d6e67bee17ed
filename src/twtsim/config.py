"""Scenario config files: flat sectioned key-value text, diff-friendly.

A config looks like::

    format = 1

    [station.laptop]
    standalone_mbps = 95

    [twt]
    duty_percent = 30
    mf = 4

Unknown keys, bad values, and structural problems are reported with the line
number they came from.  A key left out takes the default of the object it
sets: ``MacParams`` ([mac]), ``VideoParams`` ([traffic]), ``ScenarioTemplate``
([background], [transport], [search], [sim] seed) or ``ParsedConfig`` ([sim],
[twt]).
``parse`` returns a ParsedConfig: its ``template`` is what the search and
table commands drive, and ``scenario()`` materialises the one runnable [sim]
scenario.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, fields, replace

from .macsim import (NS_PER_US, MacParams, Scenario, Station, back_solve_phy_rate,
                     check_mpdu_fits, least_sp_ns)
from .scenarios import ScenarioTemplate, check_model
from .schedule import SP_CAP_US, schedule_from
from .traffic import VideoParams

REQUIRED_SECTIONS = ("station.<id> (one 'ap' role and at least one client)", "traffic")
# an id names the station in the CSV artifacts, so it holds no comma or space
STATION_SECTION = re.compile(r"station\.[A-Za-z0-9_.-]+")


def default_config_text() -> str:
    """The bundled four-client setup: the one statement of the paper's BSS."""
    # read by this module's own loader, as pkgutil.get_data reads package
    # data: from a directory or a zip alike, and without importing a reader
    path = os.path.join(os.path.dirname(__file__), "configs", "paper_setup.cfg")
    return __spec__.loader.get_data(path).decode()


class ConfigError(ValueError):
    """Config problem, carrying the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def decode(data: bytes) -> str:
    """A config file's text: its bytes read as UTF-8, whatever the locale,
    after a byte-order mark if one leads them."""
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        read = exc.object  # the bytes after a byte-order mark: what exc.start counts in
        line = read[:exc.start].count(b"\n") + 1  # as _tokenize numbers lines
        raise ConfigError(f"not UTF-8: byte {read[exc.start]:#04x} ({exc.reason})", line) from exc


def _to_bool(value: str) -> bool:
    low = value.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"{value!r} is not a boolean")


_CONVERTERS = {"int": int, "float": float}


def _typed(cls, *names: str) -> dict:
    """Key -> converter for the named fields of ``cls`` (all when none are named)."""
    return {f.name: _CONVERTERS[f.type] for f in fields(cls) if not names or f.name in names}


# section -> key -> converter of the key's text value
_SECTION_KEYS = {
    "sim": {"model": str, "seed": int},
    "mac": _typed(MacParams),
    "station": {"role": str, "phy_rate_mbps": float, "standalone_mbps": float, "dut": _to_bool},
    "traffic": _typed(VideoParams),
    "twt": {"enabled": _to_bool, "duty_percent": int, "mf": int},
    "background": {"streams_per_client": int},
    "transport": _typed(ScenarioTemplate, "remote_rtt_s", "local_rtt_s", "queue_limit_segments"),
    "search": _typed(ScenarioTemplate, "seeds", "phase1_duration_s", "session_duration_s",
                     "max_underruns"),
}


@dataclass
class _Entry:
    value: object  # the text as converted by its key's converter
    line: int | None  # None for a default that parse puts in
    key: str  # the key as the config names it


def _tokenize(text: str) -> dict[str, dict[str, _Entry]]:
    """Sections -> key -> (value, line).  Checks the structure and converts
    each value at its own line, so the first faulty line is the one reported."""
    sections: dict[str, dict[str, _Entry]] = {}
    current: str | None = None
    saw_format = False
    for lineno, raw in enumerate(text.split("\n"), start=1):  # strip() drops a CR
        line = raw.partition("#")[0].strip()
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
            if base == "station" and not STATION_SECTION.fullmatch(name):
                raise ConfigError("station sections are named [station.<id>], the id of "
                                  "letters, digits, '_', '.' and '-'", lineno)
            if base != "station" and "." in name:
                raise ConfigError(f"section [{base}] does not take a suffix", lineno)
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", lineno)
            sections[name] = {}
            current = name
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigError("expected 'key = value'", lineno)
        key, value = key.strip(), value.strip()
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
        try:
            sections[current][key] = _Entry(_SECTION_KEYS[base][key](value), lineno, key)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}", lineno) from exc
    if not sections:
        raise ConfigError(
            "empty config; required: a 'format = 1' header and sections "
            + ", ".join(f"[{s}]" for s in REQUIRED_SECTIONS)
        )
    if not saw_format:
        raise ConfigError("missing 'format = 1' header line")
    return sections


def _values(entries: dict[str, _Entry]) -> dict:
    return {key: entry.value for key, entry in entries.items()}


def _checked(entries: dict[str, _Entry], build, *args, **kwargs):
    """Call ``build``; a ValueError it raises is reported at the line of the
    argument its message starts with, under that entry's config key, else at
    the first line of ``entries``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        msg = str(exc)
        for arg, entry in entries.items():
            if msg.startswith(arg + " "):
                raise ConfigError(entry.key + msg[len(arg):], entry.line) from exc
        raise ConfigError(msg, min((e.line for e in entries.values()), default=None)) from exc


@dataclass(frozen=True)
class ParsedConfig:
    """Everything a command needs: the template plus [sim]/[twt] settings."""

    template: ScenarioTemplate
    model: str = "cbr"
    twt_enabled: bool = True
    duty_percent: int = 30
    mf: int = 1

    def __post_init__(self) -> None:
        check_model(self.model)
        # sweep-mf and table3 use both, TWT on or off, so both are checked either way
        sp_us = schedule_from(self.duty_percent, self.mf).sp_us
        dut = next(s for s in self.template.stations if s.id == self.template.dut)
        need = least_sp_ns(self.template.mac, dut.phy_rate_mbps)
        if sp_us * NS_PER_US < need:
            usable = [mf for mf in (1 << i for i in range(SP_CAP_US.bit_length()))
                      if schedule_from(self.duty_percent, mf).sp_us * NS_PER_US >= need]
            raise ValueError(f"mf {self.mf} leaves a {sp_us} us service period, less than the "
                             f"{need / NS_PER_US:g} us of a DIFS, the overhead and one MPDU to DUT "
                             f"{dut.id!r}; the largest usable mf is {max(usable, default='none')}")

    @property
    def seed(self) -> int:
        """The run's seed: the master seed of every seeded repetition."""
        return self.template.master_seed

    @property
    def session_duty(self) -> int | None:
        """The duty of a session: None runs it without TWT."""
        return self.duty_percent if self.twt_enabled else None

    def scenario(self) -> Scenario:
        return self.template.session_scenario(self.session_duty, self.mf, self.model, self.seed)


def _stations(sections: dict[str, dict[str, _Entry]],
              template: ScenarioTemplate) -> tuple[list[Station], str]:
    """The [station.<id>] sections as stations, and the id of the DUT; a
    ``standalone_mbps`` client is calibrated on the template's local stream."""
    mac = template.mac
    mac_sec = sections.get("mac", {})
    stations: list[Station] = []
    dut: str | None = None
    for name, sec in sections.items():
        if not name.startswith("station."):
            continue
        sid = name.split(".", 1)[1]
        given = _values(sec)
        role = given.get("role", "client")
        phy = given.get("phy_rate_mbps")
        standalone = given.get("standalone_mbps")
        if phy is not None and standalone is not None:
            raise ConfigError(
                f"station {sid!r}: give phy_rate_mbps or standalone_mbps, not both",
                sec["standalone_mbps"].line,
            )
        if role == "ap":
            if standalone is not None:
                raise ConfigError("standalone_mbps applies to clients; the AP takes no rate",
                                  sec["standalone_mbps"].line)
            if any(s.role == "ap" for s in stations):
                raise ConfigError(f"more than one station with role = ap ({sid!r})",
                                  sec["role"].line)
        if role == "client" and standalone is not None:
            rate = _checked({**mac_sec, **sec}, back_solve_phy_rate, standalone, mac,
                            template.local_flow("cal", sid))
        else:  # Station refuses a rate given to the AP, and any other role, at their lines
            rate = phy
        if role == "client" and rate is None:
            first_line = min(e.line for e in sec.values()) if sec else None
            raise ConfigError(f"station {sid!r} needs phy_rate_mbps or standalone_mbps", first_line)
        if given.get("dut", False):
            if role == "ap":
                raise ConfigError("the AP cannot be the DUT", sec["dut"].line)
            if dut is not None:
                raise ConfigError(f"more than one DUT ({dut!r} and {sid!r})", sec["dut"].line)
            dut = sid
        stations.append(_checked(sec, Station, id=sid, role=role, phy_rate_mbps=rate))
        if role == "client":
            _checked({**mac_sec, **sec}, check_mpdu_fits, mac, sid, rate)
    if not any(s.role == "ap" for s in stations):
        raise ConfigError("no station with role = ap")
    if all(s.role == "ap" for s in stations):
        raise ConfigError("no client stations")
    if dut is None:  # reported at the last dut = false, if a station gives one
        falses = [sec["dut"].line for sec in sections.values() if "dut" in sec]
        raise ConfigError("no station marked dut = true", max(falses, default=None))
    return stations, dut


def parse(text: str) -> ParsedConfig:
    sections = _tokenize(text)

    missing = []
    if not any(n.startswith("station.") for n in sections):
        missing.append(REQUIRED_SECTIONS[0])
    if "traffic" not in sections:
        missing.append("traffic")
    if missing:
        raise ConfigError("missing required sections: " + ", ".join(missing))

    mac_sec = sections.get("mac", {})
    mac = _checked(mac_sec, MacParams, **_values(mac_sec))
    video = _checked(sections["traffic"], VideoParams, **_values(sections["traffic"]))

    # each remaining entry keyed by the constructor argument it sets
    run = dict(sections.get("sim", {}))
    for_template = {**sections.get("transport", {}), **sections.get("search", {})}
    if "seed" in run:
        for_template["master_seed"] = run.pop("seed")
    background = sections.get("background", {})
    if "streams_per_client" in background:
        for_template["background_streams"] = background["streams_per_client"]
    twt = sections.get("twt", {})
    run.update((("twt_enabled" if k == "enabled" else k), e) for k, e in twt.items())
    # the DUT, not an unrelated line, is at fault when the default mf is refused; each
    # ParsedConfig message starts with its argument, so no fallback meets this None line
    run.setdefault("mf", _Entry(ParsedConfig.mf, None, "mf"))

    # the template comes first: its local stream calibrates the clients
    template = _checked(for_template, ScenarioTemplate, stations=(), dut="", video=video,
                        mac=mac, **_values(for_template))
    stations, dut = _stations(sections, template)
    template = replace(template, stations=tuple(stations), dut=dut)
    return _checked(run, ParsedConfig, template, **_values(run))
