"""Scenario construction: the template the search phases instantiate.

The paper's setup is stated once, in the bundled ``configs/paper_setup.cfg``;
``paper_setup()`` returns that config's template.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .macsim import MacParams, Scenario, Station, seed_state
# perfbench's layer trace and set-up laps wrap this name here; only config calls it
from .macsim import back_solve_phy_rate  # noqa: F401
from .pcg64 import PCG64
from .schedule import schedule_from
from .traffic import VideoParams, generate_cbr_bursts, generate_vbr_bursts
from .transport import MAX_TIME_S, Flow, check_finite_positive

DUT_STREAM = "dut-stream"  # id of the stream to the DUT, in phase 1 and in a session


def check_model(model: str) -> None:
    """Raise ValueError, its message led by ``model``, unless it names a
    traffic model of a session: 'cbr' or 'vbr'."""
    if model not in ("cbr", "vbr"):
        raise ValueError(f"model must be 'cbr' or 'vbr', got {model!r}")


@dataclass(frozen=True)
class ScenarioTemplate:
    """Everything the schedule search needs to instantiate simulations."""

    stations: tuple[Station, ...]  # AP + clients
    dut: str
    video: VideoParams
    background_streams: int = 8  # parallel saturated streams to each client but the DUT
    mac: MacParams = MacParams()
    remote_rtt_s: float = Flow.base_rtt_s
    local_rtt_s: float = 0.002
    queue_limit_segments: int = Flow.queue_limit_segments
    seeds: int = 5
    master_seed: int = 1
    phase1_duration_s: float = 30.0
    session_duration_s: float = 120.0
    max_underruns: int = 3

    def __post_init__(self) -> None:
        for name in ("remote_rtt_s", "local_rtt_s", "phase1_duration_s", "session_duration_s"):
            check_finite_positive(name, getattr(self, name), MAX_TIME_S)
        for name, least in (("background_streams", 0), ("seeds", 1), ("max_underruns", 0),
                            ("master_seed", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        self.local_flow("", "")  # its streams are Flows, which check queue_limit_segments

    @property
    def bitrate_mbps(self) -> float:
        return self.video.bitrate_mbps

    def rep_seeds(self, *key: int) -> list[int]:
        """One seed per repetition of the point named by ``key``."""
        return [seed_state((self.master_seed, *key, rep)) for rep in range(self.seeds)]

    def local_flow(self, fid: str, dst: str) -> Flow:
        """A saturated stream from a local server to ``dst``: each background
        stream, the phase-1 stream, and the calibration run that back-solves a
        ``standalone_mbps`` client."""
        return Flow(id=fid, dst=dst, kind="saturated", base_rtt_s=self.local_rtt_s,
                    queue_limit_segments=self.queue_limit_segments)

    def _background_flows(self) -> tuple[Flow, ...]:
        return tuple(self.local_flow(f"bg-{s.id}-{i}", s.id)
                     for s in self.stations if s.role == "client" and s.id != self.dut
                     for i in range(self.background_streams))

    def phase1_scenario(self, duty: int, seed: int) -> Scenario:
        """Unloaded BSS, one saturated local stream to the TWT DUT, MF = 1."""
        return Scenario(
            stations=self.stations,
            twt=(self.dut, schedule_from(duty, 1)),
            flows=(self.local_flow(DUT_STREAM, self.dut),),
            duration_s=self.phase1_duration_s,
            seed=seed,
            mac=self.mac,
        )

    def session_scenario(self, duty: int | None, mf: int, model: str, seed: int) -> Scenario:
        """A streaming session under peak background congestion; duty None
        disables TWT (always-awake baseline)."""
        check_model(model)
        if model == "cbr":
            bursts = generate_cbr_bursts(self.video, self.session_duration_s)
        else:
            rng = PCG64(seed_state((seed, 0x7BA)))
            bursts = generate_vbr_bursts(self.video, self.session_duration_s, rng)
        stream = Flow(id=DUT_STREAM, dst=self.dut, kind="burst", base_rtt_s=self.remote_rtt_s,
                      queue_limit_segments=self.queue_limit_segments)
        return Scenario(
            stations=self.stations,
            twt=(self.dut, schedule_from(duty, mf)) if duty is not None else None,
            flows=(stream, *self._background_flows()),
            bursts=tuple(bursts),
            duration_s=self.session_duration_s,
            seed=seed,
            mac=self.mac,
        )

    def background_only_scenario(self, seed: int) -> Scenario:
        """Peak background congestion without the DUT's stream."""
        return Scenario(
            stations=self.stations,
            flows=self._background_flows(),
            duration_s=self.session_duration_s,
            seed=seed,
            mac=self.mac,
        )


def paper_setup(*, seeds: int | None = None, master_seed: int | None = None) -> ScenarioTemplate:
    """The bundled config's template, the paper's four-client BSS, as parsed.

    ``seeds`` and ``master_seed``, when given, replace the config's in a copy;
    to change anything else the config states, ``parse`` an edited copy of it.
    """
    from .config import default_config_text, parse  # config imports this module

    template = parse(default_config_text()).template
    given = {k: v for k, v in (("seeds", seeds), ("master_seed", master_seed)) if v is not None}
    return replace(template, **given) if given else template
