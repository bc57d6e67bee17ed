"""Deterministic Wi-Fi 6 TWT streaming simulator and schedule search toolkit."""

from .config import ConfigError, ParsedConfig, parse
from .macsim import MacParams, Scenario, SimTrace, Station, run_sim
from .qos import QosReport, compute_qos, qos_pass
from .scenarios import ScenarioTemplate, paper_setup
from .schedule import TwtSchedule, duty_cycle, schedule_from, wake_windows
from .search import (
    DutyPoint,
    InfeasibleTargetError,
    MfPoint,
    Run,
    SearchResult,
    phase1_min_duty,
    phase2_select_mf,
    phase3_validate,
    run_full_search,
)
from .traffic import Burst, VideoParams, generate_cbr_bursts, generate_vbr_bursts
from .transport import Flow

__version__ = "0.1.0"

__all__ = [
    "Burst",
    "ConfigError",
    "DutyPoint",
    "Flow",
    "InfeasibleTargetError",
    "MacParams",
    "MfPoint",
    "ParsedConfig",
    "QosReport",
    "Run",
    "Scenario",
    "ScenarioTemplate",
    "SearchResult",
    "SimTrace",
    "Station",
    "TwtSchedule",
    "VideoParams",
    "compute_qos",
    "duty_cycle",
    "generate_cbr_bursts",
    "generate_vbr_bursts",
    "paper_setup",
    "parse",
    "phase1_min_duty",
    "phase2_select_mf",
    "phase3_validate",
    "qos_pass",
    "run_full_search",
    "run_sim",
    "schedule_from",
    "wake_windows",
]
