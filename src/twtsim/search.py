"""Three-phase search for the smallest TWT schedule that preserves QoS.

Phase 1 sweeps the duty cycle on an unloaded network with a single saturated
TCP stream to the sleeping client and keeps the smallest duty whose mean
throughput reaches the target bitrate.  Phase 2 holds that duty fixed and
doubles the multiplication factor (shorter, more frequent wake windows at the
same duty) under peak congestion while the mean buffer-underrun time keeps
strictly improving.  Phase 3 replays full streaming sessions across seeds and
widens the duty in 5-point steps until every session passes QoS.
"""

from __future__ import annotations

import statistics
from dataclasses import asdict, dataclass, field

from .macsim import run_sim
from .qos import QosReport, compute_qos, qos_pass
from .scenarios import DUT_STREAM, ScenarioTemplate
from .schedule import TwtSchedule, schedule_from

DUTY_STEP = 5
MAX_MF = 256


class InfeasibleTargetError(Exception):
    """The target bitrate is not reachable even with a 100% duty cycle;
    ``curve`` is the duty sweep that shows it."""

    def __init__(self, message: str, curve: tuple[DutyPoint, ...]):
        super().__init__(message)
        self.curve = curve


@dataclass(frozen=True)
class DutyPoint:
    duty_percent: int
    mean_throughput_mbps: float
    std_throughput_mbps: float


@dataclass(frozen=True)
class MfPoint:
    mf: int
    mean_underrun_time_s: float
    mean_underrun_events: float
    mean_cv: float


@dataclass(frozen=True)
class SessionRecord:
    model: str
    duty_percent: int | None
    mf: int
    seed: int
    report: QosReport
    passed: bool


@dataclass(frozen=True)
class SearchResult:
    duty_percent: int | None
    mf: int
    phase1_duty_percent: int
    phase1_curve: tuple[DutyPoint, ...]
    phase2_curve: tuple[MfPoint, ...]
    sessions: tuple[SessionRecord, ...] = field(default=())

    @property
    def converged(self) -> bool:
        return self.duty_percent is not None

    @property
    def schedule(self) -> TwtSchedule | None:
        return schedule_from(self.duty_percent, self.mf) if self.converged else None

    def to_dict(self) -> dict:
        return {
            "converged": self.converged,
            "duty_percent": self.duty_percent,
            "mf": self.mf,
            "schedule": self.schedule.to_dict() if self.schedule else None,
            "phase1_duty_percent": self.phase1_duty_percent,
            "phase1_curve": [asdict(p) for p in self.phase1_curve],
            "phase2_curve": [asdict(p) for p in self.phase2_curve],
            "sessions": [
                {
                    "model": s.model,
                    "duty_percent": s.duty_percent,
                    "mf": s.mf,
                    "seed": s.seed,
                    "passed": s.passed,
                    **s.report.to_dict(),
                }
                for s in self.sessions
            ],
        }


def _mean_std(values: list[float]) -> tuple[float, float]:
    mean = statistics.fmean(values)
    std = statistics.stdev(values) if len(values) > 1 else 0.0
    return mean, std


def phase1_min_duty(template: ScenarioTemplate) -> tuple[int, tuple[DutyPoint, ...]]:
    """Smallest duty whose mean saturated throughput meets the bitrate."""
    target = template.bitrate_mbps
    curve: list[DutyPoint] = []
    chosen: int | None = None
    for duty in range(DUTY_STEP, 101, DUTY_STEP):
        samples = [
            run_sim(template.phase1_scenario(duty, seed)).flow_throughput_mbps(DUT_STREAM)
            for seed in template.rep_seeds(1, duty)
        ]
        mean, std = _mean_std(samples)
        curve.append(DutyPoint(duty, mean, std))
        if chosen is None and mean >= target:
            chosen = duty
    if chosen is None:
        raise InfeasibleTargetError(
            f"target {target:.2f} Mbit/s unreachable: 100% duty delivers "
            f"{curve[-1].mean_throughput_mbps:.2f} Mbit/s",
            tuple(curve),
        )
    return chosen, tuple(curve)


def judged_sessions(
    template: ScenarioTemplate, duty: int | None, mf: int, model: str, *key: int
) -> tuple[SessionRecord, ...]:
    """The loaded streaming sessions of ``template.rep_seeds(*key)`` at one
    schedule, in seed order, each scored and judged by the pass rule; duty
    None disables TWT."""
    records = []
    for seed in template.rep_seeds(*key):
        scenario = template.session_scenario(duty, mf, model, seed)
        report = compute_qos(run_sim(scenario), scenario.bursts)
        passed = qos_pass(report, template.bitrate_mbps, template.max_underruns)
        records.append(SessionRecord(model, duty, mf, seed, report, passed))
    return tuple(records)


def _evaluate_mf(template: ScenarioTemplate, duty: int, mf: int) -> MfPoint:
    reports = [s.report for s in judged_sessions(template, duty, mf, "cbr", 2, mf)]
    return MfPoint(
        mf,
        statistics.fmean(r.underrun_time_s for r in reports),
        statistics.fmean(r.underrun_events for r in reports),
        statistics.fmean(r.throughput_variation for r in reports),
    )


def phase2_select_mf(
    template: ScenarioTemplate, duty: int
) -> tuple[int, tuple[MfPoint, ...]]:
    """Double MF while mean underrun time strictly improves.

    Returns the MF immediately preceding the first degradation; the returned
    curve includes the degraded point so callers can see the turn.
    """
    curve = [_evaluate_mf(template, duty, 1)]
    best_mf = 1
    mf = 2
    while mf <= MAX_MF:
        point = _evaluate_mf(template, duty, mf)
        curve.append(point)
        if point.mean_underrun_time_s < curve[-2].mean_underrun_time_s:
            best_mf = mf
            mf *= 2
        else:
            break
    return best_mf, tuple(curve)


def phase3_validate(
    template: ScenarioTemplate, duty: int, mf: int
) -> tuple[int | None, tuple[SessionRecord, ...]]:
    """Grow duty in 5-point steps until every seeded CBR session passes QoS."""
    records: tuple[SessionRecord, ...] = ()
    for d in range(duty, 101, DUTY_STEP):
        batch = judged_sessions(template, d, mf, "cbr", 3, d)
        records += batch
        if all(r.passed for r in batch):
            return d, records
    return None, records


def run_full_search(template: ScenarioTemplate) -> SearchResult:
    """Full pipeline: duty sweep, MF doubling, seeded validation, VBR replay."""
    phase1_duty, phase1_curve = phase1_min_duty(template)
    mf, phase2_curve = phase2_select_mf(template, phase1_duty)
    cbr_duty, sessions = phase3_validate(template, phase1_duty, mf)
    if cbr_duty is not None:
        # The VBR model is replayed at the schedule the CBR search settled on.
        sessions += judged_sessions(template, cbr_duty, mf, "vbr", 4, cbr_duty)
    return SearchResult(
        duty_percent=cbr_duty,
        mf=mf,
        phase1_duty_percent=phase1_duty,
        phase1_curve=phase1_curve,
        phase2_curve=phase2_curve,
        sessions=sessions,
    )
