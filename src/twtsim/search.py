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
from collections.abc import Callable, Iterable, Sequence
from dataclasses import asdict, dataclass
from itertools import groupby
from operator import attrgetter

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
class Run:
    """One seeded simulation: the point ``key`` names, at one seed of
    ``template.rep_seeds(*key)``.  A phase-1 run (model None) is the unloaded
    stream at MF 1 and has no report or verdict."""

    key: tuple[int, ...]
    model: str | None
    duty_percent: int | None
    mf: int
    seed: int
    throughput_mbps: float  # of the DUT stream
    report: QosReport | None
    passed: bool | None


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


def duty_point(runs: Sequence[Run]) -> DutyPoint:
    """The mean and sample standard deviation of the runs' throughput."""
    samples = [r.throughput_mbps for r in runs]
    std = statistics.stdev(samples) if len(samples) > 1 else 0.0
    return DutyPoint(runs[0].duty_percent, statistics.fmean(samples), std)


def mf_point(runs: Sequence[Run]) -> MfPoint:
    """The means of the runs' underrun time, underrun count and throughput CV."""
    return MfPoint(
        runs[0].mf,
        statistics.fmean(r.report.underrun_time_s for r in runs),
        statistics.fmean(r.report.underrun_events for r in runs),
        statistics.fmean(r.report.throughput_variation for r in runs),
    )


def points(runs: Iterable[Run], build: Callable[[Sequence[Run]], object]) -> tuple:
    """``build`` applied to each stretch of runs that share a key, in order."""
    return tuple(build(tuple(batch)) for _, batch in groupby(runs, attrgetter("key")))


def seeded_runs(template: ScenarioTemplate, key: tuple[int, ...], duty: int | None, mf: int,
                model: str | None) -> tuple[Run, ...]:
    """One run per seed of ``template.rep_seeds(*key)``, in seed order: model None
    runs phase 1's unloaded scenario (MF 1), a model a loaded streaming session
    (duty None disables TWT), scored by ``compute_qos`` and judged by ``qos_pass``."""
    runs = []
    for seed in template.rep_seeds(*key):
        if model is None:
            report = passed = None
            mbps = run_sim(template.phase1_scenario(duty, seed)).flow_throughput_mbps(DUT_STREAM)
        else:
            scenario = template.session_scenario(duty, mf, model, seed)
            report = compute_qos(run_sim(scenario), scenario.bursts)
            passed = qos_pass(report, template.bitrate_mbps, template.max_underruns)
            mbps = report.avg_throughput_mbps
        runs.append(Run(key, model, duty, mf, seed, mbps, report, passed))
    return tuple(runs)


@dataclass(frozen=True)
class SearchResult:
    duty_percent: int | None
    mf: int
    phase1_duty_percent: int
    runs: tuple[Run, ...] = ()  # every run the search made, in run order

    @property
    def phase1_curve(self) -> tuple[DutyPoint, ...]:
        return points((r for r in self.runs if r.key[0] == 1), duty_point)

    @property
    def phase2_curve(self) -> tuple[MfPoint, ...]:
        return points((r for r in self.runs if r.key[0] == 2), mf_point)

    @property
    def sessions(self) -> tuple[Run, ...]:
        """Phase 3's CBR sessions, then the VBR replay's."""
        return tuple(r for r in self.runs if r.key[0] in (3, 4))

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


def phase1_min_duty(template: ScenarioTemplate) -> tuple[int, tuple[Run, ...]]:
    """Smallest duty whose mean saturated throughput meets the bitrate."""
    target = template.bitrate_mbps
    runs = tuple(run for duty in range(DUTY_STEP, 101, DUTY_STEP)
                 for run in seeded_runs(template, (1, duty), duty, 1, None))
    curve = points(runs, duty_point)
    chosen = next((p.duty_percent for p in curve if p.mean_throughput_mbps >= target), None)
    if chosen is None:
        raise InfeasibleTargetError(
            f"target {target:.2f} Mbit/s unreachable: 100% duty delivers "
            f"{curve[-1].mean_throughput_mbps:.2f} Mbit/s",
            curve,
        )
    return chosen, runs


def phase2_select_mf(template: ScenarioTemplate, duty: int) -> tuple[int, tuple[Run, ...]]:
    """Double MF while mean underrun time strictly improves.

    Returns the MF immediately preceding the first degradation; the returned
    runs include the degraded point's so callers can see the turn.
    """
    mf, runs = 1, seeded_runs(template, (2, 1), duty, 1, "cbr")
    while 2 * mf <= MAX_MF:
        runs += seeded_runs(template, (2, 2 * mf), duty, 2 * mf, "cbr")
        best, last = points(runs, mf_point)[-2:]
        if last.mean_underrun_time_s >= best.mean_underrun_time_s:
            break
        mf *= 2
    return mf, runs


def phase3_validate(
    template: ScenarioTemplate, duty: int, mf: int
) -> tuple[int | None, tuple[Run, ...]]:
    """Grow duty in 5-point steps until every seeded CBR session passes QoS."""
    runs: tuple[Run, ...] = ()
    for d in range(duty, 101, DUTY_STEP):
        batch = seeded_runs(template, (3, d), d, mf, "cbr")
        runs += batch
        if all(r.passed for r in batch):
            return d, runs
    return None, runs


def run_full_search(template: ScenarioTemplate) -> SearchResult:
    """Full pipeline: duty sweep, MF doubling, seeded validation, VBR replay."""
    phase1_duty, runs = phase1_min_duty(template)
    mf, phase2_runs = phase2_select_mf(template, phase1_duty)
    duty, phase3_runs = phase3_validate(template, phase1_duty, mf)
    runs += phase2_runs + phase3_runs
    if duty is not None:
        # The VBR model is replayed at the schedule the CBR search settled on.
        runs += seeded_runs(template, (4, duty), duty, mf, "vbr")
    return SearchResult(duty, mf, phase1_duty, runs)
