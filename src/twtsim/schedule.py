"""Target Wake Time schedules: duty-cycle arithmetic and wake-window enumeration.

A schedule is the usual individual TWT agreement: the station wakes for
``sp_us`` microseconds (the service period) every ``sp_us + wi_us``
microseconds, starting at time 0.  Service periods are capped at
65535 us, so shorter periods at the same duty cycle are expressed through a
power-of-two multiplication factor that divides both the service period and
the wake interval.
"""

from __future__ import annotations

from dataclasses import dataclass

SP_CAP_US = 65535


@dataclass(frozen=True)
class TwtSchedule:
    """An individual TWT agreement (all durations in microseconds)."""

    sp_us: int
    wi_us: int

    def __post_init__(self) -> None:
        if not (0 < self.sp_us <= SP_CAP_US):
            raise ValueError(f"sp_us must be in (0, {SP_CAP_US}], got {self.sp_us}")
        if self.wi_us < 0:
            raise ValueError(f"wi_us must be >= 0, got {self.wi_us}")

    @property
    def period_us(self) -> int:
        return self.sp_us + self.wi_us

    def to_dict(self) -> dict:
        return {
            "sp_us": self.sp_us,
            "wi_us": self.wi_us,
            "offset_us": 0,  # every schedule starts at 0; the artifacts keep the key
            "duty_pct": duty_cycle(self),
        }


def duty_cycle(schedule: TwtSchedule) -> float:
    """Percentage of time the station is awake: 100 * sp / (sp + wi)."""
    return 100.0 * schedule.sp_us / schedule.period_us


def schedule_from(duty_percent: float, mf: int) -> TwtSchedule:
    """Build the schedule for a target duty cycle and multiplication factor.

    The MF=1 schedule pins the service period at the 65535 us cap and sizes
    the wake interval for the requested duty; higher factors divide both
    durations (floor), trading period length for wake frequency at the same
    duty cycle.
    """
    if not (0 < duty_percent <= 100):
        raise ValueError(f"duty_percent must be in (0, 100], got {duty_percent}")
    if mf < 1 or (mf & (mf - 1)) != 0:
        raise ValueError(f"mf must be a power of two >= 1, got {mf}")
    sp1 = SP_CAP_US
    wi1 = round(SP_CAP_US * (100.0 - duty_percent) / duty_percent)
    return TwtSchedule(sp_us=sp1 // mf, wi_us=wi1 // mf)


def wake_windows(schedule: TwtSchedule, horizon_us: int) -> list[tuple[int, int]]:
    """Enumerate wake windows [start, end) over [0, horizon_us).

    Windows are clipped to the horizon; a window starting at or beyond the
    horizon is not emitted.  A zero wake interval collapses to a single
    always-awake window.
    """
    if horizon_us <= 0:
        return []
    if schedule.wi_us == 0:
        return [(0, horizon_us)]
    return [(start, min(start + schedule.sp_us, horizon_us))
            for start in range(0, horizon_us, schedule.period_us)]
