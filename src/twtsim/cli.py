"""Batch command-line front-end.

Every command reads a scenario config, runs deterministically from (config,
seed), and writes plot-ready CSV/JSON artifacts into the output directory.
Floats are written as their shortest round-trip text (``str`` is ``repr`` for a
float) and JSON keys are sorted, so re-running a command with the same inputs
yields byte-identical files.

Exit codes: 0 success, 1 validation error, 2 non-convergence.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections.abc import Iterable
from dataclasses import astuple, replace
from itertools import starmap
from pathlib import Path

from .config import ConfigError, ParsedConfig, default_config_text, parse
from .macsim import run_sim
from .qos import burst_service, compute_qos, qos_pass
from .search import (InfeasibleTargetError, judged_sessions, phase1_min_duty,
                     phase2_select_mf, run_full_search)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NO_CONVERGENCE = 2

OUT_DIR_ENV = "TWTSIM_OUT"


def _write_csv(path: Path, header: list[str], rows: Iterable[Iterable]) -> None:
    """Write the header, then one line per row (one value per header name),
    each value as ``str`` gives it: ``format`` with an empty spec is ``str``."""
    line = ",".join(["{}"] * len(header)) + "\n"
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(starmap(line.format, rows))


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _bg_aggregate_mbps(trace) -> float:
    total = sum(nb for fid, nb in trace.delivered_bytes.items() if fid != trace.dut_flow_id)
    return 8 * total / trace.duration_s / 1e6


# the fields of a DutyPoint and of an MfPoint, in order
_DUTY_HEADER = ["duty_percent", "mean_throughput_mbps", "std_throughput_mbps"]
_MF_HEADER = ["mf", "mean_underrun_time_s", "mean_underrun_events", "mean_throughput_cv"]


def _write_table(path: Path, header: list[str], rows: list[tuple]) -> None:
    """One numbered row per iteration, then the mean of each column."""
    mean = ("mean", *map(statistics.fmean, zip(*rows)))
    _write_csv(path, ["iteration", *header], [*((i, *row) for i, row in enumerate(rows, 1)), mean])


def cmd_simulate(cfg: ParsedConfig, out: Path) -> int:
    scenario = replace(cfg.scenario(), record_cwnd=True)  # cwnd.csv needs the series
    trace = run_sim(scenario)
    _write_csv(out / "deliveries.csv", ["time_s", "station", "flow", "bytes"], trace.deliveries)
    _write_csv(out / "airtime.csv", ["start_s", "end_s", "station"], trace.airtime)
    _write_csv(
        out / "burst_serve.csv",
        ["burst_index", "serve_start_s", "serve_end_s"],
        burst_service(trace, scenario.bursts),
    )
    _write_csv(out / "cwnd.csv", ["time_s", "flow", "cwnd_segments"], trace.cwnd_series)
    _write_json(
        out / "summary.json",
        {
            "seed": cfg.seed,
            "duration_s": scenario.duration_s,
            "model": cfg.model,
            "twt_schedule": scenario.twt[1].to_dict() if scenario.twt is not None else None,
            "flow_throughput_mbps": {
                fid: trace.flow_throughput_mbps(fid) for fid in sorted(trace.delivered_bytes)
            },
            "delivered_bytes": dict(sorted(trace.delivered_bytes.items())),
            "drops": dict(sorted(trace.drops.items())),
            "collisions": trace.collisions,
        },
    )
    return EXIT_OK


def cmd_qos(cfg: ParsedConfig, out: Path) -> int:
    scenario = cfg.scenario()
    trace = run_sim(scenario)
    report = compute_qos(trace, scenario.bursts)
    payload = report.to_dict()
    payload["seed"] = cfg.seed
    payload["model"] = cfg.model
    payload["qos_pass"] = qos_pass(
        report, cfg.template.bitrate_mbps, cfg.template.max_underruns
    )
    _write_json(out / "qos_report.json", payload)
    _write_csv(
        out / "instantaneous.csv",
        ["interval_start_s", "throughput_mbps"],
        report.instantaneous_mbps,
    )
    return EXIT_OK


def cmd_search(cfg: ParsedConfig, out: Path) -> int:
    result = run_full_search(cfg.template)
    _write_json(out / "search_result.json", result.to_dict())
    _write_csv(out / "phase1_curve.csv", _DUTY_HEADER, map(astuple, result.phase1_curve))
    _write_csv(out / "phase2_curve.csv", _MF_HEADER, map(astuple, result.phase2_curve))
    _write_csv(
        out / "sessions.csv",
        [
            "model",
            "duty_percent",
            "mf",
            "seed",
            "avg_throughput_mbps",
            "underrun_events",
            "underrun_time_s",
            "throughput_cv",
            "passed",
        ],
        (
            (
                s.model,
                s.duty_percent,
                s.mf,
                s.seed,
                s.report.avg_throughput_mbps,
                s.report.underrun_events,
                s.report.underrun_time_s,
                s.report.throughput_variation,
                s.passed,
            )
            for s in result.sessions
        ),
    )
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_sweep_duty(cfg: ParsedConfig, out: Path) -> int:
    try:
        _, curve = phase1_min_duty(cfg.template)
    except InfeasibleTargetError as exc:
        # the curve shows the shortfall
        _write_csv(out / "duty_sweep.csv", _DUTY_HEADER, map(astuple, exc.curve))
        raise
    _write_csv(out / "duty_sweep.csv", _DUTY_HEADER, map(astuple, curve))
    return EXIT_OK


def cmd_sweep_mf(cfg: ParsedConfig, out: Path) -> int:
    _, curve = phase2_select_mf(cfg.template, cfg.duty_percent)
    _write_csv(out / "mf_sweep.csv", _MF_HEADER, map(astuple, curve))
    return EXIT_OK


def cmd_table3(cfg: ParsedConfig, out: Path) -> int:
    """Aggregate background throughput per iteration: no DUT, DUT without TWT,
    DUT with the configured TWT schedule."""
    template = cfg.template
    rows = []
    for seed in template.rep_seeds(30):
        scenarios = (
            template.background_only_scenario(seed),
            template.session_scenario(None, 1, cfg.model, seed),
            template.session_scenario(cfg.duty_percent, cfg.mf, cfg.model, seed),
        )
        rows.append(tuple(_bg_aggregate_mbps(run_sim(sc)) for sc in scenarios))
    _write_table(
        out / "table3.csv",
        [
            "background_mbps_no_dut",
            "background_mbps_dut_twt_off",
            "background_mbps_dut_twt_on",
        ],
        rows,
    )
    return EXIT_OK


def _qos_rows(cfg: ParsedConfig, model: str, phase: int) -> list[tuple]:
    return [(s.report.avg_throughput_mbps, s.report.underrun_events)
            for s in judged_sessions(cfg.template, cfg.session_duty, cfg.mf, model, phase)]


def cmd_table4(cfg: ParsedConfig, out: Path) -> int:
    """Per-iteration QoS grid for the configured model and schedule."""
    _write_table(
        out / "table4.csv",
        ["qos1_avg_throughput_mbps", "qos2_underrun_events"],
        _qos_rows(cfg, cfg.model, 40),
    )
    return EXIT_OK


def cmd_table5(cfg: ParsedConfig, out: Path) -> int:
    """CBR-vs-VBR QoS grid at the configured schedule."""
    cbr = _qos_rows(cfg, "cbr", 50)
    vbr = _qos_rows(cfg, "vbr", 51)
    _write_table(
        out / "table5.csv",
        [
            "cbr_qos1_avg_throughput_mbps",
            "cbr_qos2_underrun_events",
            "vbr_qos1_avg_throughput_mbps",
            "vbr_qos2_underrun_events",
        ],
        [c + v for c, v in zip(cbr, vbr)],
    )
    return EXIT_OK


_HANDLERS = {
    "simulate": cmd_simulate,
    "qos": cmd_qos,
    "search": cmd_search,
    "sweep-duty": cmd_sweep_duty,
    "sweep-mf": cmd_sweep_mf,
    "table3": cmd_table3,
    "table4": cmd_table4,
    "table5": cmd_table5,
}


def _error_json(kind: str, detail: str, line: int | None = None) -> str:
    payload: dict = {"error": kind, "detail": detail}
    if line is not None:
        payload["line"] = line
    return json.dumps(payload, sort_keys=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="twtsim",
        description="Deterministic Wi-Fi TWT streaming simulator and schedule search.",
    )
    parser.add_argument("--config", help="scenario config path (default: bundled setup)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument(
        "--out",
        help=f"output directory (default: ./out, or ${OUT_DIR_ENV} when set)",
    )
    parser.add_argument("--command", required=True, choices=_HANDLERS)
    args = parser.parse_args(argv)

    try:
        if args.config is None:
            text = default_config_text()
        else:
            path = Path(args.config)
            if not path.is_file():
                print(_error_json("config-not-found", str(path)))
                return EXIT_VALIDATION
            text = path.read_text()
        cfg = parse(text)
        if args.seed is not None:
            cfg = replace(cfg, template=replace(cfg.template, master_seed=args.seed))
    except ConfigError as exc:
        print(_error_json("config", str(exc), exc.line))
        return EXIT_VALIDATION
    except ValueError as exc:
        print(_error_json("validation", str(exc)))
        return EXIT_VALIDATION

    out_dir = args.out or os.environ.get(OUT_DIR_ENV) or "out"
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(_error_json("output", str(exc)))
        return EXIT_VALIDATION

    try:
        return _HANDLERS[args.command](cfg, out)
    except InfeasibleTargetError as exc:
        print(_error_json("infeasible-target", str(exc)))
        return EXIT_NO_CONVERGENCE
    except ValueError as exc:
        print(_error_json("validation", str(exc)))
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
