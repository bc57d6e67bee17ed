"""The two benchmark workloads.

Each is a closed loop: one caller, one operation at a time, in one process
(CLI commands in one child process at a time).  Whole rounds of operations
run until the requested seconds have passed, then every output is checked
outside the timed region.  Timed work is cut into laps that end at samples
of the host reference (``hostref.py``), which turn its wall time into
nominal-host seconds: a search after each of its ``run_sim`` calls, a CLI
command after each ``run_sim`` and back-solve, a set-up after each
back-solve.

* ``search``: ``run_full_search(paper_setup(seeds=2, master_seed=seed))``,
  the paper's pipeline and the only workload with search orchestration;
  almost all of it is the engine's hot path.
* ``cli``: ``twtsim.cli.main`` -- what ``python -m twtsim.cli`` runs -- with
  ``--command simulate`` then ``qos`` on the bundled config, each in a fresh
  interpreter; the only workload dominated by calibration inside
  ``config.parse`` and by artifact writing.

The program receives only inputs generated here from ``--seed``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import gate
import hostref
from layers import Tracer, layer_metrics, merge

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
HERE = Path(__file__).resolve().parent

DEFAULT_SEED = 1  # golden digests are recorded at this seed
SEARCH_SEEDS = 2  # converges like seeds=5 (duty 30, MF 4) at a third of the cost
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 120
CLI_COMMANDS = ("simulate", "qos")


def round_seed(seed: int, r: int) -> int:
    """Seed of round ``r``: the benchmark seed itself, then derived seeds."""
    if r == 0:
        return seed
    return int.from_bytes(hashlib.sha256(f"{seed}/{r}".encode()).digest()[:4], "big")


class Run:
    """One workload run: its settings, the operations attempted and their failures."""

    def __init__(self, seed: int, seconds: float, trace: bool, ref: hostref.HostRef):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.ref = ref
        self.watch = hostref.Stopwatch(ref)
        self.golden: dict = gate.load_golden() if seed == DEFAULT_SEED else {}
        self.seen: dict[str, dict] = {}  # digests by input key
        self.sample = b""  # one real output, for the gate's one-byte self-check
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, op: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failures.append(f"{op}: " + "; ".join(errors[:3]))

    def check(self, key: str, digests: dict, errors: list[str], expected: dict | None) -> None:
        errors = list(errors) + gate.compare(expected, digests)
        if key in self.seen and self.seen[key] != digests:
            errors.append("outputs differ from an earlier run of the same input")
        self.seen.setdefault(key, digests)
        self.record(key, errors)

    def round(self, ops, expected: dict) -> list[Timing]:
        """Run ``(key, op, check)`` triples one at a time; return their timings.

        ``op() -> (output, Timing)`` times itself (see ``watched``);
        ``check(output) -> (digests, errors)`` is not timed.  The previous
        output is freed and garbage collected before each op, so that no op
        pays for collecting another's objects.
        """
        times = []
        for key, op, check in ops:
            gc.collect()
            try:
                out, timing = op()
            except Exception as exc:  # an operation that raises is a failure
                self.record(key, [f"raised {exc!r}"])
                continue
            times.append(timing)
            digests, errors = check(out)
            out = None
            self.check(key, digests, errors, expected.get(key))
        return times

    def loop(self, round_ops, expected: dict) -> list[list[Timing]]:
        """Run whole rounds ``round_ops(r)`` until ``seconds`` have passed."""
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < self.seconds:
            rounds.append(self.round(round_ops(len(rounds)), expected))
        return rounds

    def watched(self, fn):
        """``fn`` as an op timed in this process by the run's stopwatch."""
        def op():
            self.watch.start()
            try:
                out = fn()
            finally:
                timing = Timing(*self.watch.stop())
            return out, timing
        return op


class Timing(NamedTuple):
    wall_s: float
    nominal_s: float


def op_metrics(rounds: list[list[Timing]]) -> dict:
    """``op_s``: median over rounds of a round's mean nominal time per op.

    Averaging within a round first keeps the mix of operations in a round
    (a simulate and a qos command) from deciding which one the median is.
    """
    def per_round(attr):
        return _median([statistics.fmean(getattr(t, attr) for t in r) for r in rounds if r])

    return {"op_s": per_round("nominal_s"), "host.op_wall_s": per_round("wall_s")}


# -- child processes ------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(args: list[str], log: Path, ref: hostref.HostRef | None = None
              ) -> tuple[int, float]:
    """Run ``python3 ARGS`` to completion; return (exit code, peak RSS in MiB).

    With ``ref``, the child may sample that host reference while this
    process waits.
    """
    env, fds = _child_env(), ()
    if ref is not None:
        shared, fds = ref.share()
        env.update(shared)
    with log.open("wb") as fh:
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env, pass_fds=fds,
                                stdout=fh, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        pid = 0
        try:
            while True:  # os.wait4 keeps the child's own rusage, Popen.wait does not
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid or time.monotonic() > deadline:
                    break
                time.sleep(0.002)
        finally:  # on a timeout, or when this process is being stopped
            if not pid:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024


def _median(values: list[float]) -> float:
    """Median, or 0 when every sample failed (the failures make the run incorrect)."""
    return statistics.median(values) if values else 0.0


def cold_setups(count: int, run: Run) -> list[float]:
    """Nominal times of ``count`` cold ``paper_setup()`` calls, each in a fresh
    interpreter, one at a time."""
    times = []
    for i in range(count):
        log = WORK / f"setup-{i}.log"
        code, _ = run_child([str(HERE / "child.py"), "setup"], log, run.ref)
        errors = [] if code == 0 else [f"exit {code}: {log.read_text()[-300:]}"]
        run.record("setup", errors)
        if code == 0:
            result = json.loads(log.read_text().splitlines()[-1])
            times.append(result["setup_s"])
            run.ref.samples += result["ref_samples"]
    return times


def _traced(run: Run, ops, untraced: list[list[Timing]]) -> dict:
    """Run one round again under the trace; its outputs must equal the untraced ones."""
    traced = run.round(ops, {})
    return {"trace.overhead_s": sum(t.wall_s for t in traced)
            - len(traced) * op_metrics(untraced)["host.op_wall_s"]}


def _host(run: Run, rounds: list[list[Timing]]) -> dict:
    """Raw figures behind the nominal times; child processes' samples included."""
    return {"host.ref_s": _median(run.ref.samples),
            "host.op_wall_s": op_metrics(rounds)["host.op_wall_s"]}


def _in_process(run: Run, name: str, setup, ops, split_at) -> dict:
    """Set up in this (fresh) interpreter, loop ``ops(r, template)``, trace one round.

    Untraced ops are split into laps after each call of ``split_at``, the
    set-up after each back-solve; the traced round is not, so that no span
    holds a reference sample.
    """
    from twtsim import scenarios

    with run.watch.split_after(scenarios, "back_solve_phy_rate"):
        run.watch.start()
        template = setup()
        setup_s = [run.watch.stop()[1]]
    if not run.trace:
        setup_s += cold_setups(SETUP_SAMPLES - 1, run)
    with run.watch.split_after(*split_at):
        rounds = run.loop(lambda r: ops(r, template), run.golden.get(name, {}))
    if not run.trace:
        return {"setup_s": _median(setup_s), "op_s": op_metrics(rounds)["op_s"],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                **_host(run, rounds)}
    tracer = Tracer().install()
    try:
        extra = _traced(run, ops(0, setup()), rounds)
    finally:
        tracer.close()
    tracer.dump(WORK / f"spans-{name}.json")
    return {**layer_metrics(tracer.spans, tracer.counters), **_cli_files([]), **extra,
            **_host(run, rounds)}


# -- search -----------------------------------------------------------------------

def search(run: Run) -> dict:
    from twtsim import scenarios
    from twtsim import search as search_mod

    def check(tpl):
        def check_result(result):
            payload = gate.json_bytes(result.to_dict())
            run.sample = run.sample or payload
            errors = gate.check_search(result.to_dict(), tpl.seeds, tpl.bitrate_mbps)
            return {"result": gate.sha256(payload)}, errors
        return check_result

    def ops(_r, tpl):
        yield "search", run.watched(lambda: search_mod.run_full_search(tpl)), check(tpl)

    return _in_process(
        run, "search",
        lambda: scenarios.paper_setup(seeds=SEARCH_SEEDS, master_seed=run.seed), ops,
        split_at=(search_mod, "run_sim"))


# -- cli --------------------------------------------------------------------------

def _cli_files(dirs: list[Path]) -> dict:
    """Bytes and CSV data rows written by the traced CLI commands."""
    files = [p for d in dirs for p in sorted(d.iterdir())]
    rows = sum(len(p.read_bytes().splitlines()) - 1 for p in files if p.suffix == ".csv")
    return {"cli.artifact_bytes": sum(p.stat().st_size for p in files), "cli.rows": rows}


def cli(run: Run) -> dict:
    peak = [0.0]
    parse_s: list[float] = []  # the cold config.parse inside each untraced command
    summaries: dict[int, dict] = {}

    def command(cmd, seed, out, spans=None):
        """One command in a child process, child start-up included in its time.

        Untraced, the child times ``main`` in laps and the start-up is
        normalised at the same rate; traced commands only report wall time.
        """
        shutil.rmtree(out, ignore_errors=True)
        args = ["--command", cmd, "--seed", str(seed), "--out", str(out)]
        timing = out.with_suffix(".timing.json")
        timing.unlink(missing_ok=True)
        if spans is None:
            argv = [str(HERE / "child.py"), "cli", str(timing), *args]
        else:
            spans.unlink(missing_ok=True)
            argv = [str(HERE / "child.py"), "trace", str(spans), *args]
        t0 = time.perf_counter()
        code, rss = run_child(argv, out.with_suffix(".log"), None if spans else run.ref)
        wall = time.perf_counter() - t0
        peak[0] = max(peak[0], rss)
        if not timing.is_file():
            return (code, out), Timing(wall, wall)
        laps = json.loads(timing.read_text())
        timing.unlink()
        run.ref.samples += laps["ref_samples"]
        if "parse_nominal_s" in laps:
            parse_s.append(laps["parse_nominal_s"])
        wall -= laps["ref_busy_s"]
        return (code, out), Timing(wall, wall * laps["nominal_s"] / laps["wall_s"])

    def checker(r, cmd, keep=False):
        def check(result):
            code, out = result
            if code != 0:
                return {}, [f"exit {code}: {out.with_suffix('.log').read_text()[-300:]}"]
            digests = gate.dir_digests(out)
            if cmd == "simulate":
                errors = gate.check_simulate(out)
                summaries[r] = json.loads((out / "summary.json").read_text())
                run.sample = run.sample or (out / "airtime.csv").read_bytes()
            else:
                errors = gate.check_qos_artifacts(out, summaries.get(r))
            if not keep:
                shutil.rmtree(out)
            return digests, errors
        return check

    def ops(r, traced=False):
        seed = round_seed(run.seed, r)
        for cmd in CLI_COMMANDS:
            out = WORK / f"{'traced-' if traced else ''}r{r}-{cmd}"
            spans = WORK / f"spans-cli-{cmd}.json" if traced else None
            yield (f"r{r}/{cmd}", lambda c=cmd, o=out, s=spans: command(c, seed, o, s),
                   checker(r, cmd, keep=traced))

    if not run.trace:
        rounds = run.loop(ops, run.golden.get("cli", {}))
        return {"setup_s": _median(parse_s), "op_s": op_metrics(rounds)["op_s"],
                "peak_rss_mb": peak[0], **_host(run, rounds)}

    rounds = run.loop(ops, run.golden.get("cli", {}))
    summaries.clear()
    extra = _traced(run, ops(0, traced=True), rounds)
    dirs = [WORK / f"traced-r0-{cmd}" for cmd in CLI_COMMANDS]
    dumps = [json.loads(p.read_text()) for cmd in CLI_COMMANDS
             if (p := WORK / f"spans-cli-{cmd}.json").is_file()]
    metrics = {**layer_metrics(*merge(dumps)), **_cli_files([d for d in dirs if d.is_dir()]),
               **extra, **_host(run, rounds)}
    for d in dirs:
        shutil.rmtree(d, ignore_errors=True)
    return metrics


WORKLOADS = {"search": search, "cli": cli}
