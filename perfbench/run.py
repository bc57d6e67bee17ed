"""Host-cost benchmark of twtsim: two workloads, golden digests, layer trace.

    python3 perfbench/run.py --workload search|cli|all \\
        [--seed N] [--seconds S] [--trace 0|1] [--record-golden]

Run from the repository root.  The program is imported from ``src``; nothing
is installed.  Scratch files go to ``.perfbench_work/``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.  Times
are wall times converted to nominal-host seconds by the host reference
(``hostref.py``), so that the drift of a shared host's speed cancels out:

* ``setup_s``: median of three cold set-ups, each in a fresh interpreter --
  ``paper_setup()`` on search, ``config.parse`` of the bundled config on cli;
* ``op_s``: median time of one operation -- a full search (``search_s``), a
  CLI command child process included (``cli_s``);
* ``peak_rss_mb``: peak resident memory of the workload process, or of the
  largest CLI command child on cli.

``--trace 1`` repeats the untraced loop, then runs one more round under the
outside-in layer trace and reports the ``per_layer`` metrics.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  An operation fails when it
raises, exits non-zero, misses its golden digest (recorded at seed 1) or
breaks an invariant; ``error_rate`` = failed / attempted.  ``--workload all``
runs every workload in its own interpreter and prints one table.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OP_NAMES = {"search": "search_s", "cli": "cli_s"}


def _metrics_spec(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run_one(args) -> int:
    import gate
    import hostref
    import twtsim
    import workloads

    if Path(twtsim.__file__).resolve().parent != workloads.SRC / "twtsim":
        sys.exit(f"twtsim imported from {twtsim.__file__}, not from {workloads.SRC}")
    workloads.WORK.mkdir(exist_ok=True)
    hostref.pin_to_current_cpu()
    with hostref.HostRef() as ref:
        run = workloads.Run(args.seed, args.seconds, bool(args.trace), ref)
        values = workloads.WORKLOADS[args.workload](run)

    failures = run.failures
    gate_failures = gate.self_check(run.sample) if run.sample else [
        "no output to self-check"]
    if args.record_golden:
        golden = gate.load_golden()
        golden[args.workload] = run.seen
        gate.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in _metrics_spec(bool(args.trace))}
    for line in failures + gate_failures:
        print(f"FAIL {line}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload:9s} {name:32s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    for name in sorted(set(values) - set(metrics)):  # raw host figures behind the metrics
        print(f"{args.workload:9s} {name:32s} {values[name]:.6g} s (info)", file=sys.stderr)
    print(json.dumps({
        "correct": not failures and not gate_failures,
        "attempted": run.attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter, one after another; one table."""
    status = 0
    print(f"{'workload':9s} {'metric':32s} {'value':>12s} unit")
    for workload in OP_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"{workload:9s} exited {proc.returncode}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows = [(OP_NAMES[workload] if k == "op_s" else k, m["value"], m["unit"])
                for k, m in result["metrics"].items()]
        if not args.trace:
            rows.append(("error_rate", result["failed"] / result["attempted"], "ratio"))
        for name, value, unit in rows:
            print(f"{workload:9s} {name:32s} {value:12.6g} {unit}")
        print(f"{workload:9s} {'correct':32s} {str(result['correct']):>12s}")
        status |= not result["correct"]
    return status


def main() -> int:
    # a stopped run unwinds, so that it stops and waits for its own children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*OP_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="store this run's digests as the golden ones")
    args = parser.parse_args()
    if not (ROOT / "src" / "twtsim" / "__init__.py").is_file():
        sys.exit(f"no twtsim sources under {ROOT / 'src'}")
    if args.record_golden and (args.seed != 1 or args.trace or args.workload == "all"):
        sys.exit("--record-golden needs one workload, --seed 1 and --trace 0")
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
