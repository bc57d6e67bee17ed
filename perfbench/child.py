"""Child-process entry points of the benchmark, each run in a fresh interpreter.

    python3 perfbench/child.py setup
        Time one cold ``paper_setup()`` in laps that end after each PHY-rate
        back-solve; print its nominal seconds (``setup_s``), wall seconds
        and the reference samples as one JSON object.
    python3 perfbench/child.py cli TIMING.json CLI-ARGS...
        Run ``twtsim.cli.main(CLI-ARGS)``, what ``python -m twtsim.cli``
        runs, in laps that end after each back-solve and each ``run_sim``;
        write the wall and nominal seconds of ``main`` and of its cold
        ``config.parse``, the time spent sampling and the samples to
        TIMING.json.  The exit code is the command's.
    python3 perfbench/child.py trace SPANS.json CLI-ARGS...
        Run ``twtsim.cli.main(CLI-ARGS)`` under the layer trace and write the
        spans and counters to SPANS.json; the exit code is the command's.

``src`` must be on PYTHONPATH; the benchmark sets it.  ``setup`` and ``cli``
sample the host reference shared by the parent (``hostref.ENV``).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from hostref import ENV, HostRef, Stopwatch


def _setup() -> int:
    from twtsim import scenarios

    ref = HostRef(os.environ[ENV])
    watch = Stopwatch(ref)
    with watch.split_after(scenarios, "back_solve_phy_rate"):
        watch.start()
        scenarios.paper_setup()
        wall, nominal = watch.stop()
    print(json.dumps({"setup_s": nominal, "wall_s": wall, "ref_samples": ref.samples}))
    return 0


def _timed_cli(timing_path: str, argv: list[str]) -> int:
    from twtsim import cli, config

    ref = HostRef(os.environ[ENV])
    watch = Stopwatch(ref)
    parse = cli.parse
    parsed = {}

    def timed_parse(*args, **kwargs):  # main parses first, so this is from main's start
        start = watch.read()
        result = parse(*args, **kwargs)
        end = watch.read()
        parsed.update(parse_wall_s=end[0] - start[0], parse_nominal_s=end[1] - start[1])
        return result

    cli.parse = timed_parse
    with watch.split_after(config, "back_solve_phy_rate"), watch.split_after(cli, "run_sim"):
        watch.start()
        try:
            return cli.main(argv)
        finally:
            wall, nominal = watch.stop()
            cli.parse = parse
            Path(timing_path).write_text(json.dumps(
                {"wall_s": wall, "nominal_s": nominal, **parsed, "ref_busy_s": ref.busy_s,
                 "ref_samples": ref.samples}))


def _traced_cli(spans_path: str, argv: list[str]) -> int:
    from layers import Tracer
    from twtsim import cli

    tracer = Tracer().install()
    try:
        return cli.main(argv)
    finally:
        tracer.close()
        tracer.dump(Path(spans_path))


def main(argv: list[str]) -> int:
    if argv == ["setup"]:
        return _setup()
    if len(argv) >= 2 and argv[0] == "cli":
        return _timed_cli(argv[1], argv[2:])
    if len(argv) >= 2 and argv[0] == "trace":
        return _traced_cli(argv[1], argv[2:])
    raise SystemExit(__doc__)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
