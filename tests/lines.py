"""Line census: each executable line of ``src/twtsim`` that Tier-1 never runs.

Run directly::

    python tests/lines.py

It runs Tier-1 -- pytest on ``tests/`` -- in this process under a
``sys.settrace`` tracer that follows only the frames of code compiled from
``src/twtsim`` and records each line they run.  A module's executable lines
are the line starts that ``dis.findlinestarts`` gives for every code object
compiled from its source, nested ones included.  Each executable line that did
not run is printed to stdout as ``file:line: source``, followed by its reason
when ``UNRUN`` lists it; a line that ``UNRUN`` lists and that ran is printed
too.  ``UNRUN`` names a line by its file and its source text, so that an edit
elsewhere in the file does not move it.

Code run only in a child process is not traced: a line that only the
every-interpreter, zip and locale tests of ``tests/test_cli.py`` run, each in
a fresh interpreter, counts as not run.

The exit status is 1 on a line that neither ran nor is listed in ``UNRUN``,
or on a listed line that ran, and 2 when Tier-1 fails or an ``UNRUN`` entry
matches no executable line or more than one.  It uses only the standard library and pytest, and pytest
does not collect it.  Under the tracer Tier-1 takes several minutes (430 s on
a 2-vCPU VM with Python 3.11); CI runs it on 3.11 in a job of its own.
"""

import dis
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "twtsim"

# (file, source text of the line) -> why Tier-1 does not run it
UNRUN = {
    ("src/twtsim/traffic.py", "from .pcg64 import PCG64"):
        "under `if TYPE_CHECKING`: the import is for type checkers only",
    ("src/twtsim/cli.py", "sys.exit(main())"):
        "the `__main__` body: the tests call main(), and run `python -m twtsim.cli` only in "
        "child processes",
}


def executable(path: Path) -> set[int]:
    """The line starts of every code object compiled from ``path``."""
    codes = [compile(path.read_text(), str(path), "exec")]
    lines = set()
    while codes:
        code = codes.pop()
        # a module starts at line 0; from 3.13 an instruction may have no line
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def traced_tier1() -> tuple[int, set[tuple[str, int]]]:
    """Tier-1's exit status, and the (file, line) of each ``src/twtsim`` line it ran."""
    ran = set()
    prefix = str(SRC)

    def on_line(frame, event, _arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, _event, _arg):
        return on_line if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    return status, ran


def listed() -> dict[tuple[str, str], list[int]]:
    """Each ``UNRUN`` entry -> the executable lines of its file whose source is its text."""
    found = {}
    for rel, source in UNRUN:
        text = (ROOT / rel).read_text().splitlines()
        found[rel, source] = [line for line in sorted(executable(ROOT / rel))
                              if text[line - 1].strip() == source]
    return found


def main() -> int:
    reasons = {}  # (file, line) -> why Tier-1 does not run it
    for key, lines in listed().items():
        if len(lines) != 1:
            print(f"UNRUN entry {key} matches {len(lines)} executable lines, not one",
                  file=sys.stderr)
            return 2
        reasons[key[0], lines[0]] = UNRUN[key]
    # read before the run, which imports what is on disk now
    modules = {path: (path.read_text().splitlines(), executable(path))
               for path in sorted(SRC.glob("*.py"))}
    status, ran = traced_tier1()
    if status != 0:
        print(f"Tier-1 failed under the tracer (pytest exit {status})", file=sys.stderr)
        return 2
    faults = 0
    for path, (text, lines) in modules.items():
        rel = path.relative_to(ROOT).as_posix()
        for line in sorted(lines):
            reason = reasons.get((rel, line))
            label = f"{rel}:{line}: {text[line - 1].strip()}"
            if (str(path), line) in ran:
                if reason is not None:
                    print(f"{label}  ran, but UNRUN lists it: {reason}")
                    faults += 1
            elif reason is not None:
                print(f"{label}  not run: {reason}")
            else:
                print(label)
                faults += 1
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
