"""Boundary mutants: each comparison operator of a module, swapped one at a time.

Run directly::

    python tests/mutants.py FILE [FILE ...] --tests TEST [TEST ...] [--timeout S]

FILE is a module under ``src/`` and TEST a pytest argument, both relative to
the repo root.  The script copies ``src/``, ``tests/`` and ``perfbench/`` (the
bench-hook tests read its layer trace) into a temporary directory and never
edits the repo.  It finds every ``<``, ``<=``, ``>``, ``>=``, ``==`` and
``!=`` of each FILE with ``ast`` and swaps it for its boundary twin (``<``
and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``) in the copy's source text,
so every other line keeps its number.  Each mutant runs ``pytest -x`` on the
TESTs, killed at the timeout.  A mutant that passes them survives and is
printed to stdout as ``file:line op -> op``, then the comparison it is in;
progress goes to stderr.
Mutants listed in ``EQUIVALENT`` are skipped and printed with their reason.

Exit status: 0 when no mutant survived, 1 when one did, 2 when the TESTs
fail on the unmutated copy.  It uses only the standard library, and pytest
does not collect it.  It is too slow for a CI step: each mutant is one
pytest run.
"""

import argparse
import ast
import io
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench")

SWAPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
         ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "==")}

# (file, comparison, op, swapped op) -> why the mutant cannot be told apart
EQUIVALENT = {
    ("src/twtsim/qos.py", "duration > deadline", ">", ">="):
        "an unserved burst whose deadline equals the horizon has lateness 0, which "
        "`lateness > 0` drops",
}


def mutants(source: str) -> list[tuple[int, int, str, str, str]]:
    """(line, column, op, swapped op, comparison) of each comparison operator,
    in source order; the comparison is the source text of the whole chain, on
    one line."""
    lines = source.splitlines()
    tokens = {tok.start: tok.string
              for tok in tokenize.generate_tokens(io.StringIO(source).readline)
              if tok.type == tokenize.OP}

    def chars(line: int, col: int) -> tuple[int, int]:
        """An ast position, whose column counts UTF-8 bytes, as a tokenize one."""
        return line, len(lines[line - 1].encode()[:col].decode())

    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        left = node.left
        for op, right in zip(node.ops, node.comparators):
            if type(op) in SWAPS:
                old, new = SWAPS[type(op)]
                after = chars(left.end_lineno, left.end_col_offset)
                before = chars(right.lineno, right.col_offset)
                (pos,) = [p for p, s in tokens.items() if after <= p < before and s == old]
                comparison = " ".join(ast.get_source_segment(source, node).split())
                found.append((*pos, old, new, comparison))
            left = right
    return sorted(found)


def swapped(source: str, line: int, col: int, old: str, new: str) -> str:
    lines = source.splitlines(keepends=True)
    text = lines[line - 1]
    assert text[col:col + len(old)] == old, (line, col, old)
    lines[line - 1] = text[:col] + new + text[col + len(old):]
    return "".join(lines)


def passes(root: Path, tests: list[str], timeout: float) -> bool:
    """Whether ``pytest -x`` passes on ``tests`` in ``root`` within ``timeout`` s."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return proc.wait(timeout) == 0
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # with any child the tests started
        proc.wait()
        return False


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", help="modules to mutate, e.g. src/twtsim/qos.py")
    parser.add_argument("--tests", nargs="+", required=True, help="pytest arguments")
    parser.add_argument("--timeout", type=float, default=120.0, help="seconds per mutant")
    args = parser.parse_args()
    start = time.monotonic()
    survivors = 0
    with tempfile.TemporaryDirectory(prefix="twtsim-mutants-") as tmp:
        root = Path(tmp)
        for name in COPIED:
            shutil.copytree(ROOT / name, root / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        if not passes(root, args.tests, args.timeout):
            print("the tests fail on the unmutated copy", file=sys.stderr)
            return 2
        for rel in args.files:
            path = root / rel
            source = path.read_text()
            for line, col, old, new, comparison in mutants(source):
                label = f"{rel}:{line} {old} -> {new} ({comparison})"
                reason = EQUIVALENT.get((rel, comparison, old, new))
                if reason is not None:
                    print(f"equivalent {label}: {reason}", file=sys.stderr)
                    continue
                path.write_text(swapped(source, line, col, old, new))
                t0 = time.monotonic()
                survived = passes(root, args.tests, args.timeout)
                print(f"{'SURVIVED' if survived else 'killed'} {label} "
                      f"({time.monotonic() - t0:.1f} s)", file=sys.stderr)
                if survived:
                    print(label, flush=True)
                    survivors += 1
            path.write_text(source)
    print(f"{survivors} survived, {time.monotonic() - start:.0f} s", file=sys.stderr)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
