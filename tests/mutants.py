"""Boundary mutants: each comparison, ``and`` and ``or`` of a module, swapped one at a time.

Run directly::

    python tests/mutants.py FILE [FILE ...] --tests TEST [TEST ...] [--timeout S]

FILE is a module under ``src/`` and TEST a pytest argument, both relative to
the repo root.  The script copies ``src/``, ``tests/`` and ``perfbench/`` (the
bench-hook tests read its layer trace) into a temporary directory and never
edits the repo.  It finds every ``<``, ``<=``, ``>``, ``>=``, ``==``, ``!=``,
``and`` and ``or`` of each FILE with ``ast`` and swaps it for its twin
(``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``, ``and`` and ``or``)
in the copy's source text, so every other line keeps its number.  Each
mutant runs ``pytest -x`` on the TESTs, killed at the timeout.  A mutant that
passes them survives and is printed to stdout as ``file:line:column op -> op``,
then the qualified name of the function it is in and the comparison or boolean
expression it is in; progress goes to stderr.  Mutants listed in
``EQUIVALENT`` are skipped and printed with their reason.  An operator inside
an f-string is printed as not mutated: Python 3.11 tokenizes an f-string as
one string, so it has no token of its own to swap.

Exit status: 0 when no mutant survived, 1 when one did, 2 when the TESTs
fail on the unmutated copy or an ``EQUIVALENT`` entry of a FILE matches no
mutant or more than one (it is printed with the positions it matches, and no
mutant runs).  It uses only the standard library, and pytest does not collect
it.  Each mutant is one pytest run.  CI sweeps ``schedule.py`` and
``transport.py`` against their own test modules, ``search.py`` against
``test_search``, ``test_cli`` and ``test_bench_hooks`` (about 45 s), and
``scenarios.py`` against ``test_config`` and ``test_search`` (about 11 s).
``macsim.py`` against ``test_macsim``, ``test_bench_hooks`` and
``test_search`` takes about 4 min, so CI sweeps it in a job of its own
(``engine-mutants``).
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
         ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
         ast.And: ("and", "or"), ast.Or: ("or", "and")}

# (line, column, op, swapped op, function, expression)
Mutant = tuple[int, int, str, str, str, str]

# (file, function, expression, op, swapped op) -> why the mutant cannot be told
# apart; the function is the qualified name of the one the expression is in
EQUIVALENT = {
    ("src/twtsim/schedule.py", "schedule_from", "mf > SP_CAP_US", ">", ">="):
        "65535 is not a power of two, so the power-of-two test refuses it either way",
    ("src/twtsim/transport.py", "offer_load", "headroom < admissible", "<", "<="):
        "a headroom equal to the least so far sets the same least",
    ("src/twtsim/transport.py", "offer_load", "limit < admissible", "<", "<="):
        "a queue limit equal to the least so far sets the same least",
    ("src/twtsim/macsim.py", "_bytes_typecode",
     'most * SEGMENT_BYTES < 1 << 8 * array("i").itemsize - 1', "<", "<="):
        "2**31 is not a multiple of 1500, so no record of whole segments ties it",
    ("src/twtsim/macsim.py", "_Engine._on_arrive", "room < full", "<", "<="):
        "a room equal to the full segments takes as many either way",
    ("src/twtsim/macsim.py", "_Engine._select_ap_tx", "budget < self.txop", "<", "<="):
        "a budget equal to the TXOP clamps to the same budget",
    ("src/twtsim/macsim.py", "_Engine._contend", "bo < min_bo", "<", "<="):
        "a counter equal to the least so far sets the same least",
    ("src/twtsim/macsim.py", "_Engine._contend", "d > dur", ">", ">="):
        "a collision's duration equal to the longest so far sets the same longest",
    ("src/twtsim/macsim.py", "_Engine.run", "end < heap[0]", "<", "<="):
        "seqs are unique, so the transmission end never ties a heap event",
    ("src/twtsim/macsim.py", "aggregate_ns", "queued_segments <= 0", "<=", "<"):
        "an empty queue gives 0 either way: the min rule below caps the count at 0",
    ("src/twtsim/macsim.py", "aggregate_ns", "queued_segments < n", "<", "<="):
        "a queued count equal to the A-MPDU limit sets the same int",
}


def scoped(tree: ast.AST):
    """Each node of ``tree`` with the qualified name (``__qualname__``) of the
    function or class it is in, "" at module level."""
    stack = [(tree, "", False)]  # node, qualified name, whether that is a function's
    while stack:
        node, name, in_function = stack.pop()
        yield node, name
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                prefix = f"{name}.<locals>." if in_function else f"{name}." if name else ""
                stack.append((child, prefix + child.name, not isinstance(child, ast.ClassDef)))
            else:
                stack.append((child, name, in_function))


def mutants(source: str) -> tuple[list[Mutant], list[Mutant]]:
    """(line, column, op, swapped op, function, expression) of each comparison
    and boolean operator, in source order; the function is the qualified name
    of the one it is in, and the expression the source text of the whole
    chain, on one line.  Those inside an f-string come second, in the same
    form but at the expression's position: they have no token to swap."""
    lines = source.splitlines()
    tokens = {tok.start: tok.string
              for tok in tokenize.generate_tokens(io.StringIO(source).readline)
              if tok.type == tokenize.OP or tok.string in ("and", "or")}

    def chars(line: int, col: int) -> tuple[int, int]:
        """An ast position, whose column counts UTF-8 bytes, as a tokenize one."""
        return line, len(lines[line - 1].encode()[:col].decode())

    tree = ast.parse(source)
    in_fstring = {id(inner) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
                  for inner in ast.walk(node)}
    found, unmutated = [], []
    for node, function in scoped(tree):
        if isinstance(node, ast.Compare):
            pairs = zip(node.ops, [node.left, *node.comparators], node.comparators)
        elif isinstance(node, ast.BoolOp):
            pairs = ((node.op, left, right) for left, right in zip(node.values, node.values[1:]))
        else:
            continue
        for op, left, right in pairs:
            if type(op) in SWAPS:
                old, new = SWAPS[type(op)]
                expression = " ".join(ast.get_source_segment(source, node).split())
                if id(node) in in_fstring:
                    unmutated.append((*chars(node.lineno, node.col_offset), old, new, function,
                                      expression))
                    continue
                after = chars(left.end_lineno, left.end_col_offset)
                before = chars(right.lineno, right.col_offset)
                (pos,) = [p for p, s in tokens.items() if after <= p < before and s == old]
                found.append((*pos, old, new, function, expression))
    return sorted(found), sorted(unmutated)


def equivalent_at(key: tuple, found: list[Mutant]) -> list[str]:
    """``line:column`` of each mutant that the ``EQUIVALENT`` key names, among
    ``found``, the mutants of the key's file."""
    function, expression, old, new = key[1:]
    return [f"{line}:{col + 1}" for line, col, *rest in found
            if rest == [old, new, function, expression]]


def describe(rel: str, line: int, col: int, old: str, new: str, function: str,
             expression: str) -> str:
    return f"{rel}:{line}:{col + 1} {old} -> {new} in {function or 'module level'} ({expression})"


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
    found, unmutated = {}, {}
    for rel in args.files:
        found[rel], unmutated[rel] = mutants((ROOT / rel).read_text())
    unmatched = 0
    for key in EQUIVALENT:
        if key[0] in found and len(at := equivalent_at(key, found[key[0]])) != 1:
            print(f"EQUIVALENT entry {key} matches {len(at)} mutants, not one: at "
                  f"{key[0]} {' and '.join(at) or 'no position'}", file=sys.stderr)
            unmatched += 1
    if unmatched:
        return 2
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
            for mutant in unmutated[rel]:
                print(f"not mutated {describe(rel, *mutant)}: inside an f-string", file=sys.stderr)
            for mutant in found[rel]:
                line, col, old, new, function, expression = mutant
                label = describe(rel, *mutant)
                reason = EQUIVALENT.get((rel, function, expression, old, new))
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
