"""Lists the per-event sites of the engine that CPython 3.11 leaves generic.

Run directly::

    python tests/specialization.py [--check] [--src DIR]

It imports twtsim from ``DIR`` (default: the ``src`` next to this folder),
warms the engine on one bundled CBR session, with its cwnd recorded, and one
phase-1 run, then reads every instruction of the engine's methods,
``backoff_draw``, ``aggregate_ns``, ``on_ack`` and ``offer_load`` with
``dis.get_instructions(..., adaptive=True)``.  CPython 3.11's specializing
interpreter (PEP 659) rewrites each attribute, call, operator and compare
site for the types it meets.  A site is generic when, after it ran, it is
still its family's ``*_ADAPTIVE`` form (its counter's low bits, the backoff
exponent, are nonzero only once it has run), or when 3.11 set it back to the
plain family op for good.  Each generic site is printed as ``line function
instruction argument`` with its mark: ``inherent`` for a site no rewrite
specializes on 3.11, ``left`` for one left generic on purpose, or nothing.

``--check`` exits 1 if a generic site has no mark, or if a function read
here did not run: a site that was made specializable is generic again.  The
instruction names are CPython 3.11's; other versions name them otherwise,
so the script refuses to run on them.  It uses only the standard library.
"""

import argparse
import dis
import inspect
import sys
from dataclasses import replace
from pathlib import Path
from types import FunctionType

# the instruction families 3.11 specializes at a site, beside the
# superinstructions and counters that quickening alone sets
FAMILIES = ("BINARY_OP", "BINARY_SUBSCR", "CALL", "COMPARE_OP", "LOAD_ATTR", "LOAD_GLOBAL",
            "LOAD_METHOD", "PRECALL", "STORE_ATTR", "STORE_SUBSCR", "UNPACK_SEQUENCE")

INHERENT = {
    "ns": "an int ns time: COMPARE_OP_INT_JUMP takes ints below 2**30, and the clock passes "
          "2**30 ns at 1.07 s",
    "tuple": "(t, seq) event tuples: 3.11 specializes compares of ints, floats and strs only",
    "op": "3.11 specializes no %, // or /",
    "value": "a comparison used as a value: 3.11 specializes COMPARE_OP only before a "
             "conditional jump",
    "float": "pending bytes are a float (released is math.inf for a saturated flow), the "
             "rest ints: 3.11 specializes arithmetic and compares of one type only",
    "deque": "3.11 specializes subscripts of lists, tuples and dicts, not of a deque",
    "int": "a call of int(), a class call that 3.11 does not specialize",
    "rng": "random.Random is a Python subclass of the C generator: 3.11 specializes the call "
           "of a C method only on an instance of its exact class",
}
LEFT = {
    "burst": "set-up, once per burst: the load of a method that is not called, or of a "
             "property, neither of which 3.11 specializes",
}
# (function, text on the site's line, mark) for the generic sites that no
# rule below places
SITES = (
    ("_Engine._try_send", "fs.released - fs.sent", "float"),
    ("_Engine._on_burst", "fs.released += size", "float"),
    ("offer_load", "pending_bytes < 0", "float"),
    ("offer_load", "headroom < admissible", "float"),
    ("offer_load", "pending_bytes < SEGMENT_BYTES", "float"),
    ("offer_load", "int(", "int"),
    ("_Engine._contend", "t < self.busy_until", "ns"),
    ("_Engine._contend", "start >= self.horizon", "ns"),
    ("_Engine.run", "t >= horizon", "ns"),
    ("_Engine.run", "end < heap[0]", "tuple"),
    ("_Engine.run", "self._on_burst", "burst"),
    ("_Engine.run", "sc.dut_flow_id", "burst"),
    ("_Engine._on_ampdu_end", "q[0]", "deque"),
    ("backoff_draw", "rng.getrandbits", "rng"),
)


def family(opname: str) -> str | None:
    for fam in FAMILIES:
        if opname == fam or opname.startswith(fam + "_"):
            return fam
    return None


def warm(src: Path):
    """Import twtsim from ``src``, run the warm-up, and return the functions to read."""
    sys.path.insert(0, str(src))
    from twtsim import macsim, paper_setup, transport

    tpl = paper_setup()
    macsim.run_sim(replace(tpl.session_scenario(30, 4, "cbr", 1), record_cwnd=True))
    macsim.run_sim(tpl.phase1_scenario(20, 1))
    methods = [f for name, f in vars(macsim._Engine).items()
               if isinstance(f, FunctionType) and name != "__init__"]
    return [*methods, macsim.backoff_draw, macsim.aggregate_ns, transport.on_ack,
                    transport.offer_load]


def mark(fn, ins, text: str) -> str | None:
    """The key of the site's mark in INHERENT or LEFT, or None."""
    fam = family(ins.opname)
    if fam == "BINARY_OP" and ins.opname == fam and ins.argrepr.rstrip("=") in ("%", "//", "/"):
        return "op"
    if fam == "COMPARE_OP" and ins.opname == fam:
        return "value"
    for qualname, fragment, key in SITES:
        if qualname == fn.__qualname__ and fragment in text:
            return key
    return None


def generic_sites(fn):
    """The instructions of ``fn``'s generic sites, or None if it never ran."""
    code = list(dis.get_instructions(fn, adaptive=True, show_caches=True))
    if not any(ins.opname.endswith("_ADAPTIVE") or family(ins.opname) not in (None, ins.opname)
               for ins in code):
        return None  # never quickened: it did not run often enough
    sites = []
    for i, ins in enumerate(code):
        fam = family(ins.opname)
        if fam is None:
            continue
        if ins.opname == fam + "_ADAPTIVE":
            counter = int(code[i + 1].argrepr.partition(": ")[2] or 0)
            if counter:  # zero only before the site's first run
                sites.append(ins)
        elif ins.opname == fam:
            sites.append(ins)  # quickening made it adaptive: 3.11 set it back for good
    return sites


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on an unmarked generic site or a function that did not run")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src")
    args = parser.parse_args()
    if sys.version_info[:2] != (3, 11):
        print(f"specialization.py reads CPython 3.11's instruction names, not "
              f"{sys.version.split()[0]}'s", file=sys.stderr)
        return 2
    fns = warm(args.src)
    unmarked = not_run = 0
    for fn in fns:
        sites = generic_sites(fn)
        if sites is None:
            print(f"{fn.__qualname__}: did not run")
            not_run += 1
            continue
        lines, first = inspect.getsourcelines(fn)
        for ins in sites:
            line = ins.positions.lineno
            key = mark(fn, ins, lines[line - first])
            note = (f"inherent: {INHERENT[key]}" if key in INHERENT
                    else f"left: {LEFT[key]}" if key in LEFT else "UNMARKED")
            unmarked += key is None
            print(f"{line:5} {fn.__qualname__:22} {ins.opname:24} {ins.argrepr:16} {note}")
    print(f"{unmarked} unmarked generic site(s), {not_run} function(s) that did not run")
    return 1 if args.check and (unmarked or not_run) else 0


if __name__ == "__main__":
    sys.exit(main())
