"""The benchmark's layer trace patches twtsim functions by (module, name).

Installing it raises when a rename or deletion drops one of those names, so
this test fails before the benchmark does.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_layer_trace_installs_and_restores():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers

        tracer = layers.Tracer()
        try:
            tracer.install()
        finally:
            tracer.close()  # a partial install must not leak into later tests
    finally:
        sys.path.remove(str(PERFBENCH))
