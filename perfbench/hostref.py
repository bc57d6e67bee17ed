"""Host-speed reference: a fixed kernel timed next to every measured operation.

The benchmark runs on shared hosts whose speed drifts by tens of percent
within seconds.  Timed work is therefore cut into laps that end at calls the
program makes (a ``run_sim``, a PHY-rate back-solve); at each lap end this
kernel is timed once, and a lap's wall time is multiplied by ``NOMINAL_S``
over the mean kernel time at its two ends, to the power ``SENSITIVITY``.  A
reported second is a second on a host where the kernel takes ``NOMINAL_S``.
The kernel is part of the benchmark, not of twtsim, so a change to the
program cannot move it.

The kernel does random lookups and updates over 400k small dicts, the kind
of pointer-chasing interpreter work the simulator does; it tracks the
simulator's slowdowns better than a tight arithmetic loop.  It runs in its
own process, so that its memory does not count towards the workload's peak
RSS.  The benchmark's child processes (cold set-ups, CLI commands) sample
the same process through inherited pipes while their parent waits, so at
most one process is busy at a time.  All of them are pinned to the CPU the
benchmark started on (``pin_to_current_cpu``): the vCPUs of a shared host
drift independently, by up to half, so a kernel timed on one says little
about another.

    python3 perfbench/hostref.py     # serve: one kernel time per input line
"""

from __future__ import annotations

import ctypes
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager

NOMINAL_S = 0.08  # kernel time on the host the reported seconds refer to
# When the host slows the kernel by a factor f, it slows the simulator by
# about f ** 0.6: least-squares fits over pinned search and CLI runs on a
# 2-vCPU VM gave 0.53 and 0.60
SENSITIVITY = 0.6
ITEMS = 400_000
LOOKUPS = 40_000
MIN_LAP_S = 0.5  # a split sooner than this after the last one is skipped
ENV = "PERFBENCH_HOSTREF"  # "<request fd>,<reply fd>" of a shared reference process


def _table() -> list[dict]:
    rng = random.Random(7)
    return [{"k": i, "v": rng.random(), "s": str(i)} for i in range(ITEMS)]


def kernel(table: list[dict]) -> float:
    """One timed pass of fixed work; returns its wall time in seconds."""
    rng = random.Random(99)
    n = len(table)
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(LOOKUPS):
        d = table[int(rng.random() * n)]
        acc += d["v"]
        d["k"] += 1
    return time.perf_counter() - t0


def serve() -> int:
    table = _table()
    kernel(table)  # warm-up
    print("ready", flush=True)
    for _ in sys.stdin:
        print(repr(kernel(table)), flush=True)
    return 0


class HostRef:
    """A reference process: started here, or shared by the parent through ``ENV``."""

    def __init__(self, shared: str | None = None):
        self.samples: list[float] = []
        self.busy_s = 0.0  # wall time spent sampling
        self._proc = None
        if shared:
            request, reply = (int(fd) for fd in shared.split(","))
            self._request, self._reply = os.fdopen(request, "w"), os.fdopen(reply)
            return
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
        self._request, self._reply = self._proc.stdin, self._proc.stdout
        if self._reply.readline().strip() != "ready":
            self.close()
            raise RuntimeError("host reference process did not start")

    def share(self) -> tuple[dict[str, str], tuple[int, int]]:
        """Environment entry and descriptors that let one child sample this process."""
        fds = (self._request.fileno(), self._reply.fileno())
        return {ENV: f"{fds[0]},{fds[1]}"}, fds

    def sample(self) -> float:
        """Time the kernel once."""
        t0 = time.perf_counter()
        self._request.write("\n")
        self._request.flush()
        value = float(self._reply.readline())
        self.busy_s += time.perf_counter() - t0
        self.samples.append(value)
        return value

    def close(self) -> None:
        if self._proc is not None and self._proc.poll() is None:
            self._request.close()
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()

    def __enter__(self) -> "HostRef":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def pin_to_current_cpu() -> None:
    """Pin this process, and the processes it starts later, to its current CPU."""
    getcpu = getattr(ctypes.CDLL(None), "sched_getcpu", None)  # glibc
    if getcpu is None or not hasattr(os, "sched_setaffinity"):
        return
    os.sched_setaffinity(0, {getcpu()})


def normalise(wall_s: float, ref_s: float) -> float:
    """``wall_s`` measured while the kernel took ``ref_s``, in nominal-host seconds."""
    return wall_s * (NOMINAL_S / ref_s) ** SENSITIVITY


class Stopwatch:
    """Times operations in laps that end at host-reference samples.

    ``start`` and ``stop`` bracket one operation; ``split`` inside it closes
    a lap and takes a sample whose own time is not counted, unless the lap
    is shorter than ``MIN_LAP_S``.  A lap's wall time is normalised by the
    mean of the samples at its two ends.  The last sample of one operation
    is the first of the next.
    """

    def __init__(self, ref: HostRef):
        self.ref = ref
        self.wall_s = self.nominal_s = 0.0
        self._before: float | None = None
        self._t0: float | None = None

    def start(self) -> None:
        if self._before is None:
            self._before = self.ref.sample()
        self.wall_s = self.nominal_s = 0.0
        self._t0 = time.perf_counter()

    def split(self, min_lap_s: float = MIN_LAP_S) -> None:
        if self._t0 is None:  # not inside an operation
            return
        wall = time.perf_counter() - self._t0
        if wall < min_lap_s:
            return
        after = self.ref.sample()
        self.wall_s += wall
        self.nominal_s += normalise(wall, (self._before + after) / 2)
        self._before = after
        self._t0 = time.perf_counter()

    def read(self) -> tuple[float, float]:
        """(wall, nominal) seconds of the operation so far; the open lap is
        normalised by the sample at its start."""
        wall = time.perf_counter() - self._t0
        return self.wall_s + wall, self.nominal_s + normalise(wall, self._before)

    def stop(self) -> tuple[float, float]:
        """End the operation; return its (wall, nominal) seconds."""
        self.split(min_lap_s=0.0)
        self._t0 = None
        return self.wall_s, self.nominal_s

    @contextmanager
    def split_after(self, owner, attr: str):
        """Split the running operation after each call of ``owner.attr``."""
        orig = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            result = orig(*args, **kwargs)
            self.split()
            return result

        setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            setattr(owner, attr, orig)


if __name__ == "__main__":
    sys.exit(serve())
