"""Host speed gauge: time a fixed pure-Python reference workload.

On a shared 2-vCPU virtual machine the same work ran 1.0x to 1.7x slower
from minute to minute, which swamps differences between two versions of
the program.  The benchmark therefore times `reference_work` next to the
measured work and reports timings scaled to a host on which it takes
REF_S seconds:

    scaled time = measured time * REF_S / measured reference time

The gauge runs in a sibling interpreter that never imports orbhilb, so
nothing the program does to its own interpreter (hooks, threads, garbage
collector settings) can change the gauge.  run.py pins itself to one CPU
before starting any child, so the gauge and the workload share that CPU.

    python3 bench/calib.py      # serve: one timing per line read on stdin
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from fractions import Fraction

REF_S = 0.012


def reference_work() -> int:
    """Fraction, dict and integer churn, like the library's inner loops."""
    acc: dict[int, Fraction] = {}
    for i in range(1, 1200):
        f = Fraction(i, 7) * Fraction(3, i + 1) + Fraction(1, i)
        acc[i % 37] = acc.get(i % 37, 0) + f
    s = 0
    for i in range(40000):
        s += i * i % 7
    return s + len(acc)


def pin_to_current_cpu() -> None:
    """Restrict this process (and children started later) to the CPU it is on."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError, AttributeError):
        pass  # no pinning where the platform does not offer it


class SpeedGauge:
    """A sibling interpreter that times reference_work on request."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )

    def sample(self) -> float:
        """Measured reference time divided by REF_S (above 1: host is slower)."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("speed gauge exited")
        return float(line) / REF_S

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "SpeedGauge":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve() -> None:
    reference_work()  # warm up
    for _ in sys.stdin:
        start = time.perf_counter()
        reference_work()
        print(time.perf_counter() - start, flush=True)


if __name__ == "__main__":
    serve()
