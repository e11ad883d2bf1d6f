"""Calibration against a fixed reference task timed between ops.

The machine this benchmark was built on is shared: over a hundred seconds
the same N = 20 search took 0.15 s to 0.26 s and the same `whsic` command
0.55 s to 0.82 s, with every kind of work slowing alike for tens of seconds
at a time. A reference task that uses no whsic code is timed between ops,
and the run's time metrics are scaled to the reference's nominal speed:

    calibrated = measured * nominal_s / median(reference times in the run)

Timed in alternation with those ops, the ratio op / reference moved 4 to 5
times less than the ops themselves, with a pure-Python loop as the
reference for in-process ops and a bare `python -c "import numpy"` for
`whsic` processes. No change to whsic can move either reference.
Set-up time, mostly imports, is scaled by process-start references timed
between the set-ups.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time


def python_loop() -> None:
    acc = 0
    for i in range(200_000):
        acc += i % 7


def interpreter_start(env: dict | None = None) -> None:
    subprocess.run([sys.executable, "-c", "import numpy"], env=env,
                   capture_output=True, check=True)


# Nominal times of the two references on the reference machine when quiet.
LOOP_NOMINAL_S = 0.01
START_NOMINAL_S = 0.12


class Calibrator:
    def __init__(self, reference, nominal_s: float, every_s: float):
        self.reference = reference
        self.nominal_s = nominal_s
        self.every_s = every_s
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._last = -float("inf")

    def sample(self, force: bool = False) -> None:
        """Time the reference if `every_s` has passed since the last time."""
        t0 = time.perf_counter()
        if not force and t0 - self._last < self.every_s:
            return
        self.reference()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)
        self.spent_s += self._last - t0

    def factor(self) -> float:
        """nominal_s over the median reference time: below 1 when slow."""
        return self.nominal_s / statistics.median(self.samples)
