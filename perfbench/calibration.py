"""A fixed unit of pure-Python work that rescales times to one CPU speed.

The benchmark shares a few vCPUs of a host whose speed drifts by up to 2x
for minutes at a time (other tenants, clock changes), which no run length
averages out; it flips between a fast and a slow state within a second.
So the benchmark times this reference unit in the same process before
each command it times and, from a SIGALRM handler, every ``INTERVAL_S``
of wall time inside the command. It takes the reference's time out of the
command's and scales the rest by ``NOMINAL_S / mean reference time``:
every gated time is "seconds at the speed where the reference takes
``NOMINAL_S``". The reference uses only the standard library (JSON,
regex, sorting, dicts), so a change to mathgrid moves it only through the
caches that mathgrid leaves it (inside a command it reads slower than
between commands); the record keeps every raw time beside the scaled one.
"""

from __future__ import annotations

import contextlib
import gc
import json
import random
import re
import signal
import time

# A round figure near the reference's time on a 2-vCPU Xeon VM with
# Python 3.11, where it was seen to take 7.5 to 14 ms.
NOMINAL_S = 0.010
# One reference unit per this much wall time: about a tenth of the time.
INTERVAL_S = 10 * NOMINAL_S

_rng = random.Random(0)
_DOC = [
    {
        "id": f"ex{i}",
        "vals": [_rng.randint(0, 999) for _ in range(12)],
        "text": " ".join(str(_rng.random()) for _ in range(8)),
    }
    for i in range(600)
]
_PATTERN = re.compile(r"\d+\.(\d{3})")
_EXPECTED = None


def reference_s() -> float:
    """Time one reference unit; fail if it computes something else."""
    global _EXPECTED
    # No collection inside: its cost grows with the heap of the code being
    # measured, which would make a bigger heap read as a faster CPU.
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        back = json.loads(json.dumps(_DOC))
        total = 0
        for doc in back:
            total += sum(sorted(doc["vals"])[3:9])
            total += len(_PATTERN.findall(doc["text"]))
            total += len({k: v for k, v in doc.items()})
        elapsed = time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()
    if _EXPECTED is None:
        _EXPECTED = total
    elif total != _EXPECTED:
        raise RuntimeError("the calibration reference computed a different result")
    return elapsed


class Calibrator:
    """Reference times taken before and during the timed work, and the
    time they took (``spent_s``), for the caller to take out of its own."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0
        self.in_commands = True  # off in traced passes: samples would land in spans
        self._sampling = False

    def sample(self) -> None:
        if self._sampling:  # an alarm during a sample
            return
        self._sampling = True
        start = time.perf_counter()
        try:
            self.samples.append(reference_s())
        finally:
            self.spent_s += time.perf_counter() - start
            self._sampling = False

    @contextlib.contextmanager
    def running(self):
        """Sample every INTERVAL_S of wall time until the block ends.
        Main thread only, as Python runs signal handlers there."""
        if not self.in_commands:
            yield
            return
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def take(self) -> list[float]:
        samples, self.samples = self.samples, []
        return samples
