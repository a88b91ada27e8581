"""Host-speed meter: wall time restated at a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts, as
other tenants load the same physical cores: one operation's wall time can
vary by a factor of two within a minute, and user CPU time moves with it.
Wall time alone then measures the host more than the program.

While an operation runs, an interval timer interrupts it every
``INTERVAL_S`` seconds and runs ``probe``, a fixed piece of interpreter work
of the kind the program does (calls, attribute reads, tuples, dicts, float
arithmetic, small numpy arrays). The probes' durations sample the host's
speed during the operation. The operation's wall time, less the time spent
in probes, is then restated at the speed at which one probe takes
``PROBE_REF_S``: it is multiplied by ``PROBE_REF_S`` over the mean probe
duration, raised to ``SENSITIVITY``. The probe is the benchmark's own code,
so a change to the program moves the restated time as it moves the work
done, while a change in host speed moves the program and the probe alike and
largely cancels out.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass

import numpy as np

# Seconds between probes, and the probe duration that defines reference speed:
# about the mean probe duration inside operations on a 2-vCPU 2.0 GHz Xeon
# host, so that reference seconds read close to that host's wall seconds.
INTERVAL_S = 0.1
PROBE_REF_S = 0.0025
# How much more than the probe mplq slows as the host slows. On that host,
# across operations, mplq's wall time grew as the mean probe time to the power
# 1.05-1.3 (fitted over stretches of two minutes); 1.15 lies in the middle.
# The exponent scales only the host's share of a timing, not the program's.
SENSITIVITY = 1.15


@dataclass
class _Point:
    x: float
    y: float


def _leg(a: _Point, b: _Point, speed: float) -> float:
    return ((a.x - b.x) ** 2 + (a.y - b.y) ** 2) ** 0.5 / speed


_POINTS = [_Point(float(i % 7), float(i % 11)) for i in range(48)]
_ROW = np.linspace(0.1, 1.0, 24)
_GRID = np.linspace(0.0, 1.0, 25 * 24).reshape(25, 24)


def _routes(steps: int) -> float:
    """Route timing over fixed points: calls, attribute reads, tuples, dicts, floats."""
    total = 0.0
    seen: dict[tuple[int, int], float] = {}
    for step in range(steps):
        route = tuple(_POINTS[(step * 5 + k * 7) % len(_POINTS)] for k in range(12))
        clock = 0.0
        for a, b in zip(route, route[1:]):
            clock = max(clock + _leg(a, b, 1.5), a.y)
        key = (step % 3, len(route))
        seen[key] = seen.get(key, 0.0) + clock
        total += clock
    return total + len(sorted(seen.values()))


def _choices(steps: int) -> float:
    """Roulette picks and sorts on small numpy arrays, as a Q-learning step makes them."""
    rng = np.random.default_rng(7)
    unused = np.ones(len(_ROW), dtype=bool)
    total = 0
    for _ in range(steps):
        candidates = np.nonzero(unused)[0]
        scores = _ROW[candidates]
        best = int(candidates[int(np.argmax(scores))])
        pick = int(candidates[rng.choice(len(candidates), p=scores / scores.sum())])
        unused[pick] = len(candidates) == 1
        order = np.argsort(_ROW * float(rng.uniform(-1.0, 1.0)), kind="stable")
        total += best + pick + int(rng.integers(len(_ROW))) + int(order[0])
    return total + float(np.abs(_GRID - _GRID[::-1]).max(initial=0.0))


def probe() -> float:
    """A fixed piece of interpreter work; returns a value so nothing is skipped."""
    return _routes(96) + _choices(20)


class SpeedMeter:
    """Samples host speed with ``probe`` while the ``with`` block runs.

    One probe runs on entry and one on exit, outside the block's own timing,
    so that even a block shorter than ``INTERVAL_S`` has samples.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self.in_block_s = 0.0
        self._previous = None

    def _sample(self) -> None:
        start = time.perf_counter()
        probe()
        self.samples.append(time.perf_counter() - start)

    def _on_timer(self, signum, frame) -> None:
        start = time.perf_counter()
        self._sample()
        self.in_block_s += time.perf_counter() - start

    def __enter__(self) -> "SpeedMeter":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def reference_seconds(self, wall_s: float) -> float:
        """``wall_s``, measured inside the block, restated at reference speed."""
        return (wall_s - self.in_block_s) * (PROBE_REF_S / self.probe_s()) ** SENSITIVITY

    def probe_s(self) -> float:
        """Mean probe duration: time-weighted, so a probe stretched by a pause counts fully."""
        return sum(self.samples) / len(self.samples)
