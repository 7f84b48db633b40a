"""A reference loop that meters how fast the machine is running right now.

The benchmark box is shared: the same pass over the same inputs runs
anywhere from 60 to 120 sessions per second within minutes, and the
drift is common to all interpreter-bound code. So every timed op is
followed by short slices of this fixed, program-independent loop
(about a quarter of the op's time), and each op's time is divided by
its *speed factor*, read from the slices around it.
A normalised time reads as seconds on a machine that runs one slice in
:data:`NOMINAL_SLICE_S`. The loop mixes the interpreter work the
simulator does (slotted objects, method calls, dict lookups, float
arithmetic, bisection) and keeps a working set of a few kilobytes so
the program's own cache footprint barely moves it.
"""

from __future__ import annotations

import bisect
import gc
import time

#: Iterations per slice, and one slice's time on the nominal machine.
SLICE_ITERATIONS = 3000
NOMINAL_SLICE_S = 0.002
#: Reference time spent after each op, as a share of the op's time.
SHARE = 0.25

_STARTS = [0.5 * i for i in range(1200)]


class _Item:
    __slots__ = ("limit", "half", "tag")

    def __init__(self, limit: float):
        self.limit = limit
        self.half = limit * 0.5
        self.tag = None

    def step(self, t: float) -> float:
        return self.half + t if t < self.limit else self.limit


def _slice() -> float:
    table = {}
    recent = []
    acc = 0.0
    for i in range(SLICE_ITERATIONS):
        table[i & 255] = _Item(float(i))
        item = table.get((i * 7) & 255)
        if item is not None:
            acc += item.step(i * 0.25)
        acc += _STARTS[bisect.bisect_right(_STARTS, (i * 0.37) % 600.0) - 1]
        recent.append(acc)
        if len(recent) > 64:
            recent.clear()
    return acc


class Meter:
    """Reads the machine's speed between ops.

    A reading is the mean slice time over :data:`NOMINAL_SLICE_S`
    (2.0 = running at half the nominal speed). An op's factor is the
    mean of the readings just before and just after it, so a speed
    change during the op is split between both sides.
    """

    def __init__(self, prime_s: float):
        self.readings = [self._read(prime_s)]

    @staticmethod
    def _read(budget_s: float) -> float:
        # The slices make no reference cycles; with the collector off a
        # collection of the program's heap cannot land in a reading.
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            clock = time.perf_counter
            spent = 0.0
            slices = 0
            while True:  # at least one slice
                start = clock()
                _slice()
                spent += clock() - start
                slices += 1
                if spent >= budget_s:
                    return spent / slices / NOMINAL_SLICE_S
        finally:
            if was_enabled:
                gc.enable()

    def after(self, op_s: float) -> float:
        """Read for ``SHARE * op_s``; return the op's speed factor."""
        self.readings.append(self._read(SHARE * op_s))
        return (self.readings[-2] + self.readings[-1]) / 2.0
