"""Host speed probe: scales measured times to a reference speed.

On a shared host the same Python code runs up to twice as slow for a
minute or more while neighbours load the machine; the slowdown is in the
processor itself (no steal time, processor time tracks wall time) and hits
interpreted code evenly.  The probe times a fixed pure-Python kernel, which
calls no fglab code, every ``INTERVAL`` seconds during a measured run, from
a SIGALRM handler in the one benchmark thread.  An op's time is then scaled
by the mean of REF_S / kernel time over the probes taken while it ran (and
WINDOW seconds either side), i.e. reported in seconds at the speed at which
the kernel takes REF_S.  Probe time inside an op is taken out of its time.

A change to fglab moves the scaled times as it moves the raw ones, because
the kernel does not depend on fglab; what the scaling removes is the host's
speed.  The collector is paused while the kernel runs, and the kernel runs
once untimed before it is timed, so that neither a larger fglab heap nor
the caches fglab left behind slow the timed kernel.
"""

from __future__ import annotations

import gc
import signal
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

#: seconds the kernel takes on the 2-vCPU VM the benchmark was written on,
#: CPython 3.11.7, in a quiet period of the host
REF_S = 0.00055
INTERVAL = 0.05
WINDOW = 0.25
_MOD = 5 ** 20
_POLY = {(i, j): 7 * i + 3 * j + 1 for i in range(7) for j in range(7 - i)}


def kernel():
    """A dense 2-variable product with coefficients mod 5^20 over a dict of
    exponent tuples, and a short Fraction sum: the dict, tuple, big-integer
    and small-object work that fglab's series and rational code does."""
    for _ in range(3):
        out = {}
        for (i1, j1), c1 in _POLY.items():
            for (i2, j2), c2 in _POLY.items():
                if i1 + i2 + j1 + j2 <= 10:
                    k = (i1 + i2, j1 + j2)
                    out[k] = (out.get(k, 0) + c1 * c2) % _MOD
    s = Fraction(0)
    for i in range(1, 40):
        s += Fraction(1, i)
    return out, s


class SpeedProbe:
    """Kernel timings over a run: arm() starts the periodic probe, disarm()
    stops it, sample() takes one probe at once."""

    def __init__(self):
        self.at = array("d")        # probe midpoints, perf_counter seconds
        self.ratio = array("d")     # REF_S / kernel time
        self.spent = 0.0            # seconds spent in probes
        self._old = None

    def sample(self):
        """Run the kernel once to bring it into the caches, then time it."""
        start = perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        kernel()
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        if enabled:
            gc.enable()
        self.at.append((t0 + t1) / 2)
        self.ratio.append(REF_S / (t1 - t0))
        self.spent += perf_counter() - start

    def _tick(self, signum, frame):
        self.sample()

    def arm(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def disarm(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._old is not None:
            signal.signal(signal.SIGALRM, self._old)
            self._old = None

    def factor(self, t0, t1):
        """Mean REF_S / kernel time over the probes in [t0, t1], widened by
        WINDOW seconds either side."""
        lo = bisect_left(self.at, t0 - WINDOW)
        hi = bisect_right(self.at, t1 + WINDOW)
        if hi <= lo:
            raise RuntimeError(f"no speed probe between {t0:.3f} and "
                               f"{t1:.3f} s")
        return sum(self.ratio[lo:hi]) / (hi - lo)
