"""Machine-speed sampler, so that timings are scaled to one reference speed.

On a shared virtual machine the speed of a CPU-bound interpreter changes by a
factor of up to 1.7 within seconds, and stays changed for seconds or tens of
seconds: a fixed loop that takes 2.0 ms at one moment takes 3.5 ms the next,
with no steal time visible to the guest.  A large-graph operation lasts
seconds, so probes taken between operations miss most of those changes.

``Sampler`` therefore samples the speed *during* the timed work: an interval
timer interrupts the process every ``INTERVAL_S`` of wall time, and the signal
handler runs ``probe`` (a fixed piece of pure-Python work in the style of the
package: tuple-keyed dicts, neighbour lookups, float distances, a sort) and
records how long it took.  If the machine runs at speed s(t), the work done in
[a, b] is the integral of s, so the time that work would take at the
reference speed is (b - a) times the mean of ``REF_PROBE_S / probe time`` over
the samples in [a, b].  The handler's own time is subtracted first.  The
overhead is the handler's share of wall time, about 2 %.

The handler runs between bytecodes of the main thread and touches nothing of
the program.  Interval timers are not inherited by child processes.
"""

from __future__ import annotations

import math
import signal
import time
from array import array
from bisect import bisect_left, bisect_right

INTERVAL_S = 0.02
# Duration of one probe at the reference speed: about its time on a 2.1 GHz
# shared-host vCPU (CPython 3.11) when the host is quiet.  Every scaled
# timing is the wall time the same work would take on a machine where the
# probe takes this long.
REF_PROBE_S = 0.00025

_STEPS = ((1, 0), (0, 1), (-1, 1))
_SQRT3_2 = math.sqrt(3.0) / 2.0


def probe() -> int:
    """Fixed pure-Python work: unit edges of a small lattice patch."""
    pts = {}
    for i in range(192):
        m, n = i % 16, i // 16
        pts[(m, n)] = (m + 0.5 * n, _SQRT3_2 * n)
    e = 0
    for (m, n), (x, y) in pts.items():
        for dm, dn in _STEPS:
            q = pts.get((m + dm, n + dn))
            if q is not None and abs(math.hypot(q[0] - x, q[1] - y) - 1.0) < 1e-9:
                e += 1
    return e + len(sorted(pts, key=lambda k: (k[1], -k[0])))


class Sampler:
    """Speed samples over the lifetime of ``start`` .. ``stop``.

    ``scaled(a, b)`` is the wall time of [a, b] (both ``time.perf_counter``
    readings) minus the handler's time in it, scaled to the reference speed.
    A disabled sampler takes no samples and returns plain wall time.
    """

    def __init__(self, enabled: bool = True, interval: float = INTERVAL_S):
        self.enabled = enabled
        self.interval = interval
        self.at = array("d")      # perf_counter when each sample began
        self.cost = array("d")    # handler time of each sample
        self.factor = array("d")  # REF_PROBE_S / probe time
        self._saved = None

    def _handler(self, signum, frame):
        clock = time.perf_counter
        t0 = clock()
        probe()
        t1 = clock()
        self.at.append(t0)
        self.factor.append(REF_PROBE_S / (t1 - t0))
        self.cost.append(clock() - t0)

    def start(self) -> None:
        if not self.enabled:
            return
        self._saved = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        if not self.enabled or self._saved is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._saved)
        self._saved = None

    def scaled(self, a: float, b: float) -> float:
        if not self.enabled:
            return b - a
        i = bisect_left(self.at, a)
        j = bisect_right(self.at, b)
        own = sum(self.cost[i:j])
        # an interval shorter than the sampling step borrows its neighbours
        lo, hi = max(i - 1, 0), min(j + 1, len(self.at))
        if hi <= lo:
            return b - a - own
        factors = self.factor[lo:hi]
        return (b - a - own) * (sum(factors) / len(factors))

    def mean_probe_s(self) -> float:
        """Mean probe time over all samples, for the log line."""
        if not self.factor:
            return float("nan")
        return REF_PROBE_S * len(self.factor) / sum(self.factor)
