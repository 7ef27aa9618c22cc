"""Host-speed calibration for the benchmark's timings.

The shared 2-core hosts this benchmark runs on change speed by up to 1.6x,
for seconds to minutes at a time, and the program's own CPU time moves
with wall time, so the drift is the host's, not scheduling.  Each timing
is therefore taken between two runs of a fixed pure-Python probe and
scaled by REFERENCE_S / probe time.  The probe does the same kind of work
as the program's kernel (tuple arithmetic, dict lookups, BFS bookkeeping),
so a slower host stretches both by about the same factor.  It cannot
follow a change within one op; across runs it removes most of the drift.
Raw wall times are kept in the result file beside the scaled ones.
"""

import time

# probe time on the reference host (Intel Xeon, Python 3.11, fast phase);
# scaled timings read as seconds on that host
REFERENCE_S = 0.0055
PROBE_REPEATS = 3

_LAMPS = 8


def _mul(a, b):
    # (Z/2)^8 lamps with a Z/8 shift acting on the right factor
    t = a[_LAMPS]
    out = [0] * (_LAMPS + 1)
    for j in range(_LAMPS):
        out[j] = (a[j] + b[(j + t) % _LAMPS]) % 2
    out[_LAMPS] = (t + b[_LAMPS]) % _LAMPS
    return tuple(out)


def _closure():
    ident = (0,) * (_LAMPS + 1)
    gens = [tuple(1 if i == 0 else 0 for i in range(_LAMPS + 1)),
            (0,) * _LAMPS + (1,)]
    seen = {ident: 0}
    order = [ident]
    head = 0
    while head < len(order):
        cur = order[head]
        for g in gens:
            nxt = _mul(cur, g)
            if nxt not in seen:
                seen[nxt] = len(order)
                order.append(nxt)
        head += 1
    return len(order)


def probe():
    """Fastest of PROBE_REPEATS timed probe runs, in seconds."""
    best = None
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        if _closure() != (1 << _LAMPS) * _LAMPS:
            raise RuntimeError("calibration probe computed a wrong order")
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


class Clock:
    """Times work between probes and scales it to the reference host.

    Call lap() before the first timed item and after each one; an item is
    scaled by the mean of the probes on either side of it.
    """

    def __init__(self):
        self.last = probe()
        self.probes = [self.last]

    def factor(self, before, after):
        return REFERENCE_S / ((before + after) / 2)

    def scale(self, seconds, before, after):
        return seconds * self.factor(before, after)

    def lap(self):
        """Probe now; returns (probe before, probe after) for the last item."""
        before, self.last = self.last, probe()
        self.probes.append(self.last)
        return before, self.last
