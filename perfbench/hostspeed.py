"""Host speed, measured by a fixed slice of pure-Python work.

On a shared host the CPU runs the same code 20-40% slower for stretches
of ten seconds or more, and every kind of work slows together: over 170
seconds the 10-second medians of a 0.14 s resolution moved between 0.111
and 0.165 s while its ratio to a fixed arithmetic loop kept a 3%
coefficient of variation.  Timing slices just before and just after a
timed operation gives the host's speed while it ran, and scaling its
time by REFERENCE_S / (median slice time) expresses it in seconds at
one fixed speed.  The slice mixes the two kinds of work the program
does, GF(p) row operations on lists and tuple/dict traffic, which
tracked the workloads' round times better than either alone.  It is
the benchmark's own code, so a change to the program cannot move it.
"""

import statistics
from time import perf_counter

# median slice time on the host the reference figures come from; it only
# sets the scale of the corrected times
REFERENCE_S = 0.0025
_P = 10007
_N = 24
_KEYS = 3000


def slice_seconds():
    """Time one fixed elimination of a 24x24 matrix mod 10007, then a
    fixed round of tuple keys counted in a dict."""
    t0 = perf_counter()
    rows, x = [], 1
    for _ in range(_N):
        row = []
        for _ in range(_N):
            x = x * 48271 % 2147483647
            row.append(x % _P)
        rows.append(row)
    rank = 0
    for col in range(_N):
        pivot = next((r for r in range(rank, _N) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], _P - 2, _P)
        top = [x * inv % _P for x in rows[rank]]
        rows[rank] = top
        for r in range(_N):
            f = rows[r][col]
            if r != rank and f:
                rows[r] = [(a - f * b) % _P for a, b in zip(rows[r], top)]
        rank += 1
    seen = {}
    for i in range(_KEYS):
        key = (i % 97, i % 89, i // 7)
        seen[key] = seen.get(key, 0) + 1
    sum(1 for k in seen if k[0] <= k[1])
    return perf_counter() - t0


class SpeedProbe:
    """Bursts of slices taken between operations.

    An operation timed between burst b and burst b + 1 is scaled by the
    median slice time of those two bursts, so the correction follows the
    host's speed from one operation to the next.
    """

    BURST = 3
    EVERY_S = 0.25

    def __init__(self):
        self.bursts = []
        self._last = None

    def mark(self, force=False):
        """Take a burst if one is due; return the index of the latest burst."""
        if force or self._last is None or perf_counter() - self._last >= self.EVERY_S:
            self.bursts.append([slice_seconds() for _ in range(self.BURST)])
            self._last = perf_counter()
        return len(self.bursts) - 1

    def factor(self, before):
        """Scale for an operation timed between burst `before` and the next."""
        return REFERENCE_S / statistics.median(self.bursts[before] + self.bursts[before + 1])
