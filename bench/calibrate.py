"""Machine-speed calibration for the end-to-end times.

The shared machine the benchmark runs on changes speed by up to about
2x, from one tenth of a second to the next as well as for minutes at a
time, and process CPU time moves with wall time.  So the benchmark
samples the speed with a fixed unit of pure-Python integer work (this
file's own code, which no change to ``grlat`` can touch): a slice of
``REPS`` units right before and right after every timed interval, and,
while a command runs, one unit every ``INTERVAL_S`` seconds from a
SIGALRM handler (``Probe``).  The handler runs one unit untimed first,
so that its sample, like a slice, is not slowed by the caches the
command left cold.  The interval is then rescaled to the speed at which
one unit takes ``REF_UNIT_S``:

    ref = (wall - probe time) * REF_UNIT_S / mean(unit times)

where the mean runs over the per-unit time of the two slices and every
probe sample.  A change that makes ``grlat`` slower moves ``ref`` as much
as it moves ``wall``; a machine that runs everything slower for a while
moves ``wall`` and leaves ``ref``.  The garbage collector is off while
units run, so a large ``grlat`` heap does not slow them.
"""

import gc
import signal
from time import perf_counter

_N = 8
_MOD = 1_000_003
_START = [[(i * 7 + j * 13 + i * j) % 23 - 11 for j in range(_N)] for i in range(_N)]

REPS = 60  # units per slice, about 9 ms
INTERVAL_S = 0.01  # probe period while a command runs; its two units are ~3% of it
# Median unit time on the machine that recorded baseline.json (2-core
# Xeon VM, Python 3.11.7).  A fixed scale only: it keeps reference times
# near wall times there, and is the same for every commit.
REF_UNIT_S = 0.000145


def _unit():
    """Fixed integer work shaped like grlat's inner loops: fraction-free
    row reduction of an 8 x 8 integer matrix, and dict updates."""
    m = [row[:] for row in _START]
    for c in range(_N):
        piv = next((r for r in range(c, _N) if m[r][c]), None)
        if piv is None:
            continue
        m[c], m[piv] = m[piv], m[c]
        a = m[c][c]
        for r in range(c + 1, _N):
            b = m[r][c]
            if b:
                m[r] = [(a * x - b * y) % _MOD for x, y in zip(m[r], m[c])]
    counts = {}
    for i in range(600):
        k = i * 31 % 977
        counts[k] = counts.get(k, 0) + i
    return m[-1][-1] + len(counts)


def _timed(reps):
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(reps):
            _unit()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def slice_s():
    """Seconds one slice of ``REPS`` units takes now."""
    return _timed(REPS)


class Probe:
    """Context manager that times one warm unit every ``INTERVAL_S``
    seconds of wall time while it is entered; ``samples`` holds the
    unit times and ``spent_s`` the handler's whole time."""

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0

    def _sample(self, signum, frame):
        t0 = perf_counter()
        _timed(1)
        self.samples.append(_timed(1))
        self.spent_s += perf_counter() - t0

    def __enter__(self):
        self.samples = []
        self.spent_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def ref_time(wall, before, after, samples=()):
    """Reference seconds of an interval that took ``wall`` seconds
    without its probe's time, between slices ``before`` and ``after``,
    with probe ``samples`` taken during it."""
    units = [before / REPS, after / REPS, *samples]
    return wall * REF_UNIT_S * len(units) / sum(units)
