"""Machine-speed calibration: a fixed kernel timed every half second.

The benchmark runs on a shared 2-core host whose speed drifts smoothly by
up to 50 % over seconds to minutes.  While a phase runs, an interval timer
interrupts it every EVERY_S and times a fixed kernel, inside ops as well
as between them.  `clock()` stands still while the kernel runs, so op and
span times measured with it leave the kernel out.  Each op's time is then
multiplied by REFERENCE_S over the median kernel time sampled during the
op and 1.5 s on either side of it, so reported times read as if the
host ran at the speed where the kernel takes REFERENCE_S.  The raw times
are kept in the run's details file.

Each workload's kernel repeats the kind of work that dominates its ops,
because the drift hits Python loops, small numpy reductions and
multi-threaded, memory-bound BLAS products by different amounts:

rotations   a Python loop of scalar Jacobi-like rotations on a 9x9 array
gather      int16 tables of the 6561 outcome tuples of one party, built by
            fancy-index gathers and reduced by max/sum
objects     dict, set, sort and JSON work on small tuples, as in formatting
tables      sums of three of 24 int16 (6561, 8, 3) tables, reduced by max/sum
histogram   one chunk of the strategy histogram: a float32 (729 x 24) by
            (24 x 6561) product, cast to int64 and bincounted (57 MB)

The kernels owe nothing to s4bell, so no change to the library moves them.
"""

import contextlib
import itertools
import json
import math
import signal
import statistics
import time

import numpy as np

KERNELS = {
    "analyze": ("rotations", "gather", "objects"),
    "verify": ("histogram",),
    "scan": ("tables",),
}
# Kernel times, in seconds, that define reference speed.  They were chosen
# so that reported times match raw times at the median speed of the host
# the benchmark was written on (2-core Xeon at 2.0 GHz, Python 3.11.7,
# numpy 2.4.6 with 2 OpenBLAS threads).
REFERENCE_S = {"analyze": 0.0056, "verify": 0.0306, "scan": 0.0022}
EVERY_S = 0.5
REPEATS = 3
HALF_WINDOW_S = 1.5


class Calibration:
    """Kernel timings of one run phase, and the clock that excludes them."""

    def __init__(self, workload):
        # Fixed, irregular inputs; np.random is avoided as importing it
        # would add megabytes to the process.
        sym = np.cos(np.arange(81.0)).reshape(9, 9)
        self._sym = sym + sym.T
        self._counts = (np.arange(24 * 6561 * 24, dtype=np.int16) % 7 % 4).reshape(24, 6561, 8, 3)
        self._turn = 0
        self._profiles = np.array(list(itertools.product(range(3), repeat=8)), dtype=np.int8)
        self._terms = (np.arange(24 * 24, dtype=np.int16) % 3).reshape(8, 3, 8, 3)
        self._left = (np.arange(729 * 24) % 5 % 3).astype(np.float32).reshape(729, 24)
        self._right = (np.arange(24 * 6561) % 3 % 2).astype(np.float32).reshape(24, 6561)
        self._kernels = [getattr(self, f"_{name}") for name in KERNELS[workload]]
        self._reference = REFERENCE_S[workload]
        self.samples = []  # kernel seconds, median of REPEATS
        self.at = []  # clock() reading when each sample was taken
        self.paused = 0.0  # seconds spent sampling so far

    def _rotations(self):
        a = self._sym.copy()
        for k in range(200):
            p, q = k % 8, k % 8 + 1
            t = 1.0 / (abs(a[q, q] - a[p, p]) + math.hypot(1.0, a[p, q]))
            c = 1.0 / math.hypot(1.0, t)
            s = t * c
            col = a[:, p].copy()
            a[:, p] = c * col - s * a[:, q]
            a[:, q] = s * col + c * a[:, q]
        return float(a[0, 0])

    def _gather(self):
        m = np.zeros((len(self._profiles), 8, 3), dtype=np.int16)
        for s in range(8):
            m += self._terms[s][self._profiles[:, s]]
        return int(m.max(axis=2).sum(axis=1).max())

    def _objects(self):
        cells = {}
        for i in range(300):
            cells.setdefault((i % 8, i % 3), set()).add((i % 5, i % 7))
        report = {f"{s},{t}": sorted(f"{a}{b}" for a, b in v) for (s, t), v in cells.items()}
        return len(json.dumps(report, sort_keys=True, indent=2))

    def _tables(self):
        # Successive calls walk all 24 tables (7.5 MB), as the scan loop does.
        k = self._turn = (self._turn + 7) % len(self._counts)
        total = self._counts[k].copy()
        total += self._counts[(k + 5) % len(self._counts)]
        total += self._counts[(k + 11) % len(self._counts)]
        return int(total.max(axis=2).sum(axis=1).max())

    def _histogram(self):
        block = self._left @ self._right
        return int(np.bincount(block.astype(np.int64).ravel()).argmax())

    def clock(self):
        """perf_counter() minus the time spent sampling."""
        while True:
            paused = self.paused
            now = time.perf_counter()
            if paused == self.paused:  # no sample ran between the two reads
                return now - paused

    def sample(self, *_):
        """Time the kernel once (REPEATS runs, median)."""
        begin = time.perf_counter()
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            for kernel in self._kernels:
                kernel()
            times.append(time.perf_counter() - start)
        self.samples.append(statistics.median(times))
        self.at.append(begin - self.paused)
        self.paused += time.perf_counter() - begin

    @contextlib.contextmanager
    def running(self):
        """Sample at the start, every EVERY_S while the block runs, and at
        the end.  The samples run in a SIGALRM handler, between bytecodes
        of whatever the main thread is doing."""
        self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.sample()

    def factors(self, spans):
        """Per (start, end) clock() interval, the factor that turns a time
        measured in it into a time at reference speed: REFERENCE_S over the
        median kernel time sampled within HALF_WINDOW_S of the interval."""
        at = np.array(self.at)
        out = []
        for start, end in spans:
            lo, hi = np.searchsorted(at, [start - HALF_WINDOW_S, end + HALF_WINDOW_S])
            lo = min(lo, len(at) - 1)
            hi = max(hi, lo + 1)
            out.append(self._reference / statistics.median(self.samples[lo:hi]))
        return out
