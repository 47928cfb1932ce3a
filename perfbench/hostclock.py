"""Job time at a fixed host speed, measured where the job runs.

On a shared 2-vCPU VM the speed at which one process runs Python drifts by
up to 2.4x within minutes: identical `paper_episode` jobs took 11-27 s, so
raw wall time cannot resolve a 25 % change.  A loop timed in another process,
on the other vCPU, does not follow the drift, so the clock samples host
speed in the job's own thread.  Every INTERVAL_S of wall time a SIGALRM
handler runs the probe, and the clock runs it once more at the start and at
the end of the region.  The probe does PROBE_LOOKUPS dict lookups in
shuffled order into a table of TABLE_SIZE integer keys (about 20 MB).  That
is memory-bound like the jobs, and it follows their slowdowns more closely
than an arithmetic loop does.

`ref_s` is the region's wall time less the probes, times the mean sampled
speed.  The speed is PROBE_REF_S over the probe's time, so `ref_s` is in
seconds on a host that runs the probe in PROBE_REF_S.  The correction is
partial: the jobs still slow more than the probe (see perfbench/README.md,
"Measured spread"), but ten-seed spreads fell from 0.14-0.29 raw to
0.05-0.10.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

TABLE_SIZE = 300_000
PROBE_LOOKUPS = 5_000
PROBE_REF_S = 0.002
INTERVAL_S = 0.1


class HostClock:
    """Times regions in wall and reference seconds.  Build one per process,
    outside any timed region, and enter it once per region."""

    def __init__(self) -> None:
        rng = random.Random(0)
        keys = [rng.getrandbits(60) for _ in range(TABLE_SIZE)]
        self._table = {k: k for k in keys}
        rng.shuffle(keys)
        self._keys = tuple(keys)  # a tuple of ints drops out of the garbage collector's scans
        self._next = 0
        self.probes: list = []
        self.wall_s = 0.0

    def probe(self) -> float:
        start = time.perf_counter()
        table, total = self._table, 0
        for key in self._keys[self._next:self._next + PROBE_LOOKUPS]:
            total += table[key]
        elapsed = time.perf_counter() - start
        self._next = (self._next + PROBE_LOOKUPS) % (TABLE_SIZE - PROBE_LOOKUPS)
        return elapsed

    def _sample(self, signum=None, frame=None) -> None:
        self.probes.append(self.probe())

    def __enter__(self) -> "HostClock":
        self.probes.clear()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.siginterrupt(signal.SIGALRM, False)  # system calls in the job restart
        self._sample()
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall_s = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    @property
    def speed(self) -> float:
        """Mean host speed over the last region, relative to the reference."""
        return statistics.fmean(PROBE_REF_S / p for p in self.probes)

    @property
    def ref_s(self) -> float:
        in_region = sum(self.probes[1:-1])
        return (self.wall_s - in_region) * self.speed
