"""Machine-speed probe and quantile estimator for the benchmark.

In-process requests.  The CPU speed of a shared machine drifts: on a
shared 2-core Linux VM (Python 3.11), the same request cycle took from
7.2 s to 12.7 s within two minutes, and a probe's time moved by a factor
of two within a second.  A fixed exact-arithmetic probe slows down with the machine, so the
benchmark times it right before and right after every request and, for
in-process requests, also every SAMPLE_EVERY_S of CPU time inside the
request (from a SIGPROF handler).  A request's time is scaled by
REFERENCE_PROBE_S over the mean of those readings, which gives its time at
the probe's reference speed.  On that VM the scaling cut the
coefficient of variation of repeated heavy requests from 17-20 % (raw) to
3-4 %; before-and-after probes alone reached 8-15 %.  The probe
is the benchmark's own code, so it does not move when the program changes.

One-process-per-request (cli-cold) requests.  Their time is mostly process
start-up, which the probe above did not track.  They are scaled instead by
REFERENCE_START_S over the mean wall time of a bare interpreter start
(``python -c pass``, same environment) just before and just after the
request.  On that VM this cut the range of 25-request means from 13 % of
their mean to 7 %.  Interpreter start-up is outside the program, so a
change to uhfree's own import or work still shows in full.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
import time
from fractions import Fraction

PROBE_TERMS = [Fraction(i + 1, i + 3) for i in range(8)]
# Time of one probe at the reference speed: the quick state of the VM above,
# so scaled times read close to its wall times.
REFERENCE_PROBE_S = 1.8e-4
SAMPLE_EVERY_S = 0.01
PROBES_PER_READING = 15
# Wall time of ``python -c pass`` at the reference speed, same VM.
REFERENCE_START_S = 0.065


def probe() -> float:
    """Time of a fixed batch of Fraction products, with the collector off.

    With the collector off, garbage the program left behind is not
    collected inside the probe and charged to the machine.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for x in PROBE_TERMS:
            for y in PROBE_TERMS:
                x * y + y
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def reading() -> float:
    """Median of PROBES_PER_READING probes."""
    return statistics.median(probe() for _ in range(PROBES_PER_READING))


class Speed:
    """Scales measured times to the reference speed; see the module docstring."""

    def __init__(self):
        self.samples: list[float] = []
        self.readings: list[float] = []
        signal.signal(signal.SIGPROF, self._on_sample)

    def _on_sample(self, signum, frame):
        self.samples.append(probe())

    def timed(self, fn, sample: bool = False):
        """Run fn() -> (result, seconds); return (result, seconds, seconds scaled).

        With sample set, probes also run inside fn every SAMPLE_EVERY_S of
        this process's CPU time.
        """
        before = reading()
        self.samples = []
        if sample:
            signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            result, elapsed = fn()
        finally:
            if sample:
                signal.setitimer(signal.ITIMER_PROF, 0)
        after = reading()
        speeds = self.samples + [before, after]
        self.readings += speeds
        return result, elapsed, elapsed * REFERENCE_PROBE_S / statistics.fmean(speeds)

    def factor(self, since: int = 0) -> float:
        """Median scale factor over the readings from index `since` on."""
        return REFERENCE_PROBE_S / statistics.median(self.readings[since:])


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile (0 < q < 1).

    A Beta((n+1)q, (n+1)(1-q))-weighted mean of all order statistics.  A
    single order statistic jumps when the fixed request mix puts a gap
    between two kinds of request at the quantile; this estimate moves
    smoothly.  The weights integrate the Beta density over [i/n, (i+1)/n]
    by the midpoint rule.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 32
    total = weight_sum = 0.0
    for i, x in enumerate(xs):
        w = 0.0
        for k in range(steps):
            t = (i + (k + 0.5) / steps) / n
            w += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
        total += w * x
        weight_sum += w
    return total / weight_sum
