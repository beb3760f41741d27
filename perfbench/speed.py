"""Machine-speed normalisation for wall times taken on a shared host.

On the reference machine (2 vCPUs on a shared host) the throughput of a
single core swings by up to 2x over seconds, with no steal time reported,
so raw wall-time medians of separate runs spread by 20-35 %.  While a
benchmark child runs, a SIGALRM handler times a fixed calibration kernel
(small numpy distance passes plus Python float arithmetic, independent of
altproj) every PERIOD_S on the same CPU.  An interval's normalised time is
its wall time minus the handler time inside it, scaled by REFERENCE_S over
the trimmed mean kernel time sampled in and next to it: the seconds the
code would take at the speed where the kernel takes REFERENCE_S.
"""

import math
import signal
import statistics
import time

import numpy as np

#: Kernel time at the reference speed (a quiet period of the reference machine).
REFERENCE_S = 1.0e-3
#: Sampling period while timed code runs; each sample costs about 1 % of it.
PERIOD_S = 0.1

_CLOUD = np.linspace(0.0, 1.0, 1024).reshape(512, 2)


def _kernel() -> float:
    s = 0.0
    for i in range(24):
        s += float(np.sqrt(((_CLOUD - _CLOUD[i]) ** 2).sum(axis=1)).min())
        for j in range(60):
            s += math.sin(j * 0.01) * j
    return s


def _sample(samples: list) -> None:
    t0 = time.monotonic()
    _kernel()
    samples.append((t0, time.monotonic() - t0))


class SpeedSampler:
    """Kernel-time samples taken every PERIOD_S between `start` and `stop`.

    Owns SIGALRM while running.  Timestamps are `time.monotonic()`, which is
    system-wide on Linux, so an interval may begin in the parent process.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def start(self) -> None:
        _sample(self.samples)
        signal.signal(signal.SIGALRM, lambda signum, frame: _sample(self.samples))
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        _sample(self.samples)

    def normalise(self, begin: float, end: float) -> float:
        """Wall time of [begin, end] less the samples inside it, at reference speed."""
        during = sum(d for t, d in self.samples if begin <= t < end)
        near = sorted(d for t, d in self.samples if begin - PERIOD_S <= t < end + PERIOD_S)
        # A sample the OS interrupted reads many times too slow; trim a tenth at each end.
        cut = len(near) // 10
        return (end - begin - during) * REFERENCE_S / statistics.fmean(near[cut:len(near) - cut])
