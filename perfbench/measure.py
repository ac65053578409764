"""Speed sampling, the tail percentile and the frontier reach.

The machine this benchmark was built on changes speed by up to 1.8x in
phases of 10-20 s (other tenants share its cores), and every timing moves
with it.  So while units run, a SIGALRM handler times a fixed calibration
loop every ``SAMPLE_PERIOD_S``, sampling the interpreter's speed uniformly
in time, also in the middle of long units.  A unit's time is reported in
reference seconds: its wall time, less the handler's own time, multiplied
by ``CALIBRATION_REF_S`` over the median calibration time during the unit.
At the reference speed the two agree; raw wall times are kept beside them.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

SAMPLE_PERIOD_S = 0.05
# calibrate() takes this long at the reference speed: the median over
# several minutes on the 2-core Xeon the benchmark was built on.
CALIBRATION_REF_S = 0.00045
MIN_SAMPLES = 21  # about 1 s of samples around a short unit


def calibrate() -> float:
    """Wall time of a fixed pure-Python integer loop."""
    start = time.perf_counter()
    s = 0
    for i in range(5000):
        s += i * i % 7
    return time.perf_counter() - start


class SpeedSampler:
    """Samples calibrate() every SAMPLE_PERIOD_S while started."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.durations.append(calibrate())
        self.starts.append(start)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def unit(self, start: float, end: float) -> tuple[float, float]:
        """(seconds, factor) for a unit that ran from start to end: its wall
        time less the sampling inside it, and the reference-speed factor
        from the samples inside it, or the MIN_SAMPLES nearest ones."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        seconds = (end - start) - sum(self.durations[lo:hi])
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.starts, (start + end) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.starts) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        window = self.durations[lo:hi]
        factor = CALIBRATION_REF_S / statistics.median(window) if window else 1.0
        return seconds, factor


def tail(values: list[float], beyond: int = 10) -> tuple[float, int, int]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns (value, percentile, samples above it).  With ``beyond`` or fewer
    samples there is no such percentile; the maximum is returned, labelled
    100, with 0 samples above.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        return xs[-1], 100, 0
    rank = n - beyond  # 1-based; exactly ``beyond`` samples rank above it
    return xs[rank - 1], math.floor(100 * rank / n), beyond


def reach(degrees: list[int], seconds: list[float], limit: float) -> float:
    """Degree at which the solve time crosses ``limit`` seconds.

    log(time) is interpolated linearly between measured degrees; past the
    last (or before the first) measured degree the line through the two
    nearest points is extended.  Takes the last crossing, so the answer is
    the largest degree still within the limit.
    """
    pts = sorted(zip(degrees, seconds))
    if len(pts) < 2:
        raise ValueError("reach needs at least two measured degrees")
    logs = [(d, math.log(t)) for d, t in pts]
    target = math.log(limit)
    seg = len(logs) - 2  # extrapolate from the last two by default
    for i in range(len(logs) - 1, 0, -1):
        if logs[i - 1][1] <= target < logs[i][1]:
            seg = i - 1
            break
    else:
        if logs[0][1] > target:
            seg = 0
    (d0, y0), (d1, y1) = logs[seg], logs[seg + 1]
    if y1 == y0:
        raise ValueError("flat timings give no crossing")
    return d0 + (target - y0) * (d1 - d0) / (y1 - y0)

