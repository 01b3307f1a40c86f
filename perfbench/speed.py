"""Machine-speed reference for scaling measured times.

On a shared machine the same code runs tens of percent slower or faster for
seconds to minutes at a time, and CPU time inflates with wall time, so
neither is steady across runs.  A fixed pure-Python loop that does not touch
zerosum (``ref_run``) is timed in the same process while the ops run: from a
timer signal every SAMPLE_EVERY_S in the in-process workloads, so that a long
op is sampled while it runs, and between commands in cli-cache.  An op's
time, net of the sampling, is multiplied by REF_NOMINAL_S over the mean of
the samples taken during it and up to a second either side.  A
scaled time is the time the op would have taken with the reference loop
running at its nominal speed.  Raw times are kept in the raw output.
"""

from __future__ import annotations

import bisect
import signal
import time

# Typical seconds of one ref_sample() on the 2-core machine the baseline was
# measured on (Python 3.11.7).
REF_NOMINAL_S = 0.0030
SAMPLE_EVERY_S = 0.25
# a short op is scaled by the samples within this distance, not by the one
# or two nearest, whose own jitter would dominate
WINDOW_S = 1.0


def ref_run() -> None:
    # set comprehensions, dict updates and int arithmetic, as in the
    # subsequence-sum and search loops
    cur = set(range(0, 600, 7))
    for k in range(1, 10):
        cur = {(x * 31 + k) % 4099 for x in cur} | {x + k for x in cur if x & 1}
    d: dict[int, int] = {}
    for i in range(6000):
        d[i % 97] = d.get(i % 97, 0) + i


def ref_sample() -> float:
    """Least time of three reference runs: an interruption inflates one run,
    while a slow phase of the machine lasts across all three."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        ref_run()
        times.append(time.perf_counter() - t0)
    return min(times)


class Sampler:
    """Reference samples with their times.  In-process workloads take them
    from a timer signal every SAMPLE_EVERY_S, so that a long op is sampled
    while it runs; the cli-cache workload takes them between commands."""

    def __init__(self):
        self.times: list[float] = []
        self.refs: list[float] = []
        self.spent = 0.0  # seconds spent sampling, to subtract from the ops
        self._busy = False

    def take(self, *_signal_args) -> None:
        if self._busy:  # a timer signal arrived during a sample
            return
        self._busy = True
        t0 = time.perf_counter()
        ref = ref_sample()
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.refs.append(ref)
        self.spent += t1 - t0
        self._busy = False

    def maybe(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= SAMPLE_EVERY_S:
            self.take()

    def start_timer(self) -> None:
        signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: float, end: float, window_s: float = WINDOW_S) -> float:
        """REF_NOMINAL_S over the mean of the samples taken from window_s
        before the op to window_s after it, or of the nearest sample on
        each side if there is none."""
        lo = bisect.bisect_left(self.times, start - window_s)
        hi = bisect.bisect_right(self.times, end + window_s)
        refs = self.refs[lo:hi] or self.refs[max(lo - 1, 0):lo + 1]
        return REF_NOMINAL_S * len(refs) / sum(refs)


class Timer:
    """Times ops net of the sampling done while they run."""

    def __init__(self, sampler: Sampler):
        self.sampler = sampler
        self.raw: list[float] = []
        self._spans: list[tuple[float, float]] = []

    def __enter__(self):
        self._t0, self._spent0 = time.perf_counter(), self.sampler.spent
        return self

    def __exit__(self, *exc) -> None:
        t1 = time.perf_counter()
        self.raw.append(t1 - self._t0 - (self.sampler.spent - self._spent0))
        self._spans.append((self._t0, t1))

    def scaled(self, window_s: float = WINDOW_S) -> list[float]:
        """Scaled latencies; call after the last sample is taken."""
        return [t * self.sampler.factor(a, b, window_s) for t, (a, b) in zip(self.raw, self._spans)]
