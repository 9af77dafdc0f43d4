"""Machine-speed probe: scales wall times to a fixed reference speed.

On a shared virtual machine the speed the benchmark gets drifts by up to a
factor of two over tens of seconds, with the neighbours' load; a fixed
piece of pure-Python code then takes twice as long, in wall and in CPU time
alike. That drift, not the program, set most of the run-to-run spread of the
raw timings.

While ``sampling``, a timer signal runs a fixed reference loop (integer
arithmetic, a dict and a set, the operations the pure-Python kernels spend
their time on) about every ``EVERY_S`` of wall time, also in the middle of
a long operation. The intervals are drawn at random between half and one
and a half ``EVERY_S``, so that the probes do not fall in step with a
periodic disturbance. An operation's time, less the probes that ran inside
it, is then scaled by ``REFERENCE_S`` over the loop's mean time around it
(the probes that start within ``EVERY_S`` of it or inside it, and at least
the one just before and the one just after it), which gives seconds at the
speed where the loop takes ``REFERENCE_S``. The slow-downs come in bursts,
so the mean, which weighs them by their length, follows a long
operation's time more closely than the median does. The reference loop is
part of the benchmark, so a change to the program cannot move it.
"""

import bisect
import contextlib
import random
import signal
import statistics
import time

REFERENCE_S = 0.005  # the loop's time that defines reference speed
EVERY_S = 0.1  # mean timer interval between two probes
LOOP_N = 8000  # iterations of the reference loop, about 5 ms on a 2-core VM


def reference_loop(n=LOOP_N):
    table, seen, acc = {}, set(), 0
    for i in range(n):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
        mask = acc >> 7
        table[mask & 1023] = i
        if (mask & 255) in seen:
            acc ^= bin(mask).count("1")
        else:
            seen.add(mask & 255)
    return acc + len(table)


@contextlib.contextmanager
def paused():
    """Defer probes while a child process runs.

    The benchmark and its children share one CPU, so a probe in the parent
    would both slow the child and be slowed by it. A probe that falls due
    meanwhile runs as the block ends. The child inherits the blocked
    SIGALRM, which the program does not use.
    """
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})


class SpeedProbe:
    def __init__(self):
        self.starts = []  # start of each probe, perf_counter seconds
        self.durations = []  # the reference loop's time in each probe
        self.active = False
        self.intervals = random.Random(0)

    def tick(self, *_signal_args):
        """Timer signal handler: probe, then set the timer for the next one."""
        self.probe()
        if self.active:
            signal.setitimer(signal.ITIMER_REAL,
                             self.intervals.uniform(EVERY_S / 2, 3 * EVERY_S / 2))

    def probe(self):
        start = time.perf_counter()
        reference_loop()
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)

    @contextlib.contextmanager
    def sampling(self):
        """Probe at the start, about every EVERY_S within the block, and at its end.

        The timer is set again only after a probe has ended, so probes never
        overlap.
        """
        previous = signal.signal(signal.SIGALRM, self.tick)
        self.active = True
        self.tick()
        try:
            yield self
        finally:
            self.active = False  # a tick still pending sets no further timer
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.probe()

    def net(self, start, wall):
        """``wall`` seconds, started at ``start``, less the probes inside them."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, start + wall)
        return wall - sum(self.durations[first:last])

    def scaled(self, start, wall):
        """``wall`` seconds, started at ``start``, net and at reference speed."""
        end = start + wall
        first = min(bisect.bisect_left(self.starts, start - EVERY_S),
                    max(bisect.bisect_right(self.starts, start) - 1, 0))
        last = max(bisect.bisect_right(self.starts, end + EVERY_S),
                   bisect.bisect_left(self.starts, end) + 1)
        speed = REFERENCE_S / statistics.fmean(self.durations[first:last])
        return self.net(start, wall) * speed

    def speed(self):
        """Machine speed over the run, 1.0 being the reference speed."""
        return REFERENCE_S / statistics.fmean(self.durations)
