"""The machine's current speed, from a fixed reference kernel timed around and during operations.

The benchmark runs on shared machines whose speed drifts by a quarter
or more, over any span from milliseconds to minutes, the same for every
program on the CPU. Raw wall times of two runs of the same code then
differ by more than any useful bound. The benchmark therefore times a
fixed kernel of its own right after each operation and, for operations
long enough, every ``INTERVAL_S`` while it runs (from a SIGALRM handler;
the handler's time is taken out of the operation's). Each raw time is
scaled by ``REF_S`` over the kernel's median time in the samples taken
during the operation and within ``HALO_S`` of it: the result is the time
the operation would take on a machine that runs the kernel in exactly
``REF_S`` ("seconds at reference speed"). Child processes are scaled by
:class:`LaunchMeter`. The kernel uses nothing from relent, so no change
to relent can move it.

The kernel mixes what relent spends its time on: JSON decoding, building
tuples, frozensets and dicts of labels, a bytecode loop, float
formatting, and numpy calls on short and long vectors.
"""

from __future__ import annotations

import bisect
import json
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

#: Time the kernel is scaled to, and roughly its time on a quiet 2-vCPU Xeon.
REF_S = 0.001
#: Period of the kernel samples taken while an operation runs.
INTERVAL_S = 0.03
#: An operation is scaled by the kernel samples taken while it ran and
#: within this much time before and after it: the machine's speed holds
#: steady over tens of milliseconds, not over seconds.
HALO_S = 0.025
#: Fewest samples a scale rests on; the halo widens until it has them.
MIN_SAMPLES = 7
#: A reference launch: a fresh interpreter doing what every child of the
#: benchmark does first. Child start-up is scaled to its taking REF_LAUNCH_S.
REF_LAUNCH_CODE = "import json, numpy"
REF_LAUNCH_S = 0.1

_rng = np.random.default_rng(20240101)
_LABELS = [f"o{i:04d}" for i in range(800)]
_DOC = json.dumps({"space": _LABELS, "prior": _rng.uniform(0.2, 1.8, 800).tolist()})
_SHORT = _rng.normal(size=256)
_LONG = _rng.normal(size=40_000)


def kernel() -> float:
    """One run of the reference kernel; returns a value so no work is skipped."""
    doc = json.loads(_DOC)
    labels = tuple(doc["space"])
    members = frozenset(labels[::3])
    index = {x: i for i, x in enumerate(labels)}
    acc = 0.0
    for x, w in zip(labels, doc["prior"]):
        if x in members:
            acc += w * index[x]
    text = "\n".join(f"{x}: {w:.6f}" for x, w in zip(labels[:200], doc["prior"]))
    for _ in range(40):
        acc += float(np.exp(_SHORT - _SHORT.max()).sum()) + float(_SHORT @ _SHORT)
    acc += float(np.log1p(np.abs(_LONG)).sum()) + float(_LONG @ _LONG)
    return acc + len(text)


def warm() -> None:
    """Run the kernel a few times so that its first timed run is not a cold one."""
    for _ in range(20):
        kernel()


class Sampler:
    """Kernel runs every ``INTERVAL_S`` of wall time while armed, from SIGALRM.

    Use as a context manager: the handler is installed for its extent and
    the previous one put back afterwards. Samples are (start, kernel
    time) pairs, appended to ``samples``.
    """

    def __init__(self, samples: list | None = None):
        self.samples: list[tuple[float, float]] = [] if samples is None else samples
        self._previous = None
        self._first = 0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        kernel()
        self.samples.append((start, perf_counter() - start))

    def arm(self) -> None:
        self._first = len(self.samples)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def disarm(self) -> tuple[float, float, list[float]]:
        """Stop sampling; return (end of the armed span, time the handler
        took in it, kernel times of its samples).

        Only samples that started before the end count: a signal still
        pending when the timer stops runs its handler after the span.
        """
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        end = perf_counter()
        taken = [d for t, d in self.samples[self._first:] if t < end]
        return end, sum(taken), taken


class Stopwatch:
    """Wall time of each operation; the plain clock of traced runs."""

    def __init__(self):
        self.times: list[float] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    @contextmanager
    def op(self):
        start = perf_counter()
        try:
            yield
        finally:
            self.times.append(perf_counter() - start)


class Speedometer(Stopwatch):
    """Operation times with the handler's time taken out, and their scaling.

    One kernel run follows every operation, and more run while it does
    (see :class:`Sampler`). ``times[i]`` is operation ``i``'s wall time
    less the time its kernel samples took; :meth:`scaled` scales it by
    the median kernel time within ``HALO_S`` of the operation.
    """

    def __init__(self):
        super().__init__()
        self.samples: list[tuple[float, float]] = []  # (start, kernel time), in time order
        self.spans: list[tuple[float, float]] = []  # (start, end) of each operation
        self._sampler = Sampler(self.samples)

    def __enter__(self):
        self._sampler.__enter__()
        self.block()
        return self

    def __exit__(self, *exc):
        self._sampler.__exit__(*exc)

    def block(self, runs: int = 1) -> None:
        for _ in range(runs):
            start = perf_counter()
            kernel()
            self.samples.append((start, perf_counter() - start))

    @contextmanager
    def op(self):
        self._sampler.arm()
        start = perf_counter()
        try:
            yield
        finally:
            end, paused, _ = self._sampler.disarm()
            self.times.append(end - start - paused)
            self.spans.append((start, end))
            self.block()

    def add(self, start: float, end: float, net_s: float, samples: list) -> None:
        """Record an operation timed elsewhere (a child process) with the
        kernel samples it took, then a block of ``MIN_SAMPLES`` runs."""
        self.times.append(net_s)
        self.spans.append((start, end))
        self.samples.extend((start, d) for d in samples)
        self.block(MIN_SAMPLES)

    def _scaled(self, i: int, starts: list[float]) -> float:
        start, end = self.spans[i]
        halo = HALO_S
        while True:
            lo = bisect.bisect_left(starts, start - halo)
            hi = bisect.bisect_right(starts, end + halo)
            if hi - lo >= MIN_SAMPLES or (lo == 0 and hi == len(starts)):
                break
            halo *= 2
        kernel_s = statistics.median(d for _, d in self.samples[lo:hi])
        return self.times[i] * REF_S / kernel_s

    def all_scaled(self) -> list[float]:
        """Every operation's time in seconds at reference speed."""
        starts = [t for t, _ in self.samples]
        return [self._scaled(i, starts) for i in range(len(self.times))]

    def kernel_median_s(self) -> float:
        return statistics.median(d for _, d in self.samples)


class LaunchMeter:
    """Wall times of child processes, each split in two parts and scaled.

    The start-up of a fresh interpreter (exec, imports, exit) does not
    slow down with the machine the way computation does. A child's
    start-up is therefore scaled by the reference launches made right
    before and after it (``REF_LAUNCH_S`` over their time), and its main
    part, with the kernel samples the child took, like an in-process
    operation. Call :meth:`reference` before each child and once after
    the last one.
    """

    def __init__(self):
        self.main = Speedometer()
        self.refs: list[float] = []
        self.startups: list[float] = []

    def __enter__(self):
        self.main.__enter__()
        return self

    def __exit__(self, *exc):
        self.main.__exit__(*exc)

    def reference(self, wall_s: float) -> None:
        self.refs.append(wall_s)

    def add(self, start: float, end: float, timing: dict) -> None:
        """Record a child that ran from ``start`` to ``end`` and whose main
        part ran from ``timing["t0"]`` to ``timing["t1"]`` (same clock)."""
        t0, t1 = timing["t0"], timing["t1"]
        self.startups.append((t0 - start) + (end - t1))
        self.main.add(t0, t1, t1 - t0 - timing["paused_s"], timing["samples"])

    @property
    def times(self) -> list[float]:
        """Raw wall times less the kernel samples taken in the children."""
        return [s + m for s, m in zip(self.startups, self.main.times)]

    def all_scaled(self) -> list[float]:
        out = []
        for i, (startup, main) in enumerate(zip(self.startups, self.main.all_scaled())):
            ref_s = statistics.median(self.refs[max(0, i - 1):i + 3])
            out.append(startup * REF_LAUNCH_S / ref_s + main)
        return out
