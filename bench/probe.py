"""Host-speed probe: how fast the CPU ran while a repetition was timed.

This benchmark shares a small VM with other tenants, and they slow it
by up to 1.8× for seconds to minutes at a time. The slowdown does not
show as steal time or as lost CPU time: the CPU itself runs slower
(shared caches, memory bandwidth, a busy sibling thread), so neither
CPU time nor a longer run removes it.

The probe measures that slowdown while set-up and the run are timed. A
wall-clock timer (``SIGALRM``) fires every :data:`PERIOD_S`; its
handler, run by the interpreter between two bytecodes of the program,
times one pass of a fixed kernel. The kernel is part of the benchmark,
not of the program, so a change to the program leaves its time alone.
An interval's **reference-speed time** is its wall time, less the
probe's own, scaled by the kernel's idle-host time
(:data:`REFERENCE_S`) over its mean time in the interval. It reads as
the interval's wall time on an idle host.

Work of different kinds slows by different amounts on a busy host:
interpreter bytecode more, vectorised numpy arithmetic less. So the
kernel does the kind of work that dominates the workload's timed run.
On the approximate path that is interpreter bytecode and small numpy
calls; the bit-exact path adds the click stream's per-record
log-normal payload draws, which take most of its time.

The mean is harmonic: samples are taken evenly in wall time, and the
work the run did between two samples is proportional to the speed,
which is the inverse of the kernel's time.

The handler touches no simulation state; the benchmark's output digests
check that the probed runs produce exactly what unprobed ones do.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

#: Wall seconds between two probe passes.
PERIOD_S = 0.02

#: The kernel's time on an idle host (2-vCPU x86_64 VM, Python 3.11,
#: numpy 2.4), by ``exact``: the speed reference-speed times are
#: expressed at.
REFERENCE_S = {False: 0.00025, True: 0.0004}

_X = np.arange(64, dtype=float)


def kernel(exact: bool, rng: np.random.Generator) -> float:
    """One pass of fixed work: dictionary and float bytecode, small
    numpy draws and array arithmetic, and with ``exact`` vector
    log-normal draws like the bit-exact click stream's payload sizes."""
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(1000):
        key = i & 31
        value = table.get(key, 0.0) * 0.5 + i * 1e-3
        table[key] = value
        acc += value
    for _ in range(24):
        counts = rng.poisson(5.0, size=16)
        acc += float((_X * 1.5 + counts[0]).sum())
    if exact:
        for _ in range(3):
            acc += float(rng.lognormal(0.0, 1.0, size=1500).sum())
    return acc


class Probe:
    """Times :func:`kernel` every :data:`PERIOD_S` between ``start``
    and ``stop``. Only the main thread can run it."""

    def __init__(self, exact: bool) -> None:
        self.exact = exact
        self.samples: list[float] = []
        self._rng = np.random.default_rng(0)
        self._previous = None

    def _fire(self, _signum, _frame) -> None:
        started = perf_counter()
        kernel(self.exact, self._rng)
        self.samples.append(perf_counter() - started)

    def start(self) -> None:
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def spent_s(self) -> float:
        """Wall seconds the probe itself took."""
        return sum(self.samples)

    def speed(self) -> float:
        """The host's speed during the probed interval, about 1.0 when idle."""
        if not self.samples:
            return 1.0
        return REFERENCE_S[self.exact] / statistics.harmonic_mean(self.samples)

    def summary(self, wall_s: float) -> dict:
        """The probed interval's raw and reference-speed times."""
        net_s = wall_s - self.spent_s()
        speed = self.speed()
        return {
            "samples": len(self.samples),
            "spent_s": self.spent_s(),
            "speed": speed,
            "net_s": net_s,
            "ref_s": net_s * speed,
        }
