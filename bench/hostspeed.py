"""Host-speed reference for the benchmark's timings.

The shared host runs the same code at speeds up to about 1.8x apart, in
spells that last from under a second to minutes and follow load outside
this machine, so a run's raw median lands wherever the spells of its window
put it.  The benchmark therefore brackets every few milliseconds of timed
calls with readings of two fixed kernels, takes more readings inside calls
that last longer than SAMPLE_S, and reports each timing divided by the
host's slowdown over those readings: reading / NOMINAL_S, where NOMINAL_S
are the kernels' times in this host's usual (slower) spells.  Timings so
scaled read roughly as raw timings in those spells.

The kernels are the benchmark's own code, so a change to tfqkd moves the
scaled timings exactly as it moves the raw ones; the raw timings and the
readings are kept in the result file.  The two kernels stand for the two
shapes of work tfqkd does, which the spells slow by different amounts:
``loops`` makes numpy calls on tiny arrays from a Python loop, ``arrays``
makes passes over a large array.
"""

from __future__ import annotations

import signal
import time

import numpy as np

NOMINAL_S = {"loops": 1.25e-3, "arrays": 0.7e-3}

SAMPLE_S = 0.1     # interval of the readings taken inside a long call

_SMALL = np.linspace(0.1, 1.0, 8)
_LARGE = np.random.default_rng(0).random(100_000)
# Output buffers, so that a reading allocates no large array: the cost of
# fresh pages depends on the allocator's state, which differs per process.
_OUT = np.empty_like(_LARGE)
_SORTED = np.empty(25_000)


def reading() -> dict:
    """Times of one run of each kernel, seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(150):
        acc += float((np.log1p(_SMALL) * np.sqrt(_SMALL) + np.exp(-_SMALL)).sum())
    t1 = time.perf_counter()
    _SORTED[:] = _LARGE[:25_000]
    _SORTED.sort()
    acc += float(_SORTED.sum() + np.exp(_LARGE, out=_OUT).sum())
    t2 = time.perf_counter()
    return {"loops": t1 - t0, "arrays": t2 - t1}


class Sampler:
    """While active, takes a reading every SAMPLE_S seconds from a SIGALRM
    handler, so that a long call has readings from its whole length.  The
    handler runs between two bytecodes of the calling thread and leaves the
    call's state alone; ``spent`` is the time it took, which the caller
    takes off the time of the call it interrupted."""

    def __init__(self):
        self.readings = []
        self.spent = 0.0

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.readings.append(reading())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def slowdown(readings: list, kernels: tuple) -> float:
    """Mean slowdown over readings, by the named kernels together, against
    their nominal times."""
    nominal = sum(NOMINAL_S[k] for k in kernels)
    return float(np.mean([sum(r[k] for k in kernels) for r in readings])
                 / nominal)
