"""Host-speed probe: a fixed numpy/scipy kernel timed while jobs run.

The benchmark shares its CPUs with other tenants of the host, and their load
changes the speed of this process by up to 1.7x, in spells of a few seconds
to tens of minutes: the same book job took 2.65 s and, 40 minutes later,
3.77 s.  No in-run median removes that, as the speed drifts more slowly
than a run lasts.

The probe measures the host's speed while a job runs.  It does the kind of
work liqshock's jobs do -- banded solves and vector ufuncs on a 538-point
grid, as in a ``pde`` march step, and scalar numpy calls with ``ndtr``, as
in ``bs`` bisection -- but calls nothing of liqshock, so a change to the
program cannot change it.  Pure-Python or streaming numpy loops do not
track the jobs: they kept their speed while the jobs slowed 1.4x.  Probes
taken only between jobs do not track long jobs either (book's 3 s jobs
span several changes of speed), so ``Sampler`` also probes during each job.

``normalise(seconds, probe_s)`` scales a time measured while the probe took
``probe_s`` to a host on which it takes ``NOMINAL_S``.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np
from scipy.linalg import solve_banded
from scipy.special import ndtr

# Probe time on an unloaded host (2-core Xeon, Python 3.11, numpy 2.4,
# scipy 1.17).  Only the ratio of two runs matters; this fixes the scale.
NOMINAL_S = 0.020
# While a job runs, a wall-clock timer runs a short probe this often.
INTERVAL_S = 0.1

_M = 538                    # space points of liqshock's default grid
_STEPS = 150
_SCALARS = 6


def _kernel(steps: int) -> float:
    """A small backward march, written independently of liqshock.

    Each step does what a step of ``pde``'s nonlinear march does: vector
    exp/log1p/expm1 on the grid, one banded solve, and a row written into
    two surfaces; then a few scalar numpy calls with ``ndtr``, as ``bs``
    does inside bisection."""
    ab = np.vstack([np.full(_M, -0.3), np.full(_M, 1.7), np.full(_M, -0.3)])
    p = np.random.default_rng(0).random(_M)
    q = p + 0.05
    p_surf = np.empty((steps + 1, _M))
    q_surf = np.empty_like(p_surf)
    acc = 0.0
    for i in range(steps - 1, -1, -1):
        kappa = 0.5 * np.exp(-(q - p))
        ab[1, :] = 1.4 + 0.01 * kappa
        p = solve_banded((1, 1), ab, p + 0.01 * kappa, check_finite=False)
        q = p - np.log1p(0.9 * np.expm1(-(q - p) * 0.5)) * 0.5
        p_surf[i] = p
        q_surf[i] = q
        for j in range(_SCALARS):
            x = np.asarray(0.1 * j + 0.01 * i, dtype=float)
            if np.any(x < 0.0):
                raise ValueError("negative probe input")
            acc += float(ndtr((np.log(1.0 + x) + 0.5 * x) / np.sqrt(x + 0.1)))
    return acc + float(p_surf.sum() - q_surf.sum())


def probe(steps: int = _STEPS) -> float:
    """Seconds the kernel takes now, scaled to its full ``_STEPS`` length."""
    t0 = perf_counter()
    _kernel(steps)
    return (perf_counter() - t0) * _STEPS / steps


class Sampler:
    """Samples the host's speed while a job runs.

    Inside ``with sampler:``, one short probe runs at entry and then one
    every INTERVAL_S of wall time from a SIGALRM handler, which Python runs
    between bytecodes of the job.  ``probe_s`` is their mean, scaled to a
    full probe; ``spent`` is the wall time the handler took, which the
    caller takes out of the job's time.  Short probes (a tenth of the
    kernel, about 2 ms) keep the cost near 2% of the job."""

    STEPS = _STEPS // 10

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, *_) -> None:
        t0 = perf_counter()
        self.samples.append(probe(self.STEPS))
        self.spent += perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self.samples, self.spent = [], 0.0
        self._sample()
        self.spent = 0.0                     # the entry probe is not in the job
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def probe_s(self) -> float:
        return sum(self.samples) / len(self.samples)


def normalise(seconds: float, probe_s: float) -> float:
    """``seconds`` on a host where the probe takes NOMINAL_S."""
    return seconds * NOMINAL_S / probe_s
