"""A fixed host-speed probe, run while the benchmark's jobs run.

The probe does the same kinds of work the simulator does, at the same
sizes: small complex eigen and singular value decompositions, a bisection
over numpy reductions, and Python-level loops. None of it calls the
simulator, so a change to the simulator cannot move it; only the host's
speed can.

The host's speed changes within seconds, so a probe taken between jobs
says little about a job of 10 s or more. ``Sampler`` therefore runs the
probe inside the job, from a SIGALRM handler every INTERVAL_S, on the
job's own core: over six runs of one 11-16 s fig7 trial on a 2-core
x86_64 VM, this cut the coefficient of variation of the job's time from
0.14 to 0.04 once divided by the mean probe time.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Typical probe time on the 2-core x86_64 VM the baseline was measured on
# (Python 3.11.7, numpy 2.4.6); trials_per_s is scaled to this speed.
REFERENCE_S = 0.02
# about 4% of a job's time goes to probes, which is taken out of its wall time
INTERVAL_S = 0.5

_RNG = np.random.default_rng(0)
_MATS = _RNG.standard_normal((32, 6, 6)) + 1j * _RNG.standard_normal((32, 6, 6))
_LAMBDAS = _RNG.random(9) + 0.1


def probe_s(repeats=10):
    """Wall time of one pass of the probe."""
    start = time.perf_counter()
    for _ in range(repeats):
        for m in _MATS:
            np.linalg.eigh(m @ m.conj().T)
            np.linalg.svd(m[:, :3], compute_uv=False)
        lo, hi = 0.0, 10.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if np.sum(np.clip(mid - _LAMBDAS, 0.0, None)) > 3.0:
                hi = mid
            else:
                lo = mid
    return time.perf_counter() - start


class Sampler:
    """Probes the host every INTERVAL_S while the ``with`` block runs.

    ``probes`` collects every probe time; ``spent`` is the probe time of
    the last block, to take out of that block's wall time.
    """

    def __init__(self):
        self.probes = []
        self.spent = 0.0

    def _probe(self, signum, frame):
        elapsed = probe_s()
        self.probes.append(elapsed)
        self.spent += elapsed

    def __enter__(self):
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
