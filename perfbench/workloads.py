"""The benchmark's workloads: which figure job each runs, at what size, and
how each job's base seed follows from the workload seed."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

# Every workload runs with one BLAS and OpenMP thread. The matrices here are
# at most 128 x 128, too small to gain from threads, which would add noise;
# and the iterative alignment of fig7 depends on the summation order, so its
# rates differ (by up to 3% in a 60-trial mean) between thread counts.
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SNR_GRID = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)

# Job j of workload seed s starts at base seed s * SEED_STRIDE + j * trials.
# draw_channels seeds trial t of a job with base_seed + t, so consecutive
# jobs cover adjacent, disjoint ranges and no two jobs of a run, nor of runs
# with different seeds, draw the same channels.
SEED_STRIDE = 100_000

# On seed 27, trial 2 of the first snr_sweep job hits the known
# "degenerate direct link" crash of commit bb57de3; seed 90 does the same
# in its first job and is kept back for re-checking claims. A run screens
# such jobs out before timing and lists them in its detail line (see
# run.Runner.jobs), so both seeds show the crash there, not in ``failed``.
DEFAULT_SEED = 27
HELD_OUT_SEED = 90

# The division panel: fig7's cost per trial is heavy-tailed (0.4 to 10 s
# per trial at commit bb57de3, coefficient of variation about 1), so the
# handful of trials that fit in one run would move trials_per_s by tens of
# percent from one workload seed to the next. The division workload
# therefore always runs the panel drawn from this seed.
PANEL_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    figure: str
    trials: int           # trials per job (one harness.run call)
    jobs_per_round: int
    fixed_panel: bool
    why: str
    # screen out, before timing, jobs whose link solves hit the known crash
    screen_known_crash: bool = False

    def base_seed(self, seed: int, job: int) -> int:
        if not 0 <= job < SEED_STRIDE // self.trials:
            raise ValueError(f"job index {job} out of range")
        return seed * SEED_STRIDE + job * self.trials

    def jobs(self, seed: int):
        """(job index, base seed) of every job in run order: fresh jobs, or
        on a fixed panel the panel's jobs over and over."""
        if self.fixed_panel:
            return itertools.cycle([(j, self.base_seed(PANEL_SEED, j))
                                    for j in range(self.jobs_per_round)])
        return ((j, self.base_seed(seed, j)) for j in itertools.count())


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="snr_sweep", figure="fig10", trials=5, jobs_per_round=4,
            fixed_panel=False, screen_known_crash=True,
            why="fig10 on default.cfg over 9 SNRs: one link solve and 9 golden-section "
                "splits per trial, so power allocation dominates"),
        Workload(
            name="division", figure="fig7", trials=1, jobs_per_round=8,
            fixed_panel=True,
            why="fig7 on random clusters at T=250 over 9 SNRs: iterative alignment and "
                "per-trial geometry and plans dominate; fixed panel, cost is heavy-tailed"),
        Workload(
            name="training", figure="fig11", trials=10, jobs_per_round=5,
            fixed_panel=False,
            why="fig11 on default.cfg over 9 SNRs: channel draws, training and LS "
                "estimation, and no alignment or power allocation at all"),
    )
}
