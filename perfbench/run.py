"""Figure-job benchmark for iassr-sim.

    python3 perfbench/run.py --workload snr_sweep --seed 27 --seconds 25 --trace 0

Runs figure jobs through the public ``harness.run(ExperimentSpec)``, the
call the ``iassr-sim run`` CLI makes, in this one process, from the source
tree next to this directory. Jobs run in whole rounds while the next round
would end within ``--seconds`` of job time; at least one round always runs.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics:
trials_per_s, setup_s and peak_rss_mb. With ``--trace 1`` it carries the
per-layer metrics of one round, in which every job runs once untraced and
once traced (alternating which goes first), so the round also yields the
tracing overhead and a byte-for-byte comparison of the two CSVs.

The snr_sweep workload skips, before timing, every job whose link solves
hit the known ``RuntimeError: degenerate direct link`` of
``ia.effective_edge_channel`` (about one trial in 200-300 at commit
bb57de3), so that no measured operation fails; the detail line lists each
skipped job with the trial and the error. Any other exception still fails
its job.

``attempted`` and ``failed`` count samples: CSV rows times job trials. A job
that raises fails all its samples, a CSV that fails the output check fails
the whole job, and a row whose trials column falls short fails the missing
samples. Failed jobs keep their time in trials_per_s but not their trials.

trials_per_s is scaled to a reference host speed. The speed of the shared
host drifts by 20-30% within minutes, in CPU time as well as wall time:
five training runs on a 2-core x86_64 VM read from 12.3 to 16.3 trials/s.
A fixed probe (calibrate.Sampler) runs every half second inside each
untraced job and once at the end; a job's wall time leaves its probes out.
The run's mean probe time over calibrate.REFERENCE_S is its host scale, and
trials_per_s is the raw rate times the scale. Over ten seeds, probes
taken only between jobs cut the spread between quartiles of trials_per_s
from 22% to 3% of the median on snr_sweep and from 26% to 3% on training,
but left it at 17% on division, whose time is mostly one 11-16 s job;
probing inside the jobs brought division to 3-5% and kept the others at
3-6%.

setup_s is the median of SETUP_REPEATS set-up processes, not scaled: over
ten seeds per workload, dividing it by the host scale left its spread
between quartiles as wide or wider (0.11-0.19 of the median against
0.09-0.15). The host has slow spells of 10-20 s, in which one set-up takes
0.7-0.9 s instead of 0.45-0.6 s, so the processes run one after each job,
spread over the run, rather than in one block. The raw rate, the probe
times and every set-up time are in the detail line.
"""

from __future__ import annotations

import os

from workloads import DEFAULT_SEED, SNR_GRID, THREAD_PIN, WORKLOADS

# Pinned before numpy loads, and only when this file runs as the benchmark,
# so importing it pins nothing.
if __name__ == "__main__":
    os.environ.update(THREAD_PIN)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import outputs  # noqa: E402
import spans  # noqa: E402

SETUP_REPEATS = 20
KNOWN_CRASH = "degenerate direct link"
OUT_DIR = HERE / ".out"

END_TO_END_UNITS = {"trials_per_s": "trials/s", "setup_s": "s", "peak_rss_mb": "MB"}

SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import iassr_sim
from iassr_sim import harness, scenario
config, clusters = scenario.load_scenario(scenario.bundled_config_path())
geometry = harness.build_geometry(config, clusters)
harness.build_plan(geometry, "iassr")
elapsed = time.perf_counter() - start
if not iassr_sim.__file__.startswith(sys.argv[1]):
    sys.exit("imported " + iassr_sim.__file__)
print(repr(elapsed))
"""


def load_program(root=ROOT):
    """Import iassr_sim from ``root/src``; refuse any other copy."""
    src = root / "src"
    if not (src / "iassr_sim" / "__init__.py").is_file():
        raise SystemExit(f"error: no simulator sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    program = importlib.import_module("iassr_sim")
    if not Path(program.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: imported {program.__file__}, not the copy under {src}")
    return program


def setup_process_s(root=ROOT):
    """Wall time of the simulator's set-up in one fresh process: import,
    load default.cfg, build the geometry and the iassr plan."""
    src = str((root / "src").resolve())
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, src],
                          env=dict(os.environ, **THREAD_PIN), cwd=root,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


@dataclass
class JobResult:
    job: int
    base_seed: int
    trials: int
    attempted: int
    failed: int
    wall_s: float
    reason: str | None = None     # exception or check failure, when the job failed
    csv: bytes | None = None
    rows: list | None = None

    @property
    def passed(self):
        return self.reason is None


class Runner:
    """Runs one workload's jobs, applies the output check and probes the
    host's speed while they run."""

    def __init__(self, workload, out_dir):
        self.workload = workload
        self.harness = importlib.import_module("iassr_sim.harness")
        scenario = importlib.import_module("iassr_sim.scenario")
        self.config, self.clusters = scenario.load_scenario(scenario.bundled_config_path())
        self.out_dir = Path(out_dir)
        reference = outputs.load_reference()
        self.reference = reference[workload.figure]
        self.screened = []
        if workload.screen_known_crash:
            self.geometry = self.harness.build_geometry(self.config, self.clusters)
            self.plan = self.harness.build_plan(self.geometry, "iassr")
        self.panel = None
        if workload.fixed_panel:
            # the panel reference applies while the channel draws are the recorded ones
            panel = reference[outputs.panel_key(workload.figure)]
            fingerprint = outputs.channel_fingerprint(
                self.harness, self.config, self.clusters, next(workload.jobs(0))[1])
            if outputs.same_fingerprint(fingerprint, panel["fingerprint"]):
                self.panel = panel
        self.n_rows = len(outputs.expected_keys(workload.figure, SNR_GRID))
        self.sampler = calibrate.Sampler()

    def known_crash_trial(self, base_seed):
        """The first trial of a job whose link solve raises the known crash,
        or None; any other exception is left for the job itself to meet.

        This repeats fig10's link solves: one iassr plan for the whole job
        and one solve_links per trial. iassr never falls back, so a solve
        leaves the plan as it was and one plan serves every job."""
        for trial in range(self.workload.trials):
            channels = self.harness.draw_channels(self.geometry, base_seed, trial)
            try:
                self.harness.solve_links(self.geometry, self.plan, channels)
            except Exception as exc:
                return trial if isinstance(exc, RuntimeError) and str(exc) == KNOWN_CRASH \
                    else None
        return None

    def jobs(self, seed):
        """The workload's jobs in run order, less those screened out."""
        for job, base in self.workload.jobs(seed):
            if self.workload.screen_known_crash:
                trial = self.known_crash_trial(base)
                if trial is not None:
                    self.screened.append({"job": job, "base_seed": base, "trial": trial,
                                          "reason": f"RuntimeError: {KNOWN_CRASH}"})
                    continue
            yield job, base

    def next_round(self, jobs):
        return list(itertools.islice(jobs, self.workload.jobs_per_round))

    def host_scale(self):
        """Mean probe time over the reference, with one last probe taken
        now; call once all jobs have run."""
        self.sampler.probes.append(calibrate.probe_s())
        return statistics.fmean(self.sampler.probes) / calibrate.REFERENCE_S

    def run_job(self, job, base_seed, out_dir=None, sample=True):
        """One job; ``sample`` probes the host while it runs (left off for
        traced jobs, whose spans would take in the probes' time)."""
        w = self.workload
        spec = self.harness.ExperimentSpec(
            figure=w.figure, config=self.config, clusters=self.clusters, trials=w.trials,
            base_seed=base_seed, out_dir=Path(out_dir or self.out_dir), snr_grid=SNR_GRID)
        attempted = self.n_rows * w.trials
        self.sampler.spent = 0.0
        error = None
        with self.sampler if sample else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                paths = self.harness.run(spec)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start - self.sampler.spent
        if error:
            return JobResult(job, base_seed, w.trials, attempted, attempted, wall, reason=error)
        data = Path(paths[0]).read_bytes()
        try:
            rows = outputs.parse(data, w.figure, SNR_GRID, w.trials)
            outputs.check_rows(rows, self.reference)
        except outputs.CheckError as exc:
            return JobResult(job, base_seed, w.trials, attempted, attempted, wall,
                             reason=f"output check: {exc}", csv=data)
        short = sum(w.trials - n for _, _, n in rows)
        return JobResult(job, base_seed, w.trials, attempted, short, wall,
                         csv=data, rows=rows)


def raw_trials_per_s(results):
    """Trials of passing jobs over the wall time of all jobs."""
    return sum(r.trials for r in results if r.passed) / sum(r.wall_s for r in results)


def failed_ratio(results):
    return sum(r.failed for r in results) / sum(r.attempted for r in results)


def run_untraced(runner, seed, seconds):
    """Whole rounds of jobs while the next round, taking as long as the last
    one, would end within ``seconds`` of job time; at least one round.
    SETUP_REPEATS set-up processes are timed too, one after each job while
    any remain and the rest after the last job, so that they sample the
    host over the whole run. Returns the job results, any run-level check
    failures and the set-up times."""
    setup_process_s()   # unrecorded: fills the bytecode cache, which users keep
    results, problems, setup_times = [], [], []
    first_csv = {}
    jobs = runner.jobs(seed)
    while True:
        round_results = []
        for job, base in runner.next_round(jobs):
            res = runner.run_job(job, base)
            round_results.append(res)
            # a repeated job (fixed panel) must reproduce its bytes
            if res.csv is not None and first_csv.setdefault(job, res.csv) != res.csv:
                problems.append(f"job {job} wrote different bytes on a repeat")
            if len(setup_times) < SETUP_REPEATS:
                setup_times.append(setup_process_s())
        results += round_results
        spent = sum(r.wall_s for r in results)
        if spent + sum(r.wall_s for r in round_results) > seconds:
            break
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(setup_process_s())
    return results, problems, setup_times


def run_traced(runner, seed, out_root):
    """One round; each job runs untraced and traced, alternating which goes
    first. Returns both result lists, the CSV mismatches, the number of jobs
    whose two CSVs were compared, and the tracer."""
    plain, traced, problems = [], [], []
    compared = 0
    tracer = spans.Tracer()
    scenario = importlib.import_module("iassr_sim.scenario")
    with tracer:
        # the workload's own scenario load, through the traced attribute
        scenario.load_scenario(scenario.bundled_config_path())
    for job, base in runner.next_round(runner.jobs(seed)):
        for traced_turn in ((False, True) if job % 2 == 0 else (True, False)):
            if traced_turn:
                tracer.job = str(job)
                with tracer:
                    traced.append(runner.run_job(job, base, out_root / "traced", sample=False))
            else:
                plain.append(runner.run_job(job, base, out_root / "plain"))
        if plain[-1].csv != traced[-1].csv:
            problems.append(f"job {job}: traced CSV differs from the untraced one")
        elif plain[-1].csv is not None:
            compared += 1
    return plain, traced, problems, compared, tracer


def per_layer_units():
    """Name -> (unit, better) of every metric a traced run reports."""
    out = {}
    for name in spans.SPAN_NAMES:
        out[f"{name}.calls"] = ("count", "lower")
        out[f"{name}.self_s"] = ("s", "lower")
        out[f"{name}.errors"] = ("count", "lower")
    out["ia.ia_precoders.failed_s"] = ("s", "lower")
    out["ia.ia_precoders.failed_share"] = ("fraction", "lower")
    out["power.evals_per_allocate"] = ("calls/call", "lower")
    out["harness.solve_links_per_trial"] = ("calls/trial", "lower")
    out["harness.write_csv.bytes"] = ("B", "lower")
    for layer in spans.LAYERS:
        out[f"{layer}.self_share"] = ("fraction", "lower")
    out["run.failed_ratio"] = ("fraction", "lower")
    out["trace.trials_per_s_untraced"] = ("trials/s", "higher")
    out["trace.trials_per_s_traced"] = ("trials/s", "higher")
    out["trace.overhead_share"] = ("fraction", "lower")
    out["trace.csv_identical"] = ("count", "higher")
    return out


def environment():
    numpy = importlib.import_module("numpy")
    scipy = importlib.import_module("scipy")
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(), "thread_pin": THREAD_PIN}


def measure(workload, seed, seconds, trace, out_root):
    """Run one workload; returns (result line, detail record)."""
    runner = Runner(workload, out_root)
    setup_times = compared = None
    if trace:
        plain, results, problems, compared, tracer = run_traced(runner, seed, out_root)
        scale = runner.host_scale()
        values = spans.layer_metrics(tracer.spans, sum(r.trials for r in results))
        values["harness.write_csv.bytes"] = sum(len(r.csv) for r in results if r.csv)
        values["run.failed_ratio"] = failed_ratio(results)
        untraced = raw_trials_per_s(plain) * scale
        traced = raw_trials_per_s(results) * scale
        values["trace.trials_per_s_untraced"] = untraced
        values["trace.trials_per_s_traced"] = traced
        values["trace.overhead_share"] = 1.0 - traced / untraced if untraced else 0.0
        values["trace.csv_identical"] = 1 if compared and not problems else 0
        units = {name: unit for name, (unit, _) in per_layer_units().items()}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl")
        checked = plain + results
    else:
        results, problems, setup_times = run_untraced(runner, seed, seconds)
        scale = runner.host_scale()
        values = {"trials_per_s": raw_trials_per_s(results) * scale,
                  "setup_s": statistics.median(setup_times),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        units = END_TO_END_UNITS
        checked = results
    # each job once: repeats and traced twins wrote the same bytes or are
    # already reported as problems
    distinct = {r.job: r.rows for r in results if r.passed}
    pooled_rows = [row for rows in distinct.values() for row in rows]
    problems += outputs.check_pooled(pooled_rows, runner.reference)
    if not workload.fixed_panel:
        panel_check = "none"
    elif runner.panel is None:
        panel_check = "skipped: the channel draws differ from the recorded fingerprint"
    elif len(distinct) < runner.panel["jobs"]:
        panel_check = (f"skipped: {len(distinct)} of {runner.panel['jobs']} panel jobs "
                       "ran and passed")
    else:
        panel_check = "applied"
        problems += outputs.check_panel(pooled_rows, runner.panel)
    check_failures = [r for r in checked if r.reason and r.reason.startswith("output check")]
    line = {
        "correct": not problems and not check_failures,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    detail = {
        "workload": workload.name, "figure": workload.figure, "seed": seed,
        "trace": int(trace), "jobs": len(results),
        "raw_trials_per_s": raw_trials_per_s(results),
        "setup_times_s": setup_times,
        "host_scale": scale, "job_wall_s": [r.wall_s for r in results], "probe_s": runner.sampler.probes,
        "failed_ratio": failed_ratio(results),
        "failures": [{"job": r.job, "base_seed": r.base_seed, "reason": r.reason}
                     for r in results if not r.passed],
        "screened_out": runner.screened,
        "problems": problems, "csv_compared": compared, "panel_check": panel_check,
        "environment": environment(),
    }
    return line, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 32:
        parser.error("--seed must be in [0, 2**32)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    load_program()
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    out_root = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR))
    try:
        line, detail = measure(workload, args.seed, args.seconds, bool(args.trace), out_root)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    print(json.dumps({"detail": detail}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
