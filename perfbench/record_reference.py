"""Record the reference values the output check compares against.

    python3 perfbench/record_reference.py

For every workload, runs JOBS independent jobs of the workload's size at
REFERENCE_SEED and stores, per CSV row key, the mean of the row means and
their standard deviation (over jobs whose row has all its trials). Jobs that
raise are skipped. For the division workload's fixed panel it also stores
the panel's pooled row means and the fingerprint of the panel's channel
draws. Writes reference.json afresh.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import statistics
import sys
import tempfile
from pathlib import Path

from workloads import SNR_GRID, THREAD_PIN, WORKLOADS

# the benchmark's thread pin, set before numpy loads
if __name__ == "__main__":
    os.environ.update(THREAD_PIN)

import outputs  # noqa: E402
import run as bench  # noqa: E402

REFERENCE_SEED = 500
JOBS = 60


def run_jobs(workload, jobs, out_dir):
    """Rows of every job that did not raise, from (job, base seed) pairs."""
    harness = importlib.import_module("iassr_sim.harness")
    scenario = importlib.import_module("iassr_sim.scenario")
    config, clusters = scenario.load_scenario(scenario.bundled_config_path())
    rows = []
    for j, base_seed in jobs:
        spec = harness.ExperimentSpec(
            figure=workload.figure, config=config, clusters=clusters, trials=workload.trials,
            base_seed=base_seed, out_dir=Path(out_dir), snr_grid=SNR_GRID)
        try:
            path = harness.run(spec)[0]
        except Exception as exc:   # the known crashes; skipped, not recorded
            print(f"{workload.name} job {j}: {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        rows.append(outputs.parse(Path(path).read_bytes(), workload.figure, SNR_GRID,
                                  workload.trials))
    print(f"{workload.name}: {len(rows)} of {len(jobs)} jobs recorded", file=sys.stderr)
    return rows


def record(workload, out_dir):
    jobs = [(j, workload.base_seed(REFERENCE_SEED, j)) for j in range(JOBS)]
    means = {}
    for rows in run_jobs(workload, jobs, out_dir):
        for key, mean, n in rows:
            if n == workload.trials:
                means.setdefault(key, []).append(mean)
    return {key: {"mean": statistics.fmean(vals), "sd_job_mean": statistics.stdev(vals),
                  "trials_per_job": workload.trials, "jobs": len(vals)}
            for key, vals in means.items()}


def record_panel(workload, out_dir):
    jobs = list(itertools.islice(workload.jobs(0), workload.jobs_per_round))
    rows = [row for job_rows in run_jobs(workload, jobs, out_dir) for row in job_rows]
    harness = importlib.import_module("iassr_sim.harness")
    scenario = importlib.import_module("iassr_sim.scenario")
    config, clusters = scenario.load_scenario(scenario.bundled_config_path())
    return {"fingerprint": outputs.channel_fingerprint(harness, config, clusters, jobs[0][1]),
            "jobs": len(jobs),
            "means": {key: mean for key, (mean, n) in outputs.pooled_means(rows).items()}}


def main():
    bench.load_program()
    bench.OUT_DIR.mkdir(exist_ok=True)
    reference = {}
    with tempfile.TemporaryDirectory(dir=bench.OUT_DIR) as tmp:
        for workload in WORKLOADS.values():
            reference[workload.figure] = record(workload, tmp)
            if workload.fixed_panel:
                reference[outputs.panel_key(workload.figure)] = record_panel(workload, tmp)
    outputs.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                                      encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
