"""The benchmark's own tests: a one-job smoke run of every workload, in both
modes, the failure accounting when a layer raises, and the output check on
the pools the workloads really check."""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import json
import shutil
import subprocess
import sys

import pytest

import compare
import outputs
import run
from workloads import DEFAULT_SEED, HELD_OUT_SEED, SNR_GRID, WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# job 0 of this seed passes on every workload, so the smoke runs check a
# CSV of each figure; the default seed's first snr_sweep job hits the known
# crash and would be screened out
SMOKE_SEED = 1


@pytest.fixture(scope="module", autouse=True)
def program():
    return run.load_program()


def one_job(name):
    return dataclasses.replace(WORKLOADS[name], jobs_per_round=1)


def check_line(line, metric_specs):
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1 and 0 <= line["failed"] <= line["attempted"]
    for spec in metric_specs:
        metric = line["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))
    assert set(line["metrics"]) == {spec["name"] for spec in metric_specs}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_prints_every_metric(name, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    line, detail = run.measure(one_job(name), SMOKE_SEED, 0, False, tmp_path)
    check_line(line, BENCHMARK["end_to_end"])
    assert line["correct"] and line["failed"] == 0, detail
    assert line["metrics"]["setup_s"]["value"] > 0
    assert line["metrics"]["peak_rss_mb"]["value"] > 0
    line, detail = run.measure(one_job(name), SMOKE_SEED, 0, True, tmp_path)
    check_line(line, BENCHMARK["per_layer"])
    assert line["correct"] and line["failed"] == 0, detail
    assert detail["csv_compared"] == 1
    assert line["metrics"]["trace.csv_identical"]["value"] == 1
    assert line["metrics"]["harness.run.calls"]["value"] == 1


def test_training_bypasses_alignment_and_power(tmp_path):
    line, _ = run.measure(one_job("training"), SMOKE_SEED, 0, True, tmp_path)
    calls = {k: v["value"] for k, v in line["metrics"].items() if k.endswith(".calls")}
    assert calls["harness.mse_trial.calls"] > 0
    # build_plan's stream-count search is the only ia call training makes
    assert all(v == 0 for k, v in calls.items()
               if k.startswith(("ia.", "power.")) and k != "ia.dof_search.calls")


@pytest.mark.parametrize("trace", [False, True])
def test_layer_that_raises_is_a_failed_job(trace, monkeypatch, tmp_path):
    power = importlib.import_module("iassr_sim.power")

    def broken(*args, **kwargs):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(power, "waterfill", broken)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    line, detail = run.measure(one_job("snr_sweep"), SMOKE_SEED, 0, trace, tmp_path)
    assert line["failed"] == line["attempted"] > 0
    assert detail["failures"][0]["reason"] == "RuntimeError: forced failure"
    if trace:
        assert line["metrics"]["power.waterfill.errors"]["value"] >= 1
        assert line["metrics"]["harness.run.errors"]["value"] == 1
    else:
        assert line["metrics"]["trials_per_s"]["value"] == 0.0


@pytest.mark.parametrize("seed", [DEFAULT_SEED, HELD_OUT_SEED])
def test_known_crash_is_screened_out_and_listed(seed, monkeypatch, tmp_path):
    runner = run.Runner(WORKLOADS["snr_sweep"], tmp_path)
    job, base = next(runner.workload.jobs(seed))
    if runner.known_crash_trial(base) is None:
        pytest.skip("the known crash no longer reproduces on this job")
    # run as a job, it raises and fails every sample
    res = runner.run_job(job, base)
    assert res.failed == res.attempted > 0
    assert res.reason == f"RuntimeError: {run.KNOWN_CRASH}"
    # a run skips it before timing, lists it and fails nothing
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    line, detail = run.measure(one_job("snr_sweep"), seed, 0, False, tmp_path)
    assert detail["screened_out"][0]["job"] == job
    assert detail["screened_out"][0]["reason"] == res.reason
    assert line["correct"] and line["failed"] == 0, detail
    assert job not in {f["job"] for f in detail["failures"]}


def test_benchmark_json_matches_the_code():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} \
        == run.per_layer_units()


def channel_seeds(workload, seed, rounds):
    jobs = itertools.islice(workload.jobs(seed), rounds * workload.jobs_per_round)
    seeds = [base + t for _, base in jobs for t in range(workload.trials)]
    assert len(seeds) == len(set(seeds))
    return set(seeds)


def test_jobs_never_share_channel_seeds():
    for w in WORKLOADS.values():
        if w.fixed_panel:
            channel_seeds(w, DEFAULT_SEED, 1)
        else:
            a, b = channel_seeds(w, DEFAULT_SEED, 3), channel_seeds(w, DEFAULT_SEED + 1, 3)
            assert not a & b


def pool(workload, wrong_key=None, factor=1.0):
    """Rows of the smallest pool the workload checks, one round of jobs,
    each job reading the reference means, with one key's mean scaled."""
    ref = outputs.load_reference()
    means = (ref[outputs.panel_key(workload.figure)]["means"] if workload.fixed_panel
             else {key: entry["mean"] for key, entry in ref[workload.figure].items()})
    rows = [(key, mean * (factor if key == wrong_key else 1.0), workload.trials)
            for key, mean in means.items() if key.rsplit(",", 1)[1] not in outputs.BAND_EXEMPT]
    return rows * workload.jobs_per_round


def value_misses(workload, rows):
    ref = outputs.load_reference()
    if workload.fixed_panel:
        return outputs.check_panel(rows, ref[outputs.panel_key(workload.figure)])
    return outputs.check_pooled(rows, ref[workload.figure])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_output_check_catches_a_wrong_row(name):
    workload = WORKLOADS[name]
    assert value_misses(workload, pool(workload)) == []
    keys = {key for key, _, _ in pool(workload)}
    assert keys == {outputs.key_text(k) for k in outputs.expected_keys(workload.figure, SNR_GRID)
                    if k[2] not in outputs.BAND_EXEMPT}
    for key in sorted(keys):
        for factor in (0.0, 1.5):
            assert value_misses(workload, pool(workload, key, factor)), (key, factor)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_output_check_catches_a_broken_file(name):
    workload = WORKLOADS[name]
    keys = outputs.expected_keys(workload.figure, SNR_GRID)
    lines = [outputs.HEADER] + [f"{outputs.key_text(k)},1.0,0.0,{workload.trials}" for k in keys]
    outputs.parse(("\n".join(lines) + "\n").encode(), workload.figure, SNR_GRID, workload.trials)
    for broken in (lines[:-1], [lines[0]] + lines[2:] + [lines[1]],
                   lines[:-1] + [lines[-1].replace(",1.0,", ",nan,")]):
        with pytest.raises(outputs.CheckError):
            outputs.parse(("\n".join(broken) + "\n").encode(), workload.figure, SNR_GRID,
                          workload.trials)


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    faster = [v * 1.5 for v in parent]
    slower = [v * 0.7 for v in parent]
    assert compare.verdict(parent, faster, "higher", 0.1, 10, 10) == "improved"
    assert compare.verdict(parent, faster, "higher", 0.1, 10, 10, more_failures=True) \
        == "no worse"
    assert compare.verdict(parent, slower, "higher", 0.1, 0, 10) == "worse"
    assert compare.verdict(parent, parent, "higher", 0.1, 0, 10) == "no worse"
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]
    assert compare.verdict(parent, noisy, "higher", 0.1, 5, 10) == "unresolved"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "training",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
