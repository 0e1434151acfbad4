#!/usr/bin/env python3
"""Check that two source trees write byte-identical figure CSVs.

    python scripts/csv_identity.py --parent ../parent --change .
    python scripts/csv_identity.py --change . --write-manifest tests/csv_manifest.json
    python scripts/csv_identity.py --manifest tests/csv_manifest.json --change .

Each tree's ``src/`` runs a fixed list of figure jobs on the bundled
scenario in its own subprocess, with the BLAS and OpenMP threads pinned to
1. The script prints the sha256 of every CSV and exits 1 on any mismatch.
A job that raises the same exception type and message in both trees counts
as identical and is reported as such. ``--write-manifest`` records one
tree's digests and exceptions in a JSON file; ``--manifest`` compares a
tree against such a file instead of against a parent tree.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def job_list():
    """(name, figure, base_seed, trials) for every job."""
    jobs = []
    for n in range(2, 12):
        fig = f"fig{n}"
        trials = {"fig2": 1, "fig3": 1, "fig10": 4}.get(fig, 3)
        jobs.append((f"{fig}_s5", fig, 5, trials))
    for seed in (7, 700000):
        jobs.append((f"fig7_s{seed}_t2", "fig7", seed, 2))
    for seed in range(700000, 700008):  # the division panel
        jobs.append((f"panel_s{seed}", "fig7", seed, 1))
    for seed in range(2700000, 2700036, 5):  # 2700000 meets the known crash
        jobs.append((f"fig10_s{seed}_t5", "fig10", seed, 5))
    for seed in (2700000, 2700010):  # the training workload's first jobs
        jobs.append((f"fig11_s{seed}_t10", "fig11", seed, 10))
    return jobs


def worker(out_dir):
    """Run every job with the importable iassr_sim; print one JSON object
    mapping each job to its CSV digests or its exception."""
    from iassr_sim import harness
    from iassr_sim.scenario import bundled_config_path, load_scenario

    config, clusters = load_scenario(bundled_config_path())
    result = {"module": harness.__file__, "jobs": {}}
    for name, fig, seed, trials in job_list():
        job_dir = Path(out_dir) / name
        spec = harness.ExperimentSpec(figure=fig, config=config, clusters=clusters,
                                      trials=trials, base_seed=seed, out_dir=job_dir)
        try:
            paths = harness.run(spec)
        except Exception as exc:  # reported, and compared across the trees
            result["jobs"][name] = {"error": f"{type(exc).__name__}: {exc}"}
            continue
        result["jobs"][name] = {"csv": {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}}
    print(json.dumps(result))


def start(tree, out_dir):
    src = (Path(tree) / "src").resolve()
    if not (src / "iassr_sim").is_dir():
        sys.exit(f"{tree}: no src/iassr_sim")
    env = dict(os.environ, PYTHONPATH=str(src), **dict.fromkeys(THREAD_VARS, "1"))
    return src, subprocess.Popen(
        [sys.executable, __file__, "--worker", str(out_dir)], env=env,
        stdout=subprocess.PIPE, text=True)


def collect(src, proc):
    out, _ = proc.communicate()
    if proc.returncode != 0:
        sys.exit(f"{src}: worker exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    if not Path(result["module"]).resolve().is_relative_to(src):
        sys.exit(f"{src}: imported iassr_sim from {result['module']}")
    return result["jobs"]


def compare(parent, change):
    """Print one line per CSV or raising job; return the mismatch count."""
    bad = 0
    for name, _, _, _ in job_list():
        p, c = (side.get(name, {"error": "not run"}) for side in (parent, change))
        if "error" in p or "error" in c:
            same = p.get("error") == c.get("error")
            print(f"{'same-raise' if same else 'MISMATCH':10s} {name}: "
                  f"parent {p.get('error', 'ok')} / change {c.get('error', 'ok')}")
            bad += not same
            continue
        for csv in sorted(set(p["csv"]) | set(c["csv"])):
            hp, hc = p["csv"].get(csv), c["csv"].get(csv)
            if hp == hc:
                print(f"{'same':10s} {hp}  {name}/{csv}")
            else:
                print(f"{'MISMATCH':10s} {name}/{csv}: parent {hp} / change {hc}")
                bad += 1
    return bad


def run_trees(trees):
    """Run the job list on each tree at once; return each tree's jobs."""
    with tempfile.TemporaryDirectory() as tmp:
        runs = [start(tree, Path(tmp) / str(i)) for i, tree in enumerate(trees)]
        try:
            return [collect(src, proc) for src, proc in runs]
        finally:
            for _, proc in runs:
                proc.kill()
                proc.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="tree holding the reference src/")
    parser.add_argument("--manifest", help="recorded digests to compare against")
    parser.add_argument("--change", help="tree holding the changed src/")
    parser.add_argument("--write-manifest", metavar="PATH",
                        help="record the --change tree's digests in PATH")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        worker(args.worker)
        return 0
    if not args.change:
        parser.error("--change is required")
    if args.write_manifest:
        if args.parent or args.manifest:
            parser.error("--write-manifest takes only --change")
        [change] = run_trees([args.change])
        Path(args.write_manifest).write_text(
            json.dumps({"jobs": change}, indent=1, sort_keys=True) + "\n")
        print(f"{len(change)} jobs recorded in {args.write_manifest}")
        return 0
    if bool(args.parent) == bool(args.manifest):
        parser.error("give exactly one of --parent and --manifest")
    if args.manifest:
        parent = json.loads(Path(args.manifest).read_text())["jobs"]
        [change] = run_trees([args.change])
    else:
        parent, change = run_trees([args.parent, args.change])
    bad = compare(parent, change)
    print(f"{len(job_list())} jobs: {'identical' if not bad else f'{bad} mismatches'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
