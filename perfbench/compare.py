"""Compare a parent commit with a change on the benchmark.

Measure in alternating pairs (pair i runs workload seed FIRST_SEED + i on
both trees, parent first on even pairs, change first on odd ones):

    python3 perfbench/compare.py run --parent ../parent --change . \
        --workload snr_sweep --workload training --pairs 10 --out pairs.jsonl

Report one row per (end-to-end metric, workload):

    python3 perfbench/compare.py report pairs.jsonl

Each row gives both sides' median and quartiles, the fraction of pairs the
change won (ties count for neither side) and a verdict:

improved    at least 10 pairs ran, the change won at least 9 in 10 of them,
            its median is better by more than the distance between the
            parent's quartiles, and it failed no more samples than the parent;
worse       the spread of both sides is within the metric's bound, and the
            change's median is worse than the parent's by more than the bound;
unresolved  the spread of either side exceeds the bound and the change's runs
            do not all read better than every parent run;
no worse    otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
FIRST_SEED = 1000


def run_pairs(parent, change, workloads, pairs, seconds, out):
    sides = {"parent": Path(parent).resolve(), "change": Path(change).resolve()}
    with open(out, "a", encoding="utf-8") as fh:
        for i in range(pairs):
            seed = FIRST_SEED + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    proc = subprocess.run(
                        [sys.executable, "perfbench/run.py", "--workload", workload,
                         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                        cwd=sides[side], capture_output=True, text=True, timeout=900,
                        check=True)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    fh.write(json.dumps({"pair": i, "side": side, "workload": workload,
                                         "seed": seed, "result": result}) + "\n")
                    fh.flush()


def quartiles(values):
    if len(values) < 2:
        raise ValueError("need at least two runs per side")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound, wins, pairs, more_failures=False):
    """Classify one (metric, workload) row; ``parent`` and ``change`` are
    the values of each side's runs."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (cm - pm)
    if pairs >= 10 and not more_failures and wins >= 0.9 * pairs and gain > p3 - p1:
        return "improved"
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    if spread > bound:
        all_better = (min(change) > max(parent) if better == "higher"
                      else max(change) < min(parent))
        return "no worse" if all_better else "unresolved"
    if -gain > bound * abs(pm):
        return "worse"
    return "no worse"


def report(records, metrics):
    lines = [f"{'workload':10s} {'metric':14s} {'parent q1/med/q3':>30s} "
             f"{'change q1/med/q3':>30s} {'wins':>6s}  verdict"]
    for workload in sorted({r["workload"] for r in records}):
        runs = {side: {r["pair"]: r["result"] for r in records
                       if r["workload"] == workload and r["side"] == side}
                for side in ("parent", "change")}
        pairs = sorted(set(runs["parent"]) & set(runs["change"]))
        failed = {side: sum(runs[side][p]["failed"] for p in pairs) for side in runs}
        for m in metrics:
            name = m["name"]
            values = {side: [runs[side][p]["metrics"][name]["value"] for p in pairs]
                      for side in runs}
            sign = 1.0 if m["better"] == "higher" else -1.0
            wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
            v = verdict(values["parent"], values["change"], m["better"], m["bound"],
                        wins, len(pairs), failed["change"] > failed["parent"])
            cols = ["/".join(f"{q:.4g}" for q in quartiles(values[side]))
                    for side in ("parent", "change")]
            lines.append(f"{workload:10s} {name:14s} {cols[0]:>30s} {cols[1]:>30s} "
                         f"{wins}/{len(pairs):<4d}  {v}")
        incorrect = {side: sum(not runs[side][p]["correct"] for p in pairs) for side in runs}
        lines.append(f"{workload:10s} failed samples parent {failed['parent']}, change "
                     f"{failed['change']}; incorrect runs parent {incorrect['parent']}, "
                     f"change {incorrect['change']}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="measure alternating pairs")
    runp.add_argument("--parent", required=True)
    runp.add_argument("--change", required=True)
    runp.add_argument("--workload", action="append", required=True)
    runp.add_argument("--pairs", type=int, default=10)
    runp.add_argument("--seconds", type=int,
                      default=json.loads(BENCHMARK.read_text())["run_seconds"])
    runp.add_argument("--out", required=True)
    rep = sub.add_parser("report", help="print the comparison table")
    rep.add_argument("pairs_file")
    args = parser.parse_args(argv)
    if args.command == "run":
        run_pairs(args.parent, args.change, args.workload, args.pairs, args.seconds, args.out)
        return 0
    records = [json.loads(line) for line in Path(args.pairs_file).read_text().splitlines()
               if line.strip()]
    print(report(records, json.loads(BENCHMARK.read_text())["end_to_end"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
