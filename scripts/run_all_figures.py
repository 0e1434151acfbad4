#!/usr/bin/env python3
"""Run every figure experiment on the bundled scenario and write the CSV
tables under results/ (18-21 s on a 2-core x86_64 VM, with or without the
BLAS pinned to one thread; fig4, fig5 and fig7 take about 3-4.5 s each,
fig10 2.5-4 s, fig9 about 1.5 s and fig11 about 1 s)."""

import argparse
import time
from pathlib import Path

from iassr_sim.harness import FIGURES, ExperimentSpec, run
from iassr_sim.scenario import bundled_config_path, load_scenario

TRIALS = {"fig2": 1, "fig3": 1, "fig7": 20, "fig8": 50}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="results")
    parser.add_argument("--config", default=None)
    parser.add_argument("--trials", type=int, default=100,
                        help="Monte Carlo trials per sweep point")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    config, clusters = load_scenario(args.config or bundled_config_path())
    seed = args.seed if args.seed is not None else config.seed
    total = time.time()
    for fig in sorted(FIGURES):
        start = time.time()
        spec = ExperimentSpec(figure=fig, config=config, clusters=clusters,
                              trials=TRIALS.get(fig, args.trials),
                              base_seed=seed, out_dir=Path(args.out))
        paths = run(spec)
        names = ", ".join(p.name for p in paths)
        print(f"{fig:6s} -> {names}  ({time.time() - start:.1f}s)")
    print(f"total {time.time() - total:.1f}s")


if __name__ == "__main__":
    main()
