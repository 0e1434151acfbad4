#!/usr/bin/env python3
"""Run every figure experiment on the bundled scenario and write the CSV
tables under results/ (13-15 s on a 2-core x86_64 VM; fig7 takes 2.4-2.7 s
with the BLAS pinned to one thread and 3.8-3.9 s without, fig4, fig5, fig8
and fig10 about 2 s each, fig9 about 1 s, fig6 and fig11 about 0.8 s)."""

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
