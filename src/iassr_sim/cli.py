"""Command line entry point.

    iassr-sim run --figure fig2 --config default.cfg --trials 100 \
        --seed 7 --out results/ [--snr-db 0,10,20] [--coherence-T 100,250]

Exit status:

- 0 on success;
- 1 on a numerical failure inside a trial (a ``LinAlgError``), printed as
  ``error: numerical failure: ...``;
- 2 on a specification problem (unknown figure, bad trial count or grids,
  unreadable config).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from numpy.linalg import LinAlgError

from .harness import FIGURES, ExperimentSpec, run
from .scenario import bundled_config_path, load_scenario


def _parse_grid(text, cast):
    try:
        return tuple(cast(v) for v in text.split(",") if v.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {exc}") from exc


def build_parser():
    parser = argparse.ArgumentParser(prog="iassr-sim")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one figure experiment and write CSV")
    runp.add_argument("--figure", required=True, choices=sorted(FIGURES))
    runp.add_argument("--config", default=None,
                      help="scenario config file (bundled default when omitted)")
    runp.add_argument("--trials", type=int, default=100)
    runp.add_argument("--seed", type=int, default=None,
                      help="base seed (scenario seed when omitted)")
    runp.add_argument("--out", default="results")
    runp.add_argument("--snr-db", type=lambda s: _parse_grid(s, float), default=None)
    runp.add_argument("--coherence-T", dest="coherence_t",
                      type=lambda s: _parse_grid(s, int), default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is None:
            config, clusters = load_scenario(bundled_config_path())
        else:
            config, clusters = load_scenario(args.config)
        kwargs = dict(figure=args.figure, config=config, clusters=clusters,
                      trials=args.trials,
                      base_seed=args.seed if args.seed is not None else config.seed,
                      out_dir=Path(args.out))
        if args.snr_db is not None:
            kwargs["snr_grid"] = args.snr_db
        if args.coherence_t is not None:
            kwargs["t_grid"] = args.coherence_t
        spec = ExperimentSpec(**kwargs)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        paths = run(spec)
    except LinAlgError as exc:  # a ValueError, but no specification problem
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for p in paths:
        print(p)
    return 0


if __name__ == "__main__":
    sys.exit(main())
