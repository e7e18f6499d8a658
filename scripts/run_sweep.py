#!/usr/bin/env python3
"""Run the mechanism-comparison sweep and write results.csv + manifest.json.

Desk scale (the default) keeps the runtime in coffee-break territory:
100k users over a 1023-item Zipf domain.  ``--full`` switches to the
full-scale stream (593358 users) for publication-grade tables.
"""

import argparse
import sys

from fldp.datasets import DatasetSpec
from fldp.experiment import DEFAULT_TOPK, DEFAULT_TRIALS, ExperimentSpec, run_experiment
from fldp.mechanisms import MECHANISMS

DESK_SCALE_N = 100_000
FULL_SCALE_N = 593_358
SWEEP_EPSILONS = (0.4, 0.5, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="sweep_out", help="output directory")
    parser.add_argument(
        "--mechanisms",
        default=",".join(MECHANISMS),
        help="comma-separated subset of " + ",".join(MECHANISMS),
    )
    parser.add_argument("--domain", type=int, default=1023, help="Zipf domain size")
    parser.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument(
        "--full", action="store_true",
        help=f"use the full-scale stream (n={FULL_SCALE_N}) instead of {DESK_SCALE_N}",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    n = FULL_SCALE_N if args.full else DESK_SCALE_N
    spec = ExperimentSpec(
        dataset=DatasetSpec(
            source="zipf", n=n, domain_size=args.domain, seed=args.seed
        ),
        mechanisms=tuple(args.mechanisms.split(",")),
        epsilons=SWEEP_EPSILONS,
        topk_list=DEFAULT_TOPK,
        trials=args.trials,
        seed=args.seed,
        output_dir=args.out,
    )
    rows = run_experiment(spec)
    mean_rows = [row for row in rows if row.trial == "mean"]
    print(f"wrote {args.out}/results.csv ({len(rows)} rows) and manifest.json")
    for row in mean_rows:
        if row.k == DEFAULT_TOPK[0]:
            print(
                f"  {row.mechanism:>6}  eps={row.epsilon:<4}  "
                f"kld={row.kld:.4f}  se={row.se:.3e}  ncr={row.ncr:.3f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
