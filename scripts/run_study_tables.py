#!/usr/bin/env python3
"""Run the full replication-study grid behind the published scenario tables.

Six generator configurations (three link families, random-effect standard
deviation 0.6 or 1.5) each produce 100 seeded datasets; every dataset is
fitted by all three link families with and without a univariate random
effect. One summary block per (generator, fitted link) pair is printed,
which is the layout of the published tables 8 through 25.

Takes a few minutes single-threaded; set --workers to parallelize across
replications.
"""

import argparse
import sys

from ordmixed import FitOptions, LinkFamily
from ordmixed.io import render_tree, summary_tree
from ordmixed.simulation import SimulationDesign, run_study, study_true_parameters


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--replications", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--order", type=int, default=20, help="quadrature order")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--sigma", type=float, action="append", default=None,
                        help="generator sigma (repeatable; default 0.6 and 1.5)")
    parser.add_argument("--format", default="text", choices=["text", "csv", "json"])
    args = parser.parse_args(argv)

    sigmas = args.sigma or [0.6, 1.5]
    fits = tuple(
        (link, structure) for link in LinkFamily for structure in ("none", "univariate")
    )
    opts = FitOptions(quadrature_order=args.order, standard_errors=False)
    for sigma in sigmas:
        for generator in LinkFamily:
            design = SimulationDesign(
                link=generator,
                true_params=study_true_parameters(sigma),
                fits=fits,
                replications=args.replications,
                seed=args.seed,
            )
            summary = run_study(design, opts, workers=args.workers)
            print(f"===== generator {generator.value}, sigma {sigma} =====")
            sys.stdout.write(render_tree(summary_tree(summary), args.format))
            print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
