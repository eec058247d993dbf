#!/usr/bin/env python3
"""Time one kernel pass, one Newton pass, one Newton direction, one
homogeneous fit and one empirical-Bayes prediction of two source trees of
ordmixed.

    python scripts/pass_timing.py SRC_A SRC_B --rounds 5

Each tree (a checkout holding ``src/ordmixed`` and ``perfbench/``) runs in
its own subprocess, through ``compare_fits.py``'s runner, once per round;
the rounds alternate which tree runs first. A subprocess times, for each
link, the median per-call time of:

- ``LoglikKernel.louis_moments``, with the node features and offsets of the
  fit's objective, as a Newton pass calls it, and ``conditional_terms``;
- ``louis_moments`` of the intercept-only model with the same effect, on a
  kernel without covariates, whose rows all share one predictor row;
- a rejected trial: ``_Objective.full`` at the same point with a floor
  above its log-likelihood, as Newton's line search calls it, which stops
  after the log-likelihood (a tree whose ``full`` takes no floor makes the
  whole pass, as its line search does);
- the intercept model's pass and stopped trial: ``_Objective.full`` of
  the intercept fit, on the kernel the fit builds (without covariates),
  without and with such a floor;
- the contraction: ``_Objective.full`` of the full model on a kernel whose
  ``louis_moments`` hands back the moments of one earlier pass (a copy of
  the second moment, which the pass writes over), so that only the work
  around the kernel is timed: the Hessian from the moments, the
  reduction to covariate patterns where a tree makes one, and the chain
  rule through the Jacobian;
- one Newton pass: a Newton fit of the size's random-effect model from its
  usual start, divided by the passes it made, through the tree's fit-level
  Newton (``_maximize``, the batched engine for a batch of one, or the
  older ``_newton``);
- the part of that pass spent outside the kernel, the fit's time less its
  kernel calls' own, per pass;
- one Newton direction on the score and information of that start, through
  the engine's ``_directions`` for a batch of one, or the older
  ``_ascent_direction``;
- a homogeneous intercept fit through ``fit_intercept_model``, which starts
  at its maximum and so takes one pass and no Newton step: the fixed cost
  of a fit around its kernel work;
- ``predict_random_effects`` by posterior mode, as the GoF panel calls it,
  for the full model and for the intercept model with the same effect,
  whose kernel has no covariates (at 960x30, 399 distinct clusters), with
  the ``conditional_terms`` passes each call makes;
- the size's random-effect fit through ``fit`` on a dataset whose
  homogeneous fit has run (a tree that keeps the homogeneous maximum per
  dataset starts there without a nested fit), and a cold one on a dataset
  object of its own, with each fit's ``n_evaluations`` beside its time;

on three datasets:

- 48x20: the first replication of the benchmark's ``study_slice`` block 0,
  48 clusters at 20 nodes, the size of every study fit, with the
  univariate effect;
- 960x30: ``large_clusters`` block 0, 960 clusters of 50 at the default
  30 nodes, univariate;
- 48x144: the strawberry panel with the bivariate effect on its default
  12 x 12 rule.

The univariate passes run at the study's true parameters (sigma 1.5), the
bivariate ones at each link's strawberry estimates, and the conditional
pass at zero offsets, as a homogeneous fit calls it. The report gives, per
size, link and function, the median over the rounds of each tree's
medians, and B's change against A, for the two fits and the two
predictions each tree's passes, and per size the mean passes of a
prediction over the links and both models.
"""

from __future__ import annotations

import argparse
import inspect
import json
import statistics
from collections import defaultdict
from dataclasses import replace
from pathlib import Path
from time import perf_counter

from compare_fits import run_worker, use_tree

# size: (workload, nodes per axis, calls per median, Newton fits, structure)
SIZES = {
    "48x20": ("study_slice", 20, 400, 20, "univariate"),
    "960x30": ("large_clusters", 30, 40, 4, "univariate"),
    "48x144": ("strawberry_panel", 12, 100, 8, "bivariate"),
}
FUNCTIONS = (
    "louis_moments", "conditional_terms", "intercept louis", "rejected trial", "intercept pass",
    "intercept trial", "contraction", "Newton pass", "outside the kernel", "Newton direction",
    "intercept fit", "predict_random_effects", "intercept predict", "fit after homogeneous",
    "cold fit",
)


def _median_call(fn, calls: int) -> float:
    fn()  # fills the kernel's workspace
    times = []
    for _ in range(calls):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def _clocked(fn, clock: list):
    """``fn``, adding the seconds of each call to ``clock[0]``."""

    def call(*args):
        start = perf_counter()
        out = fn(*args)
        clock[0] += perf_counter() - start
        return out

    return call


def _passes(fn) -> int:
    """The ``conditional_terms`` passes of one call of ``fn``."""
    from ordmixed.likelihood import LoglikKernel

    calls, original = [], LoglikKernel.conditional_terms

    def counted(self, *args):
        calls.append(1)
        return original(self, *args)

    LoglikKernel.conditional_terms = counted
    try:
        fn()
    finally:
        LoglikKernel.conditional_terms = original
    return len(calls)


def _intercept_kernel(kernel_class, dataset, link):
    """A kernel on none of the dataset's covariates, as an intercept fit
    builds it; a tree whose kernel takes covariate columns gets none."""
    if "covariates" in inspect.signature(kernel_class).parameters:
        return kernel_class(dataset, link, covariates=False)
    return kernel_class(dataset, link, [])


def _measure(tree: Path, seed: int) -> None:
    """Worker: print one JSON line per size, link and function."""
    use_tree(tree)
    import numpy as np
    import workloads as bench
    from ordmixed import estimation, simulation
    from ordmixed.likelihood import LoglikKernel
    from ordmixed.model import RANDOM_EFFECTS

    truth = simulation.study_true_parameters(bench.STUDY_SIGMA)
    if hasattr(estimation, "_maximize"):  # the batched engine, a batch of one
        newton = estimation._maximize

        def direction(score, info):
            held = np.zeros((1, score.size), dtype=bool)
            return estimation._directions(score[None], info[None], held)
    else:
        newton, direction = estimation._newton, estimation._ascent_direction
    for size, (workload, order, calls, fits, structure) in SIZES.items():
        inputs = bench.WORKLOADS[workload].build(seed, 0)
        dataset = inputs.dataset or simulation.generate_dataset(inputs.design, 0)
        k1 = dataset.n_categories - 1
        opts = estimation.FitOptions(quadrature_order=order, standard_errors=False)
        param = estimation._Parameterization(k1, dataset.slope_names(), RANDOM_EFFECTS[structure])
        for tag, link in bench.LINKS.items():
            params = truth
            if structure == "bivariate":
                params = estimation.fit(dataset, link, structure, opts).estimates
            c, b = params.fixed.intercepts, params.fixed.slopes
            kernel = LoglikKernel(dataset, link)
            objective = estimation._Objective(kernel, param, order)
            offsets = objective._offsets(param.pack(params)[param.n_fixed :])[0]
            features, weights = objective._features, objective.weights
            # the intercept-only model's kernel and offsets, at the same effect
            lone = _intercept_kernel(LoglikKernel, dataset, link)
            lone_param = estimation._Parameterization(k1, (), RANDOM_EFFECTS[structure])
            lone_offsets = estimation._Objective(lone, lone_param, order)._offsets(
                param.pack(params)[param.n_fixed :]
            )[0]
            theta = param.pack(params)
            floor = objective.full(theta).loglik + 1.0
            # the intercept fit's objective, at the same effect
            intercept_objective = estimation._Objective(
                _intercept_kernel(LoglikKernel, dataset, link), lone_param, order
            )
            lone_theta = np.r_[c, param.pack(params)[param.n_fixed :]]
            lone_floor = intercept_objective.full(lone_theta).loglik + 1.0
            if "floor" in inspect.signature(objective.full).parameters:
                rejected = lambda: objective.full(theta, floor)
                lone_rejected = lambda: intercept_objective.full(lone_theta, lone_floor)
            else:
                rejected = lambda: objective.full(theta)
                lone_rejected = lambda: intercept_objective.full(lone_theta)
            # the full model's pass around fixed moments
            moments = kernel.louis_moments(c, b, offsets, weights, features)
            frozen = LoglikKernel(dataset, link)
            frozen.louis_moments = lambda *args: moments._replace(second=moments.second.copy())
            contracting = estimation._Objective(frozen, param, order)
            timed = {
                "louis_moments": lambda: kernel.louis_moments(c, b, offsets, weights, features),
                "conditional_terms": lambda: kernel.conditional_terms(c, b, np.zeros((1, k1))),
                "intercept louis": lambda: lone.louis_moments(
                    c, np.empty(0), lone_offsets, weights, features
                ),
                "rejected trial": rejected,
                "intercept pass": lambda: intercept_objective.full(lone_theta),
                "intercept trial": lone_rejected,
                "contraction": lambda: contracting.full(theta),
            }
            for name, fn in timed.items():
                line = {"size": size, "link": tag, "function": name,
                        "seconds": _median_call(fn, calls)}
                print(json.dumps(line))
            theta0, _ = estimation._starting_point(
                dataset, link, opts, param, dataset.slope_names(), kernel
            )
            in_kernel = [0.0]
            clocked = LoglikKernel(dataset, link)
            clocked.louis_moments = _clocked(clocked.louis_moments, in_kernel)
            per_pass, outside = [], []
            for _ in range(fits + 1):
                objective = estimation._Objective(clocked, param, order)
                in_kernel[0] = 0.0
                start = perf_counter()
                newton(objective, theta0, param.bounds())
                elapsed = perf_counter() - start
                per_pass.append(elapsed / max(1, objective.passes))
                outside.append((elapsed - in_kernel[0]) / max(1, objective.passes))
            p = estimation._Objective(kernel, param, order).full(theta0)
            intercept = lambda: estimation.fit_intercept_model(dataset, link, "none", opts)
            predict = lambda: estimation.predict_random_effects(dataset, params, link)
            lone_params = replace(params, fixed=replace(params.fixed, slopes=np.empty(0)))
            lone_predict = lambda: estimation.predict_random_effects(dataset, lone_params, link)
            seconds = {
                "Newton pass": statistics.median(per_pass[1:]),
                "outside the kernel": statistics.median(outside[1:]),
                "Newton direction": _median_call(lambda: direction(p.score, p.information), calls),
                "intercept fit": _median_call(intercept, calls // 4),
                "predict_random_effects": _median_call(predict, calls // 4),
                "intercept predict": _median_call(lone_predict, calls // 4),
            }
            passes = {"predict_random_effects": _passes(predict), "intercept predict": _passes(lone_predict)}
            for name, value in seconds.items():
                line = {"size": size, "link": tag, "function": name, "seconds": value}
                if name in passes:
                    line["passes"] = passes[name]
                print(json.dumps(line))
            for name, homogeneous in (("fit after homogeneous", True), ("cold fit", False)):
                times = []
                for _ in range(fits):
                    fresh = replace(dataset)
                    if homogeneous:
                        estimation.fit(fresh, link, "none", opts)
                    else:  # fills the dataset's caches, as the homogeneous fit does
                        LoglikKernel(fresh, link)
                    start = perf_counter()
                    result = estimation.fit(fresh, link, structure, opts)
                    times.append(perf_counter() - start)
                line = {"size": size, "link": tag, "function": name,
                        "seconds": statistics.median(times), "passes": result.n_evaluations}
                print(json.dumps(line))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", type=Path, help="SRC_A SRC_B")
    parser.add_argument("--rounds", type=int, default=5, help="subprocesses per tree")
    parser.add_argument("--seed", type=int, default=0, help="the workloads' seed")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        _measure(args.worker.resolve(), args.seed)
        return 0
    if len(args.trees) != 2:
        parser.error("give two source trees, SRC_A and SRC_B")
    trees = [tree.resolve() for tree in args.trees]
    medians = defaultdict(lambda: ([], []))
    passes = defaultdict(lambda: [None, None])
    for round_ in range(args.rounds):
        order = (0, 1) if round_ % 2 == 0 else (1, 0)
        for side in order:
            for line in run_worker(__file__, trees[side], ["--seed", str(args.seed)]):
                key = line["size"], line["link"], line["function"]
                medians[key][side].append(line["seconds"])
                if "passes" in line:
                    passes[key][side] = line["passes"]

    print(f"A = {args.trees[0]}, B = {args.trees[1]}; seed {args.seed}, {args.rounds} rounds")
    print("median per call over the rounds, in microseconds\n")
    print(f"{'size':7s} {'link':4s} {'function':21s} {'A':>9s} {'B':>9s} {'B/A - 1':>8s}")
    for size in SIZES:
        for tag in ("po", "acl", "crl"):
            for name in FUNCTIONS:
                a, b = (1e6 * statistics.median(v) for v in medians[size, tag, name])
                row = f"{size:7s} {tag:4s} {name:21s} {a:9.1f} {b:9.1f} {b / a - 1:+8.1%}"
                if (size, tag, name) in passes:
                    row += "  passes {} -> {}".format(*passes[size, tag, name])
                print(row)
    print("\nmean conditional_terms passes per predict_random_effects call, A -> B")
    for size in SIZES:
        found = [passes[size, tag, name] for tag in ("po", "acl", "crl")
                 for name in ("predict_random_effects", "intercept predict")]
        a, b = (statistics.mean(side[i] for side in found) for i in (0, 1))
        print(f"{size:7s} {a:5.2f} -> {b:5.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
