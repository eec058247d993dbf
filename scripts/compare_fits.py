#!/usr/bin/env python3
"""Compare the fits of two source trees of ordmixed, fit by fit.

    python scripts/compare_fits.py SRC_A SRC_B --blocks 20 --seed 11

Each tree (a checkout holding ``src/ordmixed`` and ``perfbench/``) runs in
its own subprocess, which fits the strawberry panel (9 fits and their
intercept fits) and the first ``--blocks`` blocks of the benchmark's
``study_slice`` and ``large_clusters`` workloads of ``--seed``, and
records every fit the workloads ask for (not the nested homogeneous start
fits inside them). The report lists, per workload, the largest
differences in log-likelihood, estimates and standard errors, the fits
that are the same bits on both sides by workload and model, every fit
whose log-likelihood differs by more than ``--tolerance``, every changed
``converged`` flag and Newton iteration count, every fit whose
``n_evaluations`` or optimizer message changed, a tally of each side's
optimizer messages, and the mean ``n_evaluations`` and information
passes per fit by link and structure on each side. It also counts, per workload and side, the fits
whose ``loglik`` is ``total_loglik`` at their estimates bit for bit, on
the fit's rule; a fit whose ``total_loglik`` raises counts as an error.
Every ``gof_report`` a workload makes is recorded too (the Pearson
chi-square with its df and p-value, C, AIC and the ICC), and the report
gives, per workload, how many reports are the same bits on both sides and
the largest relative difference of any statistic, so that changes to the
empirical-Bayes predictions behind the chi-square show. Each random-effect
full fit's empirical-Bayes modes (``predict_random_effects``, ``mode``) are
recorded as well, and the report gives, per workload, how many fits' modes
are the same bits on both sides and the largest absolute difference of any
mode.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

WORKLOADS = ("strawberry_panel", "study_slice", "large_clusters")
GOF_STATISTICS = ("chi2", "chi2_df", "chi2_p", "C", "aic", "icc")


def use_tree(tree: Path) -> None:
    """Make ``tree``'s ``ordmixed`` and benchmark modules the ones imported."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]


def run_worker(script: str, tree: Path, argv: list[str]) -> list[dict]:
    """Run ``script --worker TREE *argv`` in a subprocess from ``tree`` and
    return the JSON lines it printed, one per record."""
    command = [sys.executable, script, "--worker", str(tree), *argv]
    done = subprocess.run(command, capture_output=True, text=True, check=True, cwd=tree)
    return [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]


def _record(tree: Path, blocks: int, seed: int, workloads: list[str]) -> None:
    """Worker: run the workloads of ``tree`` and print one JSON line per fit
    and per GoF report."""
    use_tree(tree)
    import numpy as np
    import workloads as bench
    from ordmixed import estimation, gof, simulation
    from ordmixed.likelihood import total_loglik
    from ordmixed.quadrature import bivariate_rule, gauss_hermite

    current = {"workload": None, "block": None, "index": 0, "report": 0}

    def is_total(result, dataset, link, opts):
        """Whether ``total_loglik`` at the fit's estimates, on its rule, is
        its ``loglik`` bit for bit; the exception's name where it raises."""
        re = result.estimates.re
        default = estimation.DEFAULT_ORDER_2D if re.dim == 2 else estimation.DEFAULT_ORDER_1D
        order = opts.quadrature_order or default
        try:
            if re.dim == 2:
                rule = bivariate_rule(order, re.sigma1, re.sigma2, re.rho)
            else:
                rule = gauss_hermite(order) if re.dim else None
            return total_loglik(dataset, result.estimates, link, rule) == result.loglik
        except Exception as err:
            return type(err).__name__

    def recorded(fn, kind):
        def wrapper(dataset, link, re_structure="none", opts=estimation.FitOptions()):
            result = fn(dataset, link, re_structure, opts)
            info = result.diagnostics.get("information_passes")
            line = {
                "workload": current["workload"], "block": current["block"],
                "index": current["index"], "link": link.value, "structure": re_structure,
                "kind": kind, "loglik": result.loglik, "values": result.values.tolist(),
                "se": [None if math.isnan(v) else v for v in result.se.tolist()],
                "converged": bool(result.converged), "iterations": result.iterations,
                "n_evaluations": result.n_evaluations,
                "information_passes": info,
                "message": result.diagnostics.get("optimizer_message"),
                "is_total": is_total(result, dataset, link, opts),
            }
            if kind == "full" and result.estimates.re.dim:
                modes = estimation.predict_random_effects(dataset, result.estimates, link, "mode")
                line["modes"] = modes.tolist()
            current["index"] += 1
            print(json.dumps(line))
            return result

        return wrapper

    def reported(fn):
        def wrapper(dataset, full, intercept, *args, **kwargs):
            report = fn(dataset, full, intercept, *args, **kwargs)
            line = {
                "workload": current["workload"], "block": current["block"],
                "report": current["report"], "link": full.link.value,
                "structure": full.re_structure,
                "statistics": {name: getattr(report, name) for name in GOF_STATISTICS},
            }
            current["report"] += 1
            print(json.dumps(line))
            return report

        return wrapper

    for owner in (estimation, simulation):
        owner.fit = recorded(owner.fit, "full")
        owner.fit_intercept_model = recorded(owner.fit_intercept_model, "intercept")
    for owner in (gof, simulation):
        owner.gof_report = reported(owner.gof_report)
    for name in workloads:
        workload = bench.WORKLOADS[name]
        for block in range(1 if name == "strawberry_panel" else blocks):
            current.update(workload=name, block=block, index=0, report=0)
            with np.errstate(all="ignore"):
                workload.run(workload.build(seed, block))


def _records(tree: Path, args) -> list[dict]:
    argv = ["--blocks", str(args.blocks), "--seed", str(args.seed), "--workloads", *args.workloads]
    return run_worker(__file__, tree, argv)


def _relative_diff(a, b) -> float:
    """|b - a| / |a|, 0 for the same value (None and NaN included), inf
    where only one side has a value or a is 0."""
    if a == b or (a != a and b != b):
        return 0.0
    if a is None or b is None:
        return math.inf
    return abs(b - a) / abs(a) if a else math.inf


def _compare_reports(a_reports: list[dict], b_reports: list[dict]) -> None:
    """Print, per workload, the GoF reports that are the same bits and the
    largest relative difference of any statistic."""
    key = ("workload", "block", "report", "link", "structure")
    b_by_key = {tuple(r[k] for k in key): r for r in b_reports}
    summary = defaultdict(lambda: [0, 0, 0.0, ""])  # reports, bit-identical, worst, where
    for a in a_reports:
        b = b_by_key.get(tuple(a[k] for k in key))
        s = summary[a["workload"]]
        s[0] += 1
        if b is None:
            s[2], s[3] = math.inf, "missing on B"
            continue
        diffs = {name: _relative_diff(a["statistics"][name], b["statistics"][name]) for name in GOF_STATISTICS}
        s[1] += not any(diffs.values())
        name = max(diffs, key=diffs.get)
        if diffs[name] > s[2]:
            s[2], s[3] = diffs[name], "block {block} report {report} {link} {structure} ".format(**a) + name
    print(f"\ngof_report: {len(a_reports)} reports on A, {len(b_reports)} on B")
    print("workload            reports  bit-identical  max relative difference")
    for name, (n, same, worst, where) in summary.items():
        print(f"{name:18s} {n:8d}  {same:13d}  {worst:9.3g}  {where}")


def _compare_modes(a_fits: list[dict], b_by_key: dict, key: tuple) -> None:
    """Print, per workload, the random-effect full fits whose empirical-Bayes
    modes are the same bits on both sides and the largest absolute
    difference of any mode."""
    summary = defaultdict(lambda: [0, 0, 0.0])  # fits, bit-identical, largest difference
    for a in a_fits:
        if "modes" not in a:
            continue
        b = b_by_key[tuple(a[k] for k in key)].get("modes")
        s = summary[a["workload"]]
        s[0] += 1
        if b is None or len(b) != len(a["modes"]):
            s[2] = math.inf
            continue
        s[1] += a["modes"] == b
        s[2] = max(s[2], max(_max_abs_diff(x, y) for x, y in zip(a["modes"], b)))
    print("\nempirical-Bayes modes of the random-effect full fits:")
    print("workload            fits  bit-identical  max|dmode|")
    for name, (n, same, worst) in summary.items():
        print(f"{name:18s} {n:5d}  {same:13d}  {worst:10.3g}")


def _max_abs_diff(a, b) -> float:
    pairs = [(x, y) for x, y in zip(a, b) if x is not None and y is not None]
    return max((abs(x - y) for x, y in pairs), default=0.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", type=Path, help="SRC_A SRC_B")
    parser.add_argument("--blocks", type=int, default=2, help="study and large-cluster blocks")
    parser.add_argument("--seed", type=int, default=0, help="the workloads' seed")
    parser.add_argument("--tolerance", type=float, default=1e-8, help="log-likelihood difference to list")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        _record(args.worker.resolve(), args.blocks, args.seed, args.workloads)
        return 0
    if len(args.trees) != 2:
        parser.error("give two source trees, SRC_A and SRC_B")
    a_lines, b_lines = (_records(tree.resolve(), args) for tree in args.trees)
    a_fits, b_fits = ([line for line in lines if "report" not in line] for lines in (a_lines, b_lines))
    a_reports, b_reports = ([line for line in lines if "report" in line] for lines in (a_lines, b_lines))
    key = ("workload", "block", "index", "link", "structure", "kind")
    b_by_key = {tuple(f[k] for k in key): f for f in b_fits}
    if len(a_fits) != len(b_fits) or any(tuple(f[k] for k in key) not in b_by_key for f in a_fits):
        print(f"the trees made different fits: {len(a_fits)} against {len(b_fits)}")
        return 1

    print(f"A = {args.trees[0]}, B = {args.trees[1]}; seed {args.seed}, {args.blocks} blocks")
    print("differences are B - A")
    listed, flags, steps, paths = [], [], [], []
    worst = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
    identical = defaultdict(lambda: [0, 0])  # by (workload, kind): bit-identical, all
    counts = defaultdict(lambda: [0, 0, 0, 0, 0])
    for a in a_fits:
        b = b_by_key[tuple(a[k] for k in key)]
        label = "{workload} block {block} fit {index} {link} {structure} {kind}".format(**a)
        delta = b["loglik"] - a["loglik"]
        w = worst[a["workload"]]
        w[0] += 1
        w[1] = max(w[1], abs(delta))
        w[2] = max(w[2], _max_abs_diff(a["values"], b["values"]))
        w[3] = max(w[3], _max_abs_diff(a["se"], b["se"]))
        same = identical[a["workload"], a["kind"]]
        same[0] += all(a[k] == b[k] for k in ("loglik", "values", "se"))
        same[1] += 1
        if not abs(delta) <= args.tolerance:
            listed.append(f"  {label}: loglik {delta:+.3g}, estimates "
                          f"{_max_abs_diff(a['values'], b['values']):.3g}; B: {b['message']}")
        if a["converged"] != b["converged"]:
            flags.append(f"  {label}: converged {a['converged']} -> {b['converged']}")
        if a["iterations"] != b["iterations"]:
            steps.append(f"  {label}: iterations {a['iterations']} -> {b['iterations']}")
        if (a["n_evaluations"], a["message"]) != (b["n_evaluations"], b["message"]):
            paths.append(f"  {label}: n_evaluations {a['n_evaluations']} -> {b['n_evaluations']}, "
                         f"{a['message']} -> {b['message']}")
        c = counts[a["workload"], a["link"], a["structure"], a["kind"]]
        c[0] += 1
        c[1] += a["n_evaluations"]
        c[2] += b["n_evaluations"]
        c[3] += a["information_passes"] or 0
        c[4] += b["information_passes"] or 0

    print("\nworkload            fits  max|dloglik|  max|destimate|  max|dse|")
    for name, (n, dl, de, ds) in worst.items():
        print(f"{name:18s} {n:5d}  {dl:12.3g}  {de:14.3g}  {ds:8.3g}")
    _compare_reports(a_reports, b_reports)
    _compare_modes(a_fits, b_by_key, key)
    print("\nfits bit-identical in log-likelihood, estimates and standard errors:")
    for (name, kind), (same, n) in identical.items():
        print(f"  {name:18s} {kind:9s} {same:5d} of {n:5d}")
    print(f"\nfits whose log-likelihood differs by more than {args.tolerance:g}: {len(listed)}")
    print("\n".join(listed))
    print(f"changed converged flags: {len(flags)}")
    print("\n".join(flags))
    print(f"changed Newton iteration counts: {len(steps)}")
    print("\n".join(steps))
    print(f"fits whose n_evaluations or optimizer message changed: {len(paths)}")
    print("\n".join(paths))
    print("\nfits whose loglik is total_loglik at their estimates, bit for bit:")
    for side, fits in (("A", a_fits), ("B", b_fits)):
        for name in worst:
            found = [f["is_total"] for f in fits if f["workload"] == name]
            errors = [v for v in found if not isinstance(v, bool)]
            print(f"  {side} {name:18s} {sum(v is True for v in found):5d} of {len(found):5d}, "
                  f"{len(errors)} errors {sorted(set(errors))}")
    for side, fits in (("A", a_fits), ("B", b_fits)):
        tally = defaultdict(int)
        for f in fits:
            tally[f["message"]] += 1
        print(f"\noptimizer messages, {side}:")
        for message, n in sorted(tally.items(), key=lambda item: -item[1]):
            print(f"  {n:5d}  {message}")
    print("\nmean per fit: n_evaluations A -> B (ratio), information passes A -> B")
    for (name, link, structure, kind), (n, ea, eb, ia, ib) in sorted(counts.items()):
        print(f"  {name:16s} {link:4s} {structure:10s} {kind:9s} {n:4d} fits: "
              f"{ea / n:6.1f} -> {eb / n:6.1f} ({ea / max(eb, 1):4.2f}x), {ia / n:5.1f} -> {ib / n:5.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
