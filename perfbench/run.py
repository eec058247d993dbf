"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload strawberry_panel --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src``
beside this directory. The workload is repeated in passes for about
``--seconds`` seconds in this one process, with BLAS threads pinned to 1.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, the tracing
overhead between the two kinds of pass, and writes the spans to
``.perfbench/``. Every pass's outputs are checked; the exit code is 1
when a check fails and 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE.parent / ".perfbench"
WORKLOADS = ("strawberry_panel", "study_slice", "large_clusters")
SETUP_PROBES = 5
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh processes of importing ordmixed and building the
    workload's inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload, str(seed)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def timed_passes(workload, inputs_for, tracers, until, problems) -> list[dict]:
    """Run passes until the next one would end more than half a pass after
    ``until``. Pass k runs on ``inputs_for(k)`` inside ``tracers[k % len]``,
    so a traced run alternates untraced and traced passes and drifts in the
    machine's speed hit both alike; every tracer gets at least one pass.
    Each pass's outputs are checked outside its timed region."""
    passes = []
    while True:
        tracer = tracers[len(passes) % len(tracers)]
        inputs = inputs_for(len(passes))
        with tracer:
            mark = tracer.mark()
            wall, cpu = perf_counter(), process_time()
            output = workload.run(inputs)
            wall, cpu = perf_counter() - wall, process_time() - cpu
            end = tracer.mark()
        problems += workload.check(inputs, output)
        # only the first pass's outputs are kept, for loglik_err
        passes.append({"wall": wall, "cpu": cpu, "tracer": tracer, "start": mark, "end": end,
                       "output": None if passes else output})
        if len(passes) >= len(tracers) and perf_counter() + wall / 2 >= until:
            return passes


def loglik_err(points, reference) -> tuple[float, list[str]]:
    """Sum over the points' clusters of |library - reference| per-cluster
    log-likelihood, and the points whose own sum exceeds their tolerance."""
    import numpy as np
    from ordmixed.likelihood import cluster_logliks
    from ordmixed.model import UnivariateRandomEffect

    total, problems, probed = 0.0, [], set()
    for p in points:
        ds, re = p.dataset, p.params.re
        if isinstance(re, UnivariateRandomEffect):
            loading = np.full((ds.n_categories - 1, 1), re.sigma)
        else:
            s1, s2, rho = re.sigma1, re.sigma2, re.rho
            loading = np.array([[s1, 0.0], [rho * s2, s2 * math.sqrt(max(0.0, 1 - rho**2))]])
        # scipy's quad checks three clusters of the first point per link and effect
        key = (p.link, loading.shape[1])
        probe = () if key in probed else (0, ds.n_clusters // 2, ds.n_clusters - 1)
        probed.add(key)
        ref = reference.reference_logliks(
            p.link.value, ds.covariate_matrix, ds.count_matrix,
            p.params.fixed.intercepts, p.params.fixed.slopes, loading, quad_clusters=probe,
        )
        err = float(np.abs(cluster_logliks(ds, p.params, p.link, p.rule) - ref).sum())
        total += err
        if p.tolerance is not None and err > p.tolerance:
            problems.append(f"{p.label}: loglik off the reference by {err:.3g}")
    return total, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ordmixed" / "__init__.py").is_file():
        print(f"error: no ordmixed sources at {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    setup_s = setup_seconds(args.workload, args.seed)

    sys.path.insert(0, str(SRC))
    import reference
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    first = workload.build(args.seed, 0)

    def inputs_for(block):
        if args.trace or block == 0:
            return first
        return workload.build(args.seed, block)

    problems: list[str] = []
    plain, tracer = spans.Tracer(detail=False), spans.Tracer(detail=True)
    passes = timed_passes(workload, inputs_for, [plain, tracer] if args.trace else [plain],
                          perf_counter() + args.seconds, problems)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    untraced = [p for p in passes if p["tracer"] is plain]
    traced = [p for p in passes if p["tracer"] is tracer]
    fits = plain.fits + tracer.fits
    failed = sum(f["error"] is not None or not f["converged"] for f in fits)
    error, off = loglik_err(workload.loglik_points(first, passes[0]["output"]), reference)
    problems += off

    if args.trace:
        per_pass = [
            spans.pass_metrics(
                tracer.spans[p["start"][0]:p["end"][0]],
                tracer.fits[p["start"][1]:p["end"][1]],
                p["start"][0],
            )
            for p in traced
        ]
        values, differ = spans.combine(per_pass)
        problems += [f"count {k} differs between traced passes" for k in differ]
        quiet = statistics.median(p["wall"] for p in untraced)
        values["trace.overhead_pct"] = 100.0 * (
            statistics.median(p["wall"] for p in traced) / quiet - 1.0
        )
        OUT.mkdir(exist_ok=True)
        tracer.write(
            OUT / f"spans-{args.workload}-seed{args.seed}.json.gz",
            [[p["start"][0], p["end"][0]] for p in traced],
        )
        units = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    else:
        re_fit_seconds = [
            f["seconds"] for f in plain.fits
            if f["kind"] == "full" and f["structure"] == "univariate"
        ]
        values = {
            "wall_s": statistics.median(p["wall"] for p in untraced),
            "cpu_s": statistics.median(p["cpu"] for p in untraced),
            "fit_s.p50": statistics.median(re_fit_seconds),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "loglik_err": error,
        }
        units = json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in units}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} seed {args.seed}: {len(fits)} fits, {len(problems)} check failures,"
          " pass seconds " + " ".join(f"{p['wall']:.3f}" for p in passes))
    for problem in problems:
        print("check failed:", problem, file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": len(fits), "failed": failed,
                      "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
