"""Spans around calls into ordmixed, recorded from outside the library.

Each public function is replaced, for the length of a run, at the name its
caller looks it up under: ``ordmixed.simulation.fit`` for ``run_study``,
``ordmixed.gof.predict_random_effects`` for the goodness-of-fit panel,
methods on ``LoglikKernel`` for the kernel. A span is
``[name, start, end, parent, fit_id, size]``, kept in memory and written
out when the run ends; ``size`` holds what the call was asked to compute.

The untraced run wraps only the two fit entry points, once per fit, which
gives per-fit times and counts; the traced run wraps every site below.
"""

from __future__ import annotations

import gzip
import inspect
import json
import statistics
from time import perf_counter

from ordmixed import estimation, gof, likelihood, simulation
from ordmixed.likelihood import LoglikKernel

NAME, START, END, PARENT, FIT, SIZE = range(6)


def _kernel_size(args, nodes):
    kernel = args[0]
    n, k = kernel.y.shape
    return nodes, 8 * n * nodes * k  # nodes, bytes of one (n, Q, K) float64 array


FIT_SITES = [
    (estimation, "fit", "full"),
    (estimation, "fit_intercept_model", "intercept"),
    (simulation, "fit", "full"),
    (simulation, "fit_intercept_model", "intercept"),
]
# (owner, attribute, span name, size of the call or None)
LAYER_SITES = [
    (LoglikKernel, "marginal", "likelihood.marginal", lambda a: _kernel_size(a, len(a[4]))),
    (LoglikKernel, "conditional_at", "likelihood.conditional", lambda a: _kernel_size(a, 1)),
    (likelihood, "log_category_probabilities", "model.log_probs", lambda a: a[1].size),
    (estimation, "gauss_hermite", "quadrature.rule", None),
    (estimation, "numerical_covariance", "estimation.hessian", None),
    (gof, "predict_random_effects", "estimation.predict_re", None),
    (gof, "gof_report", "gof.report", None),
    (simulation, "gof_report", "gof.report", None),
    (simulation, "generate_dataset", "simulation.generate", None),
    (simulation, "run_study", "simulation.run_study", None),
]
KERNEL = ("likelihood.marginal", "likelihood.conditional")


class Tracer:
    """Installs span-recording wrappers; ``detail`` selects all sites or
    only the fit entry points."""

    def __init__(self, detail: bool):
        self.detail = detail
        self.spans: list[list] = []
        self.fits: list[dict] = []
        self._stack: list[int] = []
        self._fit_id = None
        self._saved: list[tuple] = []

    def __enter__(self):
        for owner, attr, kind in FIT_SITES:
            self._replace(owner, attr, self._fit_wrapper(getattr(owner, attr), kind))
        if self.detail:
            for owner, attr, name, size in LAYER_SITES:
                self._replace(owner, attr, self._wrapper(getattr(owner, attr), name, size))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _replace(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _open(self, name, size):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._fit_id, size]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _wrapper(self, fn, name, size):
        def traced(*args, **kwargs):
            record = self._open(name, size(args) if size else None)
            record[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                self._stack.pop()

        return traced

    def _fit_wrapper(self, fn, kind):
        signature = inspect.signature(fn)

        def traced_fit(*args, **kwargs):
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            entry = {
                "id": len(self.fits), "kind": kind, "link": call.arguments["link"].value,
                "structure": call.arguments["re_structure"], "error": None,
            }
            self.fits.append(entry)
            outer, self._fit_id = self._fit_id, entry["id"]
            record = self._open("estimation.fit", None)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                # keep counts, not the result, so memory does not grow with passes
                entry["converged"] = bool(result.converged)
                entry["n_evaluations"] = result.n_evaluations
                entry["iterations"] = result.iterations
                return result
            except Exception as err:
                entry["error"] = type(err).__name__
                raise
            finally:
                record[END] = perf_counter()
                entry["seconds"] = record[END] - record[START]
                self._stack.pop()
                self._fit_id = outer

        return traced_fit

    def mark(self) -> tuple[int, int]:
        """Position to slice spans and fits by pass."""
        return len(self.spans), len(self.fits)

    def write(self, path, passes) -> None:
        """Write all spans and per-fit counts as gzipped JSON; each fit's
        kernel calls stand beside its ``n_evaluations``."""
        kernel_calls: dict[int, int] = {}
        for s in self.spans:
            if s[NAME] in KERNEL and s[FIT] is not None:
                kernel_calls[s[FIT]] = kernel_calls.get(s[FIT], 0) + 1
        fits = [{**f, "kernel_calls": kernel_calls.get(f["id"], 0)} for f in self.fits]
        doc = {"fields": ["name", "start", "end", "parent", "fit_id", "size"],
               "passes": passes, "spans": self.spans, "fits": fits}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


def pass_metrics(spans: list[list], fits: list[dict], base: int) -> dict[str, float]:
    """Per-layer numbers for one traced pass. ``spans`` is the pass's
    slice and ``base`` the index of its first span, for parent links."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= base:
            child[s[PARENT] - base] += s[END] - s[START]
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s, c in zip(spans, child):
        duration = s[END] - s[START]
        total[s[NAME]] = total.get(s[NAME], 0.0) + duration
        own[s[NAME]] = own.get(s[NAME], 0.0) + duration - c
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1

    def under(index, name):
        while index >= base:
            if spans[index - base][NAME] == name:
                return True
            index = spans[index - base][PARENT]
        return False

    kernel = [(i + base, s) for i, s in enumerate(spans) if s[NAME] in KERNEL]
    marginal = [s for _, s in kernel if s[NAME] == "likelihood.marginal"]
    done = [f for f in fits if f["error"] is None]
    n_fits = max(len(fits), 1)
    n_marginal = calls.get("likelihood.marginal", 0)
    return {
        "model.log_probs.calls": calls.get("model.log_probs", 0),
        "model.log_probs.self_s": own.get("model.log_probs", 0.0),
        "model.log_probs.cells": sum(s[SIZE] for s in spans if s[NAME] == "model.log_probs"),
        "quadrature.nodes_per_eval": (
            sum(s[SIZE][0] for s in marginal) / len(marginal) if marginal else 0.0
        ),
        "quadrature.rule.calls": calls.get("quadrature.rule", 0),
        "quadrature.rule.self_s": own.get("quadrature.rule", 0.0),
        "likelihood.marginal.calls": n_marginal,
        "likelihood.marginal.self_s": own.get("likelihood.marginal", 0.0),
        "likelihood.marginal.us_per_call": (
            1e6 * total.get("likelihood.marginal", 0.0) / n_marginal if n_marginal else 0.0
        ),
        "likelihood.conditional.calls": calls.get("likelihood.conditional", 0),
        "likelihood.conditional.self_s": own.get("likelihood.conditional", 0.0),
        "likelihood.bytes_computed": sum(s[SIZE][1] for _, s in kernel),
        "estimation.fits": len(fits),
        "estimation.kernel_calls_per_fit": sum(s[FIT] is not None for _, s in kernel) / n_fits,
        "estimation.n_evaluations_per_fit": sum(f["n_evaluations"] for f in done) / n_fits,
        "estimation.iterations_per_fit": sum(f["iterations"] for f in done) / n_fits,
        "estimation.converged_ratio": sum(f["converged"] for f in done) / n_fits,
        "estimation.fit.self_s": own.get("estimation.fit", 0.0),
        "estimation.hessian.calls": calls.get("estimation.hessian", 0),
        "estimation.hessian.kernel_calls": sum(
            under(i, "estimation.hessian") for i, _ in kernel
        ),
        "estimation.hessian.s": total.get("estimation.hessian", 0.0),
        "estimation.predict_re.calls": calls.get("estimation.predict_re", 0),
        "estimation.predict_re.s": total.get("estimation.predict_re", 0.0),
        "gof.report.calls": calls.get("gof.report", 0),
        "gof.report.self_s": own.get("gof.report", 0.0),
        "simulation.generate.s": total.get("simulation.generate", 0.0),
        "simulation.run_study.self_s": own.get("simulation.run_study", 0.0),
    }


COUNTS = (
    "model.log_probs.calls", "model.log_probs.cells", "quadrature.nodes_per_eval",
    "quadrature.rule.calls", "likelihood.marginal.calls", "likelihood.conditional.calls",
    "likelihood.bytes_computed", "estimation.fits", "estimation.kernel_calls_per_fit",
    "estimation.n_evaluations_per_fit", "estimation.iterations_per_fit",
    "estimation.converged_ratio", "estimation.hessian.calls",
    "estimation.hessian.kernel_calls", "estimation.predict_re.calls", "gof.report.calls",
)


def combine(per_pass: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Counts from the first pass (they must repeat in every pass) and the
    median of every time; the second value lists counts that differ."""
    first = per_pass[0]
    differ = [k for k in COUNTS if any(p[k] != first[k] for p in per_pass[1:])]
    out = {k: (first[k] if k in COUNTS else statistics.median(p[k] for p in per_pass))
           for k in first}
    return out, differ
