"""Seeded replication studies on factorial designs.

Each replication draws one dataset from a chosen generator (link family,
true parameters, random-effect law), fits every requested model variant,
and records estimates plus goodness-of-fit statistics. Streams are derived
from (seed, replication index), so identical inputs give bit-identical
summaries, serial or parallel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .datasets import STRAWBERRY_SCHEMA
from .estimation import Z_95, FitOptions, fit, fit_intercept_model
from .gof import gof_report
from .io import indicator_columns, indicator_names
from .model import (
    Cluster,
    Dataset,
    FixedEffects,
    InfeasibleParametersError,
    LinkFamily,
    NoRandomEffect,
    ParameterVector,
    UnivariateRandomEffect,
    category_probabilities,
)


class InvalidDesignError(ValueError):
    """The generator's true parameters cannot produce probabilities."""


class StudyQualityError(RuntimeError):
    """More than 20% of the replications failed to converge for a model."""


DEFAULT_FACTORS = STRAWBERRY_SCHEMA.factors

# canonical true values used by the replication studies, in the factorial
# design's covariate order
_TRUE_INTERCEPTS = (-2.0, -1.0)
_TRUE_SLOPES = (0.1, -0.2, 0.7, 0.6, 1.0, 0.6, 0.9, 0.1)


def study_true_parameters(sigma: float = 0.6) -> ParameterVector:
    """The canonical generator parameters for the factorial study, with a
    univariate random effect of the given standard deviation."""
    fixed = FixedEffects(
        intercepts=np.array(_TRUE_INTERCEPTS), slopes=np.array(_TRUE_SLOPES)
    )
    re = NoRandomEffect() if sigma == 0.0 else UnivariateRandomEffect(sigma=sigma)
    return ParameterVector(fixed=fixed, re=re)


@lru_cache(maxsize=8)
def factorial_design(
    factors: tuple[tuple[str, int], ...] = DEFAULT_FACTORS,
) -> tuple[np.ndarray, tuple[str, ...], np.ndarray]:
    """Full-factorial indicator design: covariate matrix, covariate names,
    and the factor-level matrix (level 1 is the reference level). Built once
    per factor list; the arrays are read-only, shared by every caller."""
    levels = np.array(list(itertools.product(*[range(1, n + 1) for _, n in factors])), dtype=np.int64)
    x = indicator_columns(factors, levels)
    x.flags.writeable = levels.flags.writeable = False
    return x, indicator_names(factors), levels


@dataclass(frozen=True)
class SimulationDesign:
    """What to generate and what to fit, per replication."""

    link: LinkFamily
    true_params: ParameterVector
    fits: tuple[tuple[LinkFamily, str], ...]
    factors: tuple[tuple[str, int], ...] = DEFAULT_FACTORS
    cluster_size: int = 10
    replications: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.cluster_size < 1:
            raise ValueError("cluster size must be >= 1")
        object.__setattr__(self, "fits", tuple((l, s) for l, s in self.fits))
        # hashable, so that factorial_design builds the design once
        object.__setattr__(self, "factors", tuple((name, n) for name, n in self.factors))


@dataclass(frozen=True)
class ParameterSummaryRow:
    name: str
    mean: float
    sd: float | None
    ci_lower: float | None
    ci_upper: float | None


@dataclass(frozen=True)
class ModelStudySummary:
    link: LinkFamily
    re_structure: str
    parameters: tuple[ParameterSummaryRow, ...]
    mean_chi2: float
    mean_chi2_p: float
    chi2_df: int
    mean_C: float
    mean_C_p: float
    C_df: int
    mean_aic: float
    mean_icc: float | None
    replications_used: int
    non_convergent: int

    def parameter(self, name: str) -> ParameterSummaryRow:
        for row in self.parameters:
            if row.name == name:
                return row
        raise KeyError(name)


@dataclass(frozen=True)
class SimulationSummary:
    generator_link: LinkFamily
    generator_re: str
    seed: int
    replications: int
    models: dict[str, ModelStudySummary]

    def model(self, link: LinkFamily, re_structure: str) -> ModelStudySummary:
        return self.models[model_key(link, re_structure)]


def model_key(link: LinkFamily, re_structure: str) -> str:
    return f"{link.value}:{re_structure}"


def _replication_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def generate_dataset(design: SimulationDesign, replication_index: int) -> Dataset:
    """Draw one clustered dataset from the design's generator.

    Per cluster: draw the random deviation A z from its normal law, with z
    standard normal and A the effect's loading, invert the link at the true
    parameters, and draw the counts from a multinomial. The stream is
    derived from (seed, replication index).
    """
    x, names, levels = factorial_design(design.factors)
    fe = design.true_params.fixed
    if fe.slopes.size != x.shape[1]:
        raise InvalidDesignError(
            f"true parameters carry {fe.slopes.size} slopes, design has {x.shape[1]}"
        )
    rng = _replication_rng(design.seed, replication_index)
    n = x.shape[0]
    k1 = fe.intercepts.size
    try:
        loading = design.true_params.re.loading(k1)
    except ValueError as err:
        raise InvalidDesignError(f"the generator's random effect does not fit K: {err}") from None
    offsets = rng.standard_normal((n, loading.shape[1])) @ loading.T
    deltas = fe.intercepts[None, :] + (x @ fe.slopes)[:, None] + offsets
    try:
        probs = category_probabilities(design.link, deltas)
    except InfeasibleParametersError as err:
        raise InvalidDesignError(
            f"true parameters are infeasible for the generator link: {err}"
        ) from None
    counts = rng.multinomial(design.cluster_size, probs)
    clusters = tuple(
        Cluster(covariates=x[i], counts=counts[i]) for i in range(n)
    )
    return Dataset(
        clusters=clusters,
        covariate_names=names,
        factor_names=tuple(name for name, _ in design.factors),
        factor_levels=levels,
    )


def _replicate(design: SimulationDesign, fit_options: FitOptions, index: int) -> dict:
    """Fit every requested variant on one generated dataset. Random-effect
    fits after their link's homogeneous fits start at the maxima those left
    in the dataset's memo, and so make no nested homogeneous fit."""
    dataset = generate_dataset(design, index)
    out: dict[str, dict] = {}
    for link, structure in design.fits:
        key = model_key(link, structure)
        try:
            full = fit(dataset, link, structure, fit_options)
            intercept = fit_intercept_model(dataset, link, structure, fit_options)
            report = gof_report(dataset, full, intercept)
        except Exception as err:  # a failed replication is excluded, not fatal
            out[key] = {"ok": False, "error": f"{type(err).__name__}: {err}"}
            continue
        ok = full.converged and intercept.converged
        # the fit's reported values beside every field of the GoF panel
        out[key] = {"ok": ok, "values": full.values, "names": full.names, **vars(report)}
    return out


def run_study(
    design: SimulationDesign,
    fit_options: FitOptions | None = None,
    workers: int = 1,
) -> SimulationSummary:
    """Run the full replication study and aggregate.

    Per fitted model and parameter: mean, standard deviation across
    replications, and the interval mean +- 1.96 sd / sqrt(R). Replications
    that fail to converge are excluded from the aggregates and counted;
    more than 20% exclusions for any model raises StudyQualityError.
    ``workers`` processes (at least 1) share the replications.
    """
    if fit_options is None:
        fit_options = FitOptions(standard_errors=False)
    elif fit_options.standard_errors:
        fit_options = replace(fit_options, standard_errors=False)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    indices = range(design.replications)
    if workers > 1 and design.replications > 1:
        from concurrent.futures import ProcessPoolExecutor  # not loaded by a serial study

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, design.replications // (4 * workers))
            results = list(
                pool.map(partial(_replicate, design, fit_options), indices, chunksize=chunk)
            )
    else:
        results = [_replicate(design, fit_options, i) for i in indices]

    models: dict[str, ModelStudySummary] = {}
    for link, structure in design.fits:
        key = model_key(link, structure)
        entries = [r[key] for r in results]
        good = [e for e in entries if e["ok"]]
        n_bad = len(entries) - len(good)
        if n_bad > 0.2 * design.replications:
            examples = [e.get("error", "non-convergent") for e in entries if not e["ok"]]
            raise StudyQualityError(
                f"{n_bad}/{design.replications} replications unusable for {key}: "
                f"first failure: {examples[0]}"
            )
        if not good:
            raise StudyQualityError(f"no usable replications for {key}")
        names = good[0]["names"]
        values = np.array([e["values"] for e in good])
        r_used = len(good)
        rows = []
        for j, name in enumerate(names):
            mean = float(values[:, j].mean())
            if r_used > 1:
                sd = float(values[:, j].std(ddof=1))
                half = Z_95 * sd / np.sqrt(r_used)
                rows.append(ParameterSummaryRow(name, mean, sd, mean - half, mean + half))
            else:
                rows.append(ParameterSummaryRow(name, mean, None, None, None))
        iccs = [e["icc"] for e in good if e["icc"] is not None]
        models[key] = ModelStudySummary(
            link=link,
            re_structure=structure,
            parameters=tuple(rows),
            mean_chi2=float(np.mean([e["chi2"] for e in good])),
            mean_chi2_p=float(np.mean([e["chi2_p"] for e in good])),
            chi2_df=int(good[0]["chi2_df"]),
            mean_C=float(np.mean([e["C"] for e in good])),
            mean_C_p=float(np.mean([e["C_p"] for e in good])),
            C_df=int(good[0]["C_df"]),
            mean_aic=float(np.mean([e["aic"] for e in good])),
            mean_icc=float(np.mean(iccs)) if iccs else None,
            replications_used=r_used,
            non_convergent=n_bad,
        )
    return SimulationSummary(
        generator_link=design.link,
        generator_re=design.true_params.re.structure,
        seed=design.seed,
        replications=design.replications,
        models=models,
    )

