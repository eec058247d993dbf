"""Tabular dataset files and report rendering.

Dataset files are delimited text with a header: one row per cluster, one
integer column per factor followed by the K category-count columns. Factor
level 1 is always the reference level; higher levels expand to indicator
covariates named ``<factor><level>`` in factor-major order.

Reports render as an aligned text table (3 decimals, for reading), as
comma-delimited rows, or as a JSON tree that parses back to the exact
values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import IO

import numpy as np

from .model import Cluster, Dataset


class DatasetParseError(ValueError):
    """A dataset file failed to parse; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")
        self.line = line


@dataclass(frozen=True)
class FactorSchema:
    """Declares the factor columns (name, number of levels) and K."""

    factors: tuple[tuple[str, int], ...]
    n_categories: int

    def __post_init__(self):
        if self.n_categories < 2:
            raise ValueError("need at least two categories")
        for name, levels in self.factors:
            if levels < 1:
                raise ValueError(f"factor {name!r} must have at least one level")


def indicator_names(factors: tuple[tuple[str, int], ...]) -> tuple[str, ...]:
    """Covariate names ``<factor><level>`` of every non-reference level, in
    factor-major order."""
    return tuple(f"{name}{level}" for name, levels in factors for level in range(2, levels + 1))


def indicator_columns(factors: tuple[tuple[str, int], ...], levels) -> np.ndarray:
    """Indicator covariates, in ``indicator_names`` order, of factor levels
    shaped (..., n_factors): a row of levels gives a row of indicators."""
    pairs = [(j, level) for j, (_, n_levels) in enumerate(factors) for level in range(2, n_levels + 1)]
    column_factor, column_level = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return (np.asarray(levels)[..., column_factor] == column_level).astype(float)


def _split(line: str) -> list[str]:
    line = line.strip()
    return [f.strip() for f in line.split(",")] if "," in line else line.split()


def load_dataset(source: str | Path | IO[str], schema: FactorSchema) -> Dataset:
    """Read a delimited cluster table and expand factors to indicators.

    ``source`` may be a path or an open text stream. The header row is
    mandatory; clusters keep file order.
    """
    if hasattr(source, "read"):
        text = source.read()
        origin = "<stream>"
    else:
        path = Path(source)
        try:
            text = path.read_text()
        except OSError as err:
            raise DatasetParseError(f"cannot read {path}: {err.strerror}") from err
        origin = str(path)
    lines = text.splitlines()
    header_idx = next((i for i, ln in enumerate(lines) if ln.strip()), None)
    if header_idx is None:
        raise DatasetParseError(f"{origin}: empty file, expected a header row")
    factor_names = [name for name, _ in schema.factors]
    expected_header = factor_names + [f"y{k + 1}" for k in range(schema.n_categories)]
    header = _split(lines[header_idx])
    if header != expected_header:
        raise DatasetParseError(
            f"{origin}: header {header!r} does not match the declared schema "
            f"{expected_header!r}",
            line=header_idx + 1,
        )
    clusters = []
    levels_rows = []
    for i, raw in enumerate(lines[header_idx + 1:], start=header_idx + 2):
        if not raw.strip():
            continue
        fields = _split(raw)
        if len(fields) != len(expected_header):
            raise DatasetParseError(
                f"expected {len(expected_header)} columns, found {len(fields)}", line=i
            )
        try:
            values = [int(f) for f in fields]
        except ValueError:
            raise DatasetParseError(f"non-integer value in {fields!r}", line=i) from None
        levels = values[: len(factor_names)]
        counts = values[len(factor_names):]
        for (name, n_levels), level in zip(schema.factors, levels):
            if not 1 <= level <= n_levels:
                raise DatasetParseError(
                    f"factor {name!r} level {level} outside 1..{n_levels}", line=i
                )
        if any(c < 0 for c in counts):
            raise DatasetParseError(f"negative count in {counts!r}", line=i)
        try:
            clusters.append(
                Cluster(covariates=indicator_columns(schema.factors, levels), counts=np.array(counts))
            )
        except ValueError as err:
            raise DatasetParseError(str(err), line=i) from None
        levels_rows.append(levels)
    if not clusters:
        raise DatasetParseError(f"{origin}: no cluster rows after the header")
    return Dataset(
        clusters=tuple(clusters),
        covariate_names=indicator_names(schema.factors),
        factor_names=tuple(factor_names),
        factor_levels=np.array(levels_rows, dtype=np.int64),
    )


def render_dataset(dataset: Dataset) -> str:
    """Write a dataset back to the delimited text form read by
    load_dataset. Requires the original factor coding."""
    if dataset.factor_levels is None or dataset.factor_names is None:
        raise ValueError("dataset carries no factor coding to render")
    header = list(dataset.factor_names) + [
        f"y{k + 1}" for k in range(dataset.n_categories)
    ]
    rows = [",".join(header)]
    for levels, cluster in zip(dataset.factor_levels, dataset.clusters):
        rows.append(",".join(str(int(v)) for v in (*levels, *cluster.counts)))
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# report documents


def fit_result_tree(fit) -> dict:
    """Nested, full-precision view of a fit: parses back identically."""
    tree = {
        "model": {"link": fit.link.value, "random_effects": fit.re_structure},
        "loglik": fit.loglik,
        "converged": fit.converged,
        "iterations": fit.iterations,
        "n_parameters": fit.n_parameters,
        "parameters": [
            {
                "name": name,
                "estimate": float(fit.values[i]),
                "se": _none_if_nan(fit.se[i]),
                "p_value": _none_if_nan(fit.p_values[i]),
                "ci_lower": _none_if_nan(fit.ci_lower[i]),
                "ci_upper": _none_if_nan(fit.ci_upper[i]),
            }
            for i, name in enumerate(fit.names)
        ],
    }
    if fit.diagnostics:
        tree["diagnostics"] = _plain(fit.diagnostics)
    return tree


def gof_tree(report) -> dict:
    tree = {
        "chi2": {"statistic": report.chi2, "df": report.chi2_df, "p_value": _none_if_nan(report.chi2_p)},
        "C": {"statistic": report.C, "df": report.C_df, "p_value": report.C_p},
        "aic": report.aic,
    }
    if report.icc is not None:
        tree["icc"] = {
            "value": report.icc,
            "se": report.icc_se,
            "p_value": report.icc_p,
            "ci_lower": None if report.icc_ci is None else report.icc_ci[0],
            "ci_upper": None if report.icc_ci is None else report.icc_ci[1],
        }
    return tree


def summary_tree(summary) -> dict:
    """Nested view of a replication-study summary."""
    models = {}
    for key, model in summary.models.items():
        params = [
            {
                "name": row.name,
                "mean": row.mean,
                "sd": row.sd,
                "ci_lower": row.ci_lower,
                "ci_upper": row.ci_upper,
            }
            for row in model.parameters
        ]
        # the parameter rows, then the summary's statistics in field order
        entry = {f.name: getattr(model, f.name) for f in fields(model)}
        del entry["link"], entry["re_structure"]
        entry["parameters"] = params
        models[key] = entry
    return {
        "generator": {
            "link": summary.generator_link.value,
            "random_effects": summary.generator_re,
            "seed": summary.seed,
            "replications": summary.replications,
        },
        "models": models,
    }


def render_tree(tree: dict, fmt: str = "text") -> str:
    """Render a report tree as text, csv, or json."""
    if fmt == "json":
        return json.dumps(tree, indent=2, allow_nan=True) + "\n"
    if fmt == "csv":
        lines = ["path,value"]
        for path, value in _flatten(tree):
            lines.append(f"{path},{_csv_value(value)}")
        return "\n".join(lines) + "\n"
    if fmt == "text":
        out: list[str] = []
        _render_text(tree, out, indent=0)
        return "\n".join(out) + "\n"
    raise ValueError(f"unknown output format: {fmt!r}")


def _none_if_nan(x) -> float | None:
    x = float(x)
    return None if np.isnan(x) else x


def _plain(value):
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def _flatten(tree, prefix=""):
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from _flatten(value, f"{prefix}{key}.")
    elif isinstance(tree, list):
        for i, value in enumerate(tree):
            name = value.get("name") if isinstance(value, dict) else None
            tag = name if name is not None else str(i)
            yield from _flatten(value, f"{prefix}{tag}.")
    else:
        yield prefix.rstrip("."), tree


def _csv_value(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _fmt_number(value):
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _render_text(tree, out: list[str], indent: int):
    pad = "  " * indent
    if isinstance(tree, dict):
        scalars = {k: v for k, v in tree.items() if not isinstance(v, (dict, list))}
        if scalars:
            out.append(pad + "  ".join(f"{k}={_fmt_number(v)}" for k, v in scalars.items()))
        for key, value in tree.items():
            if isinstance(value, (dict, list)):
                out.append(f"{pad}{key}:")
                _render_text(value, out, indent + 1)
    elif isinstance(tree, list):
        rows = [t for t in tree if isinstance(t, dict)]
        if rows and all("name" in r for r in rows):
            cols = [c for c in rows[0] if c != "name"]
            width = max(len(str(r["name"])) for r in rows)
            header = pad + "name".ljust(width) + "".join(f"{c:>12}" for c in cols)
            out.append(header)
            for r in rows:
                cells = "".join(f"{_fmt_number(r.get(c)):>12}" for c in cols)
                out.append(pad + str(r["name"]).ljust(width) + cells)
        else:
            for value in tree:
                _render_text(value, out, indent)
