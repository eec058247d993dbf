"""Command-line surface: fit, gof, simulate, and reproduce.

Every failure exits non-zero with a single machine-parsable line on stderr
of the form ``error: <ExceptionName>: <message>``.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .datasets import builtin_dataset
from .estimation import FitOptions, fit, fit_intercept_model
from .gof import gof_report
from .io import (
    FactorSchema,
    fit_result_tree,
    gof_tree,
    load_dataset,
    render_tree,
    summary_tree,
)
from .model import BivariateRandomEffect, LinkFamily
from .quadrature import MAX_ORDER
from .simulation import (
    SimulationDesign,
    model_key,
    run_study,
    study_true_parameters,
)

RE_BY_FLAG = {"none": "none", "one": "univariate", "two": "bivariate"}

# published tables abbreviate the strawberry covariate names
_PUBLISHED_NAMES = {
    "m2": "male2", "m3": "male3",
    "f2": "female2", "f3": "female3", "f4": "female4",
    "b2": "block2", "b3": "block3", "b4": "block4",
}


def _published_name(name: str) -> str:
    return _PUBLISHED_NAMES.get(name, name)


def _parse_schema(text: str, k: int) -> FactorSchema:
    factors = []
    for part in text.split(","):
        name, _, levels = part.partition(":")
        if not levels:
            raise ValueError(f"schema part {part!r} must look like name:levels")
        factors.append((name.strip(), int(levels)))
    return FactorSchema(factors=tuple(factors), n_categories=k)


def _load(args) -> object:
    if args.data is None:
        return builtin_dataset(args.fixture)
    schema = _parse_schema(args.schema, args.categories)
    return load_dataset(args.data, schema)


def _checked_int(name: str, value, low: int, high: int | None = None) -> int:
    """An integer setting in [low, high], or a ValueError naming it."""
    allowed = f"an integer in [{low}, {high}]" if high is not None else f"an integer >= {low}"
    try:
        number = int(value)
    except ValueError:
        number = None
    if number is None or number < low or (high is not None and number > high):
        raise ValueError(f"{name} must be {allowed}, got {value!r}")
    return number


def _env_int(name: str, low: int, high: int | None = None) -> int | None:
    """An integer environment override, None when unset or empty."""
    text = os.environ.get(name)
    if not text:
        return None
    return _checked_int(name, text, low, high)


def _order(args) -> int | None:
    if args.order is not None:
        return _checked_int("--order", args.order, 1, MAX_ORDER)
    return _env_int("ORDMIXED_ORDER", 1, MAX_ORDER)


def _fit_options(args) -> FitOptions:
    return FitOptions(quadrature_order=_order(args))


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", help="path to a delimited cluster table")
    p.add_argument("--schema", default="male:3,female:4,block:4",
                   help="factor declaration, e.g. male:3,female:4,block:4")
    p.add_argument("--categories", type=int, default=3,
                   help="number of ordered categories K (with --data)")
    p.add_argument("--fixture", default="strawberry",
                   help="builtin dataset name when --data is not given")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--link", required=True, choices=["po", "acl", "crl"],
                   help="link family")
    p.add_argument("--random-effects", default="none", choices=["none", "one", "two"],
                   dest="random_effects", help="random-effect structure")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--order", type=int, default=None, help="quadrature order")
    p.add_argument("--format", default="text", choices=["text", "csv", "json"])


def _cmd_fit(args) -> str:
    dataset = _load(args)
    result = fit(dataset, LinkFamily.from_name(args.link),
                 RE_BY_FLAG[args.random_effects], _fit_options(args))
    return render_tree(fit_result_tree(result), args.format)


def _cmd_gof(args) -> str:
    dataset = _load(args)
    link = LinkFamily.from_name(args.link)
    structure = RE_BY_FLAG[args.random_effects]
    opts = _fit_options(args)
    full = fit(dataset, link, structure, opts)
    # the panel reads only the intercept model's log-likelihood and size
    intercept = fit_intercept_model(
        dataset, link, structure, replace(opts, standard_errors=False)
    )
    report = gof_report(dataset, full, intercept)
    tree = {"fit": fit_result_tree(full), "gof": gof_tree(report)}
    return render_tree(tree, args.format)


def _parse_fit_list(specs: list[str]) -> tuple[tuple[LinkFamily, str], ...]:
    fits = []
    for spec in specs:
        for part in spec.split(","):
            link_name, _, re_flag = part.strip().partition(":")
            if re_flag not in RE_BY_FLAG:
                raise ValueError(
                    f"fit spec {part!r} must look like link:re with re in none/one/two"
                )
            fits.append((LinkFamily.from_name(link_name), RE_BY_FLAG[re_flag]))
    return tuple(fits)


def _workers(args) -> int:
    if args.workers is not None:
        return _checked_int("--workers", args.workers, 1)
    return _env_int("ORDMIXED_WORKERS", 1) or 1


def _cmd_simulate(args) -> str:
    if args.sigma1 is not None or args.sigma2 is not None or args.rho is not None:
        if None in (args.sigma1, args.sigma2, args.rho):
            raise ValueError("bivariate generation needs --sigma1, --sigma2, and --rho")
        re = BivariateRandomEffect(args.sigma1, args.sigma2, args.rho)
        true = replace(study_true_parameters(0.0), re=re)
    else:
        true = study_true_parameters(args.sigma)
    fits = _parse_fit_list(args.fit) if args.fit else _parse_fit_list(
        [f"{args.link}:none", f"{args.link}:one"]
    )
    design = SimulationDesign(
        link=LinkFamily.from_name(args.link),
        true_params=true,
        fits=fits,
        cluster_size=args.cluster_size,
        replications=args.replications,
        seed=args.seed,
    )
    opts = FitOptions(quadrature_order=_order(args), standard_errors=False)
    summary = run_study(design, opts, workers=_workers(args))
    return render_tree(summary_tree(summary), args.format)


def _cmd_reproduce(args) -> str:
    from .published import published_table  # 978 lines of tables only this command reads

    table = published_table(args.preset)
    if table["kind"] == "strawberry":
        tree = _reproduce_strawberry(args, table)
    else:
        tree = _reproduce_study(args, table)
    return render_tree(tree, args.format)


def _reproduce_strawberry(args, table) -> dict:
    dataset = builtin_dataset("strawberry")
    link = LinkFamily.from_name(table["link"])
    opts = _fit_options(args)
    rows = []
    for column, payload in table["columns"].items():
        full = fit(dataset, link, column, opts)
        intercept = fit_intercept_model(
            dataset, link, column, replace(opts, standard_errors=False)
        )
        report = gof_report(dataset, full, intercept)
        computed = {name: (full[name], float(full.se[full.names.index(name)]))
                    for name in full.names}
        if report.icc is not None:
            computed["icc"] = (report.icc, report.icc_se)
        gof = {key: getattr(report, key) for key in _GOF_KEYS}
        rows.extend(_versus_rows(column, payload, computed, gof))
    return {"preset": args.preset, "kind": "strawberry",
            "link": table["link"], "rows": rows}


def _reproduce_study(args, table) -> dict:
    link = LinkFamily.from_name(table["link"])
    design = SimulationDesign(
        link=LinkFamily.from_name(table["generator_link"]),
        true_params=study_true_parameters(table["sigma"]),
        fits=((link, "none"), (link, "univariate")),
        replications=args.replications,
        seed=args.seed if args.seed is not None else 0,
    )
    opts = FitOptions(quadrature_order=_order(args), standard_errors=False)
    summary = run_study(design, opts, workers=_workers(args))
    rows = []
    for column, payload in table["columns"].items():
        model = summary.models[model_key(link, column)]
        computed = {row.name: (row.mean, row.sd) for row in model.parameters}
        if model.mean_icc is not None:
            computed["icc"] = (model.mean_icc, None)
        gof = {key: getattr(model, f"mean_{key}") for key in _GOF_KEYS}
        rows.extend(_versus_rows(column, payload, computed, gof))
    return {
        "preset": args.preset, "kind": "study",
        "generator": table["generator_link"], "sigma": table["sigma"],
        "link": table["link"], "rows": rows,
    }


# the statistics a published table may print beside its estimates, in the
# order of the rows
_GOF_KEYS = ("chi2", "C", "aic", "chi2_p", "C_p")


def _versus_rows(column, payload, computed, gof) -> list[dict]:
    """Published against computed rows: ``computed`` maps a parameter name
    to its estimate and spread, ``gof`` each of ``_GOF_KEYS`` to its value."""
    rows = []
    for name, (pub_first, pub_second) in payload["params"].items():
        got = computed.get(_published_name(name))
        rows.append(_row(column, name, "estimate", pub_first,
                         None if got is None else got[0]))
        rows.append(_row(column, name, "spread", pub_second,
                         None if got is None or got[1] is None else got[1]))
    for key in _GOF_KEYS:
        if key in payload["gof"]:
            field = "p_value" if key.endswith("_p") else "statistic"
            rows.append(_row(column, key, field, payload["gof"][key], gof[key]))
    return rows


def _row(column, name, field, published, computed) -> dict:
    delta = None if computed is None else computed - published
    return {
        "name": f"{column}.{name}.{field}",
        "published": published,
        "computed": computed,
        "delta": delta,
    }


class _Parser(argparse.ArgumentParser):
    """Argument errors become one machine-parsable stderr line."""

    def error(self, message):
        sys.stderr.write(f"error: ArgumentError: {message}\n")
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ordmixed",
        description="Ordinal logistic regression for clustered data, with "
                    "random effects, goodness of fit, and replication studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit one model and report estimates")
    _add_data_flags(p_fit)
    _add_model_flags(p_fit)
    _add_common_flags(p_fit)
    p_fit.set_defaults(run=_cmd_fit)

    p_gof = sub.add_parser("gof", help="fit plus the goodness-of-fit panel")
    _add_data_flags(p_gof)
    _add_model_flags(p_gof)
    _add_common_flags(p_gof)
    p_gof.set_defaults(run=_cmd_gof)

    p_sim = sub.add_parser("simulate", help="run a seeded replication study")
    p_sim.add_argument("--link", required=True, choices=["po", "acl", "crl"],
                       help="generator link family")
    p_sim.add_argument("--sigma", type=float, default=0.6,
                       help="generator random-effect standard deviation")
    p_sim.add_argument("--sigma1", type=float, default=None)
    p_sim.add_argument("--sigma2", type=float, default=None)
    p_sim.add_argument("--rho", type=float, default=None)
    p_sim.add_argument("--replications", type=int, default=100)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--cluster-size", type=int, default=10, dest="cluster_size")
    p_sim.add_argument("--fit", action="append", default=[],
                       help="model to fit per replication, e.g. po:one (repeatable)")
    p_sim.add_argument("--order", type=int, default=None)
    p_sim.add_argument("--workers", type=int, default=None)
    p_sim.add_argument("--format", default="text", choices=["text", "csv", "json"])
    p_sim.set_defaults(run=_cmd_simulate)

    p_rep = sub.add_parser(
        "reproduce",
        help="rerun a published table's configuration and show deltas",
    )
    p_rep.add_argument("preset", help="table2 .. table25")
    p_rep.add_argument("--replications", type=int, default=100)
    p_rep.add_argument("--order", type=int, default=None)
    p_rep.add_argument("--seed", type=int, default=None)
    p_rep.add_argument("--workers", type=int, default=None)
    p_rep.add_argument("--format", default="text", choices=["text", "csv", "json"])
    p_rep.set_defaults(run=_cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        sys.stdout.write(args.run(args))
    except BrokenPipeError:
        return 1
    except Exception as err:
        sys.stderr.write(f"error: {type(err).__name__}: {err}\n")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
