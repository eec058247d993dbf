"""The benchmark's contract with the library.

``perfbench/`` drives the library through functions it looks up by name,
and its traced run replaces some of them with span-recording wrappers, so
a renamed function, a changed signature or a failed output check ends a
benchmark run before it reports any metric. These tests load the
benchmark's modules from their files under private names and run each
workload once on its first block. They write nothing under ``perfbench/``.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from ordmixed.datasets import strawberry_dataset
from ordmixed.likelihood import LoglikKernel
from ordmixed.model import LinkFamily

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    # no bytecode cache beside the benchmark's files
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


spans, workloads, reference, run = (_load(n) for n in ("spans", "workloads", "reference", "run"))
SITES = [site[:2] for site in spans.FIT_SITES + spans.LAYER_SITES]


@pytest.mark.parametrize("owner, attribute", SITES, ids=lambda s: getattr(s, "__name__", s))
def test_every_patched_site_exists(owner, attribute):
    assert callable(getattr(owner, attribute, None))


def test_tracer_restores_the_originals():
    originals = [getattr(owner, attribute) for owner, attribute in SITES]
    kernel = LoglikKernel(strawberry_dataset(), LinkFamily.PROPORTIONAL_ODDS)
    c, b = np.array([-1.0, 0.5]), np.zeros(kernel.pattern_covariates.shape[1])
    with spans.Tracer(detail=True) as tracer:
        wrapped = [getattr(owner, attribute) for owner, attribute in SITES]
        kernel.conditional_at(c, b, np.zeros((kernel.y.shape[0], 2)))
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert [getattr(owner, attribute) for owner, attribute in SITES] == originals
    # one kernel span per call: the conditional pass calls no wrapped method
    assert [s[spans.NAME] for s in tracer.spans if s[spans.NAME] in spans.KERNEL] == [
        "likelihood.conditional"
    ]


@pytest.fixture(scope="module")
def passes():
    """Each workload's first block, run once under the traced wrappers."""
    out = {}
    for name, workload in workloads.WORKLOADS.items():
        inputs = workload.build(0, 0)
        with spans.Tracer(detail=True) as tracer:
            output = workload.run(inputs)
        out[name] = (inputs, output, tracer)
    return out


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_passes_its_checks(passes, name):
    inputs, output, tracer = passes[name]
    assert workloads.WORKLOADS[name].check(inputs, output) == []
    metrics = spans.pass_metrics(tracer.spans, tracer.fits, 0)
    assert metrics["estimation.fits"] > 0 and metrics["estimation.converged_ratio"] == 1.0


def test_strawberry_loglik_matches_the_reference(passes):
    inputs, output, _ = passes["strawberry_panel"]
    error, problems = run.loglik_err(workloads.strawberry_points(inputs, output), reference)
    assert problems == [] and math.isfinite(error)
