"""Every binding the benchmark's tracer wraps still exists in the package."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# bindings the benchmark still lists though the package no longer has them: the trace
# layer no longer calls weight_matrix, and a power or beta moves C through the scale
# alone (dC_dscale), so dSigma_dp and dSigma_dmu_dir are gone
STALE = {
    ("mcglm.estfun", "weight_matrix"),
    ("mcglm.estfun", "dSigma_dp"),
    ("mcglm.estfun", "dSigma_dmu_dir"),
}


def all_bindings():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [
        binding
        for layers in (tracer.SPAN_LAYERS, tracer.COUNT_LAYERS)
        for bindings in layers.values()
        for binding in bindings
    ]


@pytest.mark.parametrize("modname, attr", [b for b in all_bindings() if b not in STALE])
def test_traced_binding_resolves(modname, attr):
    assert callable(getattr(importlib.import_module(modname), attr, None))


@pytest.mark.parametrize("modname, attr", sorted(STALE))
def test_stale_binding_is_listed_and_absent(modname, attr):
    # an exception outlives neither the benchmark's binding nor the package's removal of it
    assert (modname, attr) in all_bindings()
    assert not hasattr(importlib.import_module(modname), attr)
