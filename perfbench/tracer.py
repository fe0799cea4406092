"""Span tracer for the traced run.

Each layer's public function is wrapped at the binding its caller looks
it up through (``estfun`` calls ``weight_matrix`` through its own
``from .covariance import``, so that is the name that gets patched).
Nothing under ``src/`` changes. Spans stay in memory; self times are
computed at the end as span duration minus the durations of its direct
children, which on one thread partition each root span exactly.
"""

import functools
import importlib
import itertools
import json
import time
from collections import defaultdict

# layer -> bindings (module, attribute) whose calls open a span of that layer.
SPAN_LAYERS = {
    "covariance.weight": [("mcglm.estfun", "weight_matrix")],
    "covariance.dC": [("mcglm.estfun", "dC_dpar_r"), ("mcglm.estfun", "dC_drho")],
    "covariance.dsigma": [
        ("mcglm.estfun", "dSigma_dp"),
        ("mcglm.estfun", "dSigma_dtau"),
        ("mcglm.estfun", "dSigma_dmu_dir"),
    ],
    "covariance.assembly": [
        ("mcglm.estfun", "build_sigma_r"),
        ("mcglm.estfun", "generalized_kronecker"),
    ],
    "functions.covlink": [
        ("mcglm.covariance", "covlink_apply_inverse"),
        ("mcglm.covariance", "covlink_deriv"),
    ],
    "matpred.assemble_U": [("mcglm.covariance", "assemble_U")],
    "estfun.state": [("mcglm.solver", "build_state")],
    "estfun.trace": [
        ("mcglm.solver", name)
        for name in (
            "quasi_score",
            "sensitivity_beta",
            "pearson_vector",
            "bias_correction",
            "sensitivity_lambda",
            "variability_lambda",
            "empirical_k4",
        )
    ],
    "estfun.godambe": [("mcglm.solver", "build_godambe")],
    "solver.init": [("mcglm.solver", "initialize")],
    # the library entry point and the binding cmd_fit imports at call time
    "solver.self": [("mcglm", "fit"), ("mcglm.solver", "fit")],
    # cmd_simulate imports it at call time; the benchmark's own generator
    # opens a span of the same name
    "simulate.gaussian": [("mcglm.simulate", "simulate_gaussian")],
    "cli.spec": [("mcglm.cli", "load_spec_document")],
    "cli.data": [("mcglm.cli", "build_model_and_data")],
    "cli.write": [("mcglm.cli", "write_fit_outputs")],
    # make_parser looks cmd_simulate up on every main() call
    "cli.simulate_write": [("mcglm.cli", "cmd_simulate")],
    "cli.self": [("mcglm.cli", "main")],
}

# layer -> bindings whose calls are only counted: their time stays in
# the caller's self time (the Cholesky factor is part of assembly).
COUNT_LAYERS = {
    "functions.chol": [
        ("mcglm.covariance", "cholesky_lower"),
        ("mcglm.functions", "cholesky_lower"),
    ],
}


class Tracer:
    def __init__(self):
        self.spans = []                 # (span_id, parent_id, layer, start, end)
        self.counts = defaultdict(int)  # layer -> calls
        self._stack = []
        self._ids = itertools.count()
        self._patched = []              # (module, attribute, original)

    def span(self, layer):
        """Context manager opening a span of ``layer`` (for the benchmark's own code)."""
        return _Span(self, layer)

    def wrap_span(self, layer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with _Span(self, layer):
                return fn(*args, **kwargs)

        return wrapper

    def wrap_count(self, layer, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every binding; returns the (module, attribute) pairs that do not exist.

        A binding a later version of the program removed is skipped, so
        its layer reads zero instead of the traced run failing.
        """
        if self._patched:
            raise RuntimeError("tracer already installed")
        missing = []
        for layers, wrap in ((SPAN_LAYERS, self.wrap_span), (COUNT_LAYERS, self.wrap_count)):
            for layer, bindings in layers.items():
                for modname, attr in bindings:
                    module = importlib.import_module(modname)
                    original = getattr(module, attr, None)
                    if original is None:
                        missing.append((modname, attr))
                        continue
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrap(layer, original))
        return missing

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def self_times(self):
        """Per layer: (summed self time in seconds, number of spans)."""
        child = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0])
        for span_id, _, layer, start, end in self.spans:
            out[layer][0] += end - start - child[span_id]
            out[layer][1] += 1
        return {layer: tuple(v) for layer, v in out.items()}

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, parent, layer, start, end in self.spans:
                fh.write(json.dumps(
                    {"id": span_id, "parent": parent, "layer": layer,
                     "start": start, "end": end}
                ) + "\n")


class _Span:
    __slots__ = ("tracer", "layer", "span_id", "start")

    def __init__(self, tracer, layer):
        self.tracer = tracer
        self.layer = layer

    def __enter__(self):
        self.span_id = next(self.tracer._ids)
        self.tracer._stack.append(self.span_id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        stack = self.tracer._stack
        stack.pop()
        parent = stack[-1] if stack else None
        self.tracer.spans.append((self.span_id, parent, self.layer, self.start, end))
        return False
