"""The benchmark's workloads: model, generated inputs and one fit each.

Every workload fits replicates drawn from a fixed pool (``POOL_SEED``),
so that each replicate has a reference result recorded from the seed
commit under ``reference/``. The workload seed only chooses the order in
which a run visits the pool, round after round. Pools are small enough
that one run at the seed commit goes round its pool several times, so
that every run sees the same mix of replicates.

Import this module only after ``boot.pin_blas_env`` and
``boot.use_checkout_source``.
"""

import contextlib
import csv
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import mcglm
import mcglm.cli

from boot import BenchError

POOL_SEED = 1504
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
RTOL = 1e-10


@dataclass(frozen=True)
class Outcome:
    """What one fit returned, as the correctness gate compares it."""

    converged: bool          # False also when the fit raised McglmError
    estimates: tuple
    std_errors: tuple
    n_iter: int
    escalations: int

    def bits(self):
        """Everything the fit returned, with floats as raw bytes (for bitwise comparison)."""
        return (
            self.converged, self.n_iter, self.escalations,
            np.asarray(self.estimates, dtype=float).tobytes(),
            np.asarray(self.std_errors, dtype=float).tobytes(),
        )

    def to_json(self):
        return {
            "converged": self.converged,
            "estimates": list(self.estimates),
            "std_errors": list(self.std_errors),
            "n_iter": self.n_iter,
            "escalations": self.escalations,
        }


FAILED = Outcome(False, (), (), 0, 0)


def matches(outcome, ref):
    """Same convergence status; estimates and SEs within RTOL of the vector's scale."""
    if outcome.converged != ref["converged"]:
        return False
    for key in ("estimates", "std_errors"):
        a = np.asarray(getattr(outcome, key), dtype=float)
        b = np.asarray(ref[key], dtype=float)
        if a.shape != b.shape:
            return False
        if b.size and not np.max(np.abs(a - b)) <= RTOL * np.max(np.abs(b)):
            return False
    return True


def load_reference(name):
    path = REFERENCE_DIR / f"{name}.json"
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read reference {path}: {exc}")


def _gaussian_pool(mean, sigmas, Sb, size):
    """The benchmark's own generator: rows mean + L z, L the joint Cholesky factor.

    The joint covariance is the generalized Kronecker coupling of the
    per-response covariances; replicate i uses the stream (POOL_SEED, i).
    """
    R = len(sigmas)
    Ls = [np.linalg.cholesky(S) for S in sigmas]
    C = np.block(
        [[sigmas[r] if r == s else Sb[r, s] * (Ls[r] @ Ls[s].T) for s in range(R)]
         for r in range(R)]
    )
    L = np.linalg.cholesky(0.5 * (C + C.T))
    pool = np.empty((size, mean.size))
    for i in range(size):
        pool[i] = mean + L @ np.random.default_rng([POOL_SEED, i]).standard_normal(mean.size)
    return pool


def _library_fit(model, y, opts):
    t0 = time.perf_counter()
    try:
        res = mcglm.fit(model, y, opts)
    except mcglm.McglmError:
        return time.perf_counter() - t0, FAILED
    wall = time.perf_counter() - t0
    return wall, Outcome(
        bool(res.converged),
        tuple(float(x) for x in res.theta_hat.flat),
        tuple(float(x) for x in res.std_errors),
        int(res.n_iter),
        int(res.n_alpha_escalations),
    )


class LibraryWorkload:
    """A model fitted through ``mcglm.fit`` on the benchmark's own replicates.

    Every workload offers: ``setup()`` (the part ``setup_s`` times),
    ``prepare()`` (work before the loop; returns ``simulate_s`` or None),
    ``fit(i)`` -> (wall seconds, Outcome), ``inputs()`` (the pool's bytes),
    ``inputs_digest()``, ``regenerate(tracer)`` (draw the pool again,
    under tracing) and ``shape()``.
    """

    name = None
    pool_size = None
    opts = None

    def __init__(self, workdir):
        self.model = None
        self.pool = None

    def setup(self):
        self.model, self.mean, self.sigmas, self.Sb = self.build()
        self.pool = self.generate()

    def generate(self):
        return _gaussian_pool(self.mean, self.sigmas, self.Sb, self.pool_size)

    def prepare(self):
        return None

    def inputs(self):
        return self.pool.tobytes()

    def inputs_digest(self):
        return hashlib.sha256(self.inputs()).hexdigest()

    def regenerate(self, tracer):
        with tracer.span("simulate.gaussian"):
            self.pool = self.generate()

    def fit(self, i):
        return _library_fit(self.model, self.pool[i], self.opts)

    def shape(self):
        m = self.model
        return {"N": m.N, "R": m.R, "K": m.K, "Q": m.Q}


class PairedR2(LibraryWorkload):
    """R=2 Gaussian, identity covariance link, compound symmetry over N/2 pairs.

    The shape of tests/helpers.gaussian_two_response at N=200, fitted
    with the default chaser solver.
    """

    name = "paired-r2"
    pool_size = 4
    N = 200
    BETA = ([1.0, 0.5], [2.0, 0.3])
    TAU = ([1.0, 0.3], [1.5, 0.3])
    RHO = 0.4

    def build(self):
        N = self.N
        rng = np.random.default_rng(0)
        groups = np.repeat(np.arange(N // 2), 2)
        responses, mean, sigmas = [], [], []
        for r in range(2):
            X = np.column_stack([np.ones(N), rng.standard_normal(N)])
            comps = (mcglm.mat_identity(N), mcglm.mat_compound_symmetry(groups))
            responses.append(
                mcglm.ResponseSpec(
                    f"y{r}",
                    mcglm.LinkSpec("identity"),
                    mcglm.VarianceSpec("constant"),
                    mcglm.CovLinkSpec("identity"),
                    X,
                    mcglm.MatrixPredictor(comps),
                )
            )
            mean.append(X @ np.array(self.BETA[r]))
            sigmas.append(sum(t * z.dense() for t, z in zip(self.TAU[r], comps)))
        Sb = np.array([[1.0, self.RHO], [self.RHO, 1.0]])
        return mcglm.ModelSpec(tuple(responses)), np.concatenate(mean), sigmas, Sb


def car_components(T=6, S=8):
    """Space-time CAR structure matrices on a T x S grid (acceptance criterion 09)."""
    Wt, Dt = mcglm.mat_neighborhood([(i, i + 1) for i in range(T - 1)], T)
    Ws, Ds = mcglm.mat_neighborhood([(i, i + 1) for i in range(S - 1)], S)
    I_T, I_S = mcglm.mat_identity(T), mcglm.mat_identity(S)
    kron = mcglm.mat_kronecker
    return (
        kron(Dt, I_S), kron(Wt, I_S), kron(I_T, Ds),
        kron(I_T, Ws), kron(Dt, Ds), kron(Wt, Ws),
    )


class CarMC(LibraryWorkload):
    """6x8 CAR space-time field, inverse covariance link, reciprocal solver."""

    name = "car-mc"
    pool_size = 24
    TAU = (1.0, -0.4, 0.8, -0.24, 0.5, 0.1)
    opts = mcglm.SolverOptions(algorithm="reciprocal", max_iter=500)

    def build(self):
        comps = car_components()
        N = comps[0].dim
        resp = mcglm.ResponseSpec(
            "y",
            mcglm.LinkSpec("identity"),
            mcglm.VarianceSpec("constant"),
            mcglm.CovLinkSpec("inverse"),
            np.ones((N, 1)),
            mcglm.MatrixPredictor(comps),
        )
        U = sum(t * z.dense() for t, z in zip(self.TAU, comps))
        sigma = np.linalg.inv(U)
        sigma = 0.5 * (sigma + sigma.T)
        return mcglm.ModelSpec((resp,)), np.ones(N), [sigma], np.eye(1)


class CliMC:
    """Criterion-10-style round trip through ``mcglm.cli.main``.

    ``simulate`` writes the pool once per run; each fit reads the spec
    and one replicate CSV and writes four files, which are read back
    and then removed.
    """

    name = "cli-mc"
    pool_size = 24
    N = 50
    THETA = {"beta": [[1.0, 0.5], [2.0, 0.3]], "rho": [0.4],
             "tau": [[1.0, 0.3], [1.5, 0.3]]}

    def __init__(self, workdir):
        self.dir = Path(workdir)
        self.base = self.dir / "base"
        self.sim_dir = None

    def _spec_doc(self):
        def resp(name, xcol):
            return {
                "name": name,
                "link": "identity",
                "variance": "constant",
                "covlink": "identity",
                "design_columns": ["one", xcol],
                "predictor": [
                    {"type": "identity"},
                    {"type": "compound_symmetry", "groups": "g"},
                ],
            }

        return {
            "schema_version": 1,
            "responses": [resp("y1", "x1"), resp("y2", "x2")],
            "between": "free",
            "data": {"path": "data.csv"},
        }

    def setup(self):
        """Write the spec, the base CSV (covariates, zero responses) and theta."""
        N = self.N
        rng = np.random.default_rng(42)
        x1, x2 = rng.standard_normal(N), rng.standard_normal(N)
        g = np.repeat(np.arange(N // 2), 2)
        self.base.mkdir(parents=True, exist_ok=True)
        with open(self.base / "data.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["y1", "y2", "one", "x1", "x2", "g"])
            for i in range(N):
                w.writerow(["0", "0", "1", f"{x1[i]:.17g}", f"{x2[i]:.17g}", str(g[i])])
        (self.base / "spec.json").write_text(json.dumps(self._spec_doc()))
        (self.base / "theta.json").write_text(json.dumps(self.THETA))

    def _main(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = mcglm.cli.main(argv)
            wall = time.perf_counter() - t0
        return wall, code

    def simulate(self, out_name):
        """Run ``mcglm simulate`` for the whole pool; returns its wall time."""
        out = self.dir / out_name
        wall, code = self._main([
            "simulate", "--spec", str(self.base / "spec.json"),
            "--theta", str(self.base / "theta.json"),
            "--n", str(self.pool_size), "--seed", str(POOL_SEED), "--out", str(out),
        ])
        if code != 0:
            raise BenchError(f"mcglm simulate exited with {code}")
        self.sim_dir = out
        return wall

    def prepare(self):
        """Write the pool with ``mcglm simulate`` and warm the CLI up; returns simulate_s."""
        wall = self.simulate("sim")
        self.fit(0)  # warm-up: the CLI imports jsonschema on its first call
        return wall

    def inputs(self):
        return b"".join((self.sim_dir / f"rep_{i + 1:04d}.csv").read_bytes()
                        for i in range(self.pool_size))

    def inputs_digest(self):
        return None  # the program under test writes this pool

    def regenerate(self, tracer):
        self.simulate("sim_traced")  # the tracer's wrappers record it

    def fit(self, i):
        out = self.dir / "fit_out"
        wall, code = self._main([
            "fit", "--spec", str(self.base / "spec.json"),
            "--data", str(self.sim_dir / f"rep_{i + 1:04d}.csv"), "--out", str(out),
        ])
        if code not in (0, 2):
            raise BenchError(f"mcglm fit exited with {code} on replicate {i}")
        outcome = FAILED
        if (out / "result.json").is_file():
            with open(out / "estimates.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            with open(out / "result.json") as fh:
                doc = json.load(fh)
            outcome = Outcome(
                code == 0,
                tuple(float(r["estimate"]) for r in rows),
                tuple(float(r["std_error"]) for r in rows),
                int(doc["n_iter"]),
                int(doc["n_alpha_escalations"]),
            )
        shutil.rmtree(out, ignore_errors=True)
        return wall, outcome

    def shape(self):
        doc = self._spec_doc()
        R = len(doc["responses"])
        return {
            "N": self.N,
            "R": R,
            "K": sum(len(r["design_columns"]) for r in doc["responses"]),
            "Q": R * (R - 1) // 2 + sum(len(r["predictor"]) for r in doc["responses"]),
        }


WORKLOADS = {w.name: w for w in (PairedR2, CarMC, CliMC)}
