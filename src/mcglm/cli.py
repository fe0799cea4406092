"""Batch front door: fit / simulate / check-derivatives / build-matrices.

The model is described by a JSON document (schema shipped as
spec_schema.json next to this module) plus a CSV data file with one row
per observation unit: response columns and covariate columns side by
side. Rows with a missing value (an empty cell or the spec's missing
token) in any referenced column, a component's group or level labels
included, are dropped entirely before assembly; a cell that parses to a
non-finite number is bad input, and so is a non-finite number in either
JSON document.
"""

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import sys
from pathlib import Path

from .errors import DomainError, FactorizationError, McglmError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOCONV = 2
EXIT_NONPD = 3
EXIT_DERIV = 4


class InputError(Exception):
    pass


@functools.cache
def _spec_validator():
    """Validator for spec_schema.json, built (and the schema checked) once per process."""
    from jsonschema.validators import validator_for

    with open(Path(__file__).with_name("spec_schema.json")) as fh:
        schema = json.load(fh)
    cls = validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _finite(text, parse=float):
    if not math.isfinite(float(text)):
        raise ValueError(f"not a finite number: {text}")
    return parse(text)


@contextlib.contextmanager
def _reading(path, newline=None):
    """Open a text input; a file that cannot be opened, read or decoded is one InputError."""
    try:
        with open(path, newline=newline) as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: {exc}")


def _read_json(path):
    """A JSON document whose numbers all fit a finite float: NaN, Infinity, 1e999 are bad input."""
    with _reading(path) as fh:
        text = fh.read()
    try:
        return json.loads(text, parse_float=_finite, parse_constant=_finite,
                          parse_int=functools.partial(_finite, parse=int))
    except ValueError as exc:
        raise InputError(f"{path}: {exc}")


def load_spec_document(path):
    doc = _read_json(path)
    from jsonschema.exceptions import best_match

    error = best_match(_spec_validator().iter_errors(doc))
    if error is not None:
        where = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise InputError(f"{path}: schema violation at {where}: {error.message}")
    return doc


def resolve_data_path(args, doc):
    """Data file from --data or the document, relative to the spec file."""
    if args.data is not None:
        return args.data
    path = doc.get("data", {}).get("path")
    if path is None:
        raise InputError("no data file: pass --data or set data.path in the spec")
    path = Path(path)
    if not path.is_absolute():
        path = Path(args.spec).parent / path
    return str(path)


def read_csv_columns(path):
    """Read a CSV into {column: list-of-str} and the line each kept row starts on.

    RFC-4180 quoting. Blank lines are skipped, a row with fewer or more
    cells than the header is bad input, and a repeated column name reads
    its last column. A row is named by its first physical line, so blank
    lines and quoted line breaks above it count.
    """
    rows, lines = [], []
    with _reading(path, newline="") as fh:
        reader = csv.reader(fh)
        start = 1  # the line the record being read starts on
        try:
            header = next(reader, None)
            if header is None:
                raise InputError(f"{path}: empty file")
            start = reader.line_num + 1
            for row in reader:
                if row:
                    if len(row) != len(header):
                        length = "short" if len(row) < len(header) else "long"
                        raise InputError(f"{path}:{start}: {length} row")
                    rows.append(row)
                    lines.append(start)
                start = reader.line_num + 1
        except csv.Error as exc:
            raise InputError(f"{path}:{start}: {exc}")
    columns = list(zip(*rows)) or [()] * len(header)
    index = {n: i for i, n in enumerate(header)}
    return {name: list(columns[i]) for name, i in index.items()}, lines


def _numeric_columns(cols, names, labels, missing, path, lines):
    """The named columns as rows of floats, NaN where a cell is missing or empty.

    Every referenced column, numeric or label, must exist. The numeric
    columns go through one cast, which calls float() on each cell; when
    a cell is not a finite number, a scan of the cells, column by
    column, names the first of them by the line its row starts on.
    """
    import numpy as np

    for name in [*names, *labels]:
        if name not in cols:
            raise InputError(f"{path}: column {name!r} not found")
    cells = np.array([cols[name] for name in names], dtype=object)
    absent = (cells == missing) | (cells == "")
    cells[absent] = "nan"
    try:
        x = cells.astype(float)
    except ValueError:
        x = None
    if x is None or not (np.isfinite(x) | absent).all():
        for name, gone in zip(names, absent):
            for line, v, a in zip(lines, cols[name], gone):
                if a:
                    continue
                try:
                    number = float(v)
                except ValueError:
                    raise InputError(f"{path}: row {line}, column {name!r}: not a number: {v!r}")
                if not math.isfinite(number):
                    raise InputError(f"{path}: row {line}, column {name!r}: not finite: {v!r}")
    return x


def _build_component(comp, numbers, labels, keep, spec_dir):
    """The StructureMatrix of one predictor component over the kept rows."""
    import numpy as np

    from . import matpred

    kind = comp["type"]
    if kind == "identity":
        return matpred.mat_identity(int(keep.sum()))
    if kind == "compound_symmetry":
        return matpred.mat_compound_symmetry(labels[comp["groups"]])
    if kind == "inverse_distance":
        groups = labels[comp["groups"]] if "groups" in comp else None
        return matpred.mat_inverse_distance(numbers[comp["positions"]],
                                            comp.get("exponent", 1), groups)
    if kind == "pair_indicator":
        return matpred.mat_pair_indicator(labels[comp["levels"]], tuple(comp["pair"]),
                                          labels[comp["groups"]])
    # "file", the one type left in the schema's enum
    path = Path(comp["path"])
    if not path.is_absolute():
        path = spec_dir / path
    sm = matpred.load_structure_matrix(str(path))
    if sm.dim != keep.size:
        raise InputError(f"{path}: dimension {sm.dim} does not match data rows {keep.size}")
    return sm.submatrix(np.flatnonzero(keep))


# the keys each predictor component type needs besides "type"
COMPONENT_KEYS = {"compound_symmetry": ("groups",), "inverse_distance": ("positions",),
                  "pair_indicator": ("levels", "pair", "groups"), "file": ("path",)}


def build_model_and_data(doc, data_path, spec_dir):
    """ModelSpec plus the stacked response vector, after complete-case filtering."""
    import numpy as np

    from . import matpred
    from .functions import CovLinkSpec, LinkSpec, VarianceSpec
    from .model import ModelSpec, ResponseSpec

    missing = doc.get("data", {}).get("missing", "NA")
    cols, lines = read_csv_columns(data_path)

    needed_numeric, needed_labels = [], []
    for resp in doc["responses"]:
        needed_numeric.append(resp["name"])
        needed_numeric.extend(resp["design_columns"])
        for comp in resp["predictor"]:
            absent = [key for key in COMPONENT_KEYS.get(comp["type"], ()) if key not in comp]
            if absent:
                raise InputError(f"response {resp['name']!r}: {comp['type']} lacks {absent}")
            needed_labels.extend(comp[key] for key in ("groups", "levels") if key in comp)
            if comp["type"] == "inverse_distance":
                needed_numeric.append(comp["positions"])
    numeric = list(dict.fromkeys(needed_numeric))
    x = _numeric_columns(cols, numeric, needed_labels, missing, data_path, lines)
    labels = {name: np.asarray(cols[name]) for name in dict.fromkeys(needed_labels)}

    # complete cases: every number finite and no label missing
    keep = np.logical_and.reduce(
        [*np.isfinite(x), *(~np.isin(v, [missing, ""]) for v in labels.values())])
    if not keep.any():
        raise InputError(f"{data_path}: no complete cases")
    numbers = dict(zip(numeric, x[:, keep]))
    labels = {name: v[keep] for name, v in labels.items()}

    responses = []
    built = {}  # canonical JSON of a component document -> its StructureMatrix
    for resp in doc["responses"]:
        components = []
        for comp in resp["predictor"]:
            key = json.dumps(comp, sort_keys=True)
            if key not in built:
                built[key] = _build_component(comp, numbers, labels, keep, spec_dir)
            components.append(built[key])
        power = resp.get("power", {})
        variance = VarianceSpec(resp["variance"], power_known=power.get("fixed", True))
        responses.append(
            ResponseSpec(
                name=resp["name"],
                link=LinkSpec(resp["link"]),
                variance=variance,
                covlink=CovLinkSpec(resp["covlink"]),
                design=np.column_stack([numbers[c] for c in resp["design_columns"]]),
                predictor=matpred.MatrixPredictor(tuple(components)),
                power_value=power.get("value", 1.0),
            )
        )

    between = doc.get("between", "free")
    rho_fixed = None if between == "free" else np.asarray(between, dtype=float)
    model = ModelSpec(tuple(responses), rho_fixed=rho_fixed)
    return model, np.concatenate([numbers[r["name"]] for r in doc["responses"]]), cols, keep


def solver_options(doc, overrides):
    from .solver import SolverOptions

    cfg = dict(doc.get("solver", {}))
    cfg.update({k: v for k, v in overrides.items() if v is not None})
    return SolverOptions(**cfg)


def _fmt(x):
    return f"{x:.17g}"


def _write_csv(path, header, rows):
    """Write the header and rows as csv.writer renders them (CRLF line ends), in one write."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())


def write_fit_outputs(out_dir, model, result):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = model.parameter_names()
    est = result.theta_hat.flat
    se = result.std_errors
    _write_csv(out / "estimates.csv", ["parameter", "estimate", "std_error", "z"], [
        [name, _fmt(e), _fmt(s), _fmt(e / s if s > 0 else float("nan"))]
        for name, e, s in zip(names, est, se)
    ])

    if model.R > 1:
        from .model import rho_index_pairs

        rho, _, _ = model.split_lambda(result.theta_hat.lam)
        rho_se = {i: s for (role, i, _), s in zip(model.layout, se) if role == "rho"}
        _write_csv(out / "sigma_b.csv", ["row", "col", "estimate", "std_error"], [
            [model.responses[a].name, model.responses[b].name, _fmt(rho[i]),
             _fmt(rho_se[i]) if i in rho_se else ""]
            for i, (a, b) in enumerate(rho_index_pairs(model.R))
        ])

    fitted = [map(_fmt, f.tolist()) for f in result.fitted.reshape(model.R, model.N)]
    _write_csv(out / "fitted.csv", ["row"] + [r.name for r in model.responses],
               zip(range(model.N), *fitted))

    doc = {
        "converged": bool(result.converged),
        "n_iter": int(result.n_iter),
        "n_alpha_escalations": int(result.n_alpha_escalations),
        "saturated": bool(result.saturated),
        "parameters": names,
        "estimates": [float(x) for x in est],
        "std_errors": [float(x) for x in se],
        "trace": [
            {
                "score_norm": float(t.score_norm),
                "beta_score_norm": float(t.beta_score_norm),
                "lambda_score_norm": float(t.lambda_score_norm),
                "alpha": float(t.alpha),
                "pd_retries": int(t.pd_retries),
                "beta_step_norm": float(t.beta_step_norm),
                "lambda_step_norm": float(t.lambda_step_norm),
            }
            for t in result.trace
        ],
        "warnings": list(result.warnings),
    }
    with open(out / "result.json", "w") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")  # one write, not one per chunk


def _load(args):
    """The spec document, then the model, stacked responses, CSV columns and kept rows."""
    doc = load_spec_document(args.spec)
    data_path = resolve_data_path(args, doc)
    return (doc, *build_model_and_data(doc, data_path, Path(args.spec).parent))


def cmd_fit(args):
    doc, model, y, _, _ = _load(args)
    opts = solver_options(doc, {"max_iter": args.max_iter, "algorithm": args.alg})

    from .solver import fit

    result = fit(model, y, opts)
    write_fit_outputs(args.out, model, result)
    if not result.converged:
        print(
            f"did not converge in {result.n_iter} iterations "
            f"(trace written to {args.out})",
            file=sys.stderr,
        )
        return EXIT_NOCONV
    print(f"converged in {result.n_iter} iterations; results in {args.out}")
    return EXIT_OK


def _read_theta(model, path):
    import numpy as np

    from .model import make_theta

    doc = _read_json(path)

    def vector(key, value):
        # a JSON number parses to an int or a float; true, "0.5" and null are not numbers
        if not isinstance(value, list) or any(type(x) not in (int, float) for x in value):
            raise InputError(f"{path}: {key} must be a list of numbers")
        return np.asarray(value, dtype=float)

    try:
        beta = [vector(f"beta[{r}]", b) for r, b in enumerate(doc["beta"])]
        tau = [vector(f"tau[{r}]", t) for r, t in enumerate(doc["tau"])]
        rho = vector("rho", doc.get("rho", []))
        p = vector("p", doc.get("p", [1.0] * model.R))
    except (KeyError, TypeError) as exc:
        raise InputError(f"{path}: bad theta document: {exc}")
    if len(beta) != model.R:
        raise InputError(
            f"{path}: beta has {len(beta)} blocks, expected one per response ({model.R})"
        )
    for b, resp in zip(beta, model.responses):
        if b.size != resp.k:
            raise InputError(
                f"{path}: beta for {resp.name!r} has length {b.size}, expected {resp.k}"
            )
    fixed = model.rho_fixed if model.rho_fixed is not None else np.zeros(0)
    if "rho" in doc and not model.rho_free and not np.array_equal(rho, fixed):
        raise InputError(
            f"{path}: rho {rho.tolist()} differs from the fixed correlations "
            f"{fixed.tolist()}; omit it or repeat them"
        )
    try:
        lam = model.pack_lambda(rho, p, tau)
    except DomainError as exc:
        raise InputError(f"{path}: {exc}")
    return make_theta(model, np.concatenate(beta), lam)


def cmd_simulate(args):
    _, model, _, cols, keep = _load(args)
    theta = _read_theta(model, args.theta)

    import numpy as np

    from .simulate import SimSpec, simulate_gaussian

    reps = simulate_gaussian(SimSpec(model, theta, args.n, args.seed))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    covariate_names = [
        c for c in cols if c not in {r.name for r in model.responses}
    ]
    header = [r.name for r in model.responses] + covariate_names
    covariates = [[cols[c][i] for c in covariate_names] for i in np.flatnonzero(keep).tolist()]
    for i in range(args.n):
        draws = [map(_fmt, y.tolist()) for y in reps[i].reshape(model.R, model.N)]
        _write_csv(out / f"rep_{i + 1:04d}.csv", header,
                   [[*ys, *cs] for *ys, cs in zip(*draws, covariates)])
    print(f"wrote {args.n} replicates to {out}")
    return EXIT_OK


def cmd_check_derivatives(args):
    _, model, y, _, _ = _load(args)

    import numpy as np

    from .checks import derivative_probe
    from .model import make_theta
    from .solver import initialize

    base = initialize(model, y)
    rng = np.random.default_rng(args.seed)

    def draw(_attempt):
        beta = base.beta + 0.05 * rng.standard_normal(base.beta.size)
        lam = base.lam.copy()
        for pos, (role, r, d) in enumerate(model.lambda_index_map()):
            if role == "rho":
                lam[pos] = rng.uniform(-0.3, 0.3)
            elif role == "power":
                lam[pos] = base.lam[pos] + rng.uniform(-0.1, 0.1)
            elif d == 0:
                lam[pos] = base.lam[pos] * rng.uniform(0.8, 1.2)
            else:
                lam[pos] = 0.05 * abs(base.lam[pos - d]) * rng.standard_normal()
        return make_theta(model, beta, lam)

    report = derivative_probe(model, y, draw)

    failed = []
    for family in sorted(report):
        err = report[family]
        status = "ok" if err < 1e-5 else "FAIL"
        print(f"{family}: worst relative error {err:.3e} [{status}]")
        if err >= 1e-5:
            failed.append(family)
    if failed:
        print(f"derivative mismatch in: {', '.join(failed)}", file=sys.stderr)
        return EXIT_DERIV
    return EXIT_OK


def _read_edges(path):
    edges = []
    with _reading(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                i, j = line.split()
                edges.append((int(i), int(j)))
            except ValueError:
                raise InputError(f"{path}:{lineno}: expected 'i j'")
    return edges


def cmd_build_matrices(args):
    from . import matpred

    if args.kind == "neighborhood":
        W, Dg = matpred.mat_neighborhood(_read_edges(args.edges), args.n)
        mats = {"W": W, "D": Dg}
        if args.icar:
            mats["Zicar"] = matpred.mat_sum(Dg, W)
    else:  # kron
        A = matpred.load_structure_matrix(args.a)
        B = matpred.load_structure_matrix(args.b)
        mats = {"kron": matpred.mat_kronecker(A, B)}
    out = Path(args.out)  # made once every input has been read
    out.mkdir(parents=True, exist_ok=True)
    for name, sm in mats.items():
        matpred.save_structure_matrix(sm, out / f"{args.prefix}{name}.txt")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line and exit code 1."""

    def error(self, message):
        self.exit(EXIT_INPUT, f"error: {message}\n")


@functools.cache
def make_parser():
    """The argparse tree, built once per process.

    Each command is named by its function, looked up in this module when
    it runs, so a patched ``cmd_*`` is the one called.
    """
    parser = _Parser(
        prog="mcglm",
        description="Fit multivariate covariance GLMs from second-moment assumptions.",
    )
    parser.add_argument("--threads", type=int, default=None, help="bound BLAS threads")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model to data")
    p_fit.add_argument("--spec", required=True)
    p_fit.add_argument("--data", default=None)
    p_fit.add_argument("--out", required=True)
    p_fit.add_argument("--max-iter", type=int, default=None, dest="max_iter")
    p_fit.add_argument("--alg", choices=["chaser", "reciprocal"], default=None)
    p_fit.set_defaults(func="cmd_fit")

    p_sim = sub.add_parser("simulate", help="draw Gaussian replicates at a theta")
    p_sim.add_argument("--spec", required=True)
    p_sim.add_argument("--data", default=None)
    p_sim.add_argument("--theta", required=True)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func="cmd_simulate")

    p_chk = sub.add_parser(
        "check-derivatives", help="verify analytic covariance derivatives"
    )
    p_chk.add_argument("--spec", required=True)
    p_chk.add_argument("--data", default=None)
    p_chk.add_argument("--seed", type=int, default=0)
    p_chk.set_defaults(func="cmd_check_derivatives")

    p_bm = sub.add_parser("build-matrices", help="write structure-matrix files")
    bm_sub = p_bm.add_subparsers(dest="kind", required=True)
    p_nb = bm_sub.add_parser("neighborhood")
    p_nb.add_argument("--edges", required=True, help="file of 'i j' lines, 0-based")
    p_nb.add_argument("--n", type=int, required=True)
    p_nb.add_argument("--out", required=True)
    p_nb.add_argument("--prefix", default="")
    p_nb.add_argument("--icar", action="store_true", help="also write D + W")
    p_nb.set_defaults(func="cmd_build_matrices")
    p_kr = bm_sub.add_parser("kron")
    p_kr.add_argument("--a", required=True)
    p_kr.add_argument("--b", required=True)
    p_kr.add_argument("--out", required=True)
    p_kr.add_argument("--prefix", default="")
    p_kr.set_defaults(func="cmd_build_matrices")

    return parser


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None):
    """Run one command; the caller's BLAS thread variables are restored on return."""
    args = make_parser().parse_args(argv)
    saved = {var: os.environ.get(var) for var in THREAD_VARS}
    try:
        if args.threads is not None:
            if args.threads < 1:
                raise InputError(f"--threads must be at least 1, got {args.threads}")
            for var in THREAD_VARS:
                os.environ[var] = str(args.threads)
        return globals()[args.func](args)
    except (InputError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except McglmError as exc:
        # a solver failure exits 2, unless a non-PD covariance caused it
        print(f"error: {args.command} failed: {exc}", file=sys.stderr)
        nonpd = any(isinstance(e, FactorizationError) for e in (exc, exc.__cause__))
        return EXIT_NONPD if nonpd else EXIT_NOCONV
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


if __name__ == "__main__":
    sys.exit(main())
