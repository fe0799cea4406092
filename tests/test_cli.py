import csv
import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mcglm
import mcglm.estfun
from mcglm.cli import _read_theta, build_model_and_data, load_spec_document, main, solver_options
from mcglm.matpred import save_structure_matrix
from mcglm.model import rho_index_pairs
from mcglm.simulate import SimSpec, simulate_gaussian
from mcglm.solver import fit

from helpers import nonpd_instance


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2) + "\n")


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def gaussian_fixture(tmp_path, N=20, seed=0, missing_rows=()):
    """Single-response Gaussian spec + data; returns (spec_path, X, y)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(N)
    y = 2.0 + 0.7 * x + rng.standard_normal(N)
    rows = []
    for i in range(N):
        yv = "NA" if i in missing_rows else f"{y[i]:.17g}"
        rows.append([yv, "1", f"{x[i]:.17g}"])
    data = tmp_path / "data.csv"
    write_csv(data, ["y", "one", "x"], rows)
    spec = tmp_path / "spec.json"
    write_json(
        spec,
        {
            "schema_version": 1,
            "responses": [
                {
                    "name": "y",
                    "link": "identity",
                    "variance": "constant",
                    "covlink": "identity",
                    "design_columns": ["one", "x"],
                    "predictor": [{"type": "identity"}],
                }
            ],
            "solver": {"tol_score": 1e-12, "tol_param": 1e-12},
            "data": {"path": "data.csv"},
        },
    )
    return spec, np.column_stack([np.ones(N), x]), y


def nonpd_fixture(tmp_path):
    """helpers.nonpd_instance as a spec with its `file` structure matrix and data; the spec path."""
    model, y, _ = nonpd_instance()
    Z = model.responses[0].predictor.components[1]
    save_structure_matrix(Z, tmp_path / "Z.txt")
    write_csv(tmp_path / "data.csv", ["y", "one"], [[f"{v:.17g}", "1"] for v in y])
    spec = tmp_path / "spec.json"
    write_json(
        spec,
        {
            "schema_version": 1,
            "responses": [
                {
                    "name": "y",
                    "link": "identity",
                    "variance": "constant",
                    "covlink": "identity",
                    "design_columns": ["one"],
                    "predictor": [
                        {"type": "identity"},
                        {"type": "file", "path": "Z.txt"},
                    ],
                }
            ],
            "data": {"path": "data.csv"},
        },
    )
    return spec


def run_cli(*args):
    """Run the CLI in a fresh interpreter, so an escaping exception shows as a traceback."""
    env = dict(os.environ, PYTHONPATH=str(Path(mcglm.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "mcglm.cli", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def assert_one_error_line(proc):
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def exit_code(argv):
    """main's exit code, whether it returns it or a usage error raises SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def assert_one_error_line_in_process(code, capsys):
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def read_estimates(out_dir):
    with open(out_dir / "estimates.csv", newline="") as fh:
        return {row["parameter"]: row for row in csv.DictReader(fh)}


def row_by_row_fit_outputs(out, model, result):
    """The CSV files of write_fit_outputs, written row by row through csv.writer."""
    out.mkdir(parents=True, exist_ok=True)
    names, est, se = model.parameter_names(), result.theta_hat.flat, result.std_errors
    with open(out / "estimates.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["parameter", "estimate", "std_error", "z"])
        for name, e, s in zip(names, est, se):
            z = e / s if s > 0 else float("nan")
            w.writerow([name, f"{e:.17g}", f"{s:.17g}", f"{z:.17g}"])
    if model.R > 1:
        rho, _, _ = model.split_lambda(result.theta_hat.lam)
        rho_se = {i: s for (role, i, _), s in zip(model.layout, se) if role == "rho"}
        with open(out / "sigma_b.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["row", "col", "estimate", "std_error"])
            for i, (a, b) in enumerate(rho_index_pairs(model.R)):
                s = rho_se.get(i)
                w.writerow([model.responses[a].name, model.responses[b].name, f"{rho[i]:.17g}",
                            f"{s:.17g}" if s is not None else ""])
    N = model.N
    with open(out / "fitted.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["row"] + [r.name for r in model.responses])
        for i in range(N):
            w.writerow([i] + [f"{result.fitted[r * N + i]:.17g}" for r in range(model.R)])


def row_by_row_replicates(out, model, reps, cols, keep):
    """The replicate files of ``mcglm simulate``, written row by row through csv.writer."""
    N, idx = model.N, np.flatnonzero(keep)
    covariate_names = [c for c in cols if c not in {r.name for r in model.responses}]
    for i in range(len(reps)):
        with open(out / f"rep_{i + 1:04d}.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([r.name for r in model.responses] + covariate_names)
            for row in range(N):
                vals = [f"{reps[i, r * N + row]:.17g}" for r in range(model.R)]
                w.writerow(vals + [cols[c][idx[row]] for c in covariate_names])


class TestFit:
    def test_gls_closed_form(self, tmp_path):
        spec, X, y = gaussian_fixture(tmp_path)
        out = tmp_path / "out"
        code = main(["--threads", "1", "fit", "--spec", str(spec), "--out", str(out)])
        assert code == 0
        est = read_estimates(out)
        ols = np.linalg.lstsq(X, y, rcond=None)[0]
        rss = float(np.sum((y - X @ ols) ** 2))
        N, K = X.shape
        names = list(est)
        assert float(est[names[0]]["estimate"]) == pytest.approx(ols[0], abs=1e-8)
        assert float(est[names[1]]["estimate"]) == pytest.approx(ols[1], abs=1e-8)
        tau_name = [n for n in names if "tau" in n][0]
        assert float(est[tau_name]["estimate"]) == pytest.approx(
            rss / (N - K), rel=1e-8
        )
        result = json.loads((out / "result.json").read_text())
        assert result["converged"] is True
        assert result["saturated"] is False

    def test_saturated_flag_written(self, tmp_path, monkeypatch):
        spec, _, _ = gaussian_fixture(tmp_path)
        fit = mcglm.solver.fit

        def saturating_fit(*args, **kwargs):
            result = fit(*args, **kwargs)
            return dataclasses.replace(result, saturated=True)

        monkeypatch.setattr(mcglm.solver, "fit", saturating_fit)
        out = tmp_path / "out"
        assert main(["fit", "--spec", str(spec), "--out", str(out)]) == 0
        assert json.loads((out / "result.json").read_text())["saturated"] is True

    def test_parser_built_once_runs_a_patched_command(self, tmp_path, monkeypatch):
        spec, _, _ = gaussian_fixture(tmp_path)
        assert main(["fit", "--spec", str(spec), "--out", str(tmp_path / "a")]) == 0
        parser = mcglm.cli.make_parser()
        ran = []
        monkeypatch.setattr(mcglm.cli, "cmd_fit", lambda args: ran.append(args.out) or 0)
        assert main(["fit", "--spec", str(spec), "--out", str(tmp_path / "b")]) == 0
        assert ran == [str(tmp_path / "b")]
        assert not (tmp_path / "b").exists()
        assert mcglm.cli.make_parser() is parser

    def test_bad_alpha_options_exit_1(self, tmp_path):
        spec, _, _ = gaussian_fixture(tmp_path)
        doc = json.loads(spec.read_text())
        doc["solver"].update({"alpha_step": 2.0, "alpha_max": 1.0})
        write_json(spec, doc)
        proc = run_cli("fit", "--spec", str(spec), "--out", str(tmp_path / "o"))
        assert_one_error_line(proc)
        assert "alpha_step" in proc.stderr

    def test_complete_case_filtering(self, tmp_path):
        spec, X, y = gaussian_fixture(tmp_path, missing_rows=(3, 7))
        out = tmp_path / "out"
        assert main(["fit", "--spec", str(spec), "--out", str(out)]) == 0
        keep = np.ones(len(y), dtype=bool)
        keep[[3, 7]] = False
        ols = np.linalg.lstsq(X[keep], y[keep], rcond=None)[0]
        est = read_estimates(out)
        names = list(est)
        assert float(est[names[1]]["estimate"]) == pytest.approx(ols[1], abs=1e-8)
        with open(out / "fitted.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == keep.sum()

    @staticmethod
    def _set_y_cell(tmp_path, row, cell):
        data = tmp_path / "data.csv"
        lines = data.read_text().splitlines()
        lines[row - 1] = ",".join([cell] + lines[row - 1].split(",")[1:])
        data.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("cell", ["NA", ""])
    def test_missing_token_and_empty_cell_drop_their_row(self, tmp_path, cell):
        spec, _, y = gaussian_fixture(tmp_path)
        self._set_y_cell(tmp_path, 4, cell)
        out = tmp_path / "out"
        assert main(["fit", "--spec", str(spec), "--out", str(out)]) == 0
        with open(out / "fitted.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == len(y) - 1

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
    def test_non_finite_cell_exits_1(self, tmp_path, capsys, cell):
        # a non-finite number is bad input, not a missing value that drops its row
        spec, _, _ = gaussian_fixture(tmp_path)
        self._set_y_cell(tmp_path, 4, cell)
        assert main(["fit", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert f"row 4, column 'y': not finite: '{cell}'" in lines[0]

    def test_malformed_spec_exits_1(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        write_json(spec, {"schema_version": 1, "responses": [{"name": "y"}]})
        code = main(["fit", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "schema violation" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("between", [float("nan")]), ("solver", {"tol_score": float("nan")}),
    ], ids=["between", "tol_score"])
    def test_non_finite_spec_number_exits_1(self, tmp_path, capsys, key, value):
        # json.dumps writes NaN; x is a second response, so that between has one correlation
        spec, _, _ = gaussian_fixture(tmp_path)
        doc = json.loads(spec.read_text())
        doc["responses"].append(dict(doc["responses"][0], name="x", design_columns=["one"]))
        doc[key] = value
        write_json(spec, doc)
        code = main(["fit", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {spec}: not a finite number: NaN"]
        assert not (tmp_path / "o").exists()

    def test_unparseable_json_exits_1(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text("{not json")
        assert main(["fit", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 1

    def test_missing_column_exits_1(self, tmp_path, capsys):
        spec, _, _ = gaussian_fixture(tmp_path)
        doc = json.loads(spec.read_text())
        doc["responses"][0]["design_columns"] = ["one", "nope"]
        write_json(spec, doc)
        assert main(["fit", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 1
        assert "nope" in capsys.readouterr().err

    def test_non_numeric_cell_exits_1(self, tmp_path, capsys):
        spec, _, _ = gaussian_fixture(tmp_path)
        data = tmp_path / "data.csv"
        lines = data.read_text().splitlines()
        lines[2] = lines[2].replace(lines[2].split(",")[2], "abc")
        data.write_text("\n".join(lines) + "\n")
        assert main(["fit", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 1
        assert "not a number" in capsys.readouterr().err

    def test_no_convergence_exits_2(self, tmp_path, capsys):
        spec, _, _ = gaussian_fixture(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["fit", "--spec", str(spec), "--out", str(out), "--max-iter", "1"]
        )
        assert code == 2
        assert "did not converge" in capsys.readouterr().err
        # partial outputs (including the trace) are still written
        assert (out / "result.json").exists()
        assert json.loads((out / "result.json").read_text())["converged"] is False

    def test_non_pd_chaser_proposal_exits_3(self, tmp_path):
        # a random symmetric `file` structure matrix whose chaser proposal
        # from the starting values is not positive definite
        spec = nonpd_fixture(tmp_path)
        proc = run_cli(
            "fit", "--spec", str(spec), "--out", str(tmp_path / "o"), "--alg", "chaser"
        )
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "non-PD" in lines[0]

    def test_singular_lambda_variability_exits_2(self, tmp_path, monkeypatch, capsys):
        # the reciprocal fit escalates alpha, and a damped step solves V_lambda
        spec = nonpd_fixture(tmp_path)
        monkeypatch.setattr(
            mcglm.solver, "variability_lambda", lambda state, k4: np.zeros((state.Q, state.Q))
        )
        argv = ["fit", "--spec", str(spec), "--out", str(tmp_path / "o"), "--alg", "reciprocal"]
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "singular lambda variability" in lines[0]

    def test_underflowing_variance_exits_3(self, tmp_path, monkeypatch, capsys):
        # mu^2 = exp(-1380) underflows to 0 at the start: C = S C_Omega S is singular
        spec, _, _ = gaussian_fixture(tmp_path, N=4)
        doc = json.loads(spec.read_text())
        doc["responses"][0].update(
            link="log", variance="tweedie_power", power={"value": 2.0}, design_columns=["one"]
        )
        write_json(spec, doc)
        start = mcglm.solver.initialize

        def far_start(model, y):
            return start(model, y).with_beta(np.array([-690.0]))

        monkeypatch.setattr(mcglm.solver, "initialize", far_start)
        assert main(["fit", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: fit failed: ")

    def test_overflowing_variance_exits_3_with_one_line(self, tmp_path, monkeypatch, capsys):
        # mu^2 = exp(1380) overflows to inf at the start: the scale is rejected, silently
        spec, _, _ = gaussian_fixture(tmp_path, N=4)
        doc = json.loads(spec.read_text())
        doc["responses"][0].update(
            link="log", variance="tweedie_power", power={"value": 2.0}, design_columns=["one"]
        )
        write_json(spec, doc)
        start = mcglm.solver.initialize

        def far_start(model, y):
            return start(model, y).with_beta(np.array([690.0]))

        monkeypatch.setattr(mcglm.solver, "initialize", far_start)
        with warnings.catch_warnings(record=True) as caught:  # what would reach stderr
            warnings.simplefilter("always")
            assert main(["fit", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 3
        assert [str(w.message) for w in caught] == []
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: fit failed: variance scale")

    def test_byte_determinism_under_single_thread(self, tmp_path):
        spec, _, _ = gaussian_fixture(tmp_path)
        outs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            assert (
                main(["--threads", "1", "fit", "--spec", str(spec), "--out", str(out)])
                == 0
            )
            outs.append(out)
        for fname in ("estimates.csv", "fitted.csv", "result.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_result_json_is_its_document_dumped_with_sorted_keys(self, tmp_path):
        spec, _, _ = gaussian_fixture(tmp_path)
        out = tmp_path / "out"
        assert main(["--threads", "1", "fit", "--spec", str(spec), "--out", str(out)]) == 0
        text = (out / "result.json").read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


class TestSimulate:
    def theta_doc(self, tmp_path, beta=((2.0, 0.7),), tau=((1.5,),)):
        path = tmp_path / "theta.json"
        write_json(
            path, {"beta": [list(b) for b in beta], "tau": [list(t) for t in tau]}
        )
        return path

    def test_deterministic_output(self, tmp_path):
        spec, _, _ = gaussian_fixture(tmp_path)
        theta = self.theta_doc(tmp_path)
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            code = main(
                [
                    "simulate",
                    "--spec",
                    str(spec),
                    "--theta",
                    str(theta),
                    "--n",
                    "3",
                    "--seed",
                    "5",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            outs.append(out)
        for i in range(1, 4):
            name = f"rep_{i:04d}.csv"
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_replicate_files_carry_covariates(self, tmp_path):
        spec, X, _ = gaussian_fixture(tmp_path)
        theta = self.theta_doc(tmp_path)
        out = tmp_path / "sim"
        assert (
            main(
                [
                    "simulate",
                    "--spec",
                    str(spec),
                    "--theta",
                    str(theta),
                    "--n",
                    "1",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        with open(out / "rep_0001.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == X.shape[0]
        assert {"y", "one", "x"} <= set(rows[0])
        xs = np.array([float(r["x"]) for r in rows])
        assert np.allclose(xs, X[:, 1], atol=1e-12)

    def test_simulated_mean_near_theta(self, tmp_path):
        spec, X, _ = gaussian_fixture(tmp_path, N=30)
        theta = self.theta_doc(tmp_path, beta=((1.0, 0.0),), tau=((0.01,),))
        out = tmp_path / "sim"
        assert (
            main(
                [
                    "simulate",
                    "--spec",
                    str(spec),
                    "--theta",
                    str(theta),
                    "--n",
                    "1",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        with open(out / "rep_0001.csv", newline="") as fh:
            ys = np.array([float(r["y"]) for r in csv.DictReader(fh)])
        assert np.all(np.abs(ys - 1.0) < 1.0)

    def test_bad_theta_length_exits_1(self, tmp_path, capsys):
        spec, _, _ = gaussian_fixture(tmp_path)
        doc = json.loads(spec.read_text())
        # R = 2 for the long rho: x becomes the second response
        doc["responses"].append(dict(doc["responses"][0], name="x", design_columns=["one"]))
        spec2 = tmp_path / "spec2.json"
        write_json(spec2, doc)
        cases = [
            (spec, {"beta": [[2.0]], "tau": [[1.5]]}, "beta"),
            (spec, {"beta": [[2.0, 0.7]], "tau": [[]]}, "tau"),
            (spec, {"beta": [[2.0, 0.7]], "tau": [[1.5]], "p": []}, "p"),
            (spec2, {"beta": [[2.0, 0.7], [0.0]], "tau": [[1.5], [1.0]], "rho": [0.1, 0.2]},
             "rho"),
        ]
        for spec_path, entries, block in cases:
            theta = tmp_path / "theta.json"
            write_json(theta, entries)
            code = main(["simulate", "--spec", str(spec_path), "--theta", str(theta),
                         "--n", "1", "--out", str(tmp_path / "o")])
            assert code == 1
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert f": {block} " in lines[0]

    @pytest.mark.parametrize(
        "between, rho, code",
        [
            ([0.3], [0.9], 1),
            ([0.3], [0.1, 0.2, 0.3, 0.4], 1),
            ([0.3], [], 1),
            ([0.3], [0.3], 0),
            ([0.3], None, 0),
            (None, [0.9], 1),
        ],
        ids=["fixed-other-value", "fixed-wrong-length", "fixed-empty", "fixed-repeated",
             "fixed-omitted", "single-response"],
    )
    def test_rho_must_repeat_fixed_correlations(self, tmp_path, capsys, between, rho, code):
        spec, _, _ = gaussian_fixture(tmp_path)
        entries = {"beta": [[2.0, 0.7]], "tau": [[1.5]]}
        if between is not None:
            doc = json.loads(spec.read_text())
            doc["responses"].append(dict(doc["responses"][0], name="x", design_columns=["one"]))
            doc["between"] = between
            write_json(spec, doc)
            entries = {"beta": [[2.0, 0.7], [0.0]], "tau": [[1.5], [1.0]]}
        if rho is not None:
            entries["rho"] = rho
        theta = tmp_path / "theta.json"
        write_json(theta, entries)
        out = tmp_path / "o"
        assert main(["simulate", "--spec", str(spec), "--theta", str(theta),
                     "--n", "1", "--out", str(out)]) == code
        lines = capsys.readouterr().err.splitlines()
        if code:
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert ": rho " in lines[0]
            assert not out.exists()
        else:
            assert lines == [] and (out / "rep_0001.csv").is_file()

    @pytest.mark.parametrize("number", ["NaN", "1e999", "1" + "0" * 400],
                             ids=["nan", "overflowing-float", "overflowing-int"])
    def test_non_finite_theta_exits_1(self, tmp_path, capsys, number):
        # tau[0][1] = 0.3 is the coefficient of one compound-symmetry block over all rows
        spec, _, _ = gaussian_fixture(tmp_path)
        doc = json.loads(spec.read_text())
        doc["responses"][0]["predictor"].append({"type": "compound_symmetry", "groups": "one"})
        write_json(spec, doc)
        theta = tmp_path / "theta.json"
        theta.write_text(f'{{"beta": [[2.0, 0.7]], "tau": [[{number}, 0.3]]}}')
        out = tmp_path / "o"
        code = main(["simulate", "--spec", str(spec), "--theta", str(theta),
                     "--n", "1", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {theta}: not a finite number: {number}"
        ]
        assert not out.exists()

    def test_non_pd_theta_exits_3(self, tmp_path):
        spec, _, _ = gaussian_fixture(tmp_path)
        theta = self.theta_doc(tmp_path, tau=((-1.0,),))
        code = main(
            [
                "simulate",
                "--spec",
                str(spec),
                "--theta",
                str(theta),
                "--n",
                "1",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 3


@pytest.mark.parametrize("content", ["# dim 20\n0 2 5.0\n", None], ids=["0-based", "missing"])
def test_bad_structure_file_exits_1(tmp_path, capsys, content):
    spec, _, _ = gaussian_fixture(tmp_path)
    doc = json.loads(spec.read_text())
    doc["responses"][0]["predictor"].append({"type": "file", "path": "z.txt"})
    write_json(spec, doc)
    if content is not None:
        (tmp_path / "z.txt").write_text(content)
    code = exit_code(["fit", "--spec", str(spec), "--out", str(tmp_path / "o")])
    assert_one_error_line_in_process(code, capsys)


@pytest.mark.parametrize(
    "args",
    [
        ["--threads", "0", "fit"],
        ["--threads", "-1", "fit"],
        ["--threads", "abc", "fit"],
        ["fit", "--alg", "newton"],
        ["fit", "--no-such-option"],
        ["no-such-command"],
    ],
)
def test_usage_errors_exit_1(tmp_path, capsys, args):
    spec, _, _ = gaussian_fixture(tmp_path)
    code = exit_code(args + ["--spec", str(spec), "--out", str(tmp_path / "o")])
    assert_one_error_line_in_process(code, capsys)
    assert not (tmp_path / "o").exists()


def test_missing_required_option_exits_1(capsys):
    assert_one_error_line_in_process(exit_code(["fit", "--out", "o"]), capsys)


def test_help_exits_0(capsys):
    assert exit_code(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_max_iter_below_one_exits_1(tmp_path, capsys):
    spec, _, _ = gaussian_fixture(tmp_path)
    argv = ["fit", "--spec", str(spec), "--out", str(tmp_path / "o"), "--max-iter", "0"]
    assert_one_error_line_in_process(exit_code(argv), capsys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("variance, beta, n", [
    ("constant", (2.0, 0.7), "-3"),        # replicate count below 1
    ("tweedie_power", (-5.0, 0.0), "1"),   # negative mean: outside the variance domain
])
def test_simulate_bad_input_exits_1(tmp_path, capsys, variance, beta, n):
    spec, _, _ = gaussian_fixture(tmp_path)
    doc = json.loads(spec.read_text())
    doc["responses"][0]["variance"] = variance
    write_json(spec, doc)
    theta = tmp_path / "theta.json"
    write_json(theta, {"beta": [list(beta)], "tau": [[1.5]], "p": [1.5]})
    code = exit_code(
        ["simulate", "--spec", str(spec), "--theta", str(theta), "--n", n,
         "--out", str(tmp_path / "o")]
    )
    assert_one_error_line_in_process(code, capsys)


@pytest.mark.parametrize("component", [
    {"type": "compound_symmetry"},
    {"type": "inverse_distance"},
    {"type": "pair_indicator", "levels": "one"},
    {"type": "file"},
])
def test_component_without_its_keys_exits_1(tmp_path, capsys, component):
    spec, _, _ = gaussian_fixture(tmp_path)
    doc = json.loads(spec.read_text())
    doc["responses"][0]["predictor"].append(component)
    write_json(spec, doc)
    code = exit_code(["fit", "--spec", str(spec), "--out", str(tmp_path / "o")])
    assert_one_error_line_in_process(code, capsys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value", [
    ("beta", [[[2.0, 0.7]]]),
    ("tau", [1.5]),
    ("rho", 0.4),
    ("p", 1.0),
])
def test_simulate_theta_entry_not_a_list_exits_1(tmp_path, capsys, key, value):
    spec, _, _ = gaussian_fixture(tmp_path)
    theta = tmp_path / "theta.json"
    write_json(theta, dict({"beta": [[2.0, 0.7]], "tau": [[1.5]], "p": [1.0]}, **{key: value}))
    code = exit_code(
        ["simulate", "--spec", str(spec), "--theta", str(theta), "--n", "1",
         "--out", str(tmp_path / "o")]
    )
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and key in lines[0]


@pytest.mark.parametrize("command", ["fit", "simulate", "check-derivatives"])
def test_coincident_inverse_distance_positions_exit_1(tmp_path, command):
    spec, _, _ = gaussian_fixture(tmp_path)
    doc = json.loads(spec.read_text())
    # every row has position 1 in the one group: coincident positions
    doc["responses"][0]["predictor"].append({"type": "inverse_distance", "positions": "one"})
    write_json(spec, doc)
    args = {
        "fit": ["--out", str(tmp_path / "o")],
        "simulate": ["--theta", str(tmp_path / "theta.json"), "--n", "1",
                     "--out", str(tmp_path / "o")],
        "check-derivatives": [],
    }[command]
    proc = run_cli(command, "--spec", str(spec), *args)
    assert_one_error_line(proc)
    assert "coincident positions" in proc.stderr


@pytest.mark.parametrize("command", ["fit", "check-derivatives"])
def test_rank_deficient_design_exits_2(tmp_path, command):
    # two constant design columns: the starting fit cannot solve for beta
    spec, _, _ = gaussian_fixture(tmp_path)
    rows = [line.split(",") for line in (tmp_path / "data.csv").read_text().splitlines()]
    write_csv(tmp_path / "data.csv", rows[0] + ["one2"], [row + ["1"] for row in rows[1:]])
    doc = json.loads(spec.read_text())
    doc["responses"][0]["design_columns"] = ["one", "one2"]
    write_json(spec, doc)
    args = ["--out", str(tmp_path / "o")] if command == "fit" else []
    proc = run_cli(command, "--spec", str(spec), *args)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {command} failed: ")
    assert lines[0].endswith("beta columns [0, 1]")


class TestCheckDerivatives:
    def test_clean_model_exits_0(self, tmp_path, capsys):
        spec, _, _ = gaussian_fixture(tmp_path)
        code = main(["check-derivatives", "--spec", str(spec), "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tau" in out and "ok" in out

    def test_report_is_seed_deterministic(self, tmp_path, capsys):
        spec, _, _ = gaussian_fixture(tmp_path)
        assert main(["check-derivatives", "--spec", str(spec), "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert main(["check-derivatives", "--spec", str(spec), "--seed", "9"]) == 0
        assert capsys.readouterr().out == first

    def test_corrupted_derivative_exits_4(self, tmp_path, capsys, monkeypatch):
        spec, _, _ = gaussian_fixture(tmp_path)
        original = mcglm.estfun.dSigma_dtau
        monkeypatch.setattr(mcglm.estfun, "dSigma_dtau", lambda *a: 1.001 * original(*a))
        assert main(["check-derivatives", "--spec", str(spec)]) == 4
        assert "tau" in capsys.readouterr().err

    def test_corrupted_beta_derivative_exits_4(self, tmp_path, capsys, monkeypatch):
        # under a log link the tweedie variance depends on mu, so C depends on beta
        # through the scale: the fit's dC_dscale, which the check reads too
        spec, _, _ = gaussian_fixture(tmp_path)
        doc = json.loads(spec.read_text())
        doc["responses"][0].update(link="log", variance="tweedie_power")
        write_json(spec, doc)
        original = mcglm.estfun.dC_dscale
        monkeypatch.setattr(mcglm.estfun, "dC_dscale", lambda *a: 1.001 * original(*a))
        assert main(["check-derivatives", "--spec", str(spec)]) == 4
        assert "beta" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["tweedie_power", "poisson_tweedie"])
    def test_corrupted_power_derivative_exits_4(self, tmp_path, capsys, monkeypatch, kind):
        # a free power's A_i is C_Omega^{-1} dC_dscale; the check reads it as C A_i
        spec, _, _ = gaussian_fixture(tmp_path)
        doc = json.loads(spec.read_text())
        doc["responses"][0].update(
            link="log", variance=kind, power={"fixed": False, "value": 1.5}
        )
        write_json(spec, doc)
        assert main(["check-derivatives", "--spec", str(spec)]) == 0
        capsys.readouterr()
        original = mcglm.estfun.dC_dscale
        monkeypatch.setattr(mcglm.estfun, "dC_dscale", lambda *a: 1.001 * original(*a))
        assert main(["check-derivatives", "--spec", str(spec)]) == 4
        assert "beta, power" in capsys.readouterr().err

    def test_corrupted_precision_derivative_exits_4(self, tmp_path, capsys, monkeypatch):
        # under the inverse link the fit reads each tau's A_i from A_dtau, and so does the check
        spec, _, _ = gaussian_fixture(tmp_path)
        doc = json.loads(spec.read_text())
        doc["responses"][0]["covlink"] = "inverse"
        write_json(spec, doc)
        original = mcglm.estfun.A_dtau
        monkeypatch.setattr(mcglm.estfun, "A_dtau", lambda *a: 1.001 * original(*a))
        assert main(["check-derivatives", "--spec", str(spec)]) == 4
        assert "tau" in capsys.readouterr().err


class TestBuildMatrices:
    def test_neighborhood_outputs(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n1 2\n")
        out = tmp_path / "mats"
        code = main(
            [
                "build-matrices",
                "neighborhood",
                "--edges",
                str(edges),
                "--n",
                "3",
                "--out",
                str(out),
                "--icar",
            ]
        )
        assert code == 0
        from mcglm.matpred import load_structure_matrix

        W = load_structure_matrix(str(out / "W.txt")).dense()
        D = load_structure_matrix(str(out / "D.txt")).dense()
        Z = load_structure_matrix(str(out / "Zicar.txt")).dense()
        assert np.array_equal(W, np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0.0]]))
        assert np.array_equal(D, np.diag([1.0, 2.0, 1.0]))
        assert np.array_equal(Z, W + D)

    def test_kron(self, tmp_path):
        from mcglm.matpred import (
            StructureMatrix,
            load_structure_matrix,
            save_structure_matrix,
        )

        A = StructureMatrix.from_dense(np.array([[1.0, 0.5], [0.5, 2.0]]))
        B = StructureMatrix.from_dense(np.diag([1.0, 3.0]))
        save_structure_matrix(A, tmp_path / "A.txt")
        save_structure_matrix(B, tmp_path / "B.txt")
        out = tmp_path / "k"
        code = main(
            [
                "build-matrices",
                "kron",
                "--a",
                str(tmp_path / "A.txt"),
                "--b",
                str(tmp_path / "B.txt"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        K = load_structure_matrix(str(out / "kron.txt")).dense()
        assert np.allclose(K, np.kron(A.dense(), B.dense()), atol=1e-15)

    def test_bad_edge_file_exits_1(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1 2\n")
        code = main(
            [
                "build-matrices",
                "neighborhood",
                "--edges",
                str(edges),
                "--n",
                "3",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert "expected" in capsys.readouterr().err


class TestTwoResponse:
    def two_response_fixture(self, tmp_path, N=16, seed=0, names=("y1", "y2"), label="{}"):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(N)
        g = np.repeat(np.arange(N // 2), 2)
        y1 = 1.0 + 0.5 * x + rng.standard_normal(N)
        y2 = 2.0 - 0.3 * x + rng.standard_normal(N)
        data = tmp_path / "data2.csv"
        write_csv(
            data,
            [*names, "one", "x", "g"],
            [
                [f"{y1[i]:.17g}", f"{y2[i]:.17g}", "1", f"{x[i]:.17g}", label.format(g[i])]
                for i in range(N)
            ],
        )
        spec = tmp_path / "spec2.json"
        resp = lambda name: {
            "name": name,
            "link": "identity",
            "variance": "constant",
            "covlink": "identity",
            "design_columns": ["one", "x"],
            "predictor": [
                {"type": "identity"},
                {"type": "compound_symmetry", "groups": "g"},
            ],
        }
        write_json(
            spec,
            {
                "schema_version": 1,
                "responses": [resp(name) for name in names],
                "between": "free",
                "data": {"path": "data2.csv"},
            },
        )
        return spec

    def test_missing_group_labels_drop_their_rows(self, tmp_path):
        # data rows 3 and 7 carry the missing token as their group, row 5 an empty cell
        spec = self.two_response_fixture(tmp_path, N=40)
        data = tmp_path / "data2.csv"
        header, *rows = [line.split(",") for line in data.read_text().splitlines()]
        for row, label in ((3, "NA"), (7, "NA"), (5, "")):
            rows[row - 1][-1] = label
        write_csv(data, header, rows)
        out = tmp_path / "out"
        assert main(["fit", "--spec", str(spec), "--out", str(out)]) == 0
        with open(out / "fitted.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 37

        write_csv(data, header, [row for i, row in enumerate(rows, 1) if i not in (3, 5, 7)])
        assert main(["fit", "--spec", str(spec), "--out", str(tmp_path / "deleted")]) == 0
        assert read_estimates(out) == read_estimates(tmp_path / "deleted")

    @pytest.mark.parametrize("length, cells", [("short", -1), ("long", 1)])
    def test_row_of_another_length_than_the_header_exits_1(self, tmp_path, capsys, length, cells):
        spec = self.two_response_fixture(tmp_path, N=40)
        data = tmp_path / "data2.csv"
        header, *rows = list(csv.reader(data.open(newline="")))
        rows[4] = rows[4][:cells] if cells < 0 else rows[4] + ["7"] * cells
        write_csv(data, header, rows)
        assert main(["fit", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {data}:6: {length} row"]

    def test_outputs_equal_the_row_by_row_csv_writer_rendering(self, tmp_path):
        # names and labels that csv.writer quotes, and a row the complete-case rule drops
        names = ('y "1"', "y,2")
        spec = self.two_response_fixture(tmp_path, N=12, names=names, label="g,{}")
        data = tmp_path / "data2.csv"
        header, *rows = list(csv.reader(data.open(newline="")))
        rows[3][0] = "NA"
        write_csv(data, header, rows)
        out = tmp_path / "out"
        assert main(["fit", "--spec", str(spec), "--out", str(out)]) == 0
        doc = load_spec_document(spec)
        model, y, cols, keep = build_model_and_data(doc, str(data), tmp_path)
        result = fit(model, y, solver_options(doc, {}))
        old = tmp_path / "row_by_row"
        row_by_row_fit_outputs(old, model, result)
        for name in ("estimates.csv", "sigma_b.csv", "fitted.csv"):
            assert (out / name).read_bytes() == (old / name).read_bytes(), name

        theta = tmp_path / "theta.json"
        write_json(theta, {"beta": [[1.0, 0.5], [2.0, -0.3]], "rho": [0.3],
                           "tau": [[1.0, 0.2], [1.5, 0.1]]})
        sim = tmp_path / "sim"
        argv = ["simulate", "--spec", str(spec), "--theta", str(theta), "--n", "2",
                "--seed", "3", "--out", str(sim)]
        assert main(argv) == 0
        reps = simulate_gaussian(SimSpec(model, _read_theta(model, theta), 2, 3))
        row_by_row_replicates(old, model, reps, cols, keep)
        for i in (1, 2):
            name = f"rep_{i:04d}.csv"
            assert (sim / name).read_bytes() == (old / name).read_bytes(), name

    def test_responses_sharing_a_component_document_share_one_structure_matrix(self, tmp_path):
        spec = self.two_response_fixture(tmp_path)
        doc = json.loads(spec.read_text())
        # the same document with its keys in another order, and one the other response lacks
        doc["responses"][1]["predictor"][1] = {"groups": "g", "type": "compound_symmetry"}
        doc["responses"][1]["predictor"].append({"type": "compound_symmetry", "groups": "one"})
        model, *_ = build_model_and_data(doc, str(tmp_path / "data2.csv"), tmp_path)
        (identity, cs), (identity2, cs2, ones) = (r.predictor.components for r in model.responses)
        assert identity2 is identity and cs2 is cs
        assert ones is not cs and np.array_equal(ones.dense(), np.ones((16, 16)))

    def test_fit_writes_sigma_b(self, tmp_path):
        spec = self.two_response_fixture(tmp_path)
        out = tmp_path / "out2"
        assert main(["fit", "--spec", str(spec), "--out", str(out)]) == 0
        with open(out / "sigma_b.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["row"] == "y2" and rows[0]["col"] == "y1"
        assert abs(float(rows[0]["estimate"])) < 1.0
        assert float(rows[0]["std_error"]) > 0.0


# Run in a fresh interpreter: import mcglm.cli, fit with --threads 1, then
# ask both bundled OpenBLAS copies for their thread count through ctypes.
THREADS_PROBE = """
import ctypes, glob, json, sys
from pathlib import Path
import mcglm.cli
numpy_loaded = "numpy" in sys.modules
code = mcglm.cli.main(["--threads", "1", "fit", "--spec", sys.argv[1], "--out", sys.argv[2]])
import numpy, scipy.linalg
site = Path(numpy.__file__).resolve().parent.parent
threads = {}
for pkg, pattern, symbol in (
    ("numpy", "numpy.libs/libscipy_openblas64_-*.so", "scipy_openblas_get_num_threads64_"),
    ("scipy", "scipy.libs/libscipy_openblas-*.so", "scipy_openblas_get_num_threads"),
):
    found = glob.glob(str(site / pattern))
    if len(found) == 1:
        get = getattr(ctypes.CDLL(found[0]), symbol)
        get.argtypes = []
        get.restype = ctypes.c_int
        threads[pkg] = get()
print(json.dumps({"numpy_loaded": numpy_loaded, "code": code, "threads": threads}))
"""


def test_threads_option_pins_both_openblas_copies(tmp_path):
    spec, _, _ = gaussian_fixture(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(Path(mcglm.__file__).parents[1]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "2"
    proc = subprocess.run(
        [sys.executable, "-c", THREADS_PROBE, str(spec), str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["numpy_loaded"] is False
    assert report["code"] == 0
    if len(report["threads"]) != 2:
        pytest.skip("bundled OpenBLAS libraries not found")
    assert report["threads"] == {"numpy": 1, "scipy": 1}


@pytest.mark.parametrize("spec_name, expected", [("spec.json", 0), ("missing.json", 1)])
def test_threads_option_leaves_caller_environment(tmp_path, monkeypatch, spec_name, expected):
    gaussian_fixture(tmp_path)
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    before = dict(os.environ)
    argv = ["--threads", "1", "fit", "--spec", str(tmp_path / spec_name), "--out", str(tmp_path / "o")]
    assert exit_code(argv) == expected
    assert dict(os.environ) == before


# One case for each bad input the README's "Command line" section documents.
# A case makes its files next to gaussian_fixture's spec.json and data.csv
# (20 rows; data row k is on line k + 1) and returns the argv and the text
# its one error line starts with after "error: ".
BAD_INPUTS = {}


def bad_input(name, code=1):
    def register(make):
        BAD_INPUTS[name] = (make, code)
        return make
    return register


def _fit(tmp_path, spec, *extra):
    return ["fit", "--spec", str(spec), "--out", str(tmp_path / "o"), *extra]


def _simulate(tmp_path, spec, theta=None, n="1"):
    path = tmp_path / "theta.json"
    if isinstance(theta, bytes):
        path.write_bytes(theta)
    else:
        write_json(path, theta or {"beta": [[2.0, 0.7]], "tau": [[1.5]]})
    return ["simulate", "--spec", str(spec), "--theta", str(path), "--n", n,
            "--out", str(tmp_path / "o")], path


def _edit_spec(spec, edit):
    doc = json.loads(spec.read_text())
    edit(doc)
    write_json(spec, doc)


def _edit_data(tmp_path, edit):
    """data.csv with its lines (line k at index k - 1) passed through edit; its path."""
    data = tmp_path / "data.csv"
    lines = data.read_text().splitlines()
    edit(lines)
    data.write_text("\n".join(lines) + "\n")
    return data


def _set_cell(lines, line, column, text):
    cells = lines[line - 1].split(",")
    cells[column] = text
    lines[line - 1] = ",".join(cells)


@bad_input("missing-data-file")
def _(tmp_path, spec):
    data = tmp_path / "nope.csv"
    return _fit(tmp_path, spec, "--data", str(data)), f"{data}: [Errno 2] No such file"


@bad_input("no-data-file-named")
def _(tmp_path, spec):
    _edit_spec(spec, lambda doc: doc.pop("data"))
    return _fit(tmp_path, spec), "no data file: pass --data or set data.path in the spec"


@bad_input("empty-data-file")
def _(tmp_path, spec):
    (tmp_path / "data.csv").write_text("")
    return _fit(tmp_path, spec), f"{tmp_path / 'data.csv'}: empty file"


@bad_input("missing-column")
def _(tmp_path, spec):
    _edit_spec(spec, lambda doc: doc["responses"][0]["design_columns"].append("nope"))
    return _fit(tmp_path, spec), f"{tmp_path / 'data.csv'}: column 'nope' not found"


@bad_input("missing-label-column")
def _(tmp_path, spec):
    component = {"type": "compound_symmetry", "groups": "nope"}
    _edit_spec(spec, lambda doc: doc["responses"][0]["predictor"].append(component))
    return _fit(tmp_path, spec), f"{tmp_path / 'data.csv'}: column 'nope' not found"


@bad_input("non-numeric-cell")
def _(tmp_path, spec):
    data = _edit_data(tmp_path, lambda lines: _set_cell(lines, 4, 2, "abc"))
    return _fit(tmp_path, spec), f"{data}: row 4, column 'x': not a number: 'abc'"


@bad_input("non-finite-cell")
def _(tmp_path, spec):
    data = _edit_data(tmp_path, lambda lines: _set_cell(lines, 4, 0, "-inf"))
    return _fit(tmp_path, spec), f"{data}: row 4, column 'y': not finite: '-inf'"


@bad_input("short-row")
def _(tmp_path, spec):
    data = _edit_data(tmp_path, lambda lines: lines.__setitem__(5, lines[5].rsplit(",", 1)[0]))
    return _fit(tmp_path, spec), f"{data}:6: short row"


@bad_input("long-row")
def _(tmp_path, spec):
    data = _edit_data(tmp_path, lambda lines: lines.__setitem__(5, lines[5] + ",7"))
    return _fit(tmp_path, spec), f"{data}:6: long row"


@bad_input("blank-line-then-long-row")
def _(tmp_path, spec):
    def edit(lines):
        lines.insert(4, "")  # line 5 is blank, so the 5th data row starts on line 7
        lines[6] += ",7"
    data = _edit_data(tmp_path, edit)
    return _fit(tmp_path, spec), f"{data}:7: long row"


@bad_input("quoted-line-break-then-bad-cell")
def _(tmp_path, spec):
    def edit(lines):
        lines[0] += ",note"
        lines[1] += ',"two\nlines"'  # the first data row spans lines 2 and 3
        for k in range(2, len(lines)):
            lines[k] += ","
        _set_cell(lines, 4, 2, "abc")  # the 3rd data row, on line 5 of the file
    data = _edit_data(tmp_path, edit)
    return _fit(tmp_path, spec), f"{data}: row 5, column 'x': not a number: 'abc'"


@bad_input("cell-over-the-csv-field-limit")
def _(tmp_path, spec):
    data = _edit_data(tmp_path, lambda lines: _set_cell(lines, 4, 2, "7" * 200000))
    return _fit(tmp_path, spec), f"{data}:4: field larger than field limit (131072)"


@bad_input("undecodable-data-file")
def _(tmp_path, spec):
    data = tmp_path / "data.csv"
    data.write_bytes(data.read_bytes().replace(b",1,", b",1\xff,", 1))
    return _fit(tmp_path, spec), f"{data}: 'utf-8' codec can't decode byte 0xff"


@bad_input("no-complete-cases")
def _(tmp_path, spec):
    def edit(lines):
        for k in range(2, len(lines) + 1):
            _set_cell(lines, k, 0, "NA")
    data = _edit_data(tmp_path, edit)
    return _fit(tmp_path, spec), f"{data}: no complete cases"


@bad_input("missing-spec-file")
def _(tmp_path, spec):
    return _fit(tmp_path, tmp_path / "nope.json"), f"{tmp_path / 'nope.json'}: [Errno 2]"


@bad_input("unparseable-spec")
def _(tmp_path, spec):
    spec.write_text("{not json")
    return _fit(tmp_path, spec), f"{spec}: Expecting property name enclosed in double quotes"


@bad_input("undecodable-spec")
def _(tmp_path, spec):
    spec.write_bytes(spec.read_bytes().replace(b'"y"', b'"y\xff"', 1))
    return _fit(tmp_path, spec), f"{spec}: 'utf-8' codec can't decode byte 0xff"


@bad_input("schema-violation")
def _(tmp_path, spec):
    _edit_spec(spec, lambda doc: doc["responses"][0].pop("link"))
    return _fit(tmp_path, spec), f"{spec}: schema violation at responses/0"


@bad_input("non-finite-spec-number")
def _(tmp_path, spec):
    _edit_spec(spec, lambda doc: doc["solver"].update(tol_score=float("nan")))
    return _fit(tmp_path, spec), f"{spec}: not a finite number: NaN"


@bad_input("component-without-its-keys")
def _(tmp_path, spec):
    _edit_spec(spec, lambda doc: doc["responses"][0]["predictor"].append({"type": "file"}))
    return _fit(tmp_path, spec), "response 'y': file lacks ['path']"


@bad_input("bad-structure-file")
def _(tmp_path, spec):
    (tmp_path / "z.txt").write_text("# dim 20\n0 2 5.0\n")
    component = {"type": "file", "path": "z.txt"}
    _edit_spec(spec, lambda doc: doc["responses"][0]["predictor"].append(component))
    return _fit(tmp_path, spec), f"{tmp_path / 'z.txt'}:2: index below 1 in entry 0 2"


@bad_input("missing-structure-file")
def _(tmp_path, spec):
    component = {"type": "file", "path": "z.txt"}
    _edit_spec(spec, lambda doc: doc["responses"][0]["predictor"].append(component))
    return _fit(tmp_path, spec), f"[Errno 2] No such file or directory: '{tmp_path / 'z.txt'}'"


@bad_input("structure-file-of-another-dimension")
def _(tmp_path, spec):
    (tmp_path / "z.txt").write_text("# dim 5\n1 1 1.0\n")
    component = {"type": "file", "path": "z.txt"}
    _edit_spec(spec, lambda doc: doc["responses"][0]["predictor"].append(component))
    return _fit(tmp_path, spec), f"{tmp_path / 'z.txt'}: dimension 5 does not match data rows 20"


@bad_input("coincident-inverse-distance-positions")
def _(tmp_path, spec):
    component = {"type": "inverse_distance", "positions": "one"}
    _edit_spec(spec, lambda doc: doc["responses"][0]["predictor"].append(component))
    return _fit(tmp_path, spec), "coincident positions within a group at indices 0 and 1"


@bad_input("bad-solver-options")
def _(tmp_path, spec):
    _edit_spec(spec, lambda doc: doc["solver"].update(alpha_step=2.0, alpha_max=1.0))
    return _fit(tmp_path, spec), "require 0 < alpha_step <= alpha_max"


@bad_input("missing-option")
def _(tmp_path, spec):
    return ["fit", "--out", str(tmp_path / "o")], "the following arguments are required: --spec"


@bad_input("unknown-option")
def _(tmp_path, spec):
    return _fit(tmp_path, spec, "--no-such-option"), "unrecognized arguments: --no-such-option"


@bad_input("unknown-choice")
def _(tmp_path, spec):
    return _fit(tmp_path, spec, "--alg", "newton"), "argument --alg: invalid choice: 'newton'"


@bad_input("threads-below-one")
def _(tmp_path, spec):
    return ["--threads", "0", *_fit(tmp_path, spec)], "--threads must be at least 1, got 0"


@bad_input("max-iter-below-one")
def _(tmp_path, spec):
    return _fit(tmp_path, spec, "--max-iter", "0"), "max_iter must be >= 1, got 0"


@bad_input("replicate-count-below-one")
def _(tmp_path, spec):
    return _simulate(tmp_path, spec, n="0")[0], "n_replicates must be >= 1, got 0"


@bad_input("missing-theta-file")
def _(tmp_path, spec):
    argv, theta = _simulate(tmp_path, spec)
    theta.unlink()
    return argv, f"{theta}: [Errno 2]"


@bad_input("non-finite-theta-number")
def _(tmp_path, spec):
    argv, theta = _simulate(tmp_path, spec, b'{"beta": [[2.0, 0.7]], "tau": [[1e999]]}')
    return argv, f"{theta}: not a finite number: 1e999"


@bad_input("theta-block-not-a-list")
def _(tmp_path, spec):
    argv, theta = _simulate(tmp_path, spec, {"beta": [[2.0, 0.7]], "tau": [1.5]})
    return argv, f"{theta}: tau[0] must be a list of numbers"


@bad_input("theta-entries-not-numbers")
def _(tmp_path, spec):
    argv, theta = _simulate(tmp_path, spec, {"beta": [[True, "0.5"]], "tau": [[1.5]]})
    return argv, f"{theta}: beta[0] must be a list of numbers"


@bad_input("theta-block-of-the-wrong-length")
def _(tmp_path, spec):
    argv, theta = _simulate(tmp_path, spec, {"beta": [[2.0]], "tau": [[1.5]]})
    return argv, f"{theta}: beta for 'y' has length 1, expected 2"


@bad_input("theta-block-missing")
def _(tmp_path, spec):
    argv, theta = _simulate(tmp_path, spec, {"beta": [[2.0, 0.7]]})
    return argv, f"{theta}: bad theta document: 'tau'"


@bad_input("theta-rho-not-the-fixed-correlations")
def _(tmp_path, spec):
    argv, theta = _simulate(tmp_path, spec, {"beta": [[2.0, 0.7]], "tau": [[1.5]], "rho": [0.9]})
    return argv, f"{theta}: rho [0.9] differs from the fixed correlations []"


@bad_input("mean-outside-the-variance-domain")
def _(tmp_path, spec):
    _edit_spec(spec, lambda doc: doc["responses"][0].update(variance="tweedie_power"))
    theta = {"beta": [[-5.0, 0.0]], "tau": [[1.5]], "p": [1.5]}
    return _simulate(tmp_path, spec, theta)[0], "tweedie_power variance requires mu > 0"


@bad_input("bad-edge-line")
def _(tmp_path, spec):
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n0 1 2\n")
    return (["build-matrices", "neighborhood", "--edges", str(edges), "--n", "3",
             "--out", str(tmp_path / "o")], f"{edges}:2: expected 'i j'")


@bad_input("missing-edge-file")
def _(tmp_path, spec):
    edges = tmp_path / "edges.txt"
    return (["build-matrices", "neighborhood", "--edges", str(edges), "--n", "3",
             "--out", str(tmp_path / "o")], f"{edges}: [Errno 2]")


@bad_input("undecodable-edge-file")
def _(tmp_path, spec):
    edges = tmp_path / "edges.txt"
    edges.write_bytes(b"0 1\n1 2\xff\n")
    return (["build-matrices", "neighborhood", "--edges", str(edges), "--n", "3",
             "--out", str(tmp_path / "o")], f"{edges}: 'utf-8' codec can't decode byte 0xff")


@bad_input("undecodable-structure-file")
def _(tmp_path, spec):
    m = tmp_path / "m.txt"
    m.write_bytes(b"# dim 2\n1 1 1.0\n2 2 1\xff\n")
    return (["build-matrices", "kron", "--a", str(m), "--b", str(m), "--out", str(tmp_path / "o")],
            f"{m}: 'utf-8' codec can't decode byte 0xff")


@bad_input("rank-deficient-design", code=2)
def _(tmp_path, spec):
    _edit_spec(spec, lambda doc: doc["responses"][0].update(design_columns=["one", "one"]))
    return ["check-derivatives", "--spec", str(spec)], "check-derivatives failed: "


@bad_input("non-pd-theta", code=3)
def _(tmp_path, spec):
    theta = {"beta": [[2.0, 0.7]], "tau": [[-1.0]]}
    return _simulate(tmp_path, spec, theta)[0], "simulate failed: "


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_every_bad_input_gives_one_error_line(tmp_path, capsys, case):
    make, code = BAD_INPUTS[case]
    spec, _, _ = gaussian_fixture(tmp_path)
    argv, message = make(tmp_path, spec)
    assert exit_code(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert message in lines[0]
    if code == 1:
        assert not (tmp_path / "o").exists()
