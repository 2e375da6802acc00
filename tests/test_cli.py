"""Tests for the command-line interface and its exit-code contract."""

import contextlib
import copy
import io
import json
import subprocess
import sys
import tempfile
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fieldgp import kernels
from fieldgp.cli import main
from fieldgp.experiments import (ExperimentConfig, parse_rmse_csv,
                                 synthetic_curl_free_field, write_field_csv)
from fieldgp.operators import (OperatorMatrix, make_curl_operator_3d,
                               make_divergence_operator, symbolic_product)


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def div_spec(tmp_path):
    return write_json(tmp_path / "div.json",
                      make_divergence_operator(2).to_json_dict())


def identity_spec(tmp_path, k=2):
    doc = {"vars": 2, "rows": k, "cols": k,
           "entries": [{"row": i, "col": i,
                        "terms": [{"coeff": 1, "exponents": [0, 0]}]}
                       for i in range(k)]}
    return write_json(tmp_path / "identity.json", doc)


# ---------------------------------------------------------------------------
# construct-g


def test_construct_g_divergence(tmp_path, div_spec, capsys):
    out = tmp_path / "g.json"
    code = main(["construct-g", "--f-spec", div_spec, "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "d/dx2" in stdout and "d/dx1" in stdout
    G = OperatorMatrix.from_json_dict(json.loads(out.read_text()))
    assert (G.rows, G.cols) == (2, 1)
    doc = json.loads(out.read_text())
    assert "rendered" in doc


def test_construct_g_curl(tmp_path, capsys):
    spec = write_json(tmp_path / "curl.json",
                      make_curl_operator_3d().to_json_dict())
    out = tmp_path / "g.json"
    assert main(["construct-g", "--f-spec", spec, "--out", str(out)]) == 0
    G = OperatorMatrix.from_json_dict(json.loads(out.read_text()))
    assert (G.rows, G.cols) == (3, 1)
    assert all(not G.entry(j, 0).is_zero() for j in range(3))


def test_construct_g_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vars": 2, "rows": 1\n  "cols": 2}')
    code = main(["construct-g", "--f-spec", str(bad), "--out",
                 str(tmp_path / "g.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_construct_g_no_annihilator_exit_2(tmp_path, capsys):
    spec = write_json(tmp_path / "d1.json",
                      make_divergence_operator(1).to_json_dict())
    code = main(["construct-g", "--f-spec", spec, "--out",
                 str(tmp_path / "g.json")])
    assert code == 2


def test_construct_g_missing_file(tmp_path, capsys):
    code = main(["construct-g", "--f-spec", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "g.json")])
    assert code == 1


# ---------------------------------------------------------------------------
# check-kernel


def test_check_kernel_auto_passes(tmp_path, capsys):
    for name, F in (("div2", make_divergence_operator(2)), ("div3", make_divergence_operator(3)),
                    ("curl", make_curl_operator_3d())):
        spec = write_json(tmp_path / f"{name}.json", F.to_json_dict())
        assert main(["check-kernel", "--f-spec", spec]) == 0
        assert capsys.readouterr() == ("F G = 0: every f = G[g] satisfies F f = 0\n", "")


def test_check_kernel_diagonal_fails(tmp_path, div_spec, capsys):
    # identity G gives the diagonal kernel, which violates the constraint
    code = main(["check-kernel", "--f-spec", div_spec, "--g-spec", identity_spec(tmp_path)])
    assert code == 1
    assert capsys.readouterr() == ("F G != 0:\n[ d/dx1   d/dx2 ]\n", "")


# a gradient G, which does not annihilate the divergence
_GRAD_2D = {"vars": 2, "rows": 2, "cols": 1, "entries": [
    {"row": i, "col": 0, "terms": [{"coeff": 1, "exponents": [int(i == 0), int(i == 1)]}]}
    for i in range(2)]}


def test_check_kernel_gradient_residual(tmp_path, div_spec):
    # the verdict is F G itself, exact and free of theta: the Laplacian
    argv = [sys.executable, "-m", "fieldgp.cli", "check-kernel", "--f-spec", div_spec,
            "--g-spec", write_json(tmp_path / "grad.json", _GRAD_2D)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "F G != 0:\n[ d2/dx1^2 + d2/dx2^2 ]\n", "")
    # the sampling and hyperparameter options are gone: a usage error
    proc = subprocess.run(argv + ["--length-scale", "1e6"], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "fieldgp: error: unrecognized arguments: --length-scale 1e6\n"


# ---------------------------------------------------------------------------
# experiments


TINY_CONFIG = {
    "n_train": 10, "grid_size": 5, "nc_schedule": [4], "repetitions": 1,
    "restarts": 1, "maxiter": 15, "seed": 3,
    "methods": ["diagonal", "constrained", "artificial"],
}


def test_sim_experiment_end_to_end(tmp_path, capsys):
    config = write_json(tmp_path / "config.json", TINY_CONFIG)
    out = tmp_path / "results"
    assert main(["sim-experiment", "--config", config, "--out", str(out)]) == 0
    assert (out / "rmse.csv").exists()
    assert (out / "field_error.csv").exists()
    assert "rmse=" in capsys.readouterr().out


def test_sim_experiment_seed_override_deterministic(tmp_path):
    config = write_json(tmp_path / "config.json", TINY_CONFIG)
    outs = []
    for name, seed in (("a", "5"), ("b", "5"), ("c", "6")):
        out = tmp_path / name
        assert main(["sim-experiment", "--config", config, "--out", str(out),
                     "--seed", seed]) == 0
        outs.append((out / "rmse.csv").read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]


def test_sim_experiment_bad_config(tmp_path, capsys):
    config = write_json(tmp_path / "config.json", {"repetitions": 0})
    assert main(["sim-experiment", "--config", config,
                 "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("key,value", [
    ("seed", "x"), ("seed", 1.5), ("n_train", 2.5), ("n_train", True),
    ("restarts", "2"), ("noise_std", "a"), ("noise_std", None),
    ("nc_schedule", [4, 2.5]), ("nc_schedule", "4"), ("learn_noise", "yes"),
    ("record_timing", 1), ("methods", "diagonal"), ("methods", ["diagonal", 1]),
    ("domain", [[0, 4], [0, "4"]]),
    ("nc_schedule", [4, 4]), ("methods", ["diagonal", "diagonal"]),   # duplicate entries
    # valid numbers whose field, or its square, overflows on the grid
    ("field_param_a", -45), ("field_param_a", -40), ("field_param_a", -30),
])
def test_sim_experiment_config_wrong_type_exit_1(tmp_path, capsys, key, value):
    config = write_json(tmp_path / "config.json", {**TINY_CONFIG, key: value})
    code = main(["sim-experiment", "--config", config, "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    if key == "field_param_a":
        # rejected before any fit, with no numpy warning (it would raise here)
        assert err.startswith(f"fieldgp: error: field_param_a {value!r} makes")
        assert not (tmp_path / "out").exists()
    else:
        assert err.startswith(f"fieldgp: error: {config}: {key} must be")


@pytest.mark.parametrize("doc", ["abc", [1]], ids=["string", "list"])
def test_sim_experiment_config_not_an_object_exit_1(tmp_path, capsys, doc):
    config = write_json(tmp_path / "config.json", doc)
    code = main(["sim-experiment", "--config", config, "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == (f"fieldgp: error: {config}: "
                                       "config must be a JSON object\n")


def test_real_experiment_missing_data(tmp_path, capsys):
    config = write_json(tmp_path / "config.json", {"repetitions": 1})
    code = main(["real-experiment", "--config", config,
                 "--data", str(tmp_path / "absent.csv"),
                 "--out", str(tmp_path / "out")])
    assert code == 1


def test_real_experiment_end_to_end(tmp_path):
    X, B = synthetic_curl_free_field(70, seed=11)
    data = tmp_path / "field.csv"
    write_field_csv(data, X, B)
    config = write_json(tmp_path / "config.json", {
        "methods": ["diagonal", "curl_free"], "train_size": 25, "test_size": 40,
        "repetitions": 1, "restarts": 1, "maxiter": 15, "learn_noise": True,
        "noise_std": 1e-3, "seed": 1})
    out = tmp_path / "results"
    assert main(["real-experiment", "--config", config, "--data", str(data),
                 "--out", str(out)]) == 0
    lines = (out / "rmse.csv").read_text().splitlines()
    assert len(lines) == 3


@pytest.mark.parametrize("nc_schedule,expected", [
    ([], ["diagonal,0", "constrained,0"]),
    ([50], ["diagonal,0", "constrained,0", "artificial,50"]),
], ids=["empty_nc_schedule", "nc_above_grid"])
def test_sim_experiment_nc_schedule_edges(tmp_path, nc_schedule, expected):
    # no artificial rows for an empty schedule; an nc above the 9 grid
    # points conditions on all of them
    config = write_json(tmp_path / "config.json",
                        {**TINY_CONFIG, "grid_size": 3, "nc_schedule": nc_schedule})
    out = tmp_path / "results"
    assert main(["sim-experiment", "--config", config, "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "rmse.csv").read_text().splitlines()[1:]]
    assert [f"{r[0]},{r[1]}" for r in rows] == expected
    assert all(r[4] == "1" for r in rows)
    header = (out / "field_error.csv").read_text().splitlines()[0]
    assert ("artificial" in header) == bool(nc_schedule)


def test_real_experiment_every_repetition_fails(tmp_path):
    # a constant field of 1e300: the prior variance fitted from the data's
    # spread is tiny, K^-1 y overflows and every likelihood is -inf, so each
    # fit fails; the report says so with n_ok 0 and a NaN mean
    rng = np.random.default_rng(5)
    data = tmp_path / "field.csv"
    write_field_csv(data, rng.uniform(0, 2, size=(12, 3)), np.full((12, 3), 1e300))
    config = write_json(tmp_path / "config.json", {
        "methods": ["diagonal", "curl_free", "artificial"], "nc_schedule": [2],
        "train_size": 6, "test_size": 6, "repetitions": 2, "restarts": 1,
        "maxiter": 5, "seed": 0})
    out = tmp_path / "results"
    assert main(["real-experiment", "--config", config, "--data", str(data),
                 "--out", str(out)]) == 0
    rows = parse_rmse_csv(out / "rmse.csv")
    assert [(r.method, r.nc) for r in rows] == [
        ("diagonal", 0), ("curl_free", 0), ("artificial", 2)]
    assert all(r.n_ok == 0 and np.isnan(r.mean) and np.isnan(r.std) for r in rows)


def test_shipped_configs_parse():
    from pathlib import Path

    from fieldgp.experiments import ExperimentConfig

    configs = Path(__file__).resolve().parent.parent / "configs"
    for name in ("sim_default.json", "real_default.json"):
        config = ExperimentConfig.load(configs / name)
        assert config.repetitions >= 1


@pytest.mark.acceptance
def test_shipped_sim_config_runs_end_to_end(tmp_path):
    from pathlib import Path

    config = Path(__file__).resolve().parent.parent / "configs" / "sim_default.json"
    out = tmp_path / "results"
    assert main(["sim-experiment", "--config", str(config), "--out", str(out)]) == 0
    rows = (out / "rmse.csv").read_text().splitlines()
    assert len(rows) == 1 + 2 + 5  # header + diagonal/constrained + 5 nc values


# ---------------------------------------------------------------------------
# predict


def test_predict_end_to_end(tmp_path):
    X, B = synthetic_curl_free_field(40, seed=21)
    data = tmp_path / "train.csv"
    write_field_csv(data, X, B)
    spec = write_json(tmp_path / "kernel.json", {
        "type": "curl_free_3d",
        "hyperparams": {"signal_variance": 1.0, "length_scale": 1.0,
                        "noise_variance": 1e-6}})
    points = tmp_path / "points.csv"
    points.write_text("x1,x2,x3\n1.0,1.0,1.0\n2.0,2.0,0.5\n")
    out = tmp_path / "pred.csv"
    code = main(["predict", "--data", str(data), "--kernel-spec", spec,
                 "--points", str(points), "--out", str(out), "--no-fit"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x1,x2,x3,mean_b1,mean_b2,mean_b3,var_b1,var_b2,var_b3"
    assert len(lines) == 3
    values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.all(values[:, 6:] >= 0)  # variances


def test_predict_builds_g_once_per_fit(tmp_path, monkeypatch):
    # an auto-from-F spec constructs G, and G adj(G), once for the whole fit
    calls = []
    original = kernels.construct_g

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(kernels, "construct_g", counted)
    X, B = synthetic_curl_free_field(20, seed=21)
    write_field_csv(tmp_path / "train.csv", X, B)
    spec = write_json(tmp_path / "kernel.json", {
        "type": "transformed", "g_operator": "auto-from-F",
        "f_operator": make_curl_operator_3d().to_json_dict(),
        "hyperparams": {"signal_variance": 1.0, "length_scale": 1.0,
                        "noise_variance": 1e-6}})
    (tmp_path / "points.csv").write_text("x1,x2,x3\n1.0,1.0,1.0\n")
    code = main(["predict", "--data", str(tmp_path / "train.csv"), "--kernel-spec", spec,
                 "--points", str(tmp_path / "points.csv"),
                 "--out", str(tmp_path / "pred.csv")])
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("bad_file,content", [
    ("points", ""),                                   # empty file
    ("points", "x1,x2,x3\n"),                         # header only
    ("points", "x1,x2,x3\n1.0,1.0,1.0\n2.0,2.0\n"),   # ragged row
    ("points", "x1,x2,x3\n1.0,one,1.0\n"),            # non-numeric value
    ("points", "x1,x2,x3\n1.0,1.0,1.0\nnan,1.0,1.0\n"),   # NaN coordinate
    ("points", "x1,x2,x3\n1.0,-inf,1.0\n"),               # infinite coordinate
    ("data", "x1,x2,x3,b1,b2,b3\n0.0,0.0,0.0,1.0,2.0,3.0\n"
             "1.0,1.0,1.0,inf,0.0,0.0\n"),              # infinite field value
], ids=["empty", "header_only", "ragged", "non_numeric", "nan", "inf", "data_inf"])
def test_predict_bad_points_file_exit_1(tmp_path, bad_file, content):
    X, B = synthetic_curl_free_field(10, seed=4)
    data = tmp_path / "train.csv"
    write_field_csv(data, X, B)
    spec = write_json(tmp_path / "kernel.json", {
        "type": "curl_free_3d",
        "hyperparams": {"signal_variance": 1.0, "length_scale": 1.0,
                        "noise_variance": 1e-6}})
    points = tmp_path / "points.csv"
    points.write_text("x1,x2,x3\n1.0,1.0,1.0\n")
    bad = {"points": points, "data": data}[bad_file]
    bad.write_text(content)
    proc = subprocess.run(
        [sys.executable, "-m", "fieldgp.cli", "predict", "--data", str(data),
         "--kernel-spec", spec, "--points", str(points),
         "--out", str(tmp_path / "pred.csv"), "--no-fit"],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert str(bad) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


_DIV_ENTRY = {"row": 0, "col": 0, "terms": [{"coeff": 1, "exponents": [1, 0]}]}
_HYPER = {"signal_variance": 1.0, "length_scale": 1.0, "noise_variance": 1e-6}
# none is an integer, though int() would accept 2.5 (as 2) and true (as 1)
_NOT_INTEGERS = ([1], 2.5, True)
_IDENTITY_3D = {"vars": 3, "rows": 3, "cols": 3, "entries": [
    {"row": i, "col": i, "terms": [{"coeff": 1, "exponents": [0, 0, 0]}]} for i in range(3)]}


@pytest.mark.parametrize("command,doc", [
    ("construct-g", {"vars": 2, "rows": 1, "cols": 2,
                     "entries": [{"col": 0, "terms": _DIV_ENTRY["terms"]}]}),
    ("construct-g", {"vars": 2, "rows": 1, "cols": 2,
                     "entries": [{"row": 0, "col": 0, "terms": [{"coeff": 1}]}]}),
    ("construct-g", {"vars": 2, "rows": 1, "cols": 2, "entries": 5}),
    ("construct-g", {"vars": 2, "rows": 1, "cols": 2,
                     "entries": [{"row": 0, "col": 0,
                                  "terms": [{"coeff": "1/0", "exponents": [1, 0]}]}]}),
    ("predict", [1]),
    ("predict", {"type": "curl_free_3d", "hyperparams": [1]}),
    *[("predict", {"type": "diagonal", "out_dim": value, "hyperparams": _HYPER})
      for value in _NOT_INTEGERS],
    *[("predict", {"type": "transformed", "g_operator": "auto-from-F",
                   "f_operator": make_curl_operator_3d().to_json_dict(),
                   "max_degree": value, "hyperparams": _HYPER})
      for value in _NOT_INTEGERS],
    ("predict", {"type": "curl_free_3d", "hyperparams": {**_HYPER, "length_scale": 1e200}}),
    ("predict", {"type": "curl_free_3d", "hyperparams": {**_HYPER, "length_scale": 1e-200}}),
    ("predict", {"type": "transformed", "f_operator": make_curl_operator_3d().to_json_dict(),
                 "g_operator": _IDENTITY_3D, "hyperparams": _HYPER}),
    ("predict", {"type": "diagonal", "out_dims": 2, "hyperparams": _HYPER}),
    ("predict", {"type": "diagonal", "hyperparams": {**_HYPER, "noise_varaince": 1e-2}}),
], ids=["entry_without_row", "term_without_exponents", "entries_not_a_list",
        "zero_denominator", "kernel_spec_not_an_object", "hyperparams_not_an_object",
        "out_dim_list", "out_dim_fraction", "out_dim_bool",
        "max_degree_list", "max_degree_fraction", "max_degree_bool",
        "length_scale_squared_overflows", "length_scale_squared_underflows",
        "g_operator_not_annihilating", "unknown_key", "unknown_hyperparams_key"])
def test_malformed_spec_exit_1(tmp_path, command, doc):
    spec = write_json(tmp_path / "spec.json", doc)
    if command == "construct-g":
        argv = ["construct-g", "--f-spec", spec, "--out", str(tmp_path / "g.json")]
    else:
        X, B = synthetic_curl_free_field(10, seed=4)
        write_field_csv(tmp_path / "train.csv", X, B)
        (tmp_path / "points.csv").write_text("x1,x2,x3\n1.0,1.0,1.0\n")
        argv = ["predict", "--data", str(tmp_path / "train.csv"), "--kernel-spec", spec,
                "--points", str(tmp_path / "points.csv"),
                "--out", str(tmp_path / "pred.csv"), "--no-fit"]
    proc = subprocess.run([sys.executable, "-m", "fieldgp.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("fieldgp: error:")
    for key in ("out_dim", "max_degree"):
        if isinstance(doc, dict) and key in doc:
            assert f"kernel spec {key!r} must be an integer" in proc.stderr
    if isinstance(doc, dict) and doc.get("hyperparams") in (
            {**_HYPER, "length_scale": 1e-200}, {**_HYPER, "length_scale": 1e200}):
        assert "length_scale" in proc.stderr
    for typo in ("out_dims", "noise_varaince"):
        if typo in json.dumps(doc):
            assert repr(typo) in proc.stderr
    if isinstance(doc, dict) and doc.get("g_operator") == _IDENTITY_3D:
        # the residual F G is the curl itself
        assert proc.stderr.endswith(f"F G =\n{make_curl_operator_3d().render()}\n")


@pytest.mark.parametrize("theta", [
    {"signal_variance": 1e-320, "length_scale": 1e10},   # subnormal coefficients
    {"length_scale": 1e-200},                            # sv l^2 underflows to 0
    {"length_scale": 1e-160},                            # sv l^2 is subnormal
    {"length_scale": 1e200},                             # l^2 overflows
], ids=["subnormal", "potential_variance_zero", "potential_variance_subnormal",
        "potential_variance_overflow"])
def test_predict_coefficient_out_of_range_exit_1(tmp_path, capsys, theta):
    # a kernel whose potential variance sv l^2, or a folded coefficient
    # sv l^2 l^-2, left the normal floats would be zero, or nearly so, and
    # predict a mean of 0 with no error
    X, B = synthetic_curl_free_field(10, seed=4)
    write_field_csv(tmp_path / "train.csv", X, B)
    (tmp_path / "points.csv").write_text("x1,x2,x3\n1.0,1.0,1.0\n")
    spec = write_json(tmp_path / "kernel.json", {
        "type": "transformed", "g_operator": "auto-from-F",
        "f_operator": make_curl_operator_3d().to_json_dict(),
        "hyperparams": {**_HYPER, **theta}})
    code = main(["predict", "--data", str(tmp_path / "train.csv"), "--kernel-spec", spec,
                 "--points", str(tmp_path / "points.csv"),
                 "--out", str(tmp_path / "pred.csv"), "--no-fit"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("fieldgp: error: signal_variance ")
    assert "length_scale" in captured.err
    # the theta of the spec, not the potential's sv l^2
    assert f"signal_variance {theta.get('signal_variance', 1.0)!r} " in captured.err
    assert "outside the normal float range" in captured.err
    assert not (tmp_path / "pred.csv").exists()


def test_predict_auto_from_f_without_annihilator_exit_2(tmp_path, capsys):
    # F = [1] has no nonzero annihilator: exit 2, as construct-g does
    X, B = synthetic_curl_free_field(10, seed=4)
    write_field_csv(tmp_path / "train.csv", X, B)
    (tmp_path / "points.csv").write_text("x1,x2,x3\n1.0,1.0,1.0\n")
    spec = write_json(tmp_path / "kernel.json", {
        "type": "transformed", "g_operator": "auto-from-F", "max_degree": 1,
        "f_operator": {"vars": 3, "rows": 1, "cols": 1, "entries": [
            {"row": 0, "col": 0, "terms": [{"coeff": 1, "exponents": [0, 0, 0]}]}]},
        "hyperparams": _HYPER})
    code = main(["predict", "--data", str(tmp_path / "train.csv"), "--kernel-spec", spec,
                 "--points", str(tmp_path / "points.csv"),
                 "--out", str(tmp_path / "pred.csv"), "--no-fit"])
    assert code == 2
    assert capsys.readouterr().err.startswith("fieldgp: no annihilating operator found")


@pytest.mark.parametrize("no_fit", [True, False], ids=["no_fit", "fit"])
def test_predict_kernel_out_dim_mismatch_exit_1(tmp_path, capsys, no_fit):
    # a 2-output kernel on a 3-component field, before any fit evaluation
    X, B = synthetic_curl_free_field(10, seed=4)
    write_field_csv(tmp_path / "train.csv", X, B)
    (tmp_path / "points.csv").write_text("x1,x2,x3\n1.0,1.0,1.0\n")
    spec = write_json(tmp_path / "kernel.json",
                      {"type": "diagonal", "out_dim": 2, "hyperparams": _HYPER})
    code = main(["predict", "--data", str(tmp_path / "train.csv"), "--kernel-spec", spec,
                 "--points", str(tmp_path / "points.csv"),
                 "--out", str(tmp_path / "pred.csv"), *(["--no-fit"] if no_fit else [])])
    assert code == 1
    assert capsys.readouterr().err == (
        "fieldgp: error: the kernel has 2 output components, the data 3\n")
    assert not (tmp_path / "pred.csv").exists()


@pytest.mark.parametrize("no_fit", [True, False], ids=["no_fit", "fit"])
def test_predict_kernel_in_dim_mismatch_exit_1(tmp_path, capsys, no_fit):
    # a 3-row G over 2 variables on a 3-D field: named before any fit evaluation
    X, B = synthetic_curl_free_field(10, seed=4)
    write_field_csv(tmp_path / "train.csv", X, B)
    (tmp_path / "points.csv").write_text("x1,x2,x3\n1.0,1.0,1.0\n")
    g_2d = {"vars": 2, "rows": 3, "cols": 1, "entries": [
        {"row": i, "col": 0, "terms": [{"coeff": 1, "exponents": e}]}
        for i, e in enumerate(([1, 0], [0, 1], [0, 0]))]}
    spec = write_json(tmp_path / "kernel.json",
                      {"type": "transformed", "g_operator": g_2d, "hyperparams": _HYPER})
    code = main(["predict", "--data", str(tmp_path / "train.csv"), "--kernel-spec", spec,
                 "--points", str(tmp_path / "points.csv"),
                 "--out", str(tmp_path / "pred.csv"), *(["--no-fit"] if no_fit else [])])
    assert code == 1
    assert capsys.readouterr().err == (
        "fieldgp: error: the kernel is over 2 input variables, the data 3\n")
    assert not (tmp_path / "pred.csv").exists()


def test_predict_every_fit_evaluation_fails_exit_1(tmp_path, capsys):
    # a constant field of 1e300: every likelihood is -inf, so the fit fails
    rng = np.random.default_rng(5)
    write_field_csv(tmp_path / "train.csv", rng.uniform(0, 2, size=(30, 3)),
                    np.full((30, 3), 1e300))
    (tmp_path / "points.csv").write_text("x1,x2,x3\n1.0,1.0,1.0\n")
    spec = write_json(tmp_path / "kernel.json", {"type": "diagonal", "hyperparams": _HYPER})
    code = main(["predict", "--data", str(tmp_path / "train.csv"), "--kernel-spec", spec,
                 "--points", str(tmp_path / "points.csv"), "--out", str(tmp_path / "pred.csv")])
    assert code == 1
    assert capsys.readouterr().err == (
        "fieldgp: error: hyperparameter search failed on every restart\n")
    assert not (tmp_path / "pred.csv").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_predict_non_finite_cross_covariance_exit_1(tmp_path, capsys):
    # at signal variance 1e300 the kernel far from the data is nan, as
    # kernels._eval_block multiplies sv by the Hermite factor before the
    # exponential: the means must not be written as nan with exit 0
    X, B = synthetic_curl_free_field(10, seed=4)
    write_field_csv(tmp_path / "train.csv", X, B)
    (tmp_path / "points.csv").write_text("x1,x2,x3\n100000.0,1.0,1.0\n")
    spec = write_json(tmp_path / "kernel.json", {
        "type": "curl_free_3d", "hyperparams": {**_HYPER, "signal_variance": 1e300}})
    code = main(["predict", "--data", str(tmp_path / "train.csv"), "--kernel-spec", spec,
                 "--points", str(tmp_path / "points.csv"),
                 "--out", str(tmp_path / "pred.csv"), "--no-fit"])
    assert code == 1
    assert capsys.readouterr().err == "fieldgp: error: array must not contain infs or NaNs\n"
    assert not (tmp_path / "pred.csv").exists()


def _div_doc(**changes):
    """The 2-D divergence spec with top-level keys replaced."""
    return {**make_divergence_operator(2).to_json_dict(), **changes}


def _div_entries(**changes):
    """The 2-D divergence spec with keys of its first entry or term replaced."""
    doc = make_divergence_operator(2).to_json_dict()
    entry = doc["entries"][0]
    for key, value in changes.items():
        (entry["terms"][0] if key == "exponents" else entry)[key] = value
    return doc


@pytest.mark.parametrize("field,doc", [
    ("vars", _div_doc(vars=2.9)),
    ("rows", _div_doc(rows=True)),
    ("cols", _div_doc(cols=2.5)),
    ("row", _div_entries(row=0.7)),
    ("col", _div_entries(col=True)),
    ("exponents", _div_entries(exponents=[1.5, 0])),
    ("exponents", _div_entries(exponents=[1, "0"])),
], ids=["vars", "rows", "cols", "row", "col", "exponent_fraction", "exponent_string"])
def test_operator_spec_non_integer_field_exit_1(tmp_path, capsys, field, doc):
    # int() would truncate each of these into the divergence operator
    spec = write_json(tmp_path / "spec.json", doc)
    code = main(["construct-g", "--f-spec", spec, "--out", str(tmp_path / "g.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"fieldgp: error: operator spec {field!r}: ")
    assert "is not an integer" in err
    assert not (tmp_path / "g.json").exists()


def test_construct_g_many_variables_exit_0(tmp_path, capsys):
    # no entries: the zero operator over 3000 variables, G the identity
    spec = write_json(tmp_path / "spec.json", {"vars": 3000, "rows": 1, "cols": 1})
    out = tmp_path / "g.json"
    assert main(["construct-g", "--f-spec", spec, "--out", str(out)]) == 0
    G = OperatorMatrix.from_json_dict(json.loads(out.read_text()))
    assert (G.vars, G.rows, G.cols) == (3000, 1, 1)


@pytest.mark.parametrize("coeff", ["1e-4000000", "2E+4301", "1" * 4301 + "/3"],
                         ids=["exponent", "positive_exponent", "digits"])
def test_construct_g_huge_coefficient_exit_1_fast(tmp_path, capsys, coeff):
    # Fraction would expand the exponent exactly: seconds and a
    # 13-million-bit denominator for the first spec
    doc = _div_entries()
    doc["entries"][0]["terms"][0]["coeff"] = coeff
    spec = write_json(tmp_path / "spec.json", doc)
    start = time.perf_counter()
    code = main(["construct-g", "--f-spec", spec, "--out", str(tmp_path / "g.json")])
    assert time.perf_counter() - start < 0.5
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"fieldgp: error: operator spec coefficient '{coeff[:40]}")


def test_construct_g_large_coefficients_round_trip(tmp_path):
    # the bound leaves room for long exact rationals and float-sized exponents
    doc = _div_entries()
    doc["entries"][0]["terms"][0]["coeff"] = "1e-330"
    doc["entries"][1]["terms"][0]["coeff"] = "7" * 500 + "/" + "3" * 499
    spec = write_json(tmp_path / "spec.json", doc)
    out = tmp_path / "g.json"
    assert main(["construct-g", "--f-spec", spec, "--out", str(out)]) == 0
    G = OperatorMatrix.from_json_dict(json.loads(out.read_text()))
    F = OperatorMatrix.from_json_dict(doc)
    assert symbolic_product(F, G).is_zero()


_FUZZ_COEFFS = st.one_of(
    st.integers(-5, 5),
    st.floats(-10.0, 10.0),
    st.builds("{}/{}".format, st.integers(-5, 5), st.integers(0, 5)),
    st.booleans(),
    st.text(max_size=4),
    st.just(float("nan")),
)


@st.composite
def _operator_specs(draw):
    p, rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    term = st.fixed_dictionaries({
        "coeff": _FUZZ_COEFFS,
        "exponents": st.lists(st.integers(0, 3), min_size=p, max_size=p)})
    entry = st.fixed_dictionaries({
        "row": st.integers(0, rows - 1),
        "col": st.integers(0, cols - 1),
        "terms": st.lists(term, max_size=2)})
    return {"vars": p, "rows": rows, "cols": cols,
            "entries": draw(st.lists(entry, max_size=3))}


# the fuzzers below reach values whose arithmetic overflows by design
_IGNORE_OVERFLOW = pytest.mark.filterwarnings("ignore:overflow encountered",
                                              "ignore:invalid value encountered")


def _exit_code_without_traceback(argv):
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()
    return code


def _f_g_oracle(doc):
    """check-kernel's exit code for the spec as both F and G: 0 iff F F = 0."""
    try:
        F = OperatorMatrix.from_json_dict(doc)
        return 0 if symbolic_product(F, F).is_zero() else 1
    except ValueError:  # a malformed spec, or shapes that do not multiply
        return 1


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_operator_specs())
def test_operator_spec_fuzz_exit_codes(doc):
    # construct-g, then check-kernel with the constructed G when there is
    # one and with the spec itself as G otherwise; both in process
    with tempfile.TemporaryDirectory() as tmp:
        spec = write_json(Path(tmp) / "spec.json", doc)
        code = _exit_code_without_traceback(
            ["construct-g", "--f-spec", spec, "--max-degree", "2",
             "--out", str(Path(tmp) / "g.json")])
        checked = _exit_code_without_traceback(
            ["check-kernel", "--f-spec", spec, "--g-spec", "auto" if code == 0 else spec])
        assert checked == (0 if code == 0 else _f_g_oracle(doc))


# JSON values of every type, kept small so that a valid draw stays fast
_FUZZ_JSON = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2), st.floats(), st.text(max_size=4),
    st.lists(st.one_of(st.integers(-2, 2), st.floats()), max_size=3),
)


_BASE_KERNEL_SPECS = (
    {"type": "diagonal", "out_dim": 3, "in_dim": 3, "hyperparams": _HYPER},
    {"type": "curl_free_3d", "hyperparams": _HYPER},
    {"type": "transformed", "g_operator": "auto-from-F", "max_degree": 1,
     "f_operator": make_curl_operator_3d().to_json_dict(), "hyperparams": _HYPER},
)


@st.composite
def _integer_operator_specs(draw):
    """Valid specs over the data's 3 variables: one integer monomial of degree <= 1 per entry."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    monomials = st.sampled_from([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    return {"vars": 3, "rows": rows, "cols": cols,
            "entries": [{"row": i, "col": j, "terms": [
                {"coeff": draw(st.integers(-2, 2)), "exponents": draw(monomials)}]}
                for i in range(rows) for j in range(cols)]}


@st.composite
def _kernel_specs(draw):
    """A valid kernel spec with one key, or one hyperparameter, replaced (or none)."""
    doc = copy.deepcopy(draw(st.sampled_from(_BASE_KERNEL_SPECS)))
    key = draw(st.sampled_from([None, "type", "hyperparams", "out_dim", "in_dim",
                                "g_operator", "f_operator", "max_degree", *_HYPER]))
    if key in _HYPER:
        doc["hyperparams"] = {**_HYPER, key: draw(st.one_of(
            st.floats(), st.floats(1e150, 1e308), st.floats(5e-324, 1e-150), _FUZZ_JSON))}
    elif key in ("g_operator", "f_operator"):
        doc[key] = draw(st.one_of(_integer_operator_specs(), _operator_specs(), _FUZZ_JSON))
    elif key is not None:
        doc[key] = draw(st.one_of(_FUZZ_JSON, st.integers(-1, 4), st.sampled_from(
            ["diagonal", "curl_free_3d", "transformed", "auto-from-F"])))
    return doc


# hyperparameters near the float limits overflow inside the kernel evaluator
# (u = r / l for l ~ 1e-300, sv He_2(u) for sv ~ 1e308); this test checks the exit code
@_IGNORE_OVERFLOW
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_kernel_specs())
def test_kernel_spec_fuzz_exit_codes(doc):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        X, B = synthetic_curl_free_field(6, seed=4)
        write_field_csv(tmp / "train.csv", X, B)
        (tmp / "points.csv").write_text("x1,x2,x3\n1.0,1.0,1.0\n2.0,0.5,1.5\n")
        _exit_code_without_traceback(
            ["predict", "--data", str(tmp / "train.csv"),
             "--kernel-spec", write_json(tmp / "kernel.json", doc),
             "--points", str(tmp / "points.csv"), "--out", str(tmp / "pred.csv"),
             "--no-fit"])


# one repetition, 5 points, a 3 x 3 grid and 2 iterations: valid draws stay fast
_FUZZ_BASE_CONFIG = {
    "n_train": 5, "grid_size": 3, "nc_schedule": [2], "repetitions": 1,
    "restarts": 1, "maxiter": 2, "seed": 0,
    "methods": ["diagonal", "constrained", "artificial"],
}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(f.name for f in fields(ExperimentConfig)) + ["unknown"]),
       st.one_of(_FUZZ_JSON, st.lists(st.lists(st.floats(), max_size=3), max_size=3)))
def test_config_fuzz_exit_codes(key, value):
    # one key of a tiny valid config replaced by an arbitrary JSON value
    with tempfile.TemporaryDirectory() as tmp:
        config = write_json(Path(tmp) / "config.json", {**_FUZZ_BASE_CONFIG, key: value})
        _exit_code_without_traceback(
            ["sim-experiment", "--config", config, "--out", str(Path(tmp) / "out")])


# ---------------------------------------------------------------------------
# usage errors and the installed entry point


def test_unknown_subcommand_exit_1(capsys):
    assert main(["frobnicate"]) == 1


def test_missing_required_flag_exit_1(capsys):
    assert main(["construct-g", "--out", "x.json"]) == 1


def test_console_entry_point(tmp_path, div_spec):
    out = tmp_path / "g.json"
    proc = subprocess.run(
        [sys.executable, "-m", "fieldgp.cli", "construct-g",
         "--f-spec", div_spec, "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert out.exists()
