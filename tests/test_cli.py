"""Tests for the command-line interface and its exit-code contract."""

import json
import subprocess
import sys

import numpy as np
import pytest

from fieldgp import kernels
from fieldgp.cli import main
from fieldgp.experiments import synthetic_curl_free_field, write_field_csv
from fieldgp.operators import (OperatorMatrix, make_curl_operator_3d,
                               make_divergence_operator)


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
    G = OperatorMatrix.load_json(out)
    assert (G.rows, G.cols) == (2, 1)
    doc = json.loads(out.read_text())
    assert "rendered" in doc


def test_construct_g_curl(tmp_path, capsys):
    spec = write_json(tmp_path / "curl.json",
                      make_curl_operator_3d().to_json_dict())
    out = tmp_path / "g.json"
    assert main(["construct-g", "--f-spec", spec, "--out", str(out)]) == 0
    G = OperatorMatrix.load_json(out)
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


def test_check_kernel_auto_passes(div_spec, capsys):
    code = main(["check-kernel", "--f-spec", div_spec, "--samples", "25"])
    assert code == 0
    assert "max relative violation" in capsys.readouterr().out


def test_check_kernel_diagonal_fails(tmp_path, div_spec, capsys):
    # identity G gives the diagonal kernel, which violates the constraint
    code = main(["check-kernel", "--f-spec", div_spec,
                 "--g-spec", identity_spec(tmp_path), "--samples", "25"])
    assert code == 1
    out = capsys.readouterr().out
    violation = float(out.split("violation:")[1].split()[0])
    assert violation > 1e-3


def test_check_kernel_zero_samples_vacuous(div_spec, capsys):
    code = main(["check-kernel", "--f-spec", div_spec, "--samples", "0"])
    assert code == 0
    assert "vacuous" in capsys.readouterr().err


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
])
def test_sim_experiment_config_wrong_type_exit_1(tmp_path, capsys, key, value):
    config = write_json(tmp_path / "config.json", {**TINY_CONFIG, key: value})
    code = main(["sim-experiment", "--config", config, "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"fieldgp: error: {config}: {key} must be")


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
], ids=["entry_without_row", "term_without_exponents", "entries_not_a_list",
        "zero_denominator", "kernel_spec_not_an_object", "hyperparams_not_an_object",
        "out_dim_list", "out_dim_fraction", "out_dim_bool",
        "max_degree_list", "max_degree_fraction", "max_degree_bool"])
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
