"""Tests for the benchmark protocols, dataset I/O, and report emission."""

import dataclasses
import json

import numpy as np
import pytest

import fieldgp.experiments as experiments
import fieldgp.gp as gp
from fieldgp.experiments import (
    ExperimentConfig,
    FieldErrorTable,
    RmseReport,
    RmseRow,
    emit_report,
    load_field_csv,
    parse_rmse_csv,
    potential_gradient,
    prediction_grid,
    rmse,
    run_real_data,
    run_simulated,
    simulated_field,
    synthetic_curl_free_field,
    write_field_csv,
)

from conftest import fd_curl, fd_divergence

TINY_SIM = dict(n_train=12, grid_size=6, nc_schedule=(0, 5), repetitions=2,
                restarts=1, maxiter=25, seed=123)


# ---------------------------------------------------------------------------
# simulated field


def test_simulated_field_on_axis():
    # x1 = 0 collapses the first component and leaves f2 = x2
    out = simulated_field(np.array([[0.0, 1.7], [0.0, -2.0]]), a=0.3)
    assert np.allclose(out[:, 0], 0.0)
    assert np.allclose(out[:, 1], [1.7, -2.0])


def test_simulated_field_a_zero():
    x = np.array([1.3, 0.7])
    out = simulated_field(x, a=0.0)
    s = x[0] * x[1]
    assert out[0] == pytest.approx(-x[0] * np.cos(s))
    assert out[1] == pytest.approx(x[1] * np.cos(s))


def test_simulated_field_divergence_free(rng):
    points = rng.uniform(0, 4, size=(100, 2))
    scale = np.max(np.abs(simulated_field(points, 0.01)))
    for p in points:
        div = fd_divergence(lambda q: simulated_field(q, 0.01), p, h=1e-5)
        assert abs(div) <= 1e-6 * scale


def test_prediction_grid_covers_domain():
    grid = prediction_grid(((0.0, 4.0), (0.0, 4.0)), 20)
    assert grid.shape == (400, 2)
    assert grid.min() == 0.0 and grid.max() == 4.0
    assert len(np.unique(grid[:, 0])) == 20


def test_rmse_formula_independent_recomputation(rng):
    pred = rng.standard_normal((40, 2))
    truth = rng.standard_normal((40, 2))
    expected = np.sqrt(np.sum((pred - truth) ** 2) / 40)  # divisor = points
    assert rmse(pred, truth) == pytest.approx(expected, rel=1e-14)


def test_interpolation_regime_sanity():
    # noise-free training on every grid point: a plain diagonal kernel
    # must reconstruct the field to well under 1e-3
    from fieldgp.gp import Dataset, fit_gp, predict
    from fieldgp.kernels import DiagonalKernel, SeHyperparams

    grid = prediction_grid(((0.0, 4.0), (0.0, 4.0)), 20)
    truth = simulated_field(grid, 0.01)
    data = Dataset(grid, truth, noise_std=0.0)
    theta = SeHyperparams(float(np.var(truth)), 0.5)
    model = fit_gp(data, DiagonalKernel(theta, 2))
    assert rmse(predict(model, grid).means, truth) <= 1e-3


# ---------------------------------------------------------------------------
# synthetic curl-free data and CSV I/O


def test_synthetic_field_is_curl_free(rng):
    gen = np.random.default_rng(5)
    centers = gen.uniform(0, 4, size=(30, 3))
    weights = gen.normal(size=30)
    for p in rng.uniform(0.5, 3.5, size=(20, 3)):
        curl = fd_curl(lambda q: potential_gradient(q, centers, weights, 1.2)[0],
                       p, h=1e-5)
        scale = np.max(np.abs(potential_gradient(p, centers, weights, 1.2)))
        assert np.max(np.abs(curl)) <= 1e-6 * max(scale, 1e-3)


def test_synthetic_dataset_shapes_and_determinism():
    X1, B1 = synthetic_curl_free_field(50, seed=9)
    X2, B2 = synthetic_curl_free_field(50, seed=9)
    assert X1.shape == (50, 3) and B1.shape == (50, 3)
    assert np.array_equal(X1, X2) and np.array_equal(B1, B2)


def test_field_csv_roundtrip(tmp_path, rng):
    X, B = synthetic_curl_free_field(20, seed=2)
    path = tmp_path / "field.csv"
    write_field_csv(path, X, B)
    X2, B2 = load_field_csv(path)
    assert np.array_equal(X, X2) and np.array_equal(B, B2)


def test_field_csv_errors(tmp_path):
    bad_header = tmp_path / "bad_header.csv"
    bad_header.write_text("x1,x2,x3,b1,b2\n0,0,0,0,0\n")
    with pytest.raises(ValueError, match="header"):
        load_field_csv(bad_header)
    bad_row = tmp_path / "bad_row.csv"
    bad_row.write_text("x1,x2,x3,b1,b2,b3\n0,0,zero,0,0,0\n")
    with pytest.raises(ValueError, match="line 2"):
        load_field_csv(bad_row)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_field_csv(empty)
    with pytest.raises(OSError):
        load_field_csv(tmp_path / "missing.csv")


# ---------------------------------------------------------------------------
# config


def test_config_json_roundtrip():
    config = ExperimentConfig(**TINY_SIM)
    doc = dataclasses.asdict(config)
    assert ExperimentConfig.from_json_dict(doc) == config
    assert ExperimentConfig.from_json_dict(json.loads(json.dumps(doc))) == config


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(domain=((4.0, 0.0), (0.0, 4.0)))
    with pytest.raises(ValueError):
        ExperimentConfig(repetitions=0)
    with pytest.raises(ValueError):
        ExperimentConfig.from_json_dict({"bogus_key": 1})


# ---------------------------------------------------------------------------
# report emission


def test_emit_empty_report_header_only(tmp_path):
    paths = emit_report(RmseReport(rows=[]), tmp_path)
    content = open(paths[0]).read()
    assert content == "method,nc,mean,std,n_ok,jitter,seconds\n"


def test_emit_report_roundtrip(tmp_path):
    rows = [RmseRow("diagonal", 0, 0.125, 0.01, 10, 1e-11, 0.0),
            RmseRow("artificial", 400, 0.0625, 0.002, 9, 3.5e-9, 0.0)]
    report = RmseReport(rows=rows)
    paths = emit_report(report, tmp_path)
    parsed = parse_rmse_csv(paths[0])
    assert parsed == rows
    header = open(paths[0]).readline().strip().split(",")
    assert len(header) == 7


def test_emit_field_error_table(tmp_path):
    table = FieldErrorTable(points=np.array([[0.0, 1.0], [2.0, 3.0]]),
                            errors={"diagonal": np.array([[0.1, -0.2], [0.0, 0.4]])})
    report = RmseReport(rows=[], field_error=table)
    paths = emit_report(report, tmp_path)
    lines = open(paths[1]).read().splitlines()
    assert lines[0] == "x1,x2,d1_diagonal,d2_diagonal"
    assert len(lines) == 3
    assert [float(v) for v in lines[1].split(",")] == [0.0, 1.0, 0.1, -0.2]


# ---------------------------------------------------------------------------
# simulated pipeline (desk scale)


@pytest.fixture(scope="module")
def tiny_sim_report():
    return run_simulated(ExperimentConfig(**TINY_SIM))


def test_run_simulated_rows_and_order(tiny_sim_report):
    keys = [(r.method, r.nc) for r in tiny_sim_report.rows]
    assert keys == [("diagonal", 0), ("constrained", 0),
                    ("artificial", 0), ("artificial", 5)]
    for row in tiny_sim_report.rows:
        assert row.n_ok == 2
        assert row.mean >= 0.0
        assert row.seconds == 0.0  # timing off by default


def test_run_simulated_nc_zero_equals_diagonal(tiny_sim_report):
    by_key = {(r.method, r.nc): r for r in tiny_sim_report.rows}
    assert by_key[("artificial", 0)].mean == pytest.approx(
        by_key[("diagonal", 0)].mean, rel=1e-9)


def test_run_simulated_field_error_table(tiny_sim_report):
    table = tiny_sim_report.field_error
    assert table is not None
    assert table.points.shape == (36, 2)
    assert set(table.errors) == {"diagonal", "constrained", "artificial_nc5"}
    for err in table.errors.values():
        assert err.shape == (36, 2)


def test_run_simulated_deterministic(tmp_path, tiny_sim_report):
    again = run_simulated(ExperimentConfig(**TINY_SIM))
    assert again.rows == tiny_sim_report.rows
    emit_report(tiny_sim_report, tmp_path / "a")
    emit_report(again, tmp_path / "b")
    assert (tmp_path / "a" / "rmse.csv").read_bytes() == \
        (tmp_path / "b" / "rmse.csv").read_bytes()


def test_run_simulated_seed_changes_results(tiny_sim_report):
    other = run_simulated(ExperimentConfig(**{**TINY_SIM, "seed": 999}))
    assert other.rows != tiny_sim_report.rows


def test_run_simulated_records_timing_when_asked():
    config = ExperimentConfig(**{**TINY_SIM, "repetitions": 1,
                                 "record_timing": True})
    report = run_simulated(config)
    assert any(row.seconds > 0 for row in report.rows)


def _tiny_real_data(tmp_path):
    X, B = synthetic_curl_free_field(50, seed=17, noise_std=1e-3)
    path = tmp_path / "field.csv"
    write_field_csv(path, X, B)
    config = ExperimentConfig(methods=("diagonal",), train_size=20, test_size=20,
                              repetitions=2, restarts=1, maxiter=15, noise_std=1e-3)
    return lambda: run_real_data(config, path), config


def _tiny_simulated(tmp_path):
    config = ExperimentConfig(**{**TINY_SIM, "methods": ("diagonal",)})
    return lambda: run_simulated(config), config


@pytest.mark.parametrize("pipeline", [_tiny_simulated, _tiny_real_data],
                         ids=["run_simulated", "run_real_data"])
def test_pipeline_counts_failures(monkeypatch, tmp_path, pipeline):
    calls = {"n": 0}
    real_fit = experiments.fit_hyperparameters

    def flaky_fit(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("synthetic failure")
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(experiments, "fit_hyperparameters", flaky_fit)
    run, config = pipeline(tmp_path)
    report = run()
    assert report.rows[0].n_ok == config.repetitions - 1


def test_run_simulated_zero_noise():
    # noise-free observations: every fit and prediction still succeeds
    report = run_simulated(ExperimentConfig(**{**TINY_SIM, "noise_std": 0.0}))
    assert [(r.method, r.nc) for r in report.rows] == [
        ("diagonal", 0), ("constrained", 0), ("artificial", 0), ("artificial", 5)]
    assert all(r.n_ok == TINY_SIM["repetitions"] and np.isfinite(r.mean)
               for r in report.rows)


def test_run_simulated_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown method"):
        run_simulated(ExperimentConfig(**{**TINY_SIM, "methods": ("kriging",)}))


# ---------------------------------------------------------------------------
# real-data pipeline (desk scale)


def test_run_real_data_tiny(tmp_path):
    X, B = synthetic_curl_free_field(130, seed=31, noise_std=1e-3)
    path = tmp_path / "field.csv"
    write_field_csv(path, X, B)
    config = ExperimentConfig(
        methods=("diagonal", "curl_free", "artificial"),
        nc_schedule=(5, 10), train_size=40, test_size=60, repetitions=2,
        restarts=1, maxiter=20, learn_noise=True, noise_std=1e-3, seed=7)
    report = run_real_data(config, path)
    keys = [(r.method, r.nc) for r in report.rows]
    assert keys == [("diagonal", 0), ("curl_free", 0),
                    ("artificial", 5), ("artificial", 10)]
    assert all(row.n_ok == 2 for row in report.rows)
    assert report.field_error is None
    again = run_real_data(config, path)
    assert again.rows == report.rows


def test_run_real_data_zero_noise(tmp_path):
    X, B = synthetic_curl_free_field(70, seed=29, noise_std=0.0)
    path = tmp_path / "field.csv"
    write_field_csv(path, X, B)
    config = ExperimentConfig(
        methods=("diagonal", "curl_free", "artificial"), nc_schedule=(10,),
        train_size=30, test_size=40, repetitions=2, restarts=1, maxiter=20,
        noise_std=0.0, seed=2)
    report = run_real_data(config, path)
    assert [(r.method, r.nc) for r in report.rows] == [
        ("diagonal", 0), ("curl_free", 0), ("artificial", 10)]
    assert all(r.n_ok == 2 and np.isfinite(r.mean) for r in report.rows)


def test_artificial_alone_predicts_no_diagonal_model(monkeypatch, tmp_path):
    # the diagonal hyperparameters are still fitted, as the pseudo-observation
    # models condition that kernel, but no diagonal model is predicted; the
    # artificial rows are those of a run that also reports the diagonal model
    X, B = synthetic_curl_free_field(60, seed=13, noise_std=1e-3)
    path = tmp_path / "field.csv"
    write_field_csv(path, X, B)
    settings = dict(nc_schedule=(3, 6), train_size=20, test_size=30, repetitions=2,
                    restarts=1, maxiter=15, noise_std=1e-3, seed=4)
    calls = {"n": 0}
    real_predict = experiments.predict

    def counting_predict(*args, **kwargs):
        calls["n"] += 1
        return real_predict(*args, **kwargs)

    monkeypatch.setattr(experiments, "predict", counting_predict)
    alone = run_real_data(ExperimentConfig(methods=("artificial",), **settings), path)
    assert calls["n"] == 0
    both = run_real_data(ExperimentConfig(methods=("diagonal", "artificial"), **settings), path)
    assert calls["n"] == settings["repetitions"]
    assert [(r.method, r.nc) for r in alone.rows] == [("artificial", 3), ("artificial", 6)]
    assert all(r.n_ok == 2 for r in alone.rows)
    assert alone.rows == both.rows[1:]


def _every_method_simulated(tmp_path):
    return lambda: run_simulated(ExperimentConfig(**{**TINY_SIM, "repetitions": 1}))


def _every_method_real_data(tmp_path):
    X, B = synthetic_curl_free_field(50, seed=17, noise_std=1e-3)
    path = tmp_path / "field.csv"
    write_field_csv(path, X, B)
    config = ExperimentConfig(methods=("diagonal", "curl_free", "artificial"),
                              nc_schedule=(0, 5), train_size=20, test_size=20,
                              repetitions=1, restarts=1, maxiter=15, noise_std=1e-3)
    return lambda: run_real_data(config, path)


@pytest.mark.parametrize("pipeline", [_every_method_simulated, _every_method_real_data],
                         ids=["run_simulated", "run_real_data"])
def test_pipelines_run_no_variance_solve(monkeypatch, tmp_path, pipeline):
    # the reports read only posterior means, which need no triangular solve
    # against the prediction points
    def variance_solve(*args, **kwargs):
        raise AssertionError("a pipeline ran the variance solve")

    run = pipeline(tmp_path)
    expected = run()
    assert len(expected.rows) == 4 and all(r.n_ok == 1 for r in expected.rows)
    monkeypatch.setattr(gp, "solve_triangular", variance_solve)
    assert run().rows == expected.rows


def test_run_real_data_split_sizes_enforced(tmp_path):
    X, B = synthetic_curl_free_field(99, seed=3)
    path = tmp_path / "short.csv"
    write_field_csv(path, X, B)
    config = ExperimentConfig(train_size=40, test_size=60, repetitions=1,
                              methods=("diagonal",))
    with pytest.raises(ValueError, match="need train\\+test"):
        run_real_data(config, path)
