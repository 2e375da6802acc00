"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
The two pipeline criteria run the full desk-scale protocols and dominate
the runtime (several minutes in total).
"""

import time

import numpy as np
import pytest

from fieldgp.baseline import augment, predict_augmented
from fieldgp.experiments import (ExperimentConfig, emit_report, run_real_data,
                                 run_simulated, simulated_field,
                                 synthetic_curl_free_field, write_field_csv)
from fieldgp.gp import (Dataset, assemble_gram, cross_gram, fit_gp, predict)
from fieldgp.kernels import (CurlFreeKernel, DiagonalKernel, SeHyperparams,
                             apply_operator_to_expr, se_derivative,
                             transform_kernel)
from fieldgp.operators import (OperatorMatrix, OperatorPoly, build_ansatz_system,
                               construct_g, make_curl_operator_3d,
                               make_divergence_operator, monomials_of_degree)

from conftest import fd_operator_rows, mp_se_derivative, multi_indices_up_to
from test_operators import bareiss_rank, g_columns

pytestmark = pytest.mark.acceptance


def report(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def dx(p, dim, coeff=1):
    return OperatorPoly.monomial(p, tuple(1 if i == dim else 0 for i in range(p)),
                                 coeff)


def test_criterion_01_golden_nullspaces():
    t0 = time.perf_counter()
    g2, _ = construct_g(make_divergence_operator(2))
    g_curl, _ = construct_g(make_curl_operator_3d())
    g3, degrees3 = construct_g(make_divergence_operator(3))
    elapsed = time.perf_counter() - t0

    # (a) planar divergence: proportional to [-d/dx2, d/dx1]; canonical form exact
    expected_2d = OperatorMatrix([[dx(2, 1)], [dx(2, 0, -1)]])
    ratio = next(iter(g2.entry(0, 0).terms.values()))
    proportional = g2 == expected_2d or OperatorMatrix(
        [[-poly for poly in row] for row in expected_2d.entries]) == g2
    ok_a = g2 == expected_2d and proportional and ratio == 1
    # (b) curl: single gradient column
    ok_b = (g_curl.cols == 1
            and [g_curl.entry(j, 0) for j in range(3)]
            == [dx(3, 0), dx(3, 1), dx(3, 2)])
    # (c) 3-D divergence: P = 3 with the documented span
    vecs = g_columns(g3, monomials_of_degree(3, 1))
    expected_span = [
        [0, 0, 0, 0, 0, 1, 0, -1, 0],
        [0, 0, -1, 0, 0, 0, 1, 0, 0],
        [0, 1, 0, -1, 0, 0, 0, 0, 0],
    ]
    ok_c = (degrees3 == {1} and g3.cols == 3 and bareiss_rank(vecs) == 3
            and bareiss_rank(vecs + expected_span) == 3)
    ok = ok_a and ok_b and ok_c and elapsed < 1.0
    report(1, ok, f"golden annihilators reproduced in {elapsed * 1e3:.0f} ms "
                  f"(a={ok_a}, b={ok_b}, c={ok_c})")


def test_criterion_02_ansatz_system_golden():
    A, row_index = build_ansatz_system(make_divergence_operator(2), monomials_of_degree(2, 1))
    ok = (A == [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]]
          and [m for _, m in row_index] == [(2, 0), (1, 1), (0, 2)])
    report(2, ok, "documented 3x4 coefficient matrix reproduced exactly")


def test_criterion_03_derivative_oracle():
    rng = np.random.default_rng(3)
    worst = 0.0
    checked = 0
    for dim, n_configs in ((1, 34), (2, 33), (3, 33)):
        pairs = multi_indices_up_to(dim, 4)
        for _ in range(n_configs):
            sv = float(rng.uniform(0.4, 2.5))
            ls = float(rng.uniform(0.4, 2.5))
            theta = SeHyperparams(sv, ls)
            x = rng.uniform(-1.0, 1.0, dim) * ls
            x2 = x + rng.uniform(-1.5, 1.5, dim) * ls
            for alpha, beta in pairs:
                ours = se_derivative((alpha, beta), x, x2, theta)
                oracle = mp_se_derivative(alpha, beta, x, x2, sv, ls, h_rel=1e-4)
                order = sum(alpha) + sum(beta)
                scale = max(abs(oracle), sv / ls ** order)
                worst = max(worst, abs(ours - oracle) / scale)
                checked += 1
    ok = worst <= 1e-5
    report(3, ok, f"{checked} derivative values vs nested central differences, "
                  f"worst relative error {worst:.2e} (tol 1e-5)")


def gradient_operator_3d():
    return OperatorMatrix([[dx(3, 0)], [dx(3, 1)], [dx(3, 2)]])


def test_criterion_04_closed_form_agreement():
    # the curl-free kernel and the l^2-scaled gradient-transformed kernel,
    # each against the closed form sv exp(-|u|^2/2) (I - u u^T), u = (x - x')/l
    rng = np.random.default_rng(4)
    theta = SeHyperparams(1.7, 0.9)
    expr = transform_kernel(gradient_operator_3d(), theta)
    ls2 = theta.length_scale ** 2
    worst = 0.0
    for _ in range(100):
        x, x2 = rng.normal(size=3), rng.normal(size=3)
        u = (x - x2) / theta.length_scale
        closed = theta.signal_variance * np.exp(-0.5 * u @ u) * (np.eye(3) - np.outer(u, u))
        for got in (CurlFreeKernel(theta).eval(x, x2), ls2 * expr.eval(x, x2)):
            worst = max(worst, np.max(np.abs(got - closed)) / np.max(np.abs(closed)))
    ok = worst <= 1e-10
    report(4, ok, f"curl-free and l^2-scaled transformed kernels vs closed form, "
                  f"worst relative deviation {worst:.2e} (tol 1e-10)")


def test_criterion_05_continuous_constraint_satisfaction():
    rng = np.random.default_rng(5)
    h = 1e-4
    failures = []

    # kernel columns, planar divergence-free
    f_div = make_divergence_operator(2)
    g_div, _ = construct_g(f_div)
    k_div = transform_kernel(g_div, SeHyperparams(1.0, 0.8))
    worst, scale = 0.0, 0.0
    for _ in range(50):
        x, x2 = rng.uniform(0.5, 3.5, 2), rng.uniform(0.5, 3.5, 2)
        scale = max(scale, np.max(np.abs(k_div.eval(x, x2))),
                    np.max(np.abs(k_div.eval(x, x))))
        for col in range(2):
            rows = fd_operator_rows(f_div, lambda p: k_div.eval(p, x2)[:, col],
                                    x, h=h)
            worst = max(worst, np.max(np.abs(rows)))
    if worst > 1e-3 * scale:
        failures.append(f"div-free kernel columns {worst / scale:.2e}")

    # kernel columns, curl-free
    f_curl = make_curl_operator_3d()
    k_curl = transform_kernel(gradient_operator_3d(), SeHyperparams(1.0, 0.9))
    worst, scale = 0.0, 0.0
    for _ in range(50):
        x, x2 = rng.uniform(0.5, 3.5, 3), rng.uniform(0.5, 3.5, 3)
        scale = max(scale, np.max(np.abs(k_curl.eval(x, x2))),
                    np.max(np.abs(k_curl.eval(x, x))))
        for col in range(3):
            rows = fd_operator_rows(f_curl, lambda p: k_curl.eval(p, x2)[:, col],
                                    x, h=h)
            worst = max(worst, np.max(np.abs(rows)))
    if worst > 1e-3 * scale:
        failures.append(f"curl-free kernel columns {worst / scale:.2e}")

    # posterior mean, divergence-free model on N=50 noisy field samples
    X = rng.uniform(0, 4, size=(50, 2))
    Y = simulated_field(X, 0.01) + rng.normal(0, 1e-4, (50, 2))
    model = fit_gp(Dataset(X, Y, 1e-4), k_div)
    points = rng.uniform(0.5, 3.5, size=(50, 2))
    mean_at = lambda p: predict(model, p[None]).means[0]
    field_scale = np.max(np.abs(predict(model, points).means))
    worst = max(np.max(np.abs(fd_operator_rows(f_div, mean_at, p, h=h)))
                for p in points)
    if worst > 1e-3 * field_scale:
        failures.append(f"div-free posterior mean {worst / field_scale:.2e}")

    # posterior mean, curl-free model on N=50 synthetic curl-free samples
    Xc, Bc = synthetic_curl_free_field(50, seed=50, noise_std=1e-4)
    model_c = fit_gp(Dataset(Xc, Bc, 1e-4), CurlFreeKernel(SeHyperparams(1.0, 1.0)))
    points_c = rng.uniform(0.5, 3.5, size=(50, 3))
    mean_c = lambda p: predict(model_c, p[None]).means[0]
    field_scale = np.max(np.abs(predict(model_c, points_c).means))
    worst = max(np.max(np.abs(fd_operator_rows(f_curl, mean_c, p, h=h)))
                for p in points_c)
    if worst > 1e-3 * field_scale:
        failures.append(f"curl-free posterior mean {worst / field_scale:.2e}")

    report(5, not failures,
           "constraints hold for kernel columns and posterior means"
           + ("" if not failures else f" except: {failures}"))


def test_criterion_06_simulated_experiment_ordering():
    t0 = time.perf_counter()
    config = ExperimentConfig(
        domain=((0.0, 4.0), (0.0, 4.0)), n_train=50, grid_size=20,
        noise_std=1e-4, field_param_a=0.01, repetitions=10, seed=0,
        nc_schedule=(25, 50, 100, 200, 400),
        methods=("diagonal", "constrained", "artificial"),
        restarts=2, maxiter=120)
    rows = {(r.method, r.nc): r for r in run_simulated(config).rows}
    elapsed = time.perf_counter() - t0

    diagonal = rows[("diagonal", 0)]
    constrained = rows[("constrained", 0)]
    artificial = [rows[("artificial", nc)] for nc in config.nc_schedule]

    ordering = constrained.mean < diagonal.mean
    non_increasing = all(
        late.mean <= early.mean + early.std
        for early, late in zip(artificial, artificial[1:]))
    bracketed = (constrained.mean - constrained.std
                 <= artificial[-1].mean <= diagonal.mean + diagonal.std)
    ok = ordering and non_increasing and bracketed and elapsed < 600
    report(6, ok,
           f"constrained {constrained.mean:.3f} < diagonal {diagonal.mean:.3f}; "
           f"artificial {[round(r.mean, 3) for r in artificial]} non-increasing "
           f"within one std; {elapsed:.0f} s")


def test_criterion_07_baseline_equivalence_oracle():
    rng = np.random.default_rng(7)
    theta = SeHyperparams(1.0, 1.0)
    F = make_divergence_operator(2)
    expr = DiagonalKernel(theta, 2, in_dim=2)
    worst = 0.0
    for n, nc in [(5, 4), (8, 7), (3, 12), (11, 4)]:
        X = rng.uniform(0, 3, size=(n, 2))
        Y = rng.standard_normal((n, 2))
        pts = rng.uniform(0, 3, size=(nc, 2))
        Xs = rng.uniform(0, 3, size=(5, 2))
        data = Dataset(X, Y, noise_std=0.05)
        pred = predict_augmented(augment(data, F, pts, expr), Xs)

        cross = apply_operator_to_expr(F, expr, side="right")
        both = apply_operator_to_expr(F, cross, side="left")
        k_oo = np.block([
            [cross_gram(expr, X, X) + 0.05 ** 2 * np.eye(2 * n),
             cross_gram(cross, X, pts)],
            [cross_gram(cross, X, pts).T, cross_gram(both, pts, pts)]])
        k_so = np.hstack([cross_gram(expr, Xs, X), cross_gram(cross, Xs, pts)])
        y = np.concatenate([Y.reshape(-1), np.zeros(nc)])
        mean = (k_so @ np.linalg.solve(k_oo, y)).reshape(5, 2)
        cov = cross_gram(expr, Xs, Xs) - k_so @ np.linalg.solve(k_oo, k_so.T)
        worst = max(worst, np.max(np.abs(pred.means - mean)),
                    np.max(np.abs(pred.marginal_variances
                                  - np.diag(cov).reshape(5, 2))))
    ok = worst <= 1e-6
    report(7, ok, f"augmented predictions vs dense joint conditioning, worst "
                  f"deviation {worst:.2e} (tol 1e-6)")


def test_criterion_08_determinism(tmp_path):
    config = ExperimentConfig(
        n_train=15, grid_size=8, nc_schedule=(5, 10), repetitions=3,
        restarts=2, maxiter=40, seed=2024,
        methods=("diagonal", "constrained", "artificial"))
    emit_report(run_simulated(config), tmp_path / "run1")
    emit_report(run_simulated(config), tmp_path / "run2")
    a = (tmp_path / "run1" / "rmse.csv").read_bytes()
    b = (tmp_path / "run2" / "rmse.csv").read_bytes()
    ok = a == b and len(a) > 0
    report(8, ok, f"two runs with seed {config.seed} produced byte-identical "
                  f"rmse.csv ({len(a)} bytes)")


def test_criterion_09_gram_psd():
    rng = np.random.default_rng(9)
    theta = SeHyperparams(1.2, 0.9)
    g_div, _ = construct_g(make_divergence_operator(2))
    kernels = [
        ("diagonal", DiagonalKernel(theta, 2), 2),
        ("transformed", transform_kernel(g_div, theta), 2),
        ("curl_free", CurlFreeKernel(theta), 3),
    ]
    worst_ratio = -np.inf
    for _, kernel, dim in kernels:
        X = rng.uniform(0, 4, size=(30, dim))
        eigs = np.linalg.eigvalsh(assemble_gram(kernel, X, noise_variance=0.0))
        worst_ratio = max(worst_ratio, -eigs.min() / eigs.max())
    ok = worst_ratio <= 1e-8
    report(9, ok, f"pre-jitter Gram matrices PSD for all three kernel families "
                  f"(worst -min/max eigenvalue ratio {worst_ratio:.2e})")


def test_criterion_10_real_data_pipeline(tmp_path):
    X, B = synthetic_curl_free_field(1600, seed=42, noise_std=1e-3)
    path = tmp_path / "standin.csv"
    write_field_csv(path, X, B)
    config = ExperimentConfig(
        methods=("diagonal", "curl_free"), train_size=500, test_size=1000,
        repetitions=10, restarts=1, maxiter=40, learn_noise=True,
        noise_std=1e-3, seed=0, nc_schedule=())
    rows = {r.method: r for r in run_real_data(config, path).rows}
    ok = (rows["curl_free"].mean < rows["diagonal"].mean
          and rows["curl_free"].n_ok == rows["diagonal"].n_ok == 10)
    report(10, ok,
           f"500/1000 split, R=10: curl-free RMSE {rows['curl_free'].mean:.5f} "
           f"< diagonal RMSE {rows['diagonal'].mean:.5f}")
