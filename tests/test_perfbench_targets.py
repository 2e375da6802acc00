"""The benchmark scripts under perfbench/ still find what they use in fieldgp.

perfbench/spans.py wraps fieldgp functions and kernel methods by name,
and the other scripts import names from fieldgp.  A refactor of src/
that renames or moves one of them would otherwise only show up when the
traced benchmark run fails.  These tests read perfbench/ and change
nothing in it.
"""

import ast
import contextlib
import importlib
import importlib.util
import io
import json
from pathlib import Path

import numpy as np
import pytest

from fieldgp import gp, kernels
from fieldgp.cli import main
from fieldgp.experiments import synthetic_curl_free_field, write_field_csv
from fieldgp.operators import construct_g, make_divergence_operator

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fieldgp_names():
    """(file, module, name) for every fieldgp name the scripts use.

    Covers ``from fieldgp... import name`` and ``fieldgp.name`` attribute
    access on the package.
    """
    used = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "fieldgp"):
                used.update((path.name, node.module, a.name) for a in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "fieldgp"):
                used.add((path.name, "fieldgp", node.attr))
    return sorted(used)


@pytest.mark.parametrize("target", _load_perfbench("spans").TARGETS,
                         ids=lambda t: t[0] + ":" + t[2])
def test_span_target_resolves(target):
    _, module_name, attr, _, _ = target
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        # the tracer wraps the method on the class that defines it
        assert method in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))


def test_perfbench_fieldgp_names_resolve():
    names = _fieldgp_names()
    assert names, "expected perfbench/ to use fieldgp"
    missing = []
    for filename, module_name, name in names:
        module = importlib.import_module(module_name)
        if not hasattr(module, name):
            missing.append(f"{filename}: {module_name}.{name}")
    assert not missing, missing


def test_gram_builders_call_eval_pairwise_once(monkeypatch):
    # spans.py times each kernel family through its eval_pairwise; a Gram
    # builder that bypassed it would leave the kernels.* metrics at zero
    calls = []
    for cls in (kernels.CurlFreeKernel, kernels.DiagonalKernel, kernels.MatrixKernelExpr):
        def counted(self, X, X2, _original=cls.eval_pairwise, _cls=cls):
            calls.append(_cls)
            return _original(self, X, X2)
        monkeypatch.setattr(cls, "eval_pairwise", counted)

    theta = kernels.SeHyperparams(1.0, 0.8)
    G, _ = construct_g(make_divergence_operator(3))
    cases = ((kernels.CurlFreeKernel, kernels.CurlFreeKernel(theta)),
             (kernels.DiagonalKernel, kernels.DiagonalKernel(theta, 3)),
             (kernels.MatrixKernelExpr, kernels.transform_kernel(G, theta)))
    X = np.linspace(0.0, 1.0, 12).reshape(4, 3)
    for cls, kernel in cases:
        for build in (lambda: gp.assemble_gram(kernel, X, 0.1),
                      lambda: gp.cross_gram(kernel, X, X[:3])):
            calls.clear()
            build()
            assert calls == [cls]


def test_traced_pipelines_fill_the_layer_counters(tmp_path):
    # a traced run of both pipelines in miniature: every kernel family and
    # the baseline's spans must record calls, as the traced benchmark expects
    common = {"repetitions": 1, "restarts": 1, "maxiter": 5, "seed": 1}
    sim = tmp_path / "sim.json"
    sim.write_text(json.dumps({**common, "n_train": 8, "grid_size": 4,
                               "nc_schedule": [3]}))
    real = tmp_path / "real.json"
    real.write_text(json.dumps({**common, "train_size": 12, "test_size": 8,
                                "nc_schedule": [4], "noise_std": 1e-3,
                                "methods": ["diagonal", "curl_free", "artificial"]}))
    X, B = synthetic_curl_free_field(20, seed=2)
    write_field_csv(tmp_path / "field.csv", X, B)
    tracer = _load_perfbench("spans").Tracer()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        codes = [main(["sim-experiment", "--config", str(sim),
                       "--out", str(tmp_path / "sim_out")]),
                 main(["real-experiment", "--config", str(real),
                       "--data", str(tmp_path / "field.csv"),
                       "--out", str(tmp_path / "real_out")])]
    assert codes == [0, 0]
    values = tracer.layer_values(0)
    for name in ("kernels.expr", "kernels.diagonal", "kernels.curl_free",
                 "gp.cholesky_jitter", "baseline.augment", "baseline.predict_augmented"):
        assert values[f"{name}.calls"] > 0, name
    assert values["gp.cholesky_jitter.flops"] > 0
    assert values["baseline.augment.joint_dim_max"] > 0
    assert values["baseline.predict_augmented.points"] > 0


@pytest.mark.parametrize("workload", ["sim_div2d", "real_curl3d"])
def test_constraint_residual_probe_runs(tmp_path, workload):
    # verify.py calls fieldgp directly, not through the CLI: DiagonalKernel
    # without in_dim, fit_hyperparameters on a family callable, and
    # construct_g's (G, degrees) pair
    workloads = _load_perfbench("workloads")
    verify = _load_perfbench("verify")
    inputs = workloads.make_inputs(workloads.WORKLOADS[workload], 1, str(tmp_path))
    residual, problems = verify.constraint_residual(inputs)
    assert problems == []
    assert residual["constrained"] <= verify.RESIDUAL_MAX
