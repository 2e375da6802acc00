"""Benchmark workloads: the inputs each one feeds to the fieldgp CLI.

Every input is made here from the workload seed, so a change to the
program cannot change what it is measured on.  The 3-D workloads use a
curl-free stand-in field built the way ``synthetic_curl_free_field``
builds it (the gradient of a sum of Gaussian bumps), because no recorded
magnetic-field data is available.
"""

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

DOMAIN_3D = ((0.0, 4.0), (0.0, 4.0), (0.0, 2.0))
FIELD_POINTS = 1600
FIELD_NOISE_STD = 1e-3

# configs/sim_default.json, with per-method timing switched on
SIM_CONFIG = {
    "domain": [[0.0, 4.0], [0.0, 4.0]],
    "n_train": 50,
    "nc_schedule": [25, 50, 100, 200, 400],
    "grid_size": 20,
    "noise_std": 1e-4,
    "field_param_a": 0.01,
    "repetitions": 10,
    "methods": ["diagonal", "constrained", "artificial"],
    "restarts": 2,
    "maxiter": 120,
    "learn_noise": False,
    "record_timing": True,
}

# the acceptance criterion-10 settings, one repetition
REAL_CONFIG = {
    "domain": [list(b) for b in DOMAIN_3D],
    "nc_schedule": [],
    "noise_std": FIELD_NOISE_STD,
    "repetitions": 1,
    "methods": ["diagonal", "curl_free"],
    "train_size": 500,
    "test_size": 1000,
    "restarts": 1,
    "maxiter": 40,
    "learn_noise": True,
    "record_timing": True,
}

# pseudo-observations of curl f = 0 at the nc counts of configs/real_default.json;
# "diagonal" costs one extra prediction, since artificial reuses its fit anyway
PSEUDO_CONFIG = dict(REAL_CONFIG, methods=["diagonal", "artificial"],
                     train_size=200, nc_schedule=[100, 250, 500, 1000])


@dataclass(frozen=True)
class Workload:
    name: str
    command: str              # CLI subcommand
    config: dict
    primary: str              # the method the workload exists to measure
    constraint: str           # "div2d" or "curl3d"

    def uses_field_csv(self):
        return self.command == "real-experiment"


# why each workload exists: perfbench/README.md and BENCHMARK.json
WORKLOADS = {
    w.name: w for w in (
        Workload("sim_div2d", "sim-experiment", SIM_CONFIG, "constrained", "div2d"),
        Workload("real_curl3d", "real-experiment", REAL_CONFIG, "curl_free", "curl3d"),
        Workload("pseudo_curl3d", "real-experiment", PSEUDO_CONFIG, "artificial", "curl3d"),
    )
}


@dataclass(frozen=True)
class Inputs:
    workload: Workload
    seed: int
    config_path: str
    csv_path: str | None

    def argv(self, out_dir):
        args = [self.workload.command, "--config", self.config_path]
        if self.csv_path is not None:
            args += ["--data", self.csv_path]
        return args + ["--out", out_dir]

    def expected_keys(self):
        """(method, nc) rows rmse.csv must hold, in order."""
        keys = []
        for method in self.workload.config["methods"]:
            if method == "artificial":
                keys.extend((method, nc) for nc in self.workload.config["nc_schedule"])
            else:
                keys.append((method, 0))
        return keys

    def attempts_per_call(self):
        return len(self.expected_keys()) * self.workload.config["repetitions"]


def curl_free_field(n_points, seed, n_bumps=40, bump_scale=1.2):
    """Noisy samples of the gradient of a random Gaussian-bump potential."""
    rng = np.random.default_rng(seed)
    lows = np.array([lo for lo, _ in DOMAIN_3D])
    highs = np.array([hi for _, hi in DOMAIN_3D])
    centers = rng.uniform(lows - 0.5, highs + 0.5, size=(n_bumps, 3))
    weights = rng.normal(0.0, 1.0, size=n_bumps)
    X = rng.uniform(lows, highs, size=(n_points, 3))
    diff = X[:, None, :] - centers[None, :, :]
    bumps = np.exp(-0.5 * np.sum(diff ** 2, axis=-1) / bump_scale ** 2)
    B = np.sum((-weights * bumps / bump_scale ** 2)[:, :, None] * diff, axis=1)
    return X, B + rng.normal(0.0, FIELD_NOISE_STD, size=B.shape)


def make_inputs(workload, seed, work_dir):
    """Write the workload's config (and field CSV) for this seed into work_dir."""
    config_path = os.path.join(work_dir, "config.json")
    with open(config_path, "w") as fh:
        json.dump(dict(workload.config, seed=seed), fh, indent=1)
    csv_path = None
    if workload.uses_field_csv():
        csv_path = os.path.join(work_dir, "field.csv")
        X, B = curl_free_field(FIELD_POINTS, seed)
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("x1", "x2", "x3", "b1", "b2", "b3"))
            for row in np.hstack([X, B]):
                writer.writerow([repr(float(v)) for v in row])
    return Inputs(workload, seed, config_path, csv_path)
