"""Benchmark protocols comparing constraint-aware and plain GP regression.

Two pipelines are provided.  The simulated pipeline draws noisy samples
of a known divergence-free planar field, reconstructs it on a regular
grid with a diagonal kernel, a constraint-transformed kernel, and a
diagonal kernel augmented with artificial constraint observations, and
reports root-mean-square errors per method.  The real-data pipeline runs
the analogous comparison for 3-D curl-free fields (e.g. magnetic-field
maps) on a CSV dataset with repeated random train/test splits.  Both
share one per-repetition loop and differ only in their data draw,
constraint operator and constrained kernel.

All randomness is derived from one seed, so reports are reproducible
byte for byte.  Wall-clock timing is off by default for the same reason
and can be enabled per config.
"""

import csv
import json
import logging
import math
import numbers
import os
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .baseline import augment, predict_augmented
from .gp import Dataset, NotPositiveDefinite, OptConfig, fit_gp, fit_hyperparameters, predict
from .kernels import CurlFreeKernel, DiagonalKernel, SeHyperparams, field_family
from .operators import construct_g, make_curl_operator_3d, make_divergence_operator

logger = logging.getLogger(__name__)

SIM_METHODS = ("diagonal", "constrained", "artificial")
REAL_METHODS = ("diagonal", "curl_free", "artificial")

RMSE_CSV_HEADER = ("method", "nc", "mean", "std", "n_ok", "jitter", "seconds")


@dataclass
class ExperimentConfig:
    """Protocol parameters for the simulated and real-data pipelines."""

    domain: tuple = ((0.0, 4.0), (0.0, 4.0))
    n_train: int = 50
    nc_schedule: tuple = (25, 50, 100, 200, 400)
    grid_size: int = 20
    noise_std: float = 1e-4
    field_param_a: float = 0.01
    repetitions: int = 10
    seed: int = 0
    methods: tuple = SIM_METHODS
    train_size: int = 500
    test_size: int = 1000
    restarts: int = 2
    maxiter: int = 120
    learn_noise: bool = False
    record_timing: bool = False

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is int and not _is_int(value):
                raise ValueError(f"{f.name} must be an integer, not {value!r}")
            if f.type is float and not _is_number(value):
                raise ValueError(f"{f.name} must be a number, not {value!r}")
            if f.type is bool and not isinstance(value, bool):
                raise ValueError(f"{f.name} must be true or false, not {value!r}")
        lists = (list, tuple)
        if not (isinstance(self.domain, lists) and all(
                isinstance(b, lists) and len(b) == 2 and all(map(_is_number, b))
                for b in self.domain)):
            raise ValueError(f"domain must be a list of [low, high] pairs, not {self.domain!r}")
        for name, valid, what in (("nc_schedule", _is_int, "integers"),
                                  ("methods", lambda m: isinstance(m, str), "method names")):
            value = getattr(self, name)
            if not (isinstance(value, lists) and all(map(valid, value))
                    and len(set(value)) == len(value)):
                raise ValueError(f"{name} must be a list of distinct {what}, not {value!r}")
        self.domain = tuple((float(lo), float(hi)) for lo, hi in self.domain)
        self.nc_schedule = tuple(int(n) for n in self.nc_schedule)
        self.methods = tuple(self.methods)
        for lo, hi in self.domain:
            if not lo < hi:
                raise ValueError("domain bounds must be ordered")
        for name in ("n_train", "grid_size", "repetitions", "train_size", "test_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if any(n < 0 for n in self.nc_schedule):
            raise ValueError("nc_schedule entries must be >= 0")

    @classmethod
    def from_json_dict(cls, doc):
        if not isinstance(doc, dict):
            raise ValueError("config must be a JSON object")
        unknown = set(doc) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def _is_int(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass
class RmseRow:
    """Aggregated accuracy of one method at one artificial-observation count."""

    method: str
    nc: int
    mean: float
    std: float
    n_ok: int
    jitter: float
    seconds: float


@dataclass
class FieldErrorTable:
    """Per-point reconstruction errors from the first repetition."""

    points: np.ndarray                       # (Np, D)
    errors: dict                             # label -> (Np, K) signed errors


@dataclass
class RmseReport:
    rows: list = field(default_factory=list)
    field_error: FieldErrorTable | None = None


def simulated_field(x, a):
    """Known divergence-free planar field used by the simulated benchmark."""
    x = np.asarray(x, dtype=float)
    x1, x2 = x[..., 0], x[..., 1]
    s = x1 * x2
    envelope = np.exp(-a * s)
    f1 = envelope * (a * x1 * np.sin(s) - x1 * np.cos(s))
    f2 = envelope * (x2 * np.cos(s) - a * x2 * np.sin(s))
    return np.stack([f1, f2], axis=-1)


def prediction_grid(domain, grid_size):
    """Regular grid of points covering the domain, one axis per dimension."""
    axes = [np.linspace(lo, hi, grid_size) for lo, hi in domain]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def rmse(predicted, truth):
    """Root mean squared error over the concatenated prediction vector.

    The divisor is the number of prediction points (not points times
    components), matching the reported benchmark definition.
    """
    predicted = np.asarray(predicted, dtype=float)
    truth = np.asarray(truth, dtype=float)
    diff = (predicted - truth).reshape(-1)
    return float(np.sqrt(diff @ diff / truth.shape[0]))


class _Collector:
    """Per (method, nc) accumulation of repetition outcomes."""

    def __init__(self, record_timing):
        self.record_timing = record_timing
        self.rmse = {}
        self.jitter = {}
        self.seconds = {}

    def ok(self, key, t0, rmse_value, jitter):
        elapsed = (time.perf_counter() - t0) if self.record_timing else 0.0
        self.rmse.setdefault(key, []).append(rmse_value)
        self.jitter.setdefault(key, []).append(jitter)
        self.seconds[key] = self.seconds.get(key, 0.0) + elapsed

    def rows(self, keys):
        out = []
        for key in keys:
            values = self.rmse.get(key, [])
            method, nc = key
            out.append(RmseRow(
                method=method,
                nc=nc,
                mean=float(np.mean(values)) if values else float("nan"),
                std=float(np.std(values)) if values else float("nan"),
                n_ok=len(values),
                jitter=float(np.mean(self.jitter.get(key, []))) if values else 0.0,
                seconds=self.seconds.get(key, 0.0),
            ))
        return out


_FAILURES = (NotPositiveDefinite, RuntimeError)


def run_simulated(config):
    """Reconstruction benchmark on the simulated divergence-free field.

    Per repetition: draw training inputs uniformly over the domain,
    corrupt the field values with Gaussian noise, refit hyperparameters
    per method by marginal likelihood, predict on the grid, and record
    the RMSE.  Artificial-observation runs reuse the diagonal kernel fit
    and place constraint points on random subsets of the grid.
    """
    if len(config.domain) != 2:
        raise ValueError("the simulated benchmark is two-dimensional")
    keys = _result_keys(config, SIM_METHODS)
    grid = prediction_grid(config.domain, config.grid_size)
    with np.errstate(all="ignore"):
        truth = simulated_field(grid, config.field_param_a)
        if not np.isfinite(np.sum(truth * truth)):
            raise ValueError(f"field_param_a {config.field_param_a!r} makes the simulated "
                             "field or its square overflow on the grid")
    divergence = make_divergence_operator(2)
    lows = np.array([lo for lo, _ in config.domain])
    highs = np.array([hi for _, hi in config.domain])

    def draw(rng):
        X = rng.uniform(lows, highs, size=(config.n_train, 2))
        Y = simulated_field(X, config.field_param_a) \
            + rng.normal(0.0, config.noise_std, size=(config.n_train, 2))
        return Dataset(X, Y, noise_std=config.noise_std), grid, truth

    collector, field_errors = _run_repetitions(
        config, draw, divergence, "constrained", field_family(construct_g(divergence)[0]))
    table = FieldErrorTable(points=grid, errors=field_errors) if field_errors else None
    return RmseReport(rows=collector.rows(keys), field_error=table)


def run_real_data(config, dataset_path):
    """Train/test benchmark for 3-D curl-free field data from a CSV file.

    Each repetition draws a disjoint random train/test split, fits each
    requested method (curl-free kernel, diagonal kernel, and
    diagonal kernel with artificial curl observations at random subsets
    of the test points), and reports the RMSE over the test set.
    """
    keys = _result_keys(config, REAL_METHODS)
    X, B = load_field_csv(dataset_path)
    needed = config.train_size + config.test_size
    if X.shape[0] < needed:
        raise ValueError(
            f"dataset has {X.shape[0]} rows; need train+test = {needed}")

    def draw(rng):
        perm = rng.permutation(X.shape[0])
        train_idx = perm[:config.train_size]
        test_idx = perm[config.train_size:needed]
        data = Dataset(X[train_idx], B[train_idx], noise_std=config.noise_std)
        return data, X[test_idx], B[test_idx]

    collector, _ = _run_repetitions(
        config, draw, make_curl_operator_3d(), "curl_free", CurlFreeKernel)
    return RmseReport(rows=collector.rows(keys))


def _result_keys(config, known_methods):
    keys = []
    for method in config.methods:
        if method not in known_methods:
            raise ValueError(f"unknown method {method!r}; expected {known_methods}")
        if method == "artificial":
            keys.extend(("artificial", nc) for nc in config.nc_schedule)
        else:
            keys.append((method, 0))
    return keys


def _run_repetitions(config, draw, F, constrained, constrained_family):
    """The per-repetition loop both pipelines share.

    ``draw(rng)`` returns (training Dataset, prediction points, true
    field there).  Per repetition: diagonal fit, ``constrained`` fit with
    ``constrained_family``, then the diagonal fit conditioned on F[f] = 0
    at a random subset of the prediction points for each nc, drawing from
    rng in that order.  Both families take theta at the field's variance,
    so both fits start from the data's variance and span; a fitted model is
    conditioned and predicted only when its method is reported.  Returns
    the collector and the first repetition's signed errors by label.
    """
    noise_var = config.noise_std ** 2
    collector = _Collector(config.record_timing)
    field_errors = {}
    rep_seeds = np.random.SeedSequence(config.seed).spawn(config.repetitions)
    for rep, rep_seed in enumerate(rep_seeds):
        rng = np.random.default_rng(rep_seed)
        data, points, truth = draw(rng)
        k, dim = data.out_dim, data.in_dim
        span = float(np.max(np.ptp(data.inputs, axis=0))) or 1.0
        init = SeHyperparams(max(float(np.var(data.outputs)), 1e-10), 0.3 * span, noise_var)
        opt = OptConfig(restarts=config.restarts, maxiter=config.maxiter,
                        learn_noise=config.learn_noise,
                        seed=int(rng.integers(2 ** 31)))
        fits = []
        if "diagonal" in config.methods or "artificial" in config.methods:
            fits.append(("diagonal", lambda th: DiagonalKernel(th, k, in_dim=dim), opt))
        if constrained in config.methods:
            fits.append((constrained, constrained_family,
                         replace(opt, seed=int(rng.integers(2 ** 31)))))

        diagonal = None
        for label, family, label_opt in fits:
            key = (label, 0)
            t0 = time.perf_counter()
            try:
                fit = fit_hyperparameters(data, family, init, label_opt)
                kernel = family(fit.theta)
                if label == "diagonal":
                    diagonal = kernel
                if label in config.methods:
                    model = fit_gp(data, kernel, noise_variance=fit.theta.noise_variance)
                    pred = predict(model, points)
                    collector.ok(key, t0, rmse(pred.means, truth), model.jitter)
                    if rep == 0:
                        field_errors[label] = pred.means - truth
            except _FAILURES as exc:
                logger.warning("repetition %d failed for %s: %s", rep, key, exc)

        if "artificial" in config.methods and diagonal is not None:
            data_aug = Dataset(data.inputs, data.outputs, noise_std=float(
                np.sqrt(diagonal.theta.noise_variance)))
            n_points = points.shape[0]
            for nc in config.nc_schedule:
                key = ("artificial", nc)
                t0 = time.perf_counter()
                try:
                    pts = points[rng.choice(n_points, size=min(nc, n_points),
                                            replace=False)]
                    # free the previous model's factor before building the next
                    model = pred = None
                    model = augment(data_aug, F, pts, diagonal)
                    pred = predict_augmented(model, points)
                    collector.ok(key, t0, rmse(pred.means, truth), model.jitter)
                    if rep == 0 and nc == max(config.nc_schedule):
                        field_errors[f"artificial_nc{nc}"] = pred.means - truth
                except _FAILURES as exc:
                    logger.warning("repetition %d failed for %s: %s", rep, key, exc)

    return collector, field_errors


# ---------------------------------------------------------------------------
# dataset I/O and synthetic stand-in data


FIELD_CSV_COLUMNS = ("x1", "x2", "x3", "b1", "b2", "b3")


def load_field_csv(path):
    """Load position/field data from a CSV with header x1,x2,x3,b1,b2,b3."""
    arr = read_csv_columns(path, FIELD_CSV_COLUMNS)
    return arr[:, :3], arr[:, 3:]


def read_csv_columns(path, columns):
    """The named columns of a headed CSV file as an (N, len(columns)) float array.

    Raises ValueError naming the file for an empty file, a header
    without the columns, a short, non-numeric or non-finite row, or no
    data rows.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty CSV") from None
        header = [h.strip() for h in header]
        try:
            cols = [header.index(name) for name in columns]
        except ValueError:
            raise ValueError(
                f"{path}: header must contain columns {tuple(columns)}") from None
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                values = [float(row[c]) for c in cols]
            except (ValueError, IndexError):
                raise ValueError(f"{path}: bad row at line {lineno}") from None
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{path}: non-finite value at line {lineno}")
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.array(rows)


def write_field_csv(path, X, B):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FIELD_CSV_COLUMNS)
        for x, b in zip(np.asarray(X), np.asarray(B)):
            writer.writerow([repr(float(v)) for v in (*x, *b)])


def synthetic_curl_free_field(n_points, seed=0, noise_std=1e-3):
    """Sample a curl-free field: the gradient of a random smooth potential.

    The potential is a sum of 40 Gaussian bumps of scale 1.2 with random
    centers and weights, so its gradient is available in closed form and is
    exactly curl-free.  Points are uniform on [0, 4]^2 x [0, 2].  Returns
    (X, B) with measurement noise already added.
    """
    n_bumps, bump_scale = 40, 1.2
    lows, highs = np.zeros(3), np.array([4.0, 4.0, 2.0])
    rng = np.random.default_rng(seed)
    centers = rng.uniform(lows - 0.5, highs + 0.5, size=(n_bumps, 3))
    weights = rng.normal(0.0, 1.0, size=n_bumps)
    X = rng.uniform(lows, highs, size=(n_points, 3))
    B = potential_gradient(X, centers, weights, bump_scale)
    return X, B + rng.normal(0.0, noise_std, size=B.shape)


def potential_gradient(X, centers, weights, bump_scale):
    """Gradient of the Gaussian-bump potential at each row of X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    diff = X[:, None, :] - centers[None, :, :]          # (N, n_bumps, D)
    bumps = np.exp(-0.5 * np.sum(diff ** 2, axis=-1) / bump_scale ** 2)
    coeff = -weights[None, :] * bumps / bump_scale ** 2
    return np.sum(coeff[:, :, None] * diff, axis=1)


# ---------------------------------------------------------------------------
# report emission


def emit_report(report, out_dir):
    """Write rmse.csv (and field_error.csv when available) into a directory.

    Floats are written with shortest round-trip formatting, so reports
    from identical runs are byte-identical and parsing them back
    reproduces the in-memory values exactly.
    """
    os.makedirs(out_dir, exist_ok=True)
    rmse_path = os.path.join(out_dir, "rmse.csv")
    with open(rmse_path, "w", newline="") as fh:
        fh.write(",".join(RMSE_CSV_HEADER) + "\n")
        for row in report.rows:
            fh.write(",".join([
                row.method, str(row.nc), repr(row.mean), repr(row.std),
                str(row.n_ok), repr(row.jitter), repr(row.seconds),
            ]) + "\n")
    paths = [rmse_path]
    if report.field_error is not None:
        paths.append(_emit_field_error(report.field_error,
                                       os.path.join(out_dir, "field_error.csv")))
    return paths


def _emit_field_error(table, path):
    dim = table.points.shape[1]
    labels = sorted(table.errors)
    header = [f"x{i + 1}" for i in range(dim)]
    for label in labels:
        k = table.errors[label].shape[1]
        header.extend(f"d{c + 1}_{label}" for c in range(k))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for a in range(table.points.shape[0]):
            cells = [repr(float(v)) for v in table.points[a]]
            for label in labels:
                cells.extend(repr(float(v)) for v in table.errors[label][a])
            fh.write(",".join(cells) + "\n")
    return path


def parse_rmse_csv(path):
    """Read rmse.csv back into RmseRow objects (exact float round-trip)."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != RMSE_CSV_HEADER:
            raise ValueError(f"{path}: unexpected header {header}")
        for rec in reader:
            rows.append(RmseRow(
                method=rec[0], nc=int(rec[1]), mean=float(rec[2]),
                std=float(rec[3]), n_ok=int(rec[4]), jitter=float(rec[5]),
                seconds=float(rec[6])))
    return rows
