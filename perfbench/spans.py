"""Span recorder that wraps fieldgp's public functions from outside the package.

The program itself carries no instrumentation.  ``Tracer.installed()``
replaces each traced function on every ``fieldgp`` module attribute that
binds it (``fit_gp`` is bound in ``fieldgp.gp``, ``fieldgp.experiments``,
``fieldgp.cli`` and the package), and each kernel family's
``eval_pairwise`` on its class, then puts the originals back.  Spans
(name, start, end, parent, run id) and counters stay in memory until
``dump`` writes them out.
"""

import contextlib
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter


def _pairs(tr, name, args, result):
    return {f"{name}.pairs": len(args[1]) * len(args[2])}


def _expr_pairs(tr, name, args, result):
    pairs = len(args[1]) * len(args[2])
    n_terms = sum(len(cell) for row in args[0].entries for cell in row)
    return {f"{name}.pairs": pairs, f"{name}.terms": pairs * n_terms}


def _nbytes(tr, name, args, result):
    return {f"{name}.bytes": result.nbytes}


def _cholesky(tr, name, args, result):
    # result is None when the factorization failed after every escalation
    escalated = result is None or result[1] > 0
    return {f"{name}.flops": args[0].shape[0] ** 3 / 3.0,
            f"{name}.escalations": int(escalated)}


def _fit_evals(tr, name, args, result):
    return {f"{name}.evals": result.n_evals}


def _fit_gp_failed(tr, name, args, result):
    # an objective evaluation the optimizer scored as -inf
    return {"gp.fit_hyperparameters.discarded":
            int(tr.parent_name() == "gp.fit_hyperparameters")}


def _points(tr, name, args, result):
    return {f"{name}.points": len(args[1])}


def _joint_dim(tr, name, args, result):
    return {f"{name}.joint_dim_max": result.joint_dim}


# (span name, module, attribute or Class.method, on_result, on_error)
TARGETS = (
    ("cli.main", "fieldgp.cli", "main", None, None),
    ("experiments.pipeline", "fieldgp.experiments", "run_simulated", None, None),
    ("experiments.pipeline", "fieldgp.experiments", "run_real_data", None, None),
    ("experiments.load_field_csv", "fieldgp.experiments", "load_field_csv", None, None),
    ("experiments.emit_report", "fieldgp.experiments", "emit_report", None, None),
    ("operators.construct_g", "fieldgp.operators", "construct_g", None, None),
    ("gp.fit_hyperparameters", "fieldgp.gp", "fit_hyperparameters", _fit_evals, None),
    ("gp.fit_gp", "fieldgp.gp", "fit_gp", None, _fit_gp_failed),
    ("gp.log_marginal_likelihood", "fieldgp.gp", "log_marginal_likelihood", None, None),
    ("gp.assemble_gram", "fieldgp.gp", "assemble_gram", _nbytes, None),
    ("gp.cross_gram", "fieldgp.gp", "cross_gram", _nbytes, None),
    ("gp.cholesky_jitter", "fieldgp.gp", "cholesky_jitter", _cholesky, _cholesky),
    ("gp.predict", "fieldgp.gp", "predict", _points, None),
    ("baseline.augment", "fieldgp.baseline", "augment", _joint_dim, None),
    ("baseline.predict_augmented", "fieldgp.baseline", "predict_augmented", _points, None),
    ("kernels.expr", "fieldgp.kernels", "MatrixKernelExpr.eval_pairwise", _expr_pairs, None),
    ("kernels.diagonal", "fieldgp.kernels", "DiagonalKernel.eval_pairwise", _pairs, None),
    ("kernels.curl_free", "fieldgp.kernels", "CurlFreeKernel.eval_pairwise", _pairs, None),
    ("kernels.sum", "fieldgp.kernels", "SumKernel.eval_pairwise", _pairs, None),
)

# counters every run reports, zero where the layer did no work
COUNTERS = ("kernels.expr.pairs", "kernels.expr.terms", "kernels.diagonal.pairs",
            "kernels.curl_free.pairs", "kernels.sum.pairs",
            "gp.assemble_gram.bytes", "gp.cross_gram.bytes",
            "gp.cholesky_jitter.flops", "gp.cholesky_jitter.escalations",
            "gp.fit_hyperparameters.evals", "gp.fit_hyperparameters.discarded",
            "gp.predict.points", "baseline.augment.joint_dim_max",
            "baseline.predict_augmented.points")

SPAN_NAMES = tuple(dict.fromkeys(t[0] for t in TARGETS))


class Tracer:
    """In-memory spans and counters for one traced benchmark run."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1, run id]
        self.counters = defaultdict(dict)   # run id -> {"span.counter": value}
        self.run_id = 0
        self._stack = []

    def parent_name(self):
        # called from a span's own hook, so the parent sits one below the top
        if len(self._stack) < 2:
            return None
        return self.spans[self._stack[-2]][0]

    def _count(self, values):
        bucket = self.counters[self.run_id]
        for key, value in values.items():
            if key.endswith("_max"):
                bucket[key] = max(bucket.get(key, 0), value)
            else:
                bucket[key] = bucket.get(key, 0) + value

    def _call(self, name, fn, on_result, on_error, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, perf_counter(), None, parent, self.run_id]
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span[2] = perf_counter()
            if on_error is not None:
                self._count(on_error(self, name, args, None))
            self._stack.pop()
            raise
        span[2] = perf_counter()
        if on_result is not None:
            self._count(on_result(self, name, args, result))
        self._stack.pop()
        return result

    def _wrap(self, name, fn, on_result, on_error):
        def traced(*args, **kwargs):
            return self._call(name, fn, on_result, on_error, args, kwargs)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target while the block runs; restore the originals after."""
        restore = []
        try:
            for name, module_name, attr, on_result, on_error in TARGETS:
                module = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[meth]
                    restore.append((owner, meth, original))
                    setattr(owner, meth, self._wrap(name, original, on_result, on_error))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original, on_result, on_error)
                for binder in _fieldgp_modules():
                    for key, value in list(vars(binder).items()):
                        if value is original:
                            restore.append((binder, key, original))
                            setattr(binder, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(restore):
                setattr(owner, key, original)

    def layer_values(self, run_id):
        """Flat {metric name: value} for one run id: span calls/s/self_s and counters."""
        values = {}
        for name in SPAN_NAMES:
            values.update({f"{name}.calls": 0, f"{name}.s": 0.0, f"{name}.self_s": 0.0})
        child_time = defaultdict(float)
        for name, start, end, parent, rid in self.spans:
            if rid == run_id and parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent, rid) in enumerate(self.spans):
            if rid != run_id:
                continue
            duration = end - start
            values[f"{name}.calls"] += 1
            values[f"{name}.s"] += duration
            values[f"{name}.self_s"] += duration - child_time[index]
        values.update(dict.fromkeys(COUNTERS, 0))
        values.update(self.counters.get(run_id, {}))
        return values

    def dump(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for name, start, end, parent, rid in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": rid}) + "\n")


def _fieldgp_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "fieldgp" or n.startswith("fieldgp."))]
