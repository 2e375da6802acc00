"""Run one fieldgp benchmark workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload sim_div2d --seed 1 --seconds 35 --trace 0

The run makes the workload's inputs from the seed and calls
``fieldgp.cli.main`` the way a user runs the CLI, again and again while
another call fits in ``--seconds``.  Times are means over the calls: on
a shared machine CPU speed drifts in phases of tens of seconds, and the
mean averages the phases a run spans where the median picks one of
them.  Set-up is timed in fresh interpreters before and after the calls
and is the least of its samples: host load only ever adds to an import.
With ``--trace 1`` it skips the set-up samples, alternates plain and
traced calls and reports the per-layer metrics instead.  Every call's output is checked.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with the metrics
BENCHMARK.json lists for the mode.  Inputs, outputs, the environment and
the spans go to ``.perfbench_out/<workload>-seed<seed>-trace<t>/``.
"""

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean, median

# BLAS is single-threaded, set before numpy loads: steadier on a small
# shared machine than one thread per core, and the plain single-threaded
# baseline a parallel change would be compared with.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# the benchmark's own modules; verify and workloads load numpy
import verify  # noqa: E402
from setup_probe import load_inputs  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 6          # fresh interpreters before the calls, and as many after


@dataclass
class Call:
    exit_code: int
    wall_s: float
    rows: list | None
    parse_error: str | None = None


def pipeline_call(cli, parse_rmse_csv, inputs, out_dir):
    """One CLI run, timed as a whole; its report is parsed after the clock stops."""
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(inputs.argv(str(out_dir)))
    wall = time.perf_counter() - t0
    try:
        rows, error = parse_rmse_csv(out_dir / "rmse.csv"), None
    except (OSError, ValueError, IndexError, StopIteration) as exc:
        rows, error = None, repr(exc)
    return Call(code, wall, rows, error)


def setup_times(inputs):
    """Set-up seconds measured in SETUP_SAMPLES fresh interpreters."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
           inputs.config_path, inputs.workload.constraint]
    if inputs.csv_path is not None:
        cmd.append(inputs.csv_path)
    times = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def _fits(start, seconds, durations):
    """Whether one more step of the median duration ends within the run's seconds."""
    return time.perf_counter() - start + median(durations) <= seconds


def plain_run(cli, parse_rmse_csv, inputs, work, seconds):
    calls = []
    start = time.perf_counter()
    while not calls or _fits(start, seconds, [c.wall_s for c in calls]):
        calls.append(pipeline_call(cli, parse_rmse_csv, inputs, work / f"call{len(calls)}"))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"wall_s": fmean(c.wall_s for c in calls), "peak_rss_mb": peak_rss_mb}
    samples = {"wall_s": len(calls), "peak_rss_mb": 1}
    expected = inputs.expected_keys()
    summaries = [verify.method_summary(c.rows, inputs.workload.primary) for c in calls
                 if c.rows is not None and [(r.method, r.nc) for r in c.rows] == expected]
    for key in summaries[0] if summaries else ():
        values[key] = fmean(s[key] for s in summaries)
        samples[key] = len(summaries)
    return calls, values, samples


def traced_run(fieldgp, cli, parse_rmse_csv, inputs, work, seconds):
    tracer = Tracer()
    calls, plain, traced, layers = [], [], [], []
    start = time.perf_counter()
    while not traced or _fits(start, seconds, [p + t for p, t in zip(plain, traced)]):
        call = pipeline_call(cli, parse_rmse_csv, inputs, work / f"call{len(calls)}")
        calls.append(call)
        plain.append(call.wall_s)
        tracer.run_id = len(traced)
        with tracer.installed():
            load_inputs(fieldgp, inputs.config_path, inputs.workload.constraint,
                        inputs.csv_path)
            call = pipeline_call(cli, parse_rmse_csv, inputs, work / f"call{len(calls)}")
        calls.append(call)
        traced.append(call.wall_s)
        layers.append(tracer.layer_values(tracer.run_id))
    values = {key: fmean(layer[key] for layer in layers) for key in layers[0]}
    values["trace.overhead_s"] = fmean(traced) - fmean(plain)
    samples = {key: len(layers) for key in values}
    tracer.dump(work / "spans.jsonl")
    return calls, values, samples


def environment(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(numpy),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def _git_commit():
    """HEAD of the checkout, or None where it is not a git repository."""
    # the ceiling keeps git from looking for a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest():
    """SHA-256 over the program's sources, which identifies it without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "fieldgp").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas_threads(numpy):
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fieldgp" / "__init__.py").is_file():
        print(f"run.py: no fieldgp sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import fieldgp
    from fieldgp import cli, parse_rmse_csv

    if Path(fieldgp.__file__).resolve().parent != (SRC / "fieldgp").resolve():
        print(f"run.py: imported fieldgp from {fieldgp.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = OUT_ROOT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = make_inputs(workload, args.seed, str(work))

    setup = []
    if args.trace:
        calls, values, samples = traced_run(fieldgp, cli, parse_rmse_csv, inputs,
                                            work, args.seconds)
        kind = "per_layer"
    else:
        # CPU speed drifts in phases; the least sample over two phases
        # a run apart is steadier than over one
        setup = setup_times(inputs)
        calls, values, samples = plain_run(cli, parse_rmse_csv, inputs, work,
                                           args.seconds)
        setup += setup_times(inputs)
        values["setup_s"] = min(setup)
        samples["setup_s"] = len(setup)
        kind = "end_to_end"

    problems, reference_basis = verify.check_calls(inputs, calls)
    residual, probe_problems = verify.constraint_residual(inputs)
    problems += probe_problems
    values.update({f"checks.residual.{k}": v for k, v in residual.items()})

    attempted = inputs.attempts_per_call() * len(calls)
    completed = sum(r.n_ok for c in calls if c.rows is not None for r in c.rows)
    for problem in problems:
        print(f"run.py: check failed: {problem}", file=sys.stderr)
    missing = [m["name"] for m in spec[kind] if m["name"] not in values]
    if missing:
        print(f"run.py: no value for {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[kind]}
    result = {"correct": not problems, "attempted": attempted,
              "failed": attempted - completed, "metrics": metrics}

    record = {"workload": workload.name, "trace": args.trace, "calls": len(calls),
              "call_wall_s": [c.wall_s for c in calls], "setup_samples_s": setup,
              "environment": environment(args.seed), "problems": problems,
              "rmse_checked_against": reference_basis,
              "values": values, "samples": samples, "result": result}
    (work / "results.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"{workload.name} seed={args.seed} trace={args.trace} calls={len(calls)} "
          f"rmse_checked_against={reference_basis} "
          f"environment={json.dumps(record['environment'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
