"""Run every workload plain and traced, and print every metric by name.

Usage (from the repository root):

    python3 perfbench/report.py [--seed N]

Each workload runs twice for BENCHMARK.json's ``run_seconds``, ``--trace 0``
then ``--trace 1``, each in a fresh ``perfbench/run.py`` process.  One line
is printed per metric: workload, name, value, unit, and the number of
samples it is taken over.  Besides the metrics BENCHMARK.json lists, the
plain run shows ``failed_frac``, ``method_s.<method>`` / ``rmse.<method>``
for each method the workload runs, and the residual probe's
``checks.residual.<model>``.  Exits 1 if a run fails or any output check fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def extra_metrics(values):
    """(name, unit) of the plain run's metrics that BENCHMARK.json does not bound."""
    units = {"method_s.": "s", "rmse.": "field", "checks.residual.": "rel"}
    return [(k, unit) for prefix, unit in units.items()
            for k in sorted(values) if k.startswith(prefix)] + [("failed_frac", "ratio")]


def main(argv=None):
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                print(f"{name} trace={trace}: run.py exited {done.returncode}")
                ok = False
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            record = json.loads((ROOT / ".perfbench_out" / f"{name}-seed{args.seed}"
                                 f"-trace{trace}" / "results.json").read_text())
            values, samples = record["values"], record["samples"]
            shown = [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]
            if not trace:
                values["failed_frac"] = result["failed"] / result["attempted"]
                samples["failed_frac"] = result["attempted"]
                shown += [m for m in extra_metrics(values) if m[0] not in dict(shown)]
            status = "correct" if result["correct"] else "INCORRECT"
            print(f"# {name} trace={trace} seed={args.seed} calls={record['calls']} "
                  f"{status}: {result['failed']} of {result['attempted']} attempts failed; "
                  f"RMSE checked against the {record['rmse_checked_against']} reference")
            for problem in record["problems"]:
                print(f"#   check failed: {problem}")
            ok = ok and result["correct"]
            for key, unit in shown:
                print(f"{name:14s} {key:36s} {values[key]:>16.6g} {unit:6s} "
                      f"n={samples.get(key, 1)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
