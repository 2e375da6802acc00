"""Time a user's set-up in a fresh interpreter and print it in seconds.

Set-up is importing fieldgp and loading the workload's inputs with the
program's own loaders: ``ExperimentConfig.load``, ``load_field_csv`` and
``construct_g`` for the workload's constraint.

Usage: python3 setup_probe.py SRC_DIR CONFIG CONSTRAINT [FIELD_CSV]
"""

import sys
import time


def load_inputs(fieldgp, config_path, constraint, csv_path=None):
    """Load a workload's inputs the way a user's script would."""
    fieldgp.ExperimentConfig.load(config_path)
    if csv_path is not None:
        fieldgp.load_field_csv(csv_path)
    if constraint == "div2d":
        fieldgp.construct_g(fieldgp.make_divergence_operator(2))
    else:
        fieldgp.construct_g(fieldgp.make_curl_operator_3d())


def main(src_dir, config_path, constraint, csv_path=None):
    t0 = time.perf_counter()
    sys.path.insert(0, src_dir)
    import fieldgp

    load_inputs(fieldgp, config_path, constraint, csv_path)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(*sys.argv[1:])
