"""Gaussian-process regression with linear-operator constraints.

Known constraints of the form "operator applied to the field is zero"
(divergence-free flows, curl-free magnetic fields, linear relations
between outputs) are compiled into a multi-output covariance function by
constructing an annihilating operator matrix, so every prior sample and
posterior prediction satisfies the constraint at every point.  A
pseudo-observation baseline and benchmark harnesses for simulated and
CSV data round out the package.
"""

from .baseline import augment, predict_augmented
from .experiments import (ExperimentConfig, FieldErrorTable, RmseReport, RmseRow,
                          emit_report, load_field_csv, parse_rmse_csv,
                          prediction_grid, rmse, run_real_data, run_simulated,
                          simulated_field, synthetic_curl_free_field,
                          write_field_csv)
from .gp import (Dataset, FitResult, GpModel, NotPositiveDefinite, ObservationBlock,
                 OptConfig, PredictionResult, assemble_gram, cholesky_jitter,
                 cross_gram, fit_gp, fit_hyperparameters, log_marginal_likelihood,
                 predict)
from .kernels import (CurlFreeKernel, DiagonalKernel, MatrixKernelExpr, SeHyperparams,
                      SumKernel, apply_operator_to_expr, covariance_operator, field_family,
                      kernel_family_from_spec, se_derivative, se_eval, transform_kernel)
from .operators import (DimensionMismatch, NoAnnihilatorFound, OperatorMatrix, OperatorPoly,
                        build_ansatz_system, construct_g, make_curl_operator_3d,
                        make_divergence_operator, monomials_of_degree, nullspace,
                        symbolic_product)

__version__ = "0.1.0"
