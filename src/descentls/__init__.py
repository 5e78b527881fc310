"""Nonconvex descent with capped Armijo extrapolation over one
forward-backward step, which is gradient descent on the least-squares
loss and iterative hard thresholding on l0-regularized least squares,
with runtime verification of the decrease and residual inequalities the
method is built on.
"""

from .diagnostics import (
    CheckReport,
    DerivedConstants,
    check_cauchy,
    check_residual_bound,
    check_sufficient_decrease,
    check_support,
    run_diagnostics,
    summarize,
)
from .driver import (
    ARMIJO_FAILED,
    IterationRecord,
    LineSearchParams,
    RunTrace,
    StopCriteria,
    StopReason,
    armijo_search,
    iterations_to_tolerance,
    read_trace_records,
    run,
    run_plain,
    write_trace,
)
from .instances import InstanceSpec, SeededStream, generate_instance
from .linalg import (
    DimensionMismatch,
    load_matrix,
    load_vector,
    matvec,
    save_matrix,
    save_vector,
    spectral_norm_sq,
    transpose_matvec,
)
from .objectives import L0LeastSquares, Objective, SmoothQuadratic, hard_threshold
from .steps import IHTStep, ProxGradientStep

__version__ = "0.1.0"
