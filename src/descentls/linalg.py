"""Dense linear-algebra kernels shared by the solvers.

Vectors and matrices are plain float64 numpy arrays; the helpers here
validate shapes/finiteness and provide the handful of operations the
solvers need, including the exact ||A||^2 that sets step sizes.
"""

from __future__ import annotations

import math

import numpy as np

# Multiplicative margin on ||A||^2 so that step-size conditions of the
# form h > ||A||^2 survive eigensolver rounding.
SPECTRAL_SAFETY = 1.001


class DimensionMismatch(ValueError):
    """Operand shapes are incompatible."""


def as_vector(values) -> np.ndarray:
    """Validate and return a finite 1-D float64 array of length >= 1."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"expected a 1-D vector with at least one entry, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def as_matrix(values) -> np.ndarray:
    """Validate and return a finite 2-D float64 array with rows, cols >= 1."""
    a = np.asarray(values, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def norm(v: np.ndarray) -> float:
    """Return the Euclidean norm of a 1-D real vector, 0.0 when it is empty.

    Bit for bit what `np.linalg.norm(v)` computes for such a vector,
    sqrt(v . v) by one BLAS dot, with less dispatch around it.  Like it,
    the sum of squares overflows to inf or underflows to 0.0 unscaled.
    Exact for contiguous `v`, as every vector the solvers build is.
    """
    return math.sqrt(v.dot(v))


def matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Return A @ x, checking the inner dimension.

    `a.dot(x)` calls the same BLAS gemv as `a @ x` and gives the same bits
    for C- or F-contiguous `a`, with less dispatch around the call.  A
    strided view of `a` may round differently under the two forms; no
    solver builds one.
    """
    if a.shape[1] != x.shape[0]:
        raise DimensionMismatch(f"matvec: matrix has {a.shape[1]} columns, vector has length {x.shape[0]}")
    return a.dot(x)


def transpose_matvec(a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Return A.T @ r, checking the inner dimension; `dot` as in `matvec`."""
    if a.shape[0] != r.shape[0]:
        raise DimensionMismatch(f"transpose_matvec: matrix has {a.shape[0]} rows, vector has length {r.shape[0]}")
    return a.T.dot(r)


def spectral_norm_sq(a: np.ndarray) -> float:
    """Return ||A||_2^2 = lambda_max(A.T A), inflated by SPECTRAL_SAFETY.

    Exact: the largest eigenvalue of the smaller Gram matrix, A A.T when
    m <= n and A.T A otherwise, which share their nonzero eigenvalues.
    The safety factor absorbs eigensolver rounding, so the strict step-size
    condition h > ||A||^2 holds against the true value.  Costs O(k^3) time
    and k^2 memory for k = min(m, n).  A zero matrix yields 0.0.
    """
    a = as_matrix(a)
    gram = a @ a.T if a.shape[0] <= a.shape[1] else a.T @ a
    return SPECTRAL_SAFETY * float(np.linalg.eigvalsh(gram)[-1])


_FMT = "%.17g"


def save_vector(x: np.ndarray, path) -> None:
    """Write a vector as single-column CSV, 17 significant digits."""
    np.savetxt(path, as_vector(x), fmt=_FMT)


def save_matrix(a: np.ndarray, path) -> None:
    """Write a matrix as comma-separated CSV, one row per line."""
    np.savetxt(path, as_matrix(a), fmt=_FMT, delimiter=",")


def load_vector(path) -> np.ndarray:
    """Read a single-column CSV vector (no header)."""
    return as_vector(np.loadtxt(path, delimiter=",", ndmin=1))


def load_matrix(path) -> np.ndarray:
    """Read a comma-separated CSV matrix (no header)."""
    return as_matrix(np.loadtxt(path, delimiter=",", ndmin=2))
