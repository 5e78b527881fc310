"""Dense linear-algebra kernels shared by the solvers.

Vectors and matrices are plain float64 numpy arrays; the helpers here
validate shapes/finiteness and provide the handful of operations the
solvers need, including a spectral-norm estimate used for step sizes.
"""

from __future__ import annotations

import numpy as np

DEFAULT_POWER_TOL = 1e-10
DEFAULT_POWER_ITERS = 10_000

# Multiplicative margin on the spectral-norm estimate so that step-size
# conditions of the form h > ||A||^2 survive estimation error.
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


def matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Return A @ x, checking the inner dimension."""
    if a.shape[1] != x.shape[0]:
        raise DimensionMismatch(f"matvec: matrix has {a.shape[1]} columns, vector has length {x.shape[0]}")
    return a @ x


def transpose_matvec(a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Return A.T @ r, checking the inner dimension."""
    if a.shape[0] != r.shape[0]:
        raise DimensionMismatch(f"transpose_matvec: matrix has {a.shape[0]} rows, vector has length {r.shape[0]}")
    return a.T @ r


def spectral_norm_sq(
    a: np.ndarray,
    tol: float = DEFAULT_POWER_TOL,
    max_iters: int = DEFAULT_POWER_ITERS,
    safety: float = SPECTRAL_SAFETY,
) -> float:
    """Estimate ||A||_2^2 = lambda_max(A.T A) by power iteration.

    Deterministic all-ones start vector; stops when the Rayleigh quotient
    changes by a relative amount <= tol or after max_iters sweeps.  The
    returned estimate is inflated by `safety` so that consumers relying on
    strict inequalities against ||A||_2^2 are not bitten by estimation
    error.  A zero matrix yields 0.0.

    The largest squared column norm, ||A e_j||^2, is a rigorous lower bound
    on ||A||_2^2.  Raises ValueError when the Rayleigh quotient falls below
    it by more than SPECTRAL_SAFETY, which happens when the start vector is
    (nearly) orthogonal to the top singular vector.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    a = as_matrix(a)
    lower = float(np.einsum("ij,ij->j", a, a).max())
    n = a.shape[1]
    v = np.ones(n) / np.sqrt(n)
    lam = 0.0
    for _ in range(max_iters):
        w = a.T @ (a @ v)
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            break  # v is in the null space of A: lam = 0, which fails the check unless A = 0
        lam_new = float(v @ w)
        v = w / norm_w
        if lam > 0 and abs(lam_new - lam) <= tol * lam_new:
            lam = lam_new
            break
        lam = lam_new
    if SPECTRAL_SAFETY * lam < lower:
        raise ValueError(f"power iteration estimate {lam!r} of ||A||^2 is below the largest "
                         f"squared column norm {lower!r}")
    return safety * lam


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
