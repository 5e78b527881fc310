"""Objective functions: smooth least-squares loss and its l0-regularized sum.

Both objectives are Phi = f + g with f = 1/2 ||b - A x||^2.  They expose
`value` and `residual`, where `residual(x)` is the distance from zero to
the (sub)differential at x.  For the l0 objective this has a closed form:
the norm of the smooth gradient restricted to the support of x, because
zero coordinates of the counting regularizer contribute the whole real
line to the subdifferential.  `grad` (of f) and `prox` (of g) are what a
proximal-gradient step needs; `lipschitz` is the gradient-Lipschitz
constant of f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Protocol, runtime_checkable

import numpy as np

from .linalg import as_matrix, as_vector, matvec, spectral_norm_sq, transpose_matvec


@runtime_checkable
class Objective(Protocol):
    """Behavior contract shared by all objectives."""

    is_smooth: bool
    lipschitz: float

    def value(self, x: np.ndarray) -> float: ...

    def residual(self, x: np.ndarray) -> float: ...

    def grad(self, x: np.ndarray) -> np.ndarray: ...

    def prox(self, z: np.ndarray, h: float) -> np.ndarray: ...

    def support_mask(self, x: np.ndarray) -> Optional[np.ndarray]:
        """Boolean mask of the support of x; None when the objective is smooth."""
        ...


def hard_threshold(t, lam: float, h: float):
    """Keep t where |t| >= sqrt(2*lam/h), zero it otherwise.

    This is the prox of (lam/h) * (number of nonzeros).  The boundary is
    kept.  Works elementwise on arrays and on scalars.
    """
    if not lam > 0:
        raise ValueError("lam must be positive")
    if not h > 0:
        raise ValueError("h must be positive")
    thresh = math.sqrt(2.0 * lam / h)
    if np.isscalar(t):
        return t if abs(t) >= thresh else 0.0
    t = np.asarray(t, dtype=np.float64)
    return np.where(np.abs(t) >= thresh, t, 0.0)


def support(x: np.ndarray, zero_tol: float = 0.0) -> np.ndarray:
    """Indices i with |x_i| > zero_tol (0-based, sorted).

    The default exact-zero test is correct for iterates produced by hard
    thresholding, which writes exact zeros; pass a positive tolerance for
    externally loaded vectors.
    """
    if zero_tol < 0:
        raise ValueError("zero_tol must be nonnegative")
    return np.flatnonzero(np.abs(x) > zero_tol)


@dataclass(frozen=True)
class SmoothQuadratic:
    """f(x) = 1/2 ||b - A x||^2 with a cached gradient-Lipschitz constant."""

    A: np.ndarray
    b: np.ndarray
    lipschitz: float
    is_smooth: bool = field(default=True, init=False)

    @classmethod
    def from_data(cls, A, b) -> "SmoothQuadratic":
        A = as_matrix(A)
        b = as_vector(b)
        if A.shape[0] != b.shape[0]:
            raise ValueError(f"A has {A.shape[0]} rows but b has length {b.shape[0]}")
        return cls(A=A, b=b, lipschitz=spectral_norm_sq(A))

    def value(self, x: np.ndarray) -> float:
        r = self.b - matvec(self.A, x)
        return 0.5 * float(r @ r)

    def grad(self, x: np.ndarray) -> np.ndarray:
        return transpose_matvec(self.A, matvec(self.A, x) - self.b)

    def residual(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(self.grad(x)))

    def prox(self, z: np.ndarray, h: float) -> np.ndarray:
        """The prox of the zero regularizer: the identity."""
        return z

    def support_mask(self, x: np.ndarray) -> None:
        return None


@dataclass(frozen=True)
class L0LeastSquares:
    """1/2 ||b - A x||^2 + lam * (number of nonzero entries of x)."""

    quad: SmoothQuadratic
    lam: float
    zero_tol: float = 0.0
    is_smooth: bool = field(default=False, init=False)

    def __post_init__(self):
        if not (self.lam > 0 and np.isfinite(self.lam)):
            raise ValueError("lam must be positive and finite")
        if self.zero_tol < 0:
            raise ValueError("zero_tol must be nonnegative")

    @property
    def lipschitz(self) -> float:
        return self.quad.lipschitz

    def value(self, x: np.ndarray) -> float:
        return self.quad.value(x) + self.lam * int(np.count_nonzero(self.support_mask(x)))

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self.quad.grad(x)

    def prox(self, z: np.ndarray, h: float) -> np.ndarray:
        return hard_threshold(z, self.lam, h)

    def support_mask(self, x: np.ndarray) -> np.ndarray:
        return np.abs(x) > self.zero_tol

    def residual(self, x: np.ndarray) -> float:
        mask = self.support_mask(x)
        if not mask.any():
            return 0.0
        g = self.quad.grad(x)
        return float(np.linalg.norm(g[mask]))
