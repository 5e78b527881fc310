"""Objective functions: smooth least-squares loss and its l0-regularized sum.

Both objectives are Phi = f + g with f = 1/2 ||b - A x||^2.  They expose
`value` and `residual`, where `residual(x)` is the distance from zero to
the (sub)differential at x.  For the l0 objective this has a closed form:
the norm of the smooth gradient restricted to the support of x, because
zero coordinates of the counting regularizer contribute the whole real
line to the subdifferential.  `residual_from_grad(g, mask)` is the same
quantity from a gradient and support mask the caller already holds.
`grad` (of f) and `prox` (of g) are what a proximal-gradient step needs;
`lipschitz` is the gradient-Lipschitz constant of f, and `nu(h)` is the
sufficient-decrease constant of that step with parameter h, positive
exactly for the admissible h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Protocol

import numpy as np

from .linalg import as_matrix, as_vector, matvec, norm, spectral_norm_sq, transpose_matvec


class Objective(Protocol):
    """Behavior contract shared by all objectives.

    Cost in products with A: `value` makes one with A, `grad` one with A
    and one with A.T, `residual` calls `grad`, and `residual_from_grad`,
    `prox`, `nu` and `support_mask` make none.  A solver iteration
    therefore costs 3 products with A and 1 with A.T without the search,
    and 3 + trials with A and 1 with A.T with it (see `driver`).
    """

    is_smooth: bool
    lipschitz: float

    def value(self, x: np.ndarray) -> float: ...

    def residual(self, x: np.ndarray) -> float: ...

    def residual_from_grad(self, g: np.ndarray, mask: Optional[np.ndarray]) -> float:
        """`residual(x)` given g = grad(x) and mask = support_mask(x); no product with A."""
        ...

    def grad(self, x: np.ndarray) -> np.ndarray: ...

    def prox(self, z: np.ndarray, h: float) -> np.ndarray: ...

    def nu(self, h: float) -> float:
        """Decrease constant of a prox-gradient step with parameter h."""
        ...

    def support_mask(self, x: np.ndarray) -> Optional[np.ndarray]:
        """Boolean mask of the support of x; None when the objective is smooth."""
        ...


def hard_threshold(t, lam: float, h: float):
    """Keep t where |t| >= sqrt(2*lam/h), zero it otherwise.

    This is the prox of (lam/h) * (number of nonzeros).  The boundary is
    kept, and zeroed entries are +0.0.  Works elementwise: a float64 array
    gives a float64 array of its shape, and a Python float gives a 0-d
    float64 array, which compares equal to the float it stands for.
    """
    if not lam > 0:
        raise ValueError("lam must be positive")
    if not h > 0:
        raise ValueError("h must be positive")
    return np.where(np.abs(t) >= math.sqrt(2.0 * lam / h), t, 0.0)


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
        return 0.5 * float(r.dot(r))

    def grad(self, x: np.ndarray) -> np.ndarray:
        return transpose_matvec(self.A, matvec(self.A, x) - self.b)

    def residual(self, x: np.ndarray) -> float:
        return self.residual_from_grad(self.grad(x), None)

    def residual_from_grad(self, g: np.ndarray, mask: None) -> float:
        return norm(g)

    def prox(self, z: np.ndarray, h: float) -> np.ndarray:
        """The prox of the zero regularizer: the identity."""
        return z

    def nu(self, h: float) -> float:
        """h - L/2, from the descent lemma; admits h > L/2."""
        return h - self.lipschitz / 2.0

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
        if not (self.zero_tol >= 0 and math.isfinite(self.zero_tol)):
            raise ValueError("zero_tol must be nonnegative and finite")

    @property
    def lipschitz(self) -> float:
        return self.quad.lipschitz

    def value(self, x: np.ndarray) -> float:
        # At zero_tol == 0 the support is the nonzero entries, which
        # count_nonzero counts without building the mask.
        support = x if self.zero_tol == 0.0 else self.support_mask(x)
        return self.quad.value(x) + self.lam * int(np.count_nonzero(support))

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self.quad.grad(x)

    def prox(self, z: np.ndarray, h: float) -> np.ndarray:
        return hard_threshold(z, self.lam, h)

    def nu(self, h: float) -> float:
        """(h - L)/2, the forward-backward constant for a nonconvex prox; admits h > L."""
        return (h - self.lipschitz) / 2.0

    def support_mask(self, x: np.ndarray) -> np.ndarray:
        """|x_i| > zero_tol.

        The default exact-zero test suits iterates of hard thresholding, which
        writes exact zeros; a positive tolerance suits externally loaded vectors.
        """
        return np.abs(x) > self.zero_tol

    def residual(self, x: np.ndarray) -> float:
        return self.residual_from_grad(self.grad(x), self.support_mask(x))

    def residual_from_grad(self, g: np.ndarray, mask: np.ndarray) -> float:
        """The norm of g on the support; 0.0 on an empty support."""
        return norm(g[mask])
