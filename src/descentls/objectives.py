"""Objective functions: smooth least-squares loss and its l0-regularized sum.

Both objectives are Phi = f + g with f = 1/2 ||b - A x||^2.  They expose
`value` and `residual_from_grad(g, mask)`, the distance from zero to the
(sub)differential at x given g = grad(x) and mask = support_mask(x).  For
the l0 objective this has a closed form: the norm of the smooth gradient
restricted to the support of x, because zero coordinates of the counting
regularizer contribute the whole real line to the subdifferential.  That
needs the count to jump at every zero, so the support is the exact
nonzeros x_i != 0, with no tolerance: a count of |x_i| > tol is locally
constant on |x_i| <= tol, where the subdifferential is g_i alone, and the
hard-threshold prox and the decrease constant nu(h) below are derived for
the exact count too.
`grad` (of f) and `prox` (of g) are what a proximal-gradient step needs;
`lipschitz` is the gradient-Lipschitz constant of f, and `nu(h)` is the
sufficient-decrease constant of that step with parameter h, positive
exactly for the admissible h.  `support_mask(x)` is the support of x, or
None for the smooth objective, which has no support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Protocol

import numpy as np

from .linalg import DimensionMismatch, as_matrix, as_vector, matvec, norm, spectral_norm_sq, transpose_matvec


class Objective(Protocol):
    """Behavior contract shared by all objectives.

    Cost in products with A: `value` makes at most one with A, `grad` at
    most one with A and one with A.T, and `residual_from_grad`, `prox`,
    `nu` and `support_mask` make none.  A call on the last call's point
    makes no product with A (the memo of `SmoothQuadratic`).  `driver`
    states what a solver iteration costs.

    An objective has a support exactly when `support_mask` returns a mask,
    not None; the solve loop and the diagnostics both ask it.
    """

    lipschitz: float

    def value(self, x: np.ndarray) -> float: ...

    def residual_from_grad(self, g: np.ndarray, mask: Optional[np.ndarray]) -> float:
        """dist(0, dPhi(x)) given g = grad(x) and mask = support_mask(x); no product with A."""
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
    """f(x) = 1/2 ||b - A x||^2 with a cached gradient-Lipschitz constant.

    `value` and `grad` share a one-entry memo of the last point x: its key
    (the dtype, shape and bytes of x), the residual e = A x - b and
    f(x) = 1/2 e.e, all set together when a call misses.  An x that is
    not a numpy array is a TypeError, and a miss rejects an x that is not
    1-D before any product.  A call whose x has the last call's key makes
    no product: `value` returns the stored f, which costs only the key
    comparison, and `grad` returns A.T e.  The bits are those of fresh
    calls: e is the operand of A.T e either way, and
    e_i = -(b - A x)_i exactly, so e.e is the BLAS dot of the same squares
    as r.r with r = b - A x.  Mutating x in place changes its bytes, so it
    misses, and `dataclasses.replace` starts an empty memo.
    `A` and `b` must not be mutated after construction; `lipschitz` and
    the memo both assume that.
    """

    A: np.ndarray
    b: np.ndarray
    lipschitz: float
    # [key, e, f], replaced whole by one slice assignment.  A list, which a
    # miss (every Armijo trial) sets about 0.2 us faster than
    # object.__setattr__ sets a frozen field.
    _memo: list = field(default_factory=lambda: [None, None, None], init=False, compare=False, repr=False)

    @classmethod
    def from_data(cls, A, b, lipschitz: Optional[float] = None) -> "SmoothQuadratic":
        """Validate `A` and `b`; `lipschitz` is `spectral_norm_sq(A)`, computed
        here unless the caller already holds it (as `load_matrix` returns it)."""
        A = as_matrix(A)
        b = as_vector(b)
        if A.shape[0] != b.shape[0]:
            raise ValueError(f"A has {A.shape[0]} rows but b has length {b.shape[0]}")
        return cls(A=A, b=b, lipschitz=spectral_norm_sq(A) if lipschitz is None else lipschitz)

    def _entry(self, x: np.ndarray) -> list:
        """The memo entry [key, A x - b, f(x)] of x, made afresh on a miss."""
        try:
            key = (x.tobytes(), x.dtype, x.shape)
        except AttributeError:
            raise TypeError(f"x must be a numpy array, got {type(x).__name__}") from None
        memo = self._memo
        if key != memo[0]:
            if x.ndim != 1:
                raise DimensionMismatch(f"x must be a 1-D vector, got shape {x.shape}")
            e = matvec(self.A, x) - self.b
            memo[:] = key, e, 0.5 * float(e.dot(e))
        return memo

    def value(self, x: np.ndarray) -> float:
        return self._entry(x)[2]

    def grad(self, x: np.ndarray) -> np.ndarray:
        return transpose_matvec(self.A, self._entry(x)[1])

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
    # Only perfbench's tracing.instrument reads this field; it admits only
    # 0.0, the exact support, and goes once the benchmark stops copying it.
    zero_tol: float = 0.0

    def __post_init__(self):
        if not (self.lam > 0 and np.isfinite(self.lam)):
            raise ValueError("lam must be positive and finite")
        if self.zero_tol != 0.0:
            raise ValueError(f"zero_tol must be 0.0, got {self.zero_tol!r}")

    @property
    def lipschitz(self) -> float:
        return self.quad.lipschitz

    def value(self, x: np.ndarray) -> float:
        return self.quad.value(x) + self.lam * int(np.count_nonzero(x))

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self.quad.grad(x)

    def prox(self, z: np.ndarray, h: float) -> np.ndarray:
        return hard_threshold(z, self.lam, h)

    def nu(self, h: float) -> float:
        """(h - L)/2, the forward-backward constant for a nonconvex prox; admits h > L."""
        return (h - self.lipschitz) / 2.0

    def support_mask(self, x: np.ndarray) -> np.ndarray:
        """x_i != 0: a NaN entry is support, as `value` counts it, and -0.0 is not."""
        return x != 0.0

    def residual_from_grad(self, g: np.ndarray, mask: np.ndarray) -> float:
        """The norm of g on the support; 0.0 on an empty support."""
        return norm(g[mask])
