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

# The support-column rule of `SmoothQuadratic` (see its docstring).
GATHER_MIN_ENTRIES = 1 << 19
GATHER_COLS_PER_NONZERO = 10
# The largest support whose gradient sums cached Gram columns (see `SmoothQuadratic`).
GRAM_MAX_SUPPORT = 32


class Objective(Protocol):
    """Behavior contract shared by all objectives.

    Cost in products with A, per call: `value` makes at most one with A.
    `grad` makes at most one with A, and with A.T either one (A.T e) or, in
    the Gram-column form of `SmoothQuadratic`, one per support column not
    cached plus one for A^T b on the objective's first such call: at most
    1 + min(GRAM_MAX_SUPPORT, m) for an A of m rows.  `residual_from_grad`,
    `prox`, `nu` and `support_mask` make none.  A call on the last call's
    point makes no product with A.  A product with A.T reads all of A; one
    with A reads all of A or, where the support-column rule of
    `SmoothQuadratic` holds, only the |S| columns of the support of x: those
    of its kept copy A[:, S] when that copy is of the same support, else
    those of A, copied.  `driver` states what a run costs.

    An objective has a support exactly when `support_mask` returns a mask,
    not None; the solve loop and the diagnostics both ask it.  Such an
    objective also states the hard-threshold level `threshold(h)` of its prox.
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


@dataclass(frozen=True)
class SmoothQuadratic:
    """f(x) = 1/2 ||b - A x||^2 with a cached gradient-Lipschitz constant.

    It reuses work in four ways, and none makes a result depend on what
    the objective computed before: each result is a function of x alone.

    The memo: `value` and `grad` share the last point's key (the dtype,
    shape and bytes of x), its residual e = A x - b and f(x) = 1/2 e.e, all
    set together when a call misses.  A call whose x has the last call's
    key makes no product with A: `value` returns the stored f, and `grad`
    forms the gradient from the stored e.  The bits are those of fresh
    calls: e is the operand of A.T e either way, and e_i = -(b - A x)_i
    exactly, so e.e is the BLAS dot of the same squares as r.r with
    r = b - A x.  Mutating x in place changes its bytes, so it misses, and
    `dataclasses.replace` starts with nothing reused.  An x that is not a
    numpy array is a TypeError, and a miss rejects an x that is not 1-D
    before any product.

    The support-column rule: on a miss, when A has at least
    GATHER_MIN_ENTRIES entries (4 MiB, twice a 2 MiB L2) and the support S
    of an x of length n (x_i != 0, NaN included) has
    GATHER_COLS_PER_NONZERO * |S| <= n, A x is one `matvec` of the columns
    that `A.take` copies with x_S.  Per row the gather reads a 64-byte line
    per column and writes and rereads 8 bytes, against n/8 lines for the
    full product, so they break even at |S| = n/10, README's measured
    crossover.  The product depends only on A's size and x; it differs
    from the full product at the rounding level.

    The kept copy: the gathered columns A[:, S] are kept, keyed by the
    bytes of the indices S, until a miss gathers for another support.  So
    the Armijo trials of a row, whose points share one support, and the
    rows after the support settles multiply one copy, and a copy is made
    only when S differs from that of the last gathered product.  It is the
    copy `A.take` makes, so a kept one changes no bit.  It holds at most
    m * n / GATHER_COLS_PER_NONZERO floats, a tenth of A.

    The Gram-column gradient: where the rule held for x and also
    |S| <= min(GRAM_MAX_SUPPORT, m), grad f(x) = G[:, S] x_S - A^T b with
    G[:, j] = A^T a_j; a larger support takes A.T e.  A column of the
    support that is not cached is built by its own `transpose_matvec` of
    the contiguous column a_j and kept, and A^T b is built on the first
    such call.  The terms x_j G[:, j] are added elementwise in support order
    to a zero vector, and A^T b is subtracted last.  Columns are built one
    at a time because a batched gemm A.T @ A[:, new] rounds every column
    differently from its single-column build, so a trace would depend on
    which columns were built together.  The cache holds at most m columns,
    the bytes of A: a support whose new columns do not fit first drops the
    cached columns outside it, and a dropped column is built again when its
    index returns.  A build costs about one A.T e, so the form pays only
    while a solve meets fewer distinct support indices than it makes
    gradients; README's "Costs" gives the measurements behind
    GRAM_MAX_SUPPORT.  The rounding error of this gradient scales with
    ||A^T b|| (its two terms cancel near a fit), not with ||e|| as that of
    A.T e does; a slack derived for the residual checks (ROADMAP item 9)
    must carry that term.

    `A` and `b` must not be mutated after construction; `lipschitz`, the
    memo, the kept copy and the column cache all assume that.
    """

    A: np.ndarray
    b: np.ndarray
    lipschitz: float
    # [key, e, f, nz], replaced whole by one slice assignment; nz holds the
    # support indices of x where the support-column rule held, else None.
    # A list, which a miss (every Armijo trial) sets about 0.2 us faster
    # than object.__setattr__ sets a frozen field.
    _memo: list = field(default_factory=lambda: [None, None, None, None], init=False, compare=False, repr=False)
    # [A^T b, {j: G[:, j]}], both built by `grad` on first use.
    _gram: list = field(default_factory=lambda: [None, {}], init=False, compare=False, repr=False)
    # [bytes of the support indices S, A[:, S]], replaced whole when a
    # gathered product meets another support.
    _gathered: list = field(default_factory=lambda: [None, None], init=False, compare=False, repr=False)

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
        """The memo entry [key, A x - b, f(x), support or None] of x, made afresh on a miss."""
        try:
            key = (x.tobytes(), x.dtype, x.shape)
        except AttributeError:
            raise TypeError(f"x must be a numpy array, got {type(x).__name__}") from None
        memo = self._memo
        if key != memo[0]:
            if x.ndim != 1:
                raise DimensionMismatch(f"x must be a 1-D vector, got shape {x.shape}")
            a, nz = self.A, None
            if a.size >= GATHER_MIN_ENTRIES and x.shape[0] == a.shape[1]:
                support = np.flatnonzero(x)
                if GATHER_COLS_PER_NONZERO * support.size <= a.shape[1]:
                    nz, gathered = support, self._gathered
                    if nz.tobytes() != gathered[0]:
                        gathered[:] = nz.tobytes(), a.take(nz, axis=1)
                    a, x = gathered[1], x[nz]
            e = matvec(a, x) - self.b
            memo[:] = key, e, 0.5 * float(e.dot(e)), nz
        return memo

    def value(self, x: np.ndarray) -> float:
        return self._entry(x)[2]

    def grad(self, x: np.ndarray) -> np.ndarray:
        entry = self._entry(x)
        a, nz = self.A, entry[3]
        if nz is None or nz.size > min(GRAM_MAX_SUPPORT, a.shape[0]):
            return transpose_matvec(a, entry[1])
        gram = self._gram
        if gram[0] is None:
            gram[0] = transpose_matvec(a, self.b)
        support = nz.tolist()
        cols = gram[1]
        new = [j for j in support if j not in cols]
        if len(cols) + len(new) > a.shape[0]:
            cols = gram[1] = {j: cols[j] for j in support if j in cols}
        for j in new:
            cols[j] = transpose_matvec(a, np.ascontiguousarray(a[:, j]))
        g = np.zeros(a.shape[1])
        for j, xj in zip(support, x[nz].tolist()):
            g += xj * cols[j]
        g -= gram[0]
        return g

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

    def threshold(self, h: float) -> float:
        """The hard-threshold level sqrt(2*lam/h) of the prox with parameter h > 0."""
        if not h > 0:
            raise ValueError(f"h = {h} must be positive")
        return math.sqrt(2.0 * self.lam / h)

    def prox(self, z: np.ndarray, h: float) -> np.ndarray:
        """Keep z where |z| >= threshold(h), zero it otherwise.

        This is the prox of (lam/h) * (number of nonzeros).  The boundary is
        kept, and zeroed entries are +0.0.  Works elementwise: a float64 array
        gives a float64 array of its shape, and a Python float gives a 0-d
        float64 array, which compares equal to the float it stands for.
        """
        return np.where(np.abs(z) >= self.threshold(h), z, 0.0)

    def nu(self, h: float) -> float:
        """(h - L)/2, the forward-backward constant for a nonconvex prox; admits h > L."""
        return (h - self.lipschitz) / 2.0

    def support_mask(self, x: np.ndarray) -> np.ndarray:
        """x_i != 0: a NaN entry is support, as `value` counts it, and -0.0 is not."""
        return x != 0.0

    def residual_from_grad(self, g: np.ndarray, mask: np.ndarray) -> float:
        """The norm of g on the support; 0.0 on an empty support."""
        return norm(g[mask])
