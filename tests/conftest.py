import hashlib
import struct
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from descentls import linalg, objectives
from descentls.objectives import SmoothQuadratic


def platform_canary() -> str:
    """Digest of the float64 primitives whose last bits vary with the CPU's
    SIMD level and the BLAS kernel: log, cos, sin and a matrix-vector product.

    Tests that pin platform-dependent bits key their tables by it: x86-64
    with or without AVX-512 loops in numpy, and OpenBLAS Haswell-or-later or
    Sandy Bridge kernels."""
    u = np.random.Generator(np.random.PCG64(0)).random(4096)
    x = np.zeros(64)
    x[::9] = 1.0
    x[::13] = -1.0
    digest = hashlib.sha256()
    for v in (np.log(u), np.cos(2.0 * np.pi * u), np.sin(2.0 * np.pi * u), u.reshape(64, 64) @ x):
        digest.update(v.tobytes())
    return digest.hexdigest()[:16]


def write_v1_twin(twin):
    """Rewrite a matrix twin in the format before it carried ||A||^2: tag
    `DLSF64v1`, rows, cols, sha256 of the CSV, sha256 of the payload alone."""
    data = twin.read_bytes()
    header = linalg._TWIN_HEADER
    _, rows, cols, _, csv_sha, _ = header.unpack(data[:header.size])
    payload = data[header.size:]
    v1_header = struct.pack("<8sQQ32s32s", b"DLSF64v1", rows, cols, csv_sha, hashlib.sha256(payload).digest())
    twin.write_bytes(v1_header + payload)


def base_step(step, x):
    """The base step y = prox(x - grad f(x)/h) from x alone."""
    return step.apply_grad(x, step.prob.grad(x))


def residual_at(obj, x):
    """dist(0, dPhi(x)) from x alone."""
    return obj.residual_from_grad(obj.grad(x), obj.support_mask(x))


def full_formula(quad, name, x):
    """`value` or `grad` of a `SmoothQuadratic` by the formulas, from the
    full product with A and nothing reused: with r = b - A x, f = r.r / 2
    and the gradient A.T (A x - b)."""
    ax = quad.A.dot(x)
    if name == "value":
        r = quad.b - ax
        return 0.5 * float(r.dot(r))
    return quad.A.T.dot(ax - quad.b)


def support_formula(quad, name, x):
    """`value` or `grad` from the support columns alone: with nz the nonzeros
    of x and e = A[:, nz] x[nz] - b, f = e.e / 2, and the gradient
    sum_j x_j G[:, j] - A^T b over j in nz in order, from zero, with each
    G[:, j] = A.T a_j a product of its own.

    The gathered columns are copied to C order, the layout `take` gives:
    `A[:, nz]` is F-ordered, and its product runs another BLAS kernel,
    which rounds differently."""
    nz = np.flatnonzero(x)
    if name == "value":
        e = np.ascontiguousarray(quad.A[:, nz]).dot(x[nz]) - quad.b
        return 0.5 * float(e.dot(e))
    g = np.zeros(quad.A.shape[1])
    for j, xj in zip(nz, x[nz].astype(np.float64)):
        g += xj * quad.A.T.dot(np.ascontiguousarray(quad.A[:, j]))
    return g - quad.A.T.dot(quad.b)


def without_reuse(monkeypatch):
    """Run every `SmoothQuadratic.value` and `grad` call on
    `dataclasses.replace(self)`, a copy whose memo and column cache start
    empty, so that no call reuses what another computed."""
    for name in ("value", "grad"):
        method = getattr(SmoothQuadratic, name)
        monkeypatch.setattr(SmoothQuadratic, name, lambda self, x, method=method: method(replace(self), x))


def by_formula(monkeypatch, formula):
    """Make `SmoothQuadratic.value` and `grad` return `formula(self, name, x)`."""
    for name in ("value", "grad"):
        monkeypatch.setattr(SmoothQuadratic, name, lambda self, x, name=name: formula(self, name, x))


class Call(NamedTuple):
    """One watched call: the method's name, a copy of its x, its result, and
    the products it made and their operands, as `Products.made` and
    `Products.operands` record them."""

    method: str
    x: np.ndarray
    result: object
    products: list
    operands: list

    def count(self, function: str) -> int:
        return sum(name == function for name, _ in self.products)


class Products:
    """Every product with A that `objectives` makes, in order.

    `objectives` looks `matvec` and `transpose_matvec` up as module globals
    at call time, so wrapping them sees each product whatever the objective
    keeps.  `made` holds (function name, columns of A read) per product, and
    `operands` the matrix each multiplied, in the same order: a gathered
    `matvec` reads the |S| columns of the objective's copy A[:, S], any
    other product all n of A.  So what `SmoothQuadratic` reuses shows as
    products that did not happen, or as an operand met before: a memo hit
    is a call that makes no product with A, a cached Gram column a build
    that does not happen, a dropped one a build when its index returns, and
    a kept copy of the support columns the operand of an earlier product."""

    def __init__(self, monkeypatch):
        self.made = []
        self.operands = []
        self.calls = []
        self._monkeypatch = monkeypatch
        for name in ("matvec", "transpose_matvec"):
            monkeypatch.setattr(objectives, name, self._recorded(name, getattr(objectives, name)))

    def _recorded(self, name, product):
        def recorded(a, v):
            self.made.append((name, a.shape[1]))
            self.operands.append(a)
            return product(a, v)
        return recorded

    def count(self, function: str) -> int:
        return sum(name == function for name, _ in self.made)

    def clear(self) -> None:
        self.made.clear()
        self.operands.clear()
        self.calls.clear()

    def watch(self, *methods: str) -> None:
        """Record each call of the named `SmoothQuadratic` methods in `calls`."""
        for name in methods:
            method = getattr(SmoothQuadratic, name)

            def watched(quad, x, name=name, method=method):
                start = len(self.made)
                result = method(quad, x)
                self.calls.append(Call(name, x.copy(), result, self.made[start:], self.operands[start:]))
                return result
            self._monkeypatch.setattr(SmoothQuadratic, name, watched)


@pytest.fixture
def products(monkeypatch):
    """A `Products` that records every product `objectives` makes in the test."""
    return Products(monkeypatch)
