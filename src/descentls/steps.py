"""Base iteration maps x -> y with sufficient-decrease / relative-error certificates.

Each step type carries a `StepCertificate` with constants (nu, beta):
nu bounds the per-step objective decrease from below by nu * ||y - x||^2,
and beta bounds the subdifferential residual at y by beta * ||y - x||.
The constants are standard forward-backward ones; they are verified
empirically by the diagnostics and the test suite rather than trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from .objectives import Objective, SmoothQuadratic

# Default margin for the strict step-size condition h > ||A||^2.
DEFAULT_H_FACTOR = 1.01


@dataclass(frozen=True)
class StepCertificate:
    nu: float
    beta: float

    def __post_init__(self):
        if not (self.nu > 0 and math.isfinite(self.nu)):
            raise ValueError("nu must be positive and finite")
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValueError("beta must be positive and finite")


@runtime_checkable
class BaseStep(Protocol):
    """A deterministic map x -> y with certified decrease/residual constants."""

    def apply(self, x: np.ndarray) -> np.ndarray: ...

    def certificate(self) -> StepCertificate: ...

    def objective(self) -> Objective: ...


@dataclass(frozen=True)
class GradientDescentStep:
    """y = x - tau * grad f(x) on a smooth quadratic."""

    quad: SmoothQuadratic
    tau: float

    def __post_init__(self):
        L = self.quad.lipschitz
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        if L > 0 and not self.tau < 2.0 / L:
            raise ValueError(f"tau must be < 2/L = {2.0 / L} for guaranteed decrease")

    @classmethod
    def default(cls, quad: SmoothQuadratic) -> "GradientDescentStep":
        if quad.lipschitz <= 0:
            raise ValueError("default step size needs a positive Lipschitz constant")
        return cls(quad=quad, tau=1.0 / quad.lipschitz)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return x - self.tau * self.quad.grad(x)

    def certificate(self) -> StepCertificate:
        # Descent-lemma constants for a fixed step tau < 2/L.
        L = self.quad.lipschitz
        return StepCertificate(nu=1.0 / self.tau - L / 2.0, beta=1.0 / self.tau + L)

    def objective(self) -> Objective:
        return self.quad


@dataclass(frozen=True)
class ProxGradientStep:
    """Forward-backward splitting: y = prox[x - (1/h) grad f(x)].

    The objective supplies grad and prox.  On a `SmoothQuadratic` the prox
    is the identity; on `L0LeastSquares` it is hard thresholding at
    sqrt(2*lam/h), which makes this iterative hard thresholding (IHT).
    Requires h strictly above the gradient-Lipschitz constant L of f.
    """

    prob: Objective
    h: float

    def __post_init__(self):
        if not math.isfinite(self.h):
            raise ValueError(f"h = {self.h} must be finite")
        if not self.h > self.prob.lipschitz:
            raise ValueError(f"h = {self.h} must exceed the Lipschitz constant {self.prob.lipschitz}")

    @classmethod
    def default(cls, prob: Objective, h_factor: float = DEFAULT_H_FACTOR) -> "ProxGradientStep":
        if not h_factor > 1:
            raise ValueError("h_factor must be > 1")
        return cls(prob=prob, h=h_factor * prob.lipschitz)

    @property
    def threshold(self) -> float:
        """Hard-threshold level sqrt(2*lam/h); defined for l0 objectives only."""
        return math.sqrt(2.0 * self.prob.lam / self.h)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.prob.prox(x - self.prob.grad(x) / self.h, self.h)

    def certificate(self) -> StepCertificate:
        L = self.prob.lipschitz
        return StepCertificate(nu=(self.h - L) / 2.0, beta=self.h + L)

    def objective(self) -> Objective:
        return self.prob


# Iterative hard thresholding is this step on an `L0LeastSquares` objective.
IHTStep = ProxGradientStep
