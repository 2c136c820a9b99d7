"""Minkowski norms, fundamental tensors and the Legendre (dual) solve.

A Minkowski norm F on R^n is positive away from 0, positively
1-homogeneous, and has a positive-definite Hessian of F^2 at every y != 0.
Two closed-form kinds are built in:

* ``euclidean-quadratic-form``: F(y) = sqrt(y^T A y) for SPD A,
* ``randers``: F(y) = sqrt(y^T alpha y) + beta . y with |beta|_alpha < 1.

For both closed-form kinds the value, gradient and Hessian of F^2 in the
fiber variable y are written out in closed form (for Randers norms see
Bao-Chern-Shen, *An Introduction to Riemann-Finsler Geometry*, Ch. 11),
so they are exact to roundoff.  A ``custom`` kind wraps an arbitrary
evaluation rule; its derivatives fall back to central finite differences
at step 1e-5 (1 + |y|).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import NoConvergence, NotPositiveDefinite, ZeroBaseVector

_FD_STEP = 1e-5


class SqJet(NamedTuple):
    """Value, gradient and Hessian of F^2 at one y."""

    val: float
    grad: np.ndarray
    hess: np.ndarray


def randers_fiber(alpha: np.ndarray, beta: np.ndarray, y: np.ndarray):
    """Fiber data (a, F, p, m, g) of F(y) = sqrt(y^T alpha y) + beta . y.

    a = |y|_alpha, F = a + beta . y, p = alpha y / a = grad a,
    m = p + beta = grad F, and the fundamental tensor
    g = 1/2 Hess F^2 = (F / a)(alpha - p p^T) + m m^T.
    """
    ay = alpha @ y
    a2 = float(y @ ay)
    if a2 <= 0.0:
        raise ZeroBaseVector("Randers F^2 is not differentiable at y = 0")
    a = math.sqrt(a2)
    F = a + float(beta @ y)
    p = ay / a
    m = p + beta
    g = (F / a) * (alpha - p[:, None] * p) + m[:, None] * m
    return a, F, p, m, g


class NormEvaluator:
    """A point-independent Minkowski norm with derivative access."""

    def __init__(self, dim: int, kind: str, *, matrix=None, alpha=None,
                 beta=None, func: Optional[Callable] = None):
        self.dim = int(dim)
        self.kind = kind
        self.matrix = None if matrix is None else np.asarray(matrix, dtype=float)
        self.alpha = None if alpha is None else np.asarray(alpha, dtype=float)
        self.beta = None if beta is None else np.asarray(beta, dtype=float)
        self.func = func

    # -- constructors -------------------------------------------------

    @classmethod
    def quadratic(cls, matrix) -> "NormEvaluator":
        """Riemannian norm sqrt(y^T A y); A must be SPD."""
        A = np.asarray(matrix, dtype=float)
        A = 0.5 * (A + A.T)
        try:
            np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            raise NotPositiveDefinite("quadratic form matrix is not SPD")
        return cls(A.shape[0], "euclidean-quadratic-form", matrix=A)

    @classmethod
    def euclidean(cls, dim: int) -> "NormEvaluator":
        return cls.quadratic(np.eye(dim))

    @classmethod
    def randers(cls, alpha, beta) -> "NormEvaluator":
        """Randers norm sqrt(y^T alpha y) + beta . y.

        alpha and beta are stored exactly; evaluation never expands the
        square, which avoids cancellation near the indicatrix.
        """
        a = np.asarray(alpha, dtype=float)
        a = 0.5 * (a + a.T)
        b = np.asarray(beta, dtype=float)
        try:
            cf = cho_factor(a)
        except np.linalg.LinAlgError:
            raise NotPositiveDefinite("randers alpha is not SPD")
        if float(b @ cho_solve(cf, b)) >= 1.0:
            raise NotPositiveDefinite("randers norm needs |beta|_alpha < 1")
        return cls(a.shape[0], "randers", alpha=a, beta=b)

    @classmethod
    def custom(cls, dim: int, func: Callable[[np.ndarray], float]) -> "NormEvaluator":
        """Wrap an arbitrary norm rule; derivatives use finite differences."""
        return cls(dim, "custom", func=func)

    @classmethod
    def _randers_unchecked(cls, alpha: np.ndarray, beta: np.ndarray) -> "NormEvaluator":
        # fast path for callers that guarantee validity (hot stencil loops)
        return cls(alpha.shape[0], "randers", alpha=alpha, beta=beta)

    # -- evaluation ----------------------------------------------------

    def __call__(self, y) -> float:
        y = np.asarray(y, dtype=float)
        if self.kind == "euclidean-quadratic-form":
            return float(np.sqrt(max(y @ self.matrix @ y, 0.0)))
        if self.kind == "randers":
            return float(np.sqrt(max(y @ self.alpha @ y, 0.0)) + self.beta @ y)
        return float(self.func(y))

    @property
    def is_quadratic(self) -> bool:
        return self.kind == "euclidean-quadratic-form"

    def sq_jet(self, y) -> SqJet:
        """Value, gradient and Hessian of F^2 at y (exact for closed forms)."""
        y = np.asarray(y, dtype=float)
        if not np.any(y):
            raise ZeroBaseVector("F^2 is not twice differentiable at y = 0")
        if self.kind == "euclidean-quadratic-form":
            Ay = self.matrix @ y
            return SqJet(float(y @ Ay), 2.0 * Ay, 2.0 * self.matrix)
        if self.kind == "randers":
            _, F, _, m, g = randers_fiber(self.alpha, self.beta, y)
            return SqJet(F * F, 2.0 * F * m, 2.0 * g)
        return self._fd_sq_jet(y)

    def _fd_sq_jet(self, y: np.ndarray) -> SqJet:
        # central differences of F^2; step scales with |y| so the stencil
        # stays well inside the cone where the rule is smooth
        h = _FD_STEP * (1.0 + np.linalg.norm(y))
        n = self.dim
        E = h * np.eye(n)

        def f2(z):
            v = self.func(z)
            return v * v

        val = f2(y)
        grad = np.zeros(n)
        hess = np.zeros((n, n))
        for i in range(n):
            fp, fm = f2(y + E[i]), f2(y - E[i])
            grad[i] = (fp - fm) / (2.0 * h)
            hess[i, i] = (fp - 2.0 * val + fm) / (h * h)
            for j in range(i):
                e, em = E[j] + E[i], E[j] - E[i]
                hess[i, j] = hess[j, i] = (
                    f2(y + e) - f2(y + em) - f2(y - em) + f2(y - e)
                ) / (4.0 * h * h)
        return SqJet(val, grad, hess)

    # -- serialization -------------------------------------------------

    def to_json(self) -> str:
        if self.kind == "euclidean-quadratic-form":
            payload = {"kind": self.kind, "matrix": self.matrix.tolist()}
        elif self.kind == "randers":
            payload = {"kind": "randers", "alpha": self.alpha.tolist(),
                       "beta": self.beta.tolist()}
        else:
            raise ValueError("custom norms have no serialized form")
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "NormEvaluator":
        data = json.loads(text) if isinstance(text, str) else text
        if data["kind"] == "randers":
            return cls.randers(np.array(data["alpha"]), np.array(data["beta"]))
        if data["kind"] == "euclidean-quadratic-form":
            return cls.quadratic(np.array(data["matrix"]))
        raise ValueError(f"unknown norm kind {data['kind']!r}")


@dataclass(frozen=True)
class InnerProductAtY:
    """The inner product <.,.>_y^F, i.e. half the Hessian of F^2 at y."""

    y: np.ndarray
    matrix: np.ndarray

    def __call__(self, u, v) -> float:
        return float(np.asarray(u) @ self.matrix @ np.asarray(v))


def fundamental_tensor(norm: NormEvaluator, y) -> InnerProductAtY:
    """Fundamental tensor g_ij(y) = 1/2 d^2 F^2 / dy_i dy_j at y != 0.

    Raises ZeroBaseVector at y = 0 and NotPositiveDefinite when the
    numerical Hessian fails the PD check (an invalid norm input).
    """
    y = np.asarray(y, dtype=float)
    if not np.any(y):
        raise ZeroBaseVector("fundamental tensor undefined at y = 0")
    G = 0.5 * norm.sq_jet(y).hess
    G = 0.5 * (G + G.T)
    if np.linalg.eigvalsh(G)[0] <= 0.0:
        raise NotPositiveDefinite(
            "Hessian of F^2 is not positive definite; invalid norm input")
    return InnerProductAtY(y=y.copy(), matrix=G)


def inner_product(norm: NormEvaluator, y, u, v) -> float:
    """<u, v>_y^F = g_ij(y) u^i v^j."""
    return fundamental_tensor(norm, y)(u, v)


def legendre_solve(norm: NormEvaluator, xi, *, rel_tol: float = 1e-9,
                   max_iter: int = 100) -> np.ndarray:
    """Solve g_ij(y) y^j = xi_i for the unique y dual to the covector xi.

    Damped Newton on r(y) = g(y) y - xi.  Since g(y) y = 1/2 grad F^2(y)
    by Euler's identity, the Jacobian of the residual is exactly g(y), so
    every step is an SPD solve.  Initial guess is the Euclidean raise of
    xi; for a quadratic norm the first step is already exact.
    """
    xi = np.asarray(xi, dtype=float)
    if not np.any(xi):
        raise ZeroBaseVector("legendre_solve requires xi != 0")
    xi_norm = np.linalg.norm(xi)
    y = xi.copy()

    def residual(z):
        jet = norm.sq_jet(z)
        return 0.5 * jet.grad - xi, 0.5 * jet.hess

    r, G = residual(y)
    rn = np.linalg.norm(r)
    for _ in range(max_iter):
        if rn < rel_tol * xi_norm:
            return y
        try:
            step = cho_solve(cho_factor(0.5 * (G + G.T)), -r)
        except np.linalg.LinAlgError:
            raise NoConvergence("fundamental tensor not SPD along Newton path")
        t = 1.0
        for _ in range(40):
            cand = y + t * step
            if np.any(cand):
                rc, Gc = residual(cand)
                rcn = np.linalg.norm(rc)
                if rcn < rn:
                    y, r, G, rn = cand, rc, Gc, rcn
                    break
            t *= 0.5
        else:
            # damping can only stall at the roundoff floor; accept the
            # iterate when it already meets the documented contract
            if rn < 1e-9 * xi_norm:
                return y
            raise NoConvergence("Newton damping stalled in legendre_solve")
    if rn < rel_tol * xi_norm:
        return y
    raise NoConvergence(
        f"legendre_solve did not reach {rel_tol:g} relative residual "
        f"in {max_iter} iterations")
