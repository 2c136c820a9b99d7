"""Minkowski norms, fundamental tensors and the Legendre (dual) solve.

A Minkowski norm F on R^n is positive away from 0, positively
1-homogeneous, and has a positive-definite Hessian of F^2 at every y != 0.
Two closed-form kinds are built in:

* ``euclidean-quadratic-form``: F(y) = sqrt(y^T A y) for SPD A,
* ``randers``: F(y) = sqrt(y^T alpha y) + beta . y with |beta|_alpha < 1.

For both kinds the value, gradient and Hessian of F^2 in the fiber
variable y are written out in closed form (for Randers norms see
Bao-Chern-Shen, *An Introduction to Riemann-Finsler Geometry*, Ch. 11),
and so is the Legendre dual: the dual norm of a Randers norm is again a
Randers norm (Bao-Robles-Shen, J. Differential Geom. 66, 2004).  Every
fiber operation is exact to roundoff and none iterates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import NotPositiveDefinite, ZeroBaseVector


class SqJet(NamedTuple):
    """Value, gradient and Hessian of F^2 at one y."""

    val: float
    grad: np.ndarray
    hess: np.ndarray


# Stacked products that run, per point, the BLAS kernel of the one-point
# product, so a batched evaluation reproduces the one-point values bit for
# bit; one-point operands take the plain product, which is cheaper to call.

def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u . v over the leading axes."""
    if u.ndim == v.ndim == 1:
        return u @ v
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M v over the leading axes."""
    if v.ndim == 1:
        return M @ v
    return (M @ v[..., None])[..., 0]


def _any(b: np.ndarray) -> bool:
    """b.any(), skipping the reduction, which is slow on a numpy scalar."""
    return bool(b.any() if b.ndim else b)


def randers_fiber(alpha: np.ndarray, beta: np.ndarray, y: np.ndarray):
    """Fiber data (a, F, p, m, g) of F(y) = sqrt(y^T alpha y) + beta . y.

    a = |y|_alpha, F = a + beta . y, p = alpha y / a = grad a,
    m = p + beta = grad F, and the fundamental tensor
    g = 1/2 Hess F^2 = (F / a)(alpha - p p^T) + m m^T.

    Broadcasts over the leading axes of (alpha, beta, y).
    """
    ay = _matvec(alpha, y)
    a2 = _dot(y, ay)
    if _any(a2 <= 0.0):
        raise ZeroBaseVector("Randers F^2 is not differentiable at y = 0")
    a = np.sqrt(a2)
    F = a + _dot(beta, y)
    p = ay / a[..., None]
    m = p + beta
    g = ((F / a)[..., None, None] * (alpha - p[..., :, None] * p[..., None, :])
         + m[..., :, None] * m[..., None, :])
    return a, F, p, m, g


class NormEvaluator:
    """A point-independent Minkowski norm with derivative access."""

    def __init__(self, dim: int, kind: str, *, matrix=None, alpha=None,
                 beta=None):
        self.dim = int(dim)
        self.kind = kind
        self.matrix = None if matrix is None else np.asarray(matrix, dtype=float)
        self.alpha = None if alpha is None else np.asarray(alpha, dtype=float)
        self.beta = None if beta is None else np.asarray(beta, dtype=float)

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
    def _randers_unchecked(cls, alpha: np.ndarray, beta: np.ndarray) -> "NormEvaluator":
        # fast path for callers that guarantee validity (hot stencil loops)
        return cls(alpha.shape[0], "randers", alpha=alpha, beta=beta)

    # -- evaluation ----------------------------------------------------

    def __call__(self, y) -> float:
        y = np.asarray(y, dtype=float)
        if self.is_quadratic:
            return float(np.sqrt(max(y @ self.matrix @ y, 0.0)))
        return float(np.sqrt(max(y @ self.alpha @ y, 0.0)) + self.beta @ y)

    @property
    def is_quadratic(self) -> bool:
        return self.kind == "euclidean-quadratic-form"

    def sq_jet(self, y) -> SqJet:
        """Value, gradient and Hessian of F^2 at y, in closed form."""
        y = np.asarray(y, dtype=float)
        if not y.any():
            raise ZeroBaseVector("F^2 is not twice differentiable at y = 0")
        if self.is_quadratic:
            Ay = self.matrix @ y
            return SqJet(float(y @ Ay), 2.0 * Ay, 2.0 * self.matrix)
        _, F, _, m, g = randers_fiber(self.alpha, self.beta, y)
        return SqJet(float(F * F), 2.0 * F * m, 2.0 * g)

    # -- serialization -------------------------------------------------

    def to_json(self) -> str:
        if self.is_quadratic:
            payload = {"kind": self.kind, "matrix": self.matrix.tolist()}
        else:
            payload = {"kind": "randers", "alpha": self.alpha.tolist(),
                       "beta": self.beta.tolist()}
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


def legendre_solve(norm, xi) -> np.ndarray:
    """The unique y dual to the covector xi: g_ij(y) y^j = xi_i.

    norm is a NormEvaluator, or the coefficients (A, None) or
    (alpha, beta) of MetricField.coefficients, over whose leading axes
    (and those of xi) the closed form broadcasts.  Since g(y) y =
    1/2 grad F^2(y), y = F*(xi) grad F*(xi) for the dual norm F*.  A
    quadratic norm gives y = A^{-1} xi.  A Randers norm is the navigation
    datum (A, w) with C = alpha - beta beta^T, w = -C^{-1} beta and
    A^{-1} = (1 + beta^T C^{-1} beta) C^{-1}, whose dual norm is
    F*(xi) = |xi|_{A^{-1}} + xi(w), so
    y = F*(xi) (A^{-1} xi / |xi|_{A^{-1}} + w).
    """
    if isinstance(norm, NormEvaluator):
        norm = ((norm.matrix, None) if norm.is_quadratic
                else (norm.alpha, norm.beta))
    alpha, beta = norm
    xi = np.asarray(xi, dtype=float)
    if _any(~xi.any(axis=-1)):
        raise ZeroBaseVector("legendre_solve requires xi != 0")
    if beta is None:
        return np.linalg.solve(alpha, xi[..., None])[..., 0]
    C = alpha - beta[..., :, None] * beta[..., None, :]
    sol = np.linalg.solve(C, np.stack((beta, xi), axis=-1))
    w, Cxi = -sol[..., 0], sol[..., 1]
    Ainv_xi = (1.0 - _dot(beta, w))[..., None] * Cxi
    r = np.sqrt(_dot(xi, Ainv_xi))                  # |xi|_{A^{-1}}
    return (r + _dot(xi, w))[..., None] * (Ainv_xi / r[..., None] + w)
