"""Minkowski norms, fundamental tensors and the Legendre (dual) solve.

A Minkowski norm F on R^n is positive away from 0, positively
1-homogeneous, and has a positive-definite Hessian of F^2 at every y != 0.
Two closed-form kinds are built in:

* ``euclidean-quadratic-form``: F(y) = sqrt(y^T A y) for SPD A,
* ``randers``: F(y) = sqrt(y^T alpha y) + beta . y with |beta|_alpha < 1.

A norm is its coefficient pair, (A, None) or (alpha, beta), the first
two entries of a MetricField builder's coefficient jet; ``fiber``
evaluates a pair, for a
NormEvaluator and for stacked coefficient arrays alike.

For both kinds the value, gradient and Hessian of F^2 in the fiber
variable y are written out in closed form (for Randers norms see
Bao-Chern-Shen, *An Introduction to Riemann-Finsler Geometry*, Ch. 11),
and so is the Legendre dual: the dual norm of a Randers norm is again a
Randers norm (Bao-Robles-Shen, J. Differential Geom. 66, 2004).  Every
fiber operation is exact to roundoff and none iterates.
"""

from __future__ import annotations

import json
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, ZeroBaseVector


class SqJet(NamedTuple):
    """Value, gradient and Hessian of F^2 at y, over the rows of y."""

    val: float | np.ndarray
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


def _vecmat(v: np.ndarray, M: np.ndarray) -> np.ndarray:
    """v M over the leading axes."""
    if v.ndim == 1:
        return v @ M
    return (v[..., None, :] @ M)[..., 0, :]


def _any(b: np.ndarray) -> bool:
    """b.any(), skipping the reduction, which is slow on a numpy scalar."""
    return bool(b.any() if b.ndim else b)


def _cholesky(A: np.ndarray, message: str) -> np.ndarray:
    """The Cholesky factor L of the SPD matrix A (or of each matrix of a
    stack), A = L L^T; raises NotPositiveDefinite(message) otherwise."""
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(message) from None


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


def fiber(alpha: np.ndarray, beta, y: np.ndarray) -> tuple:
    """(F, g_y y, g_y) at y of the Minkowski norm of the coefficient pair:
    F = sqrt(y^T alpha y) and g_y = alpha for beta None, the Randers norm
    of randers_fiber otherwise.  g_y y = F grad F is half the gradient
    of F^2.

    Broadcasts over the leading axes of (alpha, beta, y).
    """
    if beta is None:
        ay = _matvec(alpha, y)
        return np.sqrt(_dot(y, ay)), ay, alpha
    _, F, _, m, g = randers_fiber(alpha, beta, y)
    return F, F[..., None] * m, g


class NormEvaluator:
    """A point-independent Minkowski norm with derivative access, given by
    its coefficient pair: (A, None) for the quadratic norm sqrt(y^T A y),
    (alpha, beta) for a Randers norm.

    The pair is checked on construction: A (or alpha) must be (n, n) and
    beta (n,), or DimensionMismatch is raised; then A is symmetrized, and
    its entries must be finite, A SPD and |beta|_alpha < 1, or
    NotPositiveDefinite is raised.
    """

    def __init__(self, alpha, beta=None):
        A = np.asarray(alpha, dtype=float)
        self.beta = None if beta is None else np.asarray(beta, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or (
                self.beta is not None and self.beta.shape != A.shape[:1]):
            raise DimensionMismatch(
                f"norm needs an (n, n) matrix and an (n,) beta, not shapes "
                f"{A.shape} and {None if beta is None else self.beta.shape}")
        self.alpha = 0.5 * (A + A.T)
        if not all(np.isfinite(c).all() for c in (self.alpha, self.beta)
                   if c is not None):
            raise NotPositiveDefinite("norm coefficients must be finite")
        if self.beta is None:
            _cholesky(self.alpha, "quadratic form matrix is not SPD")
            return
        L = _cholesky(self.alpha, "randers alpha is not SPD")
        z = np.linalg.solve(L, self.beta)
        if float(z @ z) >= 1.0:                     # |beta|^2_{alpha^-1}
            raise NotPositiveDefinite("randers norm needs |beta|_alpha < 1")

    @property
    def dim(self) -> int:
        return self.alpha.shape[-1]

    @property
    def kind(self) -> str:
        return "euclidean-quadratic-form" if self.beta is None else "randers"

    # -- constructors -------------------------------------------------

    @classmethod
    def quadratic(cls, matrix) -> "NormEvaluator":
        """Riemannian norm sqrt(y^T A y); A must be SPD."""
        return cls(matrix)

    @classmethod
    def euclidean(cls, dim: int) -> "NormEvaluator":
        return cls.quadratic(np.eye(dim))

    @classmethod
    def randers(cls, alpha, beta) -> "NormEvaluator":
        """Randers norm sqrt(y^T alpha y) + beta . y.

        alpha and beta are stored exactly; evaluation never expands the
        square, which avoids cancellation near the indicatrix.
        """
        return cls(alpha, beta)

    # -- evaluation ----------------------------------------------------

    def __call__(self, y):
        """F(y): a float for one vector, an array over the rows of a stack.
        A Randers F is |y|_alpha + beta . y, summed as in randers_fiber,
        with no tensor work."""
        y = np.asarray(y, dtype=float)
        val = fiber(self.alpha, None, y)[0]
        if self.beta is not None:
            val = val + _dot(self.beta, y)
        return float(val) if y.ndim == 1 else val

    def sq_jet(self, y) -> SqJet:
        """Value, gradient and Hessian of F^2 at y, in closed form, over the
        rows of y; the value is a float for one vector."""
        y = np.asarray(y, dtype=float)
        if _any(~y.any(axis=-1)):
            raise ZeroBaseVector("F^2 is not twice differentiable at y = 0")
        F, gy, g = fiber(self.alpha, self.beta, y)
        val = F * F
        return SqJet(float(val) if y.ndim == 1 else val, 2.0 * gy,
                     2.0 * np.broadcast_to(g, y.shape + y.shape[-1:]))

    # -- serialization -------------------------------------------------

    def to_json(self) -> str:
        if self.beta is None:
            payload = {"kind": self.kind, "matrix": self.alpha.tolist()}
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


def fundamental_tensor(norm: NormEvaluator, y) -> np.ndarray:
    """The matrix g_y of the fundamental tensor, g_ij(y) =
    1/2 d^2 F^2 / dy_i dy_j at y != 0, so <u, v>_y^F = u @ g_y @ v.

    Raises ZeroBaseVector at y = 0 and NotPositiveDefinite when the
    numerical Hessian fails the PD check (an invalid norm input).
    """
    G = 0.5 * norm.sq_jet(np.asarray(y, dtype=float)).hess
    G = 0.5 * (G + G.T)
    if np.linalg.eigvalsh(G)[0] <= 0.0:
        raise NotPositiveDefinite(
            "Hessian of F^2 is not positive definite; invalid norm input")
    return G


def legendre_solve(norm, xi) -> np.ndarray:
    """The unique y dual to the covector xi: g_ij(y) y^j = xi_i.

    norm is a NormEvaluator, or a coefficient pair (A, None) or
    (alpha, beta), the first two entries of MetricField.coefficients, over
    whose leading axes
    (and those of xi) the closed form broadcasts.  Since g(y) y =
    1/2 grad F^2(y), y = F*(xi) grad F*(xi) for the dual norm F*.  A
    quadratic norm gives y = A^{-1} xi.  A Randers norm is the navigation
    datum (A, w) with C = alpha - beta beta^T, w = -C^{-1} beta and
    A^{-1} = (1 + beta^T C^{-1} beta) C^{-1}, whose dual norm is
    F*(xi) = |xi|_{A^{-1}} + xi(w), so
    y = F*(xi) (A^{-1} xi / |xi|_{A^{-1}} + w).
    """
    alpha, beta = (norm.alpha, norm.beta) if isinstance(norm, NormEvaluator) \
        else norm
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
