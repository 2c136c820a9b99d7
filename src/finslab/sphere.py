"""The round sphere S^n(1), its charts, Killing fields and metric fields.

Points live ambiently as unit vectors in R^{n+1}; chart coordinates are
produced on demand by gnomonic (central) projection, which keeps the
pulled-back metric rational and lets every verification point be
re-centered so the chart never degenerates.
"""

from __future__ import annotations

import json
from typing import Callable, Optional

import numpy as np

from .errors import (ChartBoundary, DimensionMismatch, LambdaOutOfRange,
                     NotSkew, WindTooStrong)
from .minkowski import NormEvaluator, _any, _dot, _matvec, randers_fiber
from .navigation import randers_from_navigation


def _complete_basis(center: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of center^perp (Householder
    columns), over the leading axes of center."""
    e = center
    w = e.copy()
    w[..., 0] += np.copysign(1.0, np.where(e[..., 0] != 0.0, e[..., 0], 1.0))
    H = np.eye(e.shape[-1]) - 2.0 * (w[..., :, None] * w[..., None, :]) \
        / _dot(w, w)[..., None, None]
    # H maps e to -sign(e0) e_1, so its remaining columns span e^perp
    return H[..., 1:]


class Chart:
    """Gnomonic chart around a unit vector ``center``.

    map(x) = (center + B x) / sqrt(1 + |x|^2) with B an orthonormal basis
    of center^perp; valid for |x| < radius.  map(0) = center.

    ``center`` may also be a stack (N, n+1) of centers, with bases
    (N, n+1, n): a stack of N charts, one per row, whose chart points
    carry the axes (..., N, n).  coords and pull_tangent take one center.
    """

    def __init__(self, center, radius: float = 10.0):
        c = np.asarray(center, dtype=float)
        nrm = np.sqrt(_dot(c, c))[..., None]
        if _any(nrm == 0.0):
            raise ValueError("chart center must be a nonzero vector")
        self.center = c / nrm
        self.basis = _complete_basis(self.center)
        self.n = c.shape[-1] - 1
        self.radius = float(radius)

    def _lift(self, x: np.ndarray) -> tuple:
        # (1 + |x|^2, center + B x) over the leading axes of x, after the
        # domain check
        xx = _dot(x, x)
        r = np.sqrt(xx)
        if _any(r >= self.radius):
            raise ChartBoundary(f"|x| = {np.max(r):.3f} outside chart")
        return 1.0 + xx, self.center + _matvec(self.basis, x)

    def map(self, x) -> np.ndarray:
        """map(x), over the leading axes of x."""
        x = np.asarray(x, dtype=float)
        s2, p = self._lift(x)
        return p / np.sqrt(s2)[..., None]

    def coords(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        c = float(p @ self.center)
        if c <= 1.0 / np.sqrt(1.0 + self.radius * self.radius):
            raise ChartBoundary("point outside the chart hemisphere")
        return (self.basis.T @ p) / c

    def jacobian(self, x) -> np.ndarray:
        """d map / dx, an (n+1) x n matrix of tangent columns per point."""
        x = np.asarray(x, dtype=float)
        s2, p_uns = self._lift(x)
        s2 = s2[..., None, None]
        s = np.sqrt(s2)
        return self.basis / s - p_uns[..., :, None] * x[..., None, :] / (s * s2)

    def pullback_round(self, x) -> np.ndarray:
        """Matrix of the round metric in chart coordinates, J^T J."""
        J = self.jacobian(x)
        return J.swapaxes(-1, -2) @ J

    def pull_tangent(self, x, u_amb) -> np.ndarray:
        """Ambient tangent vector at map(x) to chart coordinates."""
        J = self.jacobian(x)
        return np.linalg.solve(J.T @ J, J.T @ np.asarray(u_amb, dtype=float))


class KillingField:
    """A Killing field of S^n(1), stored as a skew (n+1) x (n+1) matrix."""

    def __init__(self, matrix):
        W = np.asarray(matrix, dtype=float)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise DimensionMismatch("Killing matrix must be square")
        if np.abs(W + W.T).max() > 1e-12 * max(1.0, np.abs(W).max()):
            raise NotSkew("matrix is not skew-symmetric")
        self.matrix = 0.5 * (W - W.T)

    @property
    def ambient_dim(self) -> int:
        return self.matrix.shape[0]

    def __call__(self, p) -> np.ndarray:
        return self.matrix @ np.asarray(p, dtype=float)

    def to_json(self) -> str:
        return json.dumps({"matrix": self.matrix.tolist()})


def killing_norm(W: KillingField | np.ndarray) -> float:
    """max over the sphere of |W(x)|_h, i.e. the largest modulus of the
    purely imaginary eigenvalues of the matrix.

    Computed as sqrt(max eig(-W^2)); -W^2 is symmetric PSD, so no complex
    arithmetic is needed.
    """
    M = W.matrix if isinstance(W, KillingField) else np.asarray(W, dtype=float)
    if np.abs(M + M.T).max() > 1e-12 * max(1.0, np.abs(M).max()):
        raise NotSkew("killing_norm needs a skew-symmetric matrix")
    evals = np.linalg.eigvalsh(-M @ M)
    return float(np.sqrt(max(evals[-1], 0.0)))


def block_killing(n0: int, lambdas, block_sizes) -> KillingField:
    """Block-diagonal normal form diag(0_{n0}, l_1 J_{2n_1}, ..., l_k J_{2n_k}).

    block_sizes lists the n_i, so block i occupies 2 n_i rows; lambdas must
    be strictly increasing and lie in (0, 1).
    """
    lambdas = list(lambdas)
    block_sizes = list(block_sizes)
    if len(lambdas) != len(block_sizes):
        raise DimensionMismatch("need one rotation speed per block")
    if n0 < 0 or any(s <= 0 or int(s) != s for s in block_sizes):
        raise DimensionMismatch("need n0 >= 0 and positive integer sizes")
    if any(not (0.0 < lam < 1.0) for lam in lambdas):
        raise LambdaOutOfRange("rotation speeds must lie in (0, 1)")
    if any(b >= a for a, b in zip(lambdas[1:], lambdas[:-1])):
        raise LambdaOutOfRange("rotation speeds must be strictly increasing")
    dim = n0 + 2 * sum(int(s) for s in block_sizes)
    W = np.zeros((dim, dim))
    off = n0
    for lam, size in zip(lambdas, block_sizes):
        size = int(size)
        J = np.zeros((2 * size, 2 * size))
        J[:size, size:] = np.eye(size)
        J[size:, :size] = -np.eye(size)
        W[off:off + 2 * size, off:off + 2 * size] = lam * J
        off += 2 * size
    return KillingField(W)


def standard_rotation(dim: int, lam: float) -> KillingField:
    """lam * J on R^dim (dim even): the maximally symmetric wind."""
    if dim % 2:
        raise DimensionMismatch("standard rotation needs an even ambient dim")
    return block_killing(0, [lam], [dim // 2])


class MetricField:
    """A chart-local Finsler metric: chart points -> pointwise norms.

    The builder maps chart points X, an array whose last axis is the
    chart dimension n, to the coefficient arrays of the pointwise norms
    over the leading axes of X: (A, None) for a quadratic field and
    (alpha, beta) for a Randers field.  kind is one of "round-h",
    "randers-from-navigation" (carrying the Killing wind) or
    "localization" (quadratic field frozen along a base vector field).
    Every call builds the coefficients afresh.
    """

    def __init__(self, chart: Chart, kind: str,
                 builder: Callable[["MetricField", np.ndarray], tuple],
                 wind: Optional[KillingField] = None):
        self.chart = chart
        self.kind = kind
        self.wind = wind
        self._builder = builder

    @property
    def dim(self) -> int:
        return self.chart.n

    def coefficients(self, X) -> tuple:
        """(A, None) or (alpha, beta) over the leading axes of X."""
        return self._builder(self, np.asarray(X, dtype=float))

    def norm_at(self, x) -> NormEvaluator:
        """The pointwise norm at the single chart point x."""
        return pointwise_norm(*self.coefficients(x))

    def value(self, x, y) -> float:
        """F(x, y) for a chart point x and chart tangent vector y."""
        return self.norm_at(x)(y)

    def with_center(self, p_ambient) -> "MetricField":
        """The same geometric metric on a chart centered at p_ambient, or
        on a stack of charts for a stack (N, n+1) of centers."""
        chart = Chart(p_ambient, radius=self.chart.radius)
        if self.kind == "round-h":
            return round_metric(chart)
        if self.kind == "randers-from-navigation":
            return randers_sphere(chart, self.wind)
        raise ChartBoundary(f"{self.kind} metric cannot be re-centered")


def pointwise_norm(alpha: np.ndarray, beta: Optional[np.ndarray]
                   ) -> NormEvaluator:
    """The norm of one point's coefficients: quadratic (checked SPD) when
    beta is None, else Randers (valid by construction of the field)."""
    if beta is None:
        return NormEvaluator.quadratic(alpha)
    return NormEvaluator._randers_unchecked(alpha, beta)


def round_metric(chart: Chart) -> MetricField:
    """Pullback of the ambient Euclidean metric: quadratic at every point."""

    def build(field: MetricField, X: np.ndarray) -> tuple:
        return field.chart.pullback_round(X), None

    return MetricField(chart, "round-h", build)


def randers_sphere(chart: Chart, W: KillingField) -> MetricField:
    """Navigated Randers metric of the datum (round h, Killing wind W).

    At each chart point the wind is W(p) pulled to chart coordinates and
    the pointwise norm is the closed-form Randers solution of the
    navigation problem; where the wind vanishes that is h itself
    (beta = 0).  Requires killing_norm(W) < 1.
    """
    if W.ambient_dim != chart.n + 1:
        raise DimensionMismatch("Killing field dimension does not match chart")
    if killing_norm(W) >= 1.0:
        raise WindTooStrong(f"killing_norm(W) = {killing_norm(W):.6f} >= 1")

    eye = np.eye(chart.n)

    def build(field: MetricField, X: np.ndarray) -> tuple:
        chart_ = field.chart
        J = chart_.jacobian(X)
        Jt = J.swapaxes(-1, -2)
        A = Jt @ J
        p = chart_.map(X)
        # gnomonic pullback has the closed-form inverse (1+r^2)(I + x x^T)
        Ainv = (1.0 + _dot(X, X))[..., None, None] \
            * (eye + X[..., :, None] * X[..., None, :])
        w_chart = _matvec(Ainv, _matvec(Jt, _matvec(W.matrix, p)))
        return randers_from_navigation(A, w_chart)

    return MetricField(chart, "randers-from-navigation", build, wind=W)


def localization_field(base: MetricField,
                       Y: Callable[[np.ndarray], np.ndarray]) -> MetricField:
    """Riemannian field g^F_Y: the fundamental tensor of ``base`` frozen
    along the nonvanishing chart vector field Y, which maps chart points
    (..., n) to vectors (..., n).  A build is one base builder call and
    one call of Y over all its points."""

    def build(field: MetricField, X: np.ndarray) -> tuple:
        alpha, beta = base.coefficients(X)
        Yx = Y(X)       # evaluated for a quadratic base too, which ignores it
        G = alpha if beta is None else randers_fiber(alpha, beta, Yx)[4]
        return 0.5 * (G + np.swapaxes(G, -1, -2)), None

    return MetricField(base.chart, "localization", build)


def finsler_value_ambient(field: MetricField, p, u) -> float:
    """F at the ambient point p applied to the ambient tangent vector u."""
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)
    u = u - (u @ p) * p
    fld = field.with_center(p)
    x0 = np.zeros(fld.dim)
    return fld.value(x0, fld.chart.basis.T @ u)


def random_sphere_points(n: int, count: int, rng) -> np.ndarray:
    """count uniform points on S^n as rows of a (count, n+1) array."""
    pts = rng.standard_normal((count, n + 1))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)
