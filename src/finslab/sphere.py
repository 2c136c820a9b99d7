"""The round sphere S^n(1), its charts, Killing fields and metric fields.

Points live ambiently as unit vectors in R^{n+1}; chart coordinates are
produced on demand by gnomonic (central) projection, which keeps the
pulled-back metric rational and lets every verification point be
re-centered so the chart never degenerates.
"""

from __future__ import annotations

import json
from typing import Callable

import numpy as np

from .errors import (ChartBoundary, DimensionMismatch, LambdaOutOfRange,
                     NotSkew, WindTooStrong)
from .minkowski import NormEvaluator, _any, _dot, _matvec, _vecmat
from .navigation import randers_from_navigation

_CHART_RADIUS = 10.0    # charts end at |x| = 10, 84.3 degrees from the center


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
    of center^perp; valid for |x| < _CHART_RADIUS.  map(0) = center.

    ``center`` may also be a stack (N, n+1) of centers, with bases
    (N, n+1, n): a stack of N charts, one per row, whose chart points
    carry the axes (..., N, n).
    """

    def __init__(self, center):
        c = np.asarray(center, dtype=float)
        nrm = np.sqrt(_dot(c, c))[..., None]
        if _any(nrm == 0.0):
            raise ValueError("chart center must be a nonzero vector")
        self.center = c / nrm
        self.basis = _complete_basis(self.center)
        self.n = c.shape[-1] - 1

    def _lift(self, x: np.ndarray) -> tuple:
        # (1 + x.x, center + B x) over the leading axes of x, after the
        # domain check on Re x: a complex x is a complex step off it
        r = np.sqrt(_dot(x.real, x.real))
        if _any(r >= _CHART_RADIUS):
            raise ChartBoundary(f"|x| = {np.max(r):.3f} outside chart")
        return 1.0 + _dot(x, x), self.center + _matvec(self.basis, x)

    def map(self, x) -> np.ndarray:
        """map(x), over the leading axes of x."""
        x = np.asarray(x, dtype=float)
        s2, p = self._lift(x)
        return p / np.sqrt(s2)[..., None]

    def jacobian(self, x) -> np.ndarray:
        """d map / dx, an (n+1) x n matrix of tangent columns per point."""
        x = np.asarray(x, dtype=float)
        s2, p_uns = self._lift(x)
        s2 = s2[..., None, None]
        s = np.sqrt(s2)
        return self.basis / s - p_uns[..., :, None] * x[..., None, :] / (s * s2)

    def pull_tangent(self, x, V) -> np.ndarray:
        """The ambient vectors V tangent at map(x) in chart coordinates,
        A^-1 J^T V = u + x (x . u), u = s B^T V, over the leading axes."""
        x = np.asarray(x, dtype=float)
        u = np.sqrt(self._lift(x)[0])[..., None] * _matvec(
            self.basis.swapaxes(-1, -2), np.asarray(V, dtype=float))
        return u + x * _dot(x, u)[..., None]


class KillingField:
    """A Killing field of S^n(1), stored as a skew (n+1) x (n+1) matrix.

    Its norm, the killing_norm of the field, is read off the matrix once,
    when the field is built, so each wind check reuses it."""

    def __init__(self, matrix):
        W = np.asarray(matrix, dtype=float)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise DimensionMismatch("Killing matrix must be square")
        if not (np.isfinite(W).all() and np.abs(W + W.T).max()
                <= 1e-12 * max(1.0, np.abs(W).max())):
            raise NotSkew("matrix is not finite and skew-symmetric")
        self.matrix = 0.5 * (W - W.T)
        evals = np.linalg.eigvalsh(-self.matrix @ self.matrix)
        self.norm = float(np.sqrt(max(evals[-1], 0.0)))

    @property
    def ambient_dim(self) -> int:
        return self.matrix.shape[0]

    def to_json(self) -> str:
        return json.dumps({"matrix": self.matrix.tolist()})


def killing_norm(W: KillingField) -> float:
    """max over the sphere of |W(x)|_h, i.e. the largest modulus of the
    purely imaginary eigenvalues of the matrix.

    Computed as sqrt(max eig(-W^2)) when the field is built; -W^2 is
    symmetric PSD, so no complex arithmetic is needed.
    """
    return W.norm


def _check_wind(W: KillingField, ambient_dim: int,
                navigates: bool = True) -> None:
    # the navigation datum (round h, W) on S^(ambient_dim - 1) needs a wind
    # on R^ambient_dim that is shorter than 1 everywhere; a wind that only
    # flows (navigates False) needs the dimension alone
    if W.ambient_dim != ambient_dim:
        raise DimensionMismatch("Killing field dimension does not match "
                                "the sphere")
    if navigates and (strength := killing_norm(W)) >= 1.0:
        raise WindTooStrong(f"killing_norm(W) = {strength:.6f} >= 1")


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
    """A Finsler metric as a gnomonic chart plus a coefficient builder.

    The builder maps the field and chart points X (last axis n) to the
    coefficients of the pointwise norms over the leading axes of X and
    their x-derivatives, the coefficient jet: (A, None, dA, None) for a
    quadratic field, (alpha, beta, Dalpha, Dbeta) for a Randers field,
    with the derivative index k on the axis after the leading axes of X
    (dA[..., k, i, j] = dA_ij / dx^k).  It reads the chart from the
    field, so re-centering swaps the chart and nothing else.  kind names
    the metric ("round-h", "randers-from-navigation").  Every call
    builds afresh.  A builder is analytic in X: complex X takes complex
    arithmetic with no float cast, abs, norm, maximum, Cholesky factor or
    comparison on a value that feeds the jet (a domain check reads Re X),
    so Im jet(x + ih e) / h is the derivative along e for real x and tiny
    h, the complex step of flag curvature.
    """

    def __init__(self, chart: Chart, kind: str,
                 builder: Callable[["MetricField", np.ndarray], tuple]):
        self.chart = chart
        self.kind = kind
        self._builder = builder

    @property
    def dim(self) -> int:
        return self.chart.n

    def coefficients(self, X) -> tuple:
        """The coefficient jet (A, None, dA, None) or (alpha, beta,
        Dalpha, Dbeta) over the leading axes of X; its first two entries
        are the coefficient pair of the pointwise norms.  Real X becomes
        float, complex X stays complex."""
        X = np.asarray(X)
        return self._builder(self, X if np.iscomplexobj(X)
                             else X.astype(float, copy=False))

    def norm_at(self, x) -> NormEvaluator:
        """The pointwise norm at the single chart point x."""
        alpha, beta = self.coefficients(x)[:2]
        if beta is None:
            return NormEvaluator.quadratic(alpha)
        return NormEvaluator.randers(alpha, beta)

    def with_center(self, p_ambient) -> "MetricField":
        """The same metric on a chart centered at p_ambient, or on a stack
        of charts for a stack (N, n+1) of centers."""
        return MetricField(Chart(p_ambient), self.kind, self._builder)


def _round_jet(s2: np.ndarray, X: np.ndarray) -> tuple:
    # A = (s^2 I - x x^T) / s^4 and its x-derivatives
    # dA[..., k, :, :] = (2 x_k I - e_k x^T - x e_k^T) / s^4 - 4 x_k A / s^2
    # over the leading axes of X, s2 = 1 + |x|^2
    eye = np.eye(X.shape[-1])
    s2 = s2[..., None, None]
    A = (s2 * eye - X[..., :, None] * X[..., None, :]) / (s2 * s2)
    ex = eye[:, :, None] * X[..., None, None, :]            # e_k x^T
    xk = X[..., :, None, None]
    dA = ((2.0 * xk * eye - ex - ex.swapaxes(-1, -2)) / (s2 * s2)[..., None]
          - 4.0 * xk * A[..., None, :, :] / s2[..., None])
    return A, dA


def round_metric(chart: Chart) -> MetricField:
    """Pullback of the ambient Euclidean metric: quadratic at every point,
    A = J^T J = (s^2 I - x x^T) / s^4, s^2 = 1 + |x|^2, with no Jacobian,
    and its x-derivatives in closed form."""

    def build(field: MetricField, X: np.ndarray) -> tuple:
        A, dA = _round_jet(field.chart._lift(X)[0], X)
        return A, None, dA, None

    return MetricField(chart, "round-h", build)


def randers_sphere(chart: Chart, W: KillingField) -> MetricField:
    """Navigated Randers metric of the datum (round h, Killing wind W).

    At each chart point the wind is W(p) pulled to chart coordinates and
    the pointwise norm is the closed-form Randers solution of the
    navigation problem; where the wind vanishes that is h itself
    (beta = 0).  Requires killing_norm(W) < 1.  The chart wind is the
    Chart.pull_tangent of W p, tangent as KillingField makes W skew, with
    its u = s B^T W p written as B^T W q on the unscaled lift q = c + B x.

    The x-derivatives follow in closed form: du/dx^k = M e_k with
    M = B^T W B, so the chart wind w = u + x (x . u) has
    dw/dx^k = M e_k + e_k (x . u) + x (u_k + x . M e_k).  The chain rule
    through the Randers dictionary alpha = A / lam + beta beta^T,
    beta = -A w / lam, lam = 1 - w^T A w, then gives
    dlam = -(d(Aw) . w + Aw . dw), dbeta = -(d(Aw) + beta dlam) / lam and
    dalpha = (dA - dlam A / lam) / lam + dbeta beta^T + beta dbeta^T.
    """
    _check_wind(W, chart.n + 1)

    def build(field: MetricField, X: np.ndarray) -> tuple:
        s2, q = field.chart._lift(X)
        BtW = field.chart.basis.swapaxes(-1, -2) @ W.matrix
        u = _matvec(BtW, q)
        xu = _dot(X, u)
        w = u + X * xu[..., None]
        A, dA = _round_jet(s2, X)
        alpha, beta = randers_from_navigation(A, w)
        # [..., k, i] = dw_i / dx^k
        M = BtW @ field.chart.basis
        dw = (M.swapaxes(-1, -2) + xu[..., None, None] * np.eye(X.shape[-1])
              + (u + _vecmat(X, M))[..., :, None] * X[..., None, :])
        Aw = _matvec(A, w)
        lam = (1.0 - _dot(w, Aw))[..., None]
        dAw = (np.einsum("...kij,...j->...ki", dA, w)
               + np.einsum("...ij,...kj->...ki", A, dw))
        dlam = -(np.einsum("...ki,...i->...k", dAw, w)
                 + np.einsum("...ki,...i->...k", dw, Aw))
        Dbeta = -(dAw + beta[..., None, :] * dlam[..., None]) \
            / lam[..., None]
        outer = Dbeta[..., :, None] * beta[..., None, None, :]
        Dalpha = ((dA - (dlam / lam)[..., None, None] * A[..., None, :, :])
                  / lam[..., None, None] + outer + outer.swapaxes(-1, -2))
        return alpha, beta, Dalpha, Dbeta

    return MetricField(chart, "randers-from-navigation", build)


def random_sphere_points(n: int, count: int, rng) -> np.ndarray:
    """count uniform points on S^n as rows of a (count, n+1) array."""
    pts = rng.standard_normal((count, n + 1))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)
