"""Geodesic spray, Riemann curvature, flag curvature, geodesic integration.

The spray is

    G^i(x, y) = 1/4 g^{il}(x,y) ( d^2(F^2)/dx^k dy^l y^k - d(F^2)/dx^l ),

and the Riemann curvature in chart coordinates

    R^i_k(y) = 2 dG^i/dx^k - y^j d^2 G^i/dx^j dy^k
               + 2 G^j d^2 G^i/dy^j dy^k - dG^i/dy^j dG^j/dy^k.

For quadratic and Randers pointwise norms the x-dependence of F^2 lives
entirely in the coefficient fields (A(x), or alpha(x), beta(x)), so the
spray is evaluated in closed form from the coefficient jet that the
metric field's builder returns: the fields and their x-derivatives, both
closed forms in x, with y-derivatives exact.  Derivatives of G itself
use fourth-order stencils: G carries roundoff only, and the step keeps
the amplified noise near 1e-8, well inside the 1e-4 acceptance band for
flag curvature.

Every point of a flag's stencils is fixed by (x, y) before anything is
evaluated, so R_y is computed in array passes, and a stack of flags in
the same passes as one.  A flag needs spray models at 4n + 5 chart
points: x, the 4n points of the x-stencil of G and the 4 points of the
stencil along y.  For a stack of F flags, the coefficient jets of all
F (4n + 5) points come from one builder call.  The sprays then go
through one batched solve for G(x, y) of every flag and one for the
F 40n stencil sprays around them (the stencil along G(x, y) needs
G(x, y) first), and each contraction of the spray is one pass over the
whole stack.  geodesic_spray and riemann_curvature are the one-point
cases of the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (ChartBoundary, DegenerateFlag, DifferentiationFailure,
                     FinslabError, ZeroBaseVector)
from .minkowski import (_any, _cholesky, _dot, _matvec, _vecmat, fiber,
                        randers_fiber)
from .sphere import _CHART_RADIUS, MetricField

# 4-point, fourth-order central first-derivative stencil
_OFFS = np.array([-2.0, -1.0, 1.0, 2.0])
_WGTS = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0

_OUT_STEP = 5e-3    # stencils applied to the spray itself
_RIEMANN_REACH = 2.0 * _OUT_STEP
_FIELD_STEP = 1e-3  # stencil for the Jacobian of a chart vector field


def stencil_points(x, h: float, directions=None) -> np.ndarray:
    """The points of the derivative stencils of x (any leading axes, last
    axis n) at step h, along the coordinate axes or along ``directions``:
    one vector, or a stack of d on the first axis whose other axes
    broadcast against those of x (for one direction per point of x).

    The points are stacked offset-major on a new first axis: row
    j * d + k is x + h * _OFFS[j] * direction_k.
    """
    x = np.asarray(x, dtype=float)
    dirs = np.eye(x.shape[-1]) if directions is None \
        else np.atleast_2d(directions)
    steps = (h * _OFFS).reshape((4,) + (1,) * dirs.ndim) * dirs
    # offset-major rows; the axes of each direction right-aligned with x's
    return x + steps.reshape((-1,) + (1,) * (x.ndim + 1 - dirs.ndim)
                             + steps.shape[2:])


def stencil_derivative(values, h: float) -> np.ndarray:
    """Fourth-order central first derivatives from the values at the rows
    of stencil_points (first axis 4d): ``out[k]`` is the derivative along
    direction k.  Exact up to roundoff for polynomials of degree <= 4."""
    values = np.asarray(values)
    D = values.reshape((4, len(values) // 4) + values.shape[1:])
    return np.einsum("j,j...->...", _WGTS / h, D)


def _check_chart(x: np.ndarray, reach: float = 0.0):
    # ChartBoundary outside the chart domain; DifferentiationFailure where
    # stencils of the given reach around x would leave it
    r = np.sqrt(_dot(x, x))
    if _any(r >= _CHART_RADIUS):
        raise ChartBoundary(f"|x| = {np.max(r):.3f} outside chart domain")
    if reach and _any(r + 2.0 * reach >= _CHART_RADIUS):
        raise DifferentiationFailure("stencil would leave the chart domain")


class _LocalModel:
    """Closed-form spray data at the chart points X (any leading axes, the
    model axes, and last axis n): the coefficient jet of
    MetricField.coefficients, the pair (alpha, beta), beta None for a
    quadratic field, and its x-derivatives Dalpha, Dbeta, with k on the
    axis after the model axes, from one builder call over X.
    """

    __slots__ = ("alpha", "beta", "Dalpha", "Dbeta")

    def __init__(self, metric: MetricField, X: np.ndarray):
        alpha, self.beta, self.Dalpha, self.Dbeta = metric.coefficients(X)
        if self.beta is None:
            alpha = 0.5 * (alpha + np.swapaxes(alpha, -1, -2))
            _cholesky(alpha, "quadratic form matrix is not SPD")
        self.alpha = alpha

    def spray(self, idx, Y: np.ndarray) -> np.ndarray:
        """G(X[idx], Y) over the leading axes of Y, which are those of the
        model points that idx picks, with one batched solve; every
        contraction is one pass over the whole stack."""
        if self.beta is None:
            DAy = np.einsum("...kij,...j->...ki", self.Dalpha[idx], Y)
            s = np.einsum("...ki,...i->...k", DAy, Y)   # y^T dA/dx^k y
            rhs = 2.0 * np.einsum("...k,...ki->...i", Y, DAy) - s
            return 0.25 * np.linalg.solve(self.alpha[idx],
                                          rhs[..., None])[..., 0]
        a, F, p, m, g = randers_fiber(self.alpha[idx], self.beta[idx], Y)
        Dbeta = self.Dbeta[idx]
        Day = np.einsum("...kij,...j->...ki", self.Dalpha[idx], Y)
        s = np.einsum("...ki,...i->...k", Day, Y)       # y^T dalpha/dx^k y
        dF = s / (2.0 * a[..., None]) \
            + np.einsum("...ki,...i->...k", Dbeta, Y)   # dF/dx^k
        # y^k d^2(F^2)/dx^k dy^l, with d(F^2)/dy^l = 2 F m_l
        yDay = np.einsum("...k,...ki->...i", Y, Day)
        ys = np.einsum("...k,...k->...", Y, s)
        ydF = np.einsum("...k,...k->...", Y, dF)
        ymixed = 2.0 * (ydF[..., None] * m + F[..., None] * (
            yDay / a[..., None] - (ys / (2.0 * a * a))[..., None] * p
            + np.einsum("...k,...ki->...i", Y, Dbeta)))
        rhs = ymixed - 2.0 * F[..., None] * dF
        return 0.25 * np.linalg.solve(g, rhs[..., None])[..., 0]


def geodesic_spray(metric: MetricField, x, y) -> np.ndarray:
    """Spray coefficients (G^1, ..., G^n); 2-homogeneous in y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not np.any(y):
        raise ZeroBaseVector("spray undefined at y = 0")
    _check_chart(x)
    return _LocalModel(metric, x[None]).spray([0], y[None])[0]


def _flag_model(metric: MetricField, x: np.ndarray,
                y: np.ndarray) -> _LocalModel:
    # spray models at x (row 0), at the x-stencil of G (rows 1 to 4n,
    # offset-major) and at the stencil along y (the last 4 rows), for
    # each flag of the stacks x and y (F, n) on the second axis
    u = y / np.sqrt(_dot(y, y))[..., None]
    return _LocalModel(metric, np.concatenate(
        (x[None], stencil_points(x, _OUT_STEP),
         stencil_points(x, _OUT_STEP, u[None]))))


def riemann_curvature(metric: MetricField, x, y) -> np.ndarray:
    """The matrix R^i_k(y); satisfies R(y) y = 0 up to stencil noise."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not np.any(y):
        raise ZeroBaseVector("Riemann curvature undefined at y = 0")
    _check_chart(x, _RIEMANN_REACH)
    return _riemann(_flag_model(metric, x[None], y[None]), y[None])[0]


def _riemann(model: _LocalModel, y: np.ndarray) -> np.ndarray:
    # R(y) (F, n, n) for the stack y (F, n) from the models of
    # _flag_model, built for positive multiples of the rows of y; the
    # caller has checked the stencil reach
    nf, n = y.shape
    h = _OUT_STEP
    flags = np.arange(nf)
    G0 = model.spray((0, flags), y)
    g0n = np.sqrt(_dot(G0, G0))
    # the term along G0 is weighted by |G0|, so where G0 = 0 its weight
    # is 0 and any unit direction does
    live = g0n > 1e-14
    weight = np.where(live, g0n, 0.0)
    u = np.where(live[:, None], G0, np.eye(n)[0]) \
        / np.where(live, g0n, 1.0)[:, None]
    # dG/dx: y at the x-stencil models; the y-stencil of G around y at x
    # (dG/dy) and at the four models along y (for y^j d^2G/dx^j dy^k),
    # and around each point along G0 at x (for G^j d^2G/dy^j dy^k)
    centers = np.concatenate((np.broadcast_to(y, (5, nf, n)),
                              stencil_points(y, h, u[None])))
    Ys = stencil_points(centers, h)                 # [4n, center, flag, n]
    rows = np.concatenate((np.arange(1, 4 * n + 1),
                           np.tile([0, *range(4 * n + 1, 4 * n + 5),
                                    0, 0, 0, 0], 4 * n)))
    G = model.spray((rows[:, None], flags),
                    np.concatenate((np.broadcast_to(y, (4 * n, nf, n)),
                                    Ys.reshape(-1, nf, n))))

    def by_flag(d):
        # derivatives [k, flag, i] as matrices [flag, i, k]
        return np.moveaxis(d, 0, -1)

    dGdx = by_flag(stencil_derivative(G[:4 * n], h))
    # [k, center, flag, i]: the y-Jacobian of G at each center
    jac = stencil_derivative(G[4 * n:].reshape(Ys.shape), h)
    dGdy = by_flag(jac[:, 0])
    mixed = np.sqrt(_dot(y, y))[:, None, None] * by_flag(
        stencil_derivative(jac[:, 1:5].swapaxes(0, 1), h)[0])
    second = weight[:, None, None] * by_flag(
        stencil_derivative(jac[:, 5:].swapaxes(0, 1), h)[0])
    return 2.0 * dGdx - mixed + 2.0 * second - dGdy @ dGdy


@dataclass
class Flag:
    """A flag (x, y, P = span{y, v}) for the flag-curvature quotient, or a
    stack of F flags with rows x, y and v of shape (F, n).

    A zero flagpole raises ZeroBaseVector: here for one flag, and in
    flag_curvature for a stack, where the first failing flag decides.
    """

    x: np.ndarray
    y: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.y.ndim == 1 and not np.any(self.y):
            raise ZeroBaseVector("flagpole must be nonzero")


def flag_curvature(metric: MetricField, flag: Flag) -> float | np.ndarray:
    """K(x, y, span{y, v}) = <R_y v, v>_y / (|y|_y^2 |v|_y^2 - <y,v>_y^2).

    The flag is orthonormalized first (y scaled to F(y) = 1, v projected
    g_y-orthogonal to y and normalized), which makes the denominator 1.
    Invariant under v -> v + c y and v -> c v.

    A float for one flag; for a stack, the array of its F values from one
    pass, or the error that its first failing flag raises on its own, as
    in a loop over the flags.
    """
    if flag.y.ndim == 1:
        return float(_flag_curvature(metric, flag.x[None], flag.y[None],
                                     flag.v[None])[0])
    try:
        return _flag_curvature(metric, flag.x, flag.y, flag.v)
    except FinslabError:
        for row in zip(flag.x, flag.y, flag.v):
            flag_curvature(metric, Flag(*row))
        raise


def _flag_curvature(metric: MetricField, x: np.ndarray, y: np.ndarray,
                    v: np.ndarray) -> np.ndarray:
    # K over the rows of the stacks x, y and v (F, n)
    if _any(~y.any(axis=-1)):
        raise ZeroBaseVector("flagpole must be nonzero")
    _check_chart(x, _RIEMANN_REACH)
    model = _flag_model(metric, x, y)
    at_x = (0, np.arange(len(y)))
    # g_y is 0-homogeneous in y, so the g at y serves the scaled y too
    Fy, _, g = fiber(model.alpha[at_x], None if model.beta is None
                     else model.beta[at_x], y)
    if _any(Fy <= 0.0):
        raise ZeroBaseVector("flagpole has zero length")
    y = y / Fy[:, None]
    gyy = _dot(_vecmat(y, g), y)
    w = v - (_dot(_vecmat(v, g), y) / gyy)[:, None] * y
    ww = _dot(_vecmat(w, g), w)
    if _any(ww <= 1e-12 * gyy * (_dot(v, v) + 1.0)):
        raise DegenerateFlag("flag plane is numerically degenerate")
    w = w / np.sqrt(ww)[:, None]
    R = _riemann(model, y)
    return _dot(_vecmat(_matvec(R, w), g), w)


@dataclass
class GeodesicPath:
    """Discrete geodesic: times, chart/ambient samples and F along the way.

    chart_points are coordinates in the chart that was current at each
    step; re-centering events are recorded so consumers can tell frames
    apart.  Ambient samples are global and frame-free.
    """

    times: np.ndarray
    chart_points: np.ndarray
    chart_velocities: np.ndarray
    ambient_points: np.ndarray
    ambient_velocities: np.ndarray
    F_values: np.ndarray
    recenters: list

    def to_csv(self, path: str):
        n = self.chart_points.shape[1]
        header = (["t"] + [f"x{i+1}" for i in range(n)]
                  + [f"y{i+1}" for i in range(n)] + ["F"])
        data = np.column_stack([self.times, self.chart_points,
                                self.chart_velocities, self.F_values])
        np.savetxt(path, data, delimiter=",", header=",".join(header),
                   comments="")


def integrate_geodesic(metric: MetricField, x0, y0, T: float,
                       steps: int) -> GeodesicPath:
    """RK4 integration of x'' + 2 G(x, x') = 0 from (x0, y0), F-unit speed.

    The chart is re-centered at the current point whenever |x| > 1, so the
    trajectory may cross the whole sphere.
    """
    x = np.asarray(x0, dtype=float).copy()
    y = np.asarray(y0, dtype=float).copy()
    F0 = metric.norm_at(x)(y)
    if F0 <= 0.0:
        raise ZeroBaseVector("initial velocity must be nonzero")
    y /= F0
    dt = T / steps

    def rhs(xc, yc):
        return yc, -2.0 * geodesic_spray(metric, xc, yc)

    times = np.empty(steps + 1)
    cpts = np.empty((steps + 1, len(x)))
    cvel = np.empty((steps + 1, len(x)))
    apts = np.empty((steps + 1, len(x) + 1))
    avel = np.empty((steps + 1, len(x) + 1))
    fval = np.empty(steps + 1)
    recenters = []

    def record(i, t):
        times[i] = t
        cpts[i] = x
        cvel[i] = y
        J = metric.chart.jacobian(x)
        apts[i] = metric.chart.map(x)
        avel[i] = J @ y
        fval[i] = metric.norm_at(x)(y)

    record(0, 0.0)
    for i in range(steps):
        k1x, k1y = rhs(x, y)
        k2x, k2y = rhs(x + 0.5 * dt * k1x, y + 0.5 * dt * k1y)
        k3x, k3y = rhs(x + 0.5 * dt * k2x, y + 0.5 * dt * k2y)
        k4x, k4y = rhs(x + dt * k3x, y + dt * k3y)
        x = x + dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
        y = y + dt / 6.0 * (k1y + 2 * k2y + 2 * k3y + k4y)
        if np.linalg.norm(x) > 1.0:
            p = metric.chart.map(x)
            v_amb = metric.chart.jacobian(x) @ y
            metric = metric.with_center(p)
            x = np.zeros_like(x)
            y = metric.chart.basis.T @ v_amb
            recenters.append(i + 1)
        record(i + 1, (i + 1) * dt)

    return GeodesicPath(times, cpts, cvel, apts, avel, fval, recenters)


def integrate_flow(field: Callable[[np.ndarray], np.ndarray], x0,
                   T: float, steps: int) -> np.ndarray:
    """RK4 flow of a chart vector field; returns the sampled chart points."""
    x = np.asarray(x0, dtype=float).copy()
    dt = T / steps
    out = np.empty((steps + 1, len(x)))
    out[0] = x
    for i in range(steps):
        k1 = field(x)
        k2 = field(x + 0.5 * dt * k1)
        k3 = field(x + 0.5 * dt * k2)
        k4 = field(x + dt * k3)
        x = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        out[i + 1] = x
    return out


def geodesic_field_residual(metric: MetricField,
                            field: Callable[[np.ndarray], np.ndarray],
                            x) -> float:
    """Residual |J_V(x) V(x) + 2 G(x, V(x))| of the geodesic ODE for the
    integral curves of the chart vector field V, a rule over the rows of
    a stack of chart points (V is evaluated once over x and its stencil)."""
    x = np.asarray(x, dtype=float)
    V = field(np.concatenate((x[None], stencil_points(x, _FIELD_STEP))))
    JV = stencil_derivative(V[1:], _FIELD_STEP).T
    return float(np.linalg.norm(JV @ V[0]
                                + 2.0 * geodesic_spray(metric, x, V[0])))
