"""Geodesic spray, Riemann curvature, flag curvature, geodesic integration.

The spray is

    G^i(x, y) = 1/4 g^{il}(x,y) ( d^2(F^2)/dx^k dy^l y^k - d(F^2)/dx^l ),

and the Riemann curvature in chart coordinates

    R^i_k(y) = 2 dG^i/dx^k - y^j d^2 G^i/dx^j dy^k
               + 2 G^j d^2 G^i/dy^j dy^k - dG^i/dy^j dG^j/dy^k.

For quadratic and Randers pointwise norms the x-dependence of F^2 lives
entirely in the coefficient fields (A(x), or alpha(x), beta(x)), so the
spray is evaluated in closed form from those fields and their
fourth-order finite-difference x-derivatives; y-derivatives are exact.
Derivatives of G itself use fourth-order stencils at a larger step: G
carries ~1e-12 of stencil noise, and the outer steps keep the amplified
noise near 1e-7, well inside the 1e-4 acceptance band for flag curvature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (ChartBoundary, DegenerateFlag, DifferentiationFailure,
                     ZeroBaseVector)
from .minkowski import randers_fiber
from .sphere import MetricField

# 4-point, fourth-order central first-derivative stencil
_OFFS = np.array([-2.0, -1.0, 1.0, 2.0])
_WGTS = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0

_X_STEP = 1e-4      # stencil for the coefficient-field derivatives
_OUT_STEP = 5e-3    # stencils applied to the spray itself
_RIEMANN_REACH = 2.0 * _OUT_STEP + 2.0 * _X_STEP


def central_diff(fn: Callable, x, h: float, directions=None) -> np.ndarray:
    """Fourth-order central first derivatives of fn at x, step h.

    Differentiates along each row of ``directions`` (a single vector, or
    the coordinate axes by default) and stacks the results on a new first
    axis, so for array-valued fn, ``out[k]`` is d fn / d direction_k.
    Exact up to roundoff for polynomials of degree <= 4.
    """
    x = np.asarray(x, dtype=float)
    dirs = np.eye(len(x)) if directions is None else np.atleast_2d(directions)
    pts = x + h * _OFFS[:, None, None] * dirs        # [offset, direction]
    vals = np.array([[fn(p) for p in row] for row in pts])
    return np.einsum("j,j...->...", _WGTS / h, vals)


def _check_stencil(metric: MetricField, x: np.ndarray, reach: float):
    r = np.linalg.norm(x)
    if r >= metric.chart.radius:
        raise ChartBoundary(f"|x| = {r:.3f} outside chart domain")
    if r + 2.0 * reach >= metric.chart.radius:
        raise DifferentiationFailure("stencil would leave the chart domain")


class _LocalModel:
    """Closed-form spray data at one chart point.

    quad:    A and DA[k] = dA/dx^k
    randers: alpha, beta and their x-derivatives
    custom:  no closed form; sprays fall back to direct stencils of F^2
             (reduced accuracy, since the fiber derivatives are FD too)
    """

    __slots__ = ("norm", "quad", "A", "DA", "alpha", "beta", "Dalpha",
                 "Dbeta", "generic")

    def __init__(self, metric: MetricField, x: np.ndarray):
        n = metric.dim
        norm = self.norm = metric.norm_at(x)
        self.quad = norm.is_quadratic
        self.generic = None
        if norm.kind == "custom":
            self.generic = (metric, x.copy())
            return
        if self.quad:
            self.A = norm.matrix
            self.DA = central_diff(lambda xv: metric.norm_at(xv).matrix,
                                   x, _X_STEP)
        else:
            self.alpha = norm.alpha
            self.beta = norm.beta

            def coeffs(xv):
                nb = metric.norm_at(xv)
                return np.concatenate((nb.alpha, nb.beta[None]))

            D = central_diff(coeffs, x, _X_STEP)
            self.Dalpha = D[:, :n]
            self.Dbeta = D[:, n]

    def spray(self, y: np.ndarray) -> np.ndarray:
        if self.generic is not None:
            return _generic_spray(*self.generic, y)
        if self.quad:
            DAy = self.DA @ y                       # (k, l)
            s = DAy @ y                             # y^T dA/dx^k y
            rhs = 2.0 * (y @ DAy) - s
            return 0.25 * np.linalg.solve(self.A, rhs)
        a, F, p, m, g = randers_fiber(self.alpha, self.beta, y)
        Day = self.Dalpha @ y                       # (k, l)
        s = Day @ y                                 # (k,)
        dF = s / (2.0 * a) + self.Dbeta @ y         # dF/dx^k
        mixed = 2.0 * (dF[:, None] * m
                       + F * (Day / a - s[:, None] * p / (2.0 * a * a)
                              + self.Dbeta))
        rhs = y @ mixed - 2.0 * F * dF
        return 0.25 * np.linalg.solve(g, rhs)


def _generic_spray(metric: MetricField, x: np.ndarray,
                   y: np.ndarray) -> np.ndarray:
    # direct stencils of F^2 for pointwise norms without stored
    # coefficient fields
    g = 0.5 * metric.norm_at(x).sq_jet(y).hess
    yn = np.linalg.norm(y)
    dgrad = yn * central_diff(
        lambda xv: metric.norm_at(xv).sq_jet(y).grad,
        x, _X_STEP, y / yn)[0]
    dphi = central_diff(lambda xv: metric.norm_at(xv)(y) ** 2, x, _X_STEP)
    return 0.25 * np.linalg.solve(g, dgrad - dphi)


def geodesic_spray(metric: MetricField, x, y) -> np.ndarray:
    """Spray coefficients (G^1, ..., G^n); 2-homogeneous in y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not np.any(y):
        raise ZeroBaseVector("spray undefined at y = 0")
    _check_stencil(metric, x, _X_STEP * 2.0)
    return _LocalModel(metric, x).spray(y)


def riemann_curvature(metric: MetricField, x, y) -> np.ndarray:
    """The matrix R^i_k(y); satisfies R(y) y = 0 up to stencil noise."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not np.any(y):
        raise ZeroBaseVector("Riemann curvature undefined at y = 0")
    _check_stencil(metric, x, _RIEMANN_REACH)
    return _riemann(metric, x, y, _LocalModel(metric, x))


def _riemann(metric: MetricField, x: np.ndarray, y: np.ndarray,
             base: _LocalModel) -> np.ndarray:
    # R(y) from the model at x; the caller has checked the stencil reach
    h = _OUT_STEP

    def y_jacobian(model: _LocalModel, yv: np.ndarray) -> np.ndarray:
        return central_diff(model.spray, yv, h)       # [k, i] = dG^i/dy^k

    G0 = base.spray(y)
    dGdx = central_diff(lambda xv: _LocalModel(metric, xv).spray(y), x, h).T
    dGdy = y_jacobian(base, y).T
    # y^j d^2G/dx^j dy^k: the y-Jacobian differentiated in x along y, so
    # each of the four off-center models is built once
    yn = np.linalg.norm(y)
    mixed = yn * central_diff(
        lambda xv: y_jacobian(_LocalModel(metric, xv), y), x, h, y / yn)[0].T
    # G^j d^2G/dy^j dy^k: the y-Jacobian differentiated in y along G
    g0n = np.linalg.norm(G0)
    second = np.zeros_like(dGdy)
    if g0n > 1e-14:
        second = g0n * central_diff(
            lambda yv: y_jacobian(base, yv), y, h, G0 / g0n)[0].T
    return 2.0 * dGdx - mixed + 2.0 * second - dGdy @ dGdy


@dataclass
class Flag:
    """A flag (x, y, P = span{y, v}) for the flag-curvature quotient."""

    x: np.ndarray
    y: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if not np.any(self.y):
            raise ZeroBaseVector("flagpole must be nonzero")


def flag_curvature(metric: MetricField, flag: Flag) -> float:
    """K(x, y, span{y, v}) = <R_y v, v>_y / (|y|_y^2 |v|_y^2 - <y,v>_y^2).

    The flag is orthonormalized first (y scaled to F(y) = 1, v projected
    g_y-orthogonal to y and normalized), which makes the denominator 1.
    Invariant under v -> v + c y and v -> c v.
    """
    x, y, v = flag.x, flag.y, flag.v
    _check_stencil(metric, x, _RIEMANN_REACH)
    base = _LocalModel(metric, x)
    norm = base.norm
    Fy = norm(y)
    if Fy <= 0.0:
        raise ZeroBaseVector("flagpole has zero length")
    y = y / Fy
    g = 0.5 * norm.sq_jet(y).hess
    gyy = float(y @ g @ y)
    v = v - (float(v @ g @ y) / gyy) * y
    vv = float(v @ g @ v)
    if vv <= 1e-12 * gyy * float(flag.v @ flag.v + 1.0):
        raise DegenerateFlag("flag plane is numerically degenerate")
    v = v / np.sqrt(vv)
    R = _riemann(metric, x, y, base)
    return float((R @ v) @ g @ v)


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
                       steps: Optional[int] = None) -> GeodesicPath:
    """RK4 integration of x'' + 2 G(x, x') = 0 from (x0, y0), F-unit speed.

    The chart is re-centered at the current point whenever |x| > 1, so the
    trajectory may cross the whole sphere; ChartBoundary is raised only if
    re-centering is impossible for this metric kind.
    """
    x = np.asarray(x0, dtype=float).copy()
    y = np.asarray(y0, dtype=float).copy()
    F0 = metric.value(x, y)
    if F0 <= 0.0:
        raise ZeroBaseVector("initial velocity must be nonzero")
    y /= F0
    if steps is None:
        steps = max(int(np.ceil(1000 * abs(T) / np.pi)), 16)
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
        fval[i] = metric.value(x, y)

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
                   T: float, steps: int = 200) -> np.ndarray:
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
                            x, step: float = 1e-3) -> float:
    """Residual |J_V(x) V(x) + 2 G(x, V(x))| of the geodesic ODE for the
    integral curves of the chart vector field V."""
    x = np.asarray(x, dtype=float)
    V = field(x)
    JV = central_diff(field, x, step).T
    return float(np.linalg.norm(JV @ V + 2.0 * geodesic_spray(metric, x, V)))
