"""Geodesic spray, Riemann curvature, flag curvature, geodesic integration.

The spray is

    G^i(x, y) = 1/4 g^{il}(x,y) ( d^2(F^2)/dx^k dy^l y^k - d(F^2)/dx^l ),

and the Riemann curvature in chart coordinates

    R^i_k(y) = 2 dG^i/dx^k - y^j d^2 G^i/dx^j dy^k
               + 2 G^j d^2 G^i/dy^j dy^k - dG^i/dy^j dG^j/dy^k.

For a quadratic or Randers pointwise norm the x-dependence of F^2
lives in its coefficient fields (A(x), or alpha(x), beta(x)), and the
spray is a closed form in the coefficient jet that the metric field's
builder returns, the fields and their x-derivatives: G = Gamma y y / 2
for a quadratic field, and for F = alpha + beta (Chern-Shen,
*Riemann-Finsler Geometry*, 2005)

    G = G_alpha + (r00 - 2 alpha s0) / (2F) y + alpha S y,

with G_alpha the spray of alpha, r and s the symmetric and skew parts of
the alpha-covariant derivative of beta, S = alpha^-1 s and
s0 = b^i s_ij y^j.  Its y-Jacobian and y-Hessian are closed forms too,
so every y-derivative of G is exact.  So are its x-derivatives, by a
complex step (Squire-Trapp, SIAM Rev. 40, 1998): a builder is analytic
in the chart point, and the spray in the jet, so for real x and y and
a tiny real h

    dG/dx^k = Im G(x + ih e_k) / h,
    y^j d^2G/dx^j dy = |y| Im J(x + ih u) / h,   u = y / |y|,

to roundoff.  No difference is taken, so nothing cancels, and a model
point leaves x by an imaginary part alone, so it needs no reach beyond
the chart domain at x.

A flag needs spray models at n + 2 chart points, fixed by (x, y) before
anything is evaluated: x, the n points x + ih e_k and x + ih u.  So R_y
is computed in array passes, and a stack of flags in the same passes as
one.  For a stack of F flags, the coefficient jets of all F (n + 2)
points come from one builder call, one batched solve per point gives
the Christoffel symbols of alpha and alpha^-1 s, and the spray, its
y-Jacobian and y-Hessian at every point are contractions over the whole
stack.  geodesic_spray and riemann_curvature are the one-point cases of
the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ChartBoundary, DegenerateFlag, FinslabError, ZeroBaseVector
from .minkowski import _any, _dot, _matvec, _vecmat, fiber
from .sphere import _CHART_RADIUS, MetricField

# 4-point, fourth-order central first-derivative stencil
_OFFS = np.array([-2.0, -1.0, 1.0, 2.0])
_WGTS = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0

_OUT_STEP = 1e-30   # complex step of the spray's x-derivatives
_FIELD_STEP = 1e-3  # stencil for the Jacobian of a chart vector field


def stencil_points(x, h: float) -> np.ndarray:
    """The points of the coordinate derivative stencils of x (any leading
    axes, last axis n) at step h, stacked offset-major on a new first
    axis: row j * n + k is x + h * _OFFS[j] * e_k."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    steps = (h * _OFFS)[:, None, None] * np.eye(n)          # [j, k, :]
    return x + steps.reshape((4 * n,) + (1,) * (x.ndim - 1) + (n,))


def stencil_derivative(values, h: float) -> np.ndarray:
    """Fourth-order central first derivatives from the values at the rows
    of stencil_points (first axis 4n): ``out[k]`` is the derivative along
    axis k.  Exact up to roundoff for polynomials of degree <= 4."""
    values = np.asarray(values)
    D = values.reshape((4, len(values) // 4) + values.shape[1:])
    return np.einsum("j,j...->...", _WGTS / h, D)


def _check_chart(x: np.ndarray):
    # ChartBoundary outside the chart domain
    r = np.sqrt(_dot(x, x))
    if _any(r >= _CHART_RADIUS):
        raise ChartBoundary(f"|x| = {np.max(r):.3f} outside chart domain")


def _spray_jet(alpha, beta, Dalpha, Dbeta, y) -> tuple:
    """(G, J, H) at y over the leading axes of the coefficient jet of
    MetricField.coefficients (beta None for a quadratic field), those of
    y broadcast against them: the spray G^i, its y-Jacobian
    J[..., i, k] = dG^i/dy^k and y-Hessian H[..., i, j, k].

    G = G_alpha + (r00 - 2 a s0) / (2F) y + a S y (Chern-Shen 2005),
    with G_alpha = Gamma y y / 2 and Gamma the Christoffel symbols of
    alpha, a = |y|_alpha, r and s the symmetric and skew parts of the
    alpha-covariant derivative b_i|j of beta, S = alpha^-1 s and
    s_j = b^i s_ij = b_i S^i_j.  One batched solve per model point gives
    Gamma and S; each y needs contractions only.  Analytic in the jet (no
    abs and no comparison), so a complex jet gives the complex-step values.
    """
    n = y.shape[-1]
    # Gamma_{l,jk} = (d_j alpha_lk + d_k alpha_lj - d_l alpha_jk) / 2 on
    # axes [l, j, k], from Dalpha[..., k, i, j] = d_k alpha_ij
    low = 0.5 * (Dalpha.swapaxes(-3, -2) + Dalpha.swapaxes(-3, -1) - Dalpha)
    rhs = low.reshape(low.shape[:-2] + (n * n,))
    if beta is not None:
        # s_ij = (d_j b_i - d_i b_j) / 2, as Gamma is symmetric
        s = 0.5 * (Dbeta.swapaxes(-1, -2) - Dbeta)
        rhs = np.concatenate((rhs, s), axis=-1)
    sol = np.linalg.solve(alpha, rhs)
    Gam = sol[..., :n * n].reshape(sol.shape[:-1] + (n, n))
    J = (Gam @ y[..., None, :, None])[..., 0]          # Gamma y
    G = 0.5 * _matvec(J, y)
    if beta is None:
        return G, J, Gam
    S = sol[..., n * n:]
    # r_ij = (d_j b_i + d_i b_j) / 2 - b_k Gamma^k_ij
    r = 0.5 * (Dbeta + Dbeta.swapaxes(-1, -2)) \
        - _vecmat(beta, sol[..., :n * n]).reshape(S.shape)
    s_vec = _vecmat(beta, S)
    ay = _matvec(alpha, y)
    a = np.sqrt(_dot(y, ay))[..., None]
    F = a + _dot(beta, y)[..., None]
    p = ay / a
    m = p + beta
    ry, Sy = _matvec(r, y), _matvec(S, y)
    s0 = _dot(s_vec, y)[..., None]
    # G = G_alpha + P y + a S y with 2 F P = r00 - 2 a s0; differentiate
    # that relation once and twice for dP and ddP
    P = (_dot(ry, y)[..., None] - 2.0 * a * s0) / (2.0 * F)
    dP = (ry - s0 * p - a * s_vec - P * m) / F
    q = (alpha - p[..., :, None] * p[..., None, :]) / a[..., None]
    pm = p[..., :, None] * s_vec[..., None, :] \
        + m[..., :, None] * dP[..., None, :]
    ddP = (r - (s0 + P)[..., None] * q - pm - pm.swapaxes(-1, -2)) \
        / F[..., None]
    eye = np.eye(n)
    G = G + P * y + a * Sy
    J = J + y[..., :, None] * dP[..., None, :] + P[..., None] * eye \
        + Sy[..., :, None] * p[..., None, :] + a[..., None] * S
    # [i, j, k]: delta_ij dP_k + S^i_j p_k, and its swap j <-> k
    T = eye[:, :, None] * dP[..., None, None, :] \
        + S[..., :, :, None] * p[..., None, None, :]
    H = Gam + y[..., :, None, None] * ddP[..., None, :, :] \
        + Sy[..., :, None, None] * q[..., None, :, :] + T + T.swapaxes(-1, -2)
    return G, J, H


def geodesic_spray(metric: MetricField, x, y) -> np.ndarray:
    """Spray coefficients (G^1, ..., G^n); 2-homogeneous in y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not np.any(y):
        raise ZeroBaseVector("spray undefined at y = 0")
    _check_chart(x)
    return _spray_jet(*metric.coefficients(x), y)[0]


def _flag_points(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # the spray-model points of the flags of the stacks x and y (F, n), on
    # a new first axis: x (row 0), x + ih e_k (rows 1 to n) and x + ih u,
    # u = y / |y| (the last row)
    n = x.shape[-1]
    steps = np.zeros((n + 2,) + x.shape)
    steps[1:n + 1] = np.eye(n)[:, None, :]
    steps[n + 1] = y / np.sqrt(_dot(y, y))[..., None]
    return x + 1j * _OUT_STEP * steps


def riemann_curvature(metric: MetricField, x, y) -> np.ndarray:
    """The matrix R^i_k(y); satisfies R(y) y = 0 up to roundoff."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not np.any(y):
        raise ZeroBaseVector("Riemann curvature undefined at y = 0")
    _check_chart(x)
    jet = metric.coefficients(_flag_points(x[None], y[None]))
    return _riemann(jet, y[None])[0]


def _riemann(jet: tuple, y: np.ndarray) -> np.ndarray:
    # R(y) (F, n, n) for the stack y (F, n) from the coefficient jet at
    # the points of _flag_points, built for positive multiples of the
    # rows of y
    n = y.shape[-1]
    G, J, H = _spray_jet(*jet, y)
    # [k, flag, i] derivatives of G along the axes, as [flag, i, k]
    dGdx = np.moveaxis(G[1:n + 1].imag, 0, -1) / _OUT_STEP
    mixed = np.sqrt(_dot(y, y))[:, None, None] * J[n + 1].imag / _OUT_STEP
    G0, J0 = G[0].real, J[0].real
    # G^j d^2G^i/dy^j dy^k; H is symmetric in j and k
    second = (H[0].real @ G0[:, None, :, None])[..., 0]
    return 2.0 * dGdx - mixed + 2.0 * second - J0 @ J0


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
    _check_chart(x)
    jet = metric.coefficients(_flag_points(x, y))
    # g_y is 0-homogeneous in y, so the g at y serves the scaled y too
    Fy, _, g = fiber(jet[0][0].real,
                     None if jet[1] is None else jet[1][0].real, y)
    if _any(Fy <= 0.0):
        raise ZeroBaseVector("flagpole has zero length")
    y = y / Fy[:, None]
    gyy = _dot(_vecmat(y, g), y)
    w = v - (_dot(_vecmat(v, g), y) / gyy)[:, None] * y
    ww = _dot(_vecmat(w, g), w)
    if _any(ww <= 1e-12 * gyy * (_dot(v, v) + 1.0)):
        raise DegenerateFlag("flag plane is numerically degenerate")
    w = w / np.sqrt(ww)[:, None]
    R = _riemann(jet, y)
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
    trajectory may cross the whole sphere.  A step builds the coefficient
    jet four times: at its three inner RK4 stages and at its end point,
    whose jet gives the recorded F and the next step's first stage.
    """
    x = np.asarray(x0, dtype=float).copy()
    y = np.asarray(y0, dtype=float).copy()
    jet = metric.coefficients(x)
    F0 = fiber(jet[0], jet[1], y)[0]
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
        # at (x, y), whose coefficient jet is jet
        times[i] = t
        cpts[i] = x
        cvel[i] = y
        J = metric.chart.jacobian(x)
        apts[i] = metric.chart.map(x)
        avel[i] = J @ y
        fval[i] = fiber(jet[0], jet[1], y)[0]

    record(0, 0.0)
    for i in range(steps):
        k1x, k1y = y, -2.0 * _spray_jet(*jet, y)[0]
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
        jet = metric.coefficients(x)
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
