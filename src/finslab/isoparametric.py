"""Nonlinear gradient and Laplacian, level sets, transnormality, spectra.

For a scalar function f on a Finsler sphere the nonlinear gradient at a
regular point is the Legendre dual of df:

    < grad f, v >^F_{grad f} = df(v)   for all v,

and the nonlinear Laplacian is the Laplace-Beltrami operator of the
localization metric q(x) = g^F(x, grad f(x)).  Since q grad f = df by the
defining relation, the divergence form collapses to

    (Lap f)(x) = (det q)^{-1/2} d_i ( sqrt(det q) (grad f)^i ),

with grad f recomputed at every stencil point (the localization is a
field, not a frozen inner product).

A function is transnormal when F(grad f) is constant on each level and
isoparametric when Lap f is too; the checks below sample level sets and
report the per-level spread of those quantities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg import expm

from .clifford import CliffordSystem, otfkm_gradient, otfkm_value
from .curvature import stencil_derivative, stencil_points
from .errors import (ClusterAmbiguity, CriticalPoint, DimensionMismatch,
                     EmptyLevel, StencilEscape)
from .minkowski import _any, _dot, _matvec, legendre_solve, randers_fiber
from .report import VerificationReport, worst_deviation
from .sphere import (Chart, KillingField, MetricField, _complete_basis,
                     random_sphere_points)

_CRITICAL_EPS = 1e-10
_NEWTON_CAP = 60        # Newton steps of a level-set projection
_STENCIL_STEP = 1e-3    # chart stencils of the Laplacian and the spectrum
_GAP = 1e-2             # relative eigenvalue gap between clusters


class SphereFunction:
    """A smooth scalar function on S^n given by an ambient rule.

    value maps points (..., n+1) to values (...) and gradient, when given,
    to ambient gradients (..., n+1): both broadcast over the rows of a
    stack of points.
    """

    def __init__(self, ambient_dim: int, kind: str,
                 value: Callable[[np.ndarray], np.ndarray],
                 gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None):
        self.ambient_dim = ambient_dim
        self.kind = kind
        self._value = value
        self._gradient = gradient

    def __call__(self, p):
        """f(p): a float for one point, an array over the rows of a stack."""
        v = self._value(np.asarray(p, dtype=float))
        return float(v) if np.ndim(v) == 0 else v

    def gradient(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if self._gradient is not None:
            return self._gradient(p)
        D = stencil_derivative(self._value(stencil_points(p, 1e-3)), 1e-3)
        return np.moveaxis(D, 0, -1)

    def tangent_gradient(self, p) -> np.ndarray:
        """Ambient gradient projected onto T_p S^n."""
        p = np.asarray(p, dtype=float)
        g = self.gradient(p)
        return g - _dot(g, p)[..., None] * p

    def chart_gradient(self, chart: Chart, x) -> np.ndarray:
        """d(f o map) at x: the chart covector of df."""
        J = chart.jacobian(x)
        return _matvec(J.swapaxes(-1, -2), self.gradient(chart.map(x)))

    def __neg__(self) -> "SphereFunction":
        grad = None
        if self._gradient is not None:
            grad = lambda p: -self._gradient(p)
        return SphereFunction(self.ambient_dim, self.kind,
                              lambda p: -self._value(p), grad)


def height_function(ambient_dim: int, axis=0) -> SphereFunction:
    """f(p) = p . a for a unit axis (index or vector); levels are latitude
    spheres."""
    if np.isscalar(axis):
        a = np.zeros(ambient_dim)
        a[int(axis)] = 1.0
    else:
        a = np.asarray(axis, dtype=float)
        a = a / np.linalg.norm(a)
    return SphereFunction(ambient_dim, "height", lambda p: _dot(p, a),
                          lambda p: np.broadcast_to(a, p.shape).copy())


def otfkm_function(sys_: CliffordSystem) -> SphereFunction:
    """The quartic polynomial of a symmetric Clifford system."""
    return SphereFunction(sys_.dim, "otfkm",
                          lambda p: otfkm_value(sys_, p),
                          lambda p: otfkm_gradient(sys_, p))


def split_quadratic_function(ambient_dim: int, p_split: int) -> SphereFunction:
    """f(x) = |x_first|^2 - |x_rest|^2; levels are products of spheres."""
    mask = np.ones(ambient_dim)
    mask[p_split:] = -1.0
    return SphereFunction(ambient_dim, "split-quadratic",
                          lambda p: _dot(p * p, mask),
                          lambda p: 2.0 * mask * p)


def custom_sphere_function(ambient_dim: int, value,
                           gradient=None) -> SphereFunction:
    """A SphereFunction from rules that broadcast over rows."""
    return SphereFunction(ambient_dim, "custom", value, gradient)


def _project(f: SphereFunction, c: float, P: np.ndarray) -> tuple:
    # Newton projection of the rows of P onto {f = c} along the tangential
    # gradient, each row halving its own step until its residual drops;
    # returns the projected rows and whether each reached |f - c| < 1e-12
    P = P.copy()
    R = f(P) - c
    ok = np.zeros(len(P), dtype=bool)
    live = np.arange(len(P))
    for _ in range(_NEWTON_CAP):
        done = np.abs(R[live]) < 1e-12
        ok[live[done]] = True
        live = live[~done]
        t = f.tangent_gradient(P[live])
        tt = _dot(t, t)
        go = tt >= 1e-12
        live, t, tt = live[go], t[go], tt[go]
        p, r = P[live], R[live]
        step = (-r / tt)[:, None] * t
        scale = np.ones(len(live))
        todo = np.arange(len(live))
        for _ in range(30):
            q = p[todo] + scale[todo, None] * step[todo]
            q = q / np.linalg.norm(q, axis=1, keepdims=True)
            rq = f(q) - c
            better = np.abs(rq) < np.abs(r[todo])
            P[live[todo[better]]] = q[better]
            R[live[todo[better]]] = rq[better]
            todo = todo[~better]
            scale[todo] *= 0.5
            if not len(todo):
                break
        live = np.delete(live, todo)        # the rows whose halving stalled
        if not len(live):
            break
    return P, ok


def sample_level_set(f: SphereFunction, c: float, count: int,
                     seed: int) -> np.ndarray:
    """The rows of a (count, n+1) array of points with |f - c| < 1e-10,
    found by Newton projection.

    Random sphere points flow along the tangential gradient of f (with
    step halving when the residual worsens) until the level is hit.  The
    seeds go through in blocks drawn from one generator stream, so the
    points and their order are those of a seed-by-seed pass over at most
    40 count + 200 seeds.  Deterministic given the seed; raises
    EmptyLevel when no seed point converges (e.g. c outside the range of
    f).
    """
    rng = np.random.default_rng(seed)
    n = f.ambient_dim - 1
    out = np.empty((0, n + 1))
    attempts, cap = 0, 40 * count + 200
    while len(out) < count and attempts < cap:
        # as many seeds as points are missing, and at least as many as all
        # blocks so far, so a level where seeds fail needs few passes
        block = min(cap - attempts, max(count - len(out), attempts))
        attempts += block
        P, ok = _project(f, c, random_sphere_points(n, block, rng))
        # c must also be a regular value at the found point
        keep = ok & (np.linalg.norm(f.tangent_gradient(P), axis=1) > 1e-6)
        out = np.concatenate((out, P[keep]))
    out = out[:count]
    if not len(out):
        raise EmptyLevel(f"no sample of level {c} converged")
    if len(out) < count:
        raise EmptyLevel(
            f"only {len(out)}/{count} samples of level {c} converged")
    return out


def _dual(metric: MetricField, f: SphereFunction, X,
          stencil: bool = False) -> tuple:
    """(F(grad f), g_{grad f}, grad f) over the leading axes of the chart
    points X: one builder call and one Legendre solve of df.

    Raises CriticalPoint where |df| < 1e-10.  With stencil, the results
    cover X (row 0) and its coordinate stencil_points at _STENCIL_STEP
    (rows 1 to 4n) in the same pass, and a critical stencil point raises
    StencilEscape.
    """
    X = np.asarray(X, dtype=float)
    if stencil:
        X = np.concatenate((X[None], stencil_points(X, _STENCIL_STEP)))
    df = f.chart_gradient(metric.chart, X)
    small = np.linalg.norm(df, axis=-1) < _CRITICAL_EPS
    if _any(small[0] if stencil else small):
        raise CriticalPoint("df vanishes; nonlinear gradient undefined")
    if _any(small):
        raise StencilEscape("stencil point hit the critical set")
    alpha, beta = metric.coefficients(X)
    grad = legendre_solve((alpha, beta), df)
    if beta is None:
        return np.sqrt(_dot(grad, _matvec(alpha, grad))), alpha, grad
    _, F, _, _, g = randers_fiber(alpha, beta, grad)
    return F, g, grad


def nonlinear_gradient(metric: MetricField, f: SphereFunction,
                       x) -> np.ndarray:
    """The Legendre dual of df at a regular chart point (or over the rows
    of a stack of them).

    Satisfies <grad f, v>^F_{grad f} = df(v) on a basis and points in the
    increasing direction of f.  Raises CriticalPoint when |df| < 1e-10.
    """
    return _dual(metric, f, x)[2]


def nonlinear_gradient_extended(metric: MetricField, f: SphereFunction,
                                x) -> np.ndarray:
    """Continuous extension of the nonlinear gradient at one chart point:
    0 on the critical set."""
    try:
        return nonlinear_gradient(metric, f, x)
    except CriticalPoint:
        return np.zeros(metric.dim)


def gradient_norm(metric: MetricField, f: SphereFunction, x):
    """F(grad f)(x), the transnormal quantity, over the rows of x."""
    return _dual(metric, f, x)[0]


def unit_gradient_field(metric: MetricField, f: SphereFunction
                        ) -> Callable[[np.ndarray], np.ndarray]:
    """The F-unit normal field of the levels of f, grad f / F(grad f),
    over the rows of its chart points."""

    def field(x: np.ndarray) -> np.ndarray:
        F, _, grad = _dual(metric, f, x)
        return grad / F[..., None]

    return field


def nonlinear_laplacian(metric: MetricField, f: SphereFunction, x):
    """Laplace-Beltrami of f in the localization metric g^F_{grad f}, over
    the rows of x."""
    _, q, grad = _dual(metric, f, x, stencil=True)
    flux = np.sqrt(np.linalg.det(q[1:]))[..., None] * grad[1:]
    div = np.einsum("k...k->...", stencil_derivative(flux, _STENCIL_STEP))
    return div / np.sqrt(np.linalg.det(q[0]))


def _per_level_scan(metric: MetricField, f: SphereFunction, levels,
                    per_level: int, seed: int, quantity) -> tuple[list, float]:
    # quantity(fld, f, x) evaluates every sample of a level at once, at
    # the origins x of the stack of charts centered on the samples
    stats = []
    for idx, c in enumerate(levels):
        points = sample_level_set(f, float(c), per_level, seed + 37 * idx)
        fld = metric.with_center(points)
        x = np.zeros((len(points), metric.dim))
        vals = np.asarray(quantity(fld, f, x))
        spread = float(vals.max() - vals.min())
        stats.append({"level": float(c), "mean": float(vals.mean()),
                      "spread": spread})
    return stats, worst_deviation(s["spread"] for s in stats)


def check_transnormal(metric: MetricField, f: SphereFunction, levels,
                      per_level: int = 50, tol: float = 1e-6,
                      seed: int = 0) -> VerificationReport:
    """Spread of F(grad f) across each sampled level.

    Passes iff every spread is below tol; the per-level means are the
    fitted profile a(c) of F(grad f) = a(f).
    """
    stats, worst = _per_level_scan(metric, f, levels, per_level, seed,
                                   gradient_norm)
    return VerificationReport(
        check="transnormal",
        config={"metric": metric.kind, "function": f.kind,
                "levels": [float(c) for c in levels],
                "per_level": per_level, "tol": tol, "seed": seed},
        n_samples=per_level * len(list(levels)),
        max_deviation=worst,
        per_level=stats,
        passed=bool(worst < tol),
    )


def check_isoparametric(metric: MetricField, f: SphereFunction, levels,
                        per_level: int = 50, tol: float = 1e-3,
                        seed: int = 0) -> VerificationReport:
    """Spread of the nonlinear Laplacian across each level, for f and -f.

    The reverse check matters because gradient and Laplacian are not odd
    in f for a non-reversible metric.
    """
    stats, worst = _per_level_scan(metric, f, levels, per_level, seed,
                                   nonlinear_laplacian)
    stats_r, worst_r = _per_level_scan(metric, -f, [-c for c in levels],
                                       per_level, seed + 1,
                                       nonlinear_laplacian)
    for entry in stats:
        entry["function"] = "f"
    for entry in stats_r:
        entry["function"] = "-f"
    worst = worst_deviation((worst, worst_r))
    return VerificationReport(
        check="isoparametric",
        config={"metric": metric.kind, "function": f.kind,
                "levels": [float(c) for c in levels],
                "per_level": per_level, "tol": tol, "seed": seed},
        n_samples=per_level * len(list(levels)) * 2,
        max_deviation=worst,
        per_level=stats + stats_r,
        passed=bool(worst < tol),
    )


def check_tangency(f: SphereFunction, W: KillingField, samples: int = 500,
                   tol: float = 1e-8, seed: int = 0) -> VerificationReport:
    """max |df(W x)| over sampled sphere points.

    Small residuals mean the flow of W preserves f; a short expm flow is
    cross-checked on a few points.
    """
    rng = np.random.default_rng(seed)
    pts = random_sphere_points(f.ambient_dim - 1, samples, rng)
    resid = np.abs(_dot(f.gradient(pts), pts @ W.matrix.T))
    head = pts[:20]
    flow_dev = float(np.abs(f(head @ expm(0.1 * W.matrix).T) - f(head)).max())
    worst = float(resid.max())
    return VerificationReport(
        check="tangency",
        config={"function": f.kind, "samples": samples, "tol": tol,
                "seed": seed},
        n_samples=samples,
        max_deviation=worst,
        per_level=[{"level": "df(W)", "mean": float(resid.mean()),
                    "spread": worst},
                   {"level": "flow(0.1)", "mean": flow_dev,
                    "spread": flow_dev}],
        passed=bool(worst < tol),
    )


@dataclass
class SpectrumResult:
    """Clustered shape-operator spectrum of one level hypersurface."""

    level: float
    g: int
    multiplicities: tuple
    cluster_means: list
    consistent: bool
    per_point: list = field(default_factory=list)


def _cluster(evals: np.ndarray, gap: float) -> list[tuple[float, int]]:
    thresh = gap * max(1.0, float(np.abs(evals).max()))
    clusters = []
    run = [evals[0]]
    for lam in evals[1:]:
        if lam - run[-1] > thresh:
            clusters.append(run)
            run = [lam]
        else:
            run.append(lam)
    clusters.append(run)
    return [(float(np.mean(r)), len(r)) for r in clusters]


def principal_curvature_spectrum(metric: MetricField, f: SphereFunction,
                                 c: float, points: int = 20,
                                 seed: int = 0) -> SpectrumResult:
    """Shape-operator eigenvalues of the level {f = c}, clustered.

    The shape operator is taken with respect to the localization metric
    q = g^F_{grad f}: S(u) = -(nabla^q_u n1) on the q-orthogonal
    complement of the F-unit normal n1 = grad f / F(grad f), with the
    covariant derivative assembled from finite differences of q.
    Eigenvalues are clustered by the relative gap _GAP; a clustering that
    changes under halving/doubling the gap raises ClusterAmbiguity.  The
    result is consistent when every sampled point reports the same
    multiplicities.  A level of S^1 is a set of points and raises
    DimensionMismatch.
    """
    n = metric.dim
    if n < 2:
        raise DimensionMismatch("a level of S^1 has no principal curvatures")
    fld = metric.with_center(sample_level_set(f, c, points, seed))
    # every sample's center and coordinate stencil in one pass: q and the
    # unit normal nu, then their x-derivatives d_k on the first axis
    F, q, grad = _dual(fld, f, np.zeros((points, n)), stencil=True)
    nu = grad / F[..., None]
    q0, nu0 = q[0], nu[0]
    # ker df is the q-orthogonal complement of nu, since q nu = df / F;
    # U holds a Euclidean orthonormal basis of it in its columns
    w = _matvec(q0, nu0)
    U = _complete_basis(w / np.sqrt(_dot(w, w))[:, None])
    Ut = U.swapaxes(1, 2)
    # q(nabla^q_u nu, v) = (d_u nu)^T q v + 1/2 E(nu, u, v), and II is
    # minus that, with E_ijl = d_i q_jl + d_j q_il - d_l q_ij twice the
    # Christoffel symbols of the first kind; the part of E(nu, u, v) that
    # is antisymmetric in (u, v) drops out of sym(II), leaving (d_nu q)(u, v)
    dnu = np.einsum("kpm,pka->pam",
                    stencil_derivative(nu[1:], _STENCIL_STEP), U)
    dq_nu = np.einsum("kpab,pk->pab",
                      stencil_derivative(q[1:], _STENCIL_STEP), nu0)
    II = -dnu @ q0 @ U - 0.5 * Ut @ dq_nu @ U
    # principal curvatures: the eigenvalues of L^-1 sym(II) L^-T, with
    # L L^T = U^T q U the Gram of the basis
    L = np.linalg.cholesky(Ut @ q0 @ U)
    LS = np.linalg.solve(L, 0.5 * (II + II.swapaxes(1, 2)))
    per_point = []
    signatures = set()
    for evals in np.linalg.eigvalsh(np.linalg.solve(L, LS.swapaxes(1, 2))):
        clusters = _cluster(evals, _GAP)
        lo = _cluster(evals, 0.5 * _GAP)
        hi = _cluster(evals, 2.0 * _GAP)
        if len(lo) != len(clusters) or len(hi) != len(clusters):
            raise ClusterAmbiguity(
                f"clustering unstable at level {c}: "
                f"{len(lo)}/{len(clusters)}/{len(hi)} clusters")
        per_point.append(clusters)
        signatures.add(tuple(mult for _, mult in clusters))

    consistent = len(signatures) == 1
    first = per_point[0]
    g = len(first)
    mults = tuple(mult for _, mult in first)
    means = [float(np.mean([pt[i][0] for pt in per_point]))
             for i in range(g)] if consistent else [m for m, _ in first]
    return SpectrumResult(level=float(c), g=g, multiplicities=mults,
                          cluster_means=means, consistent=consistent,
                          per_point=per_point)
