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
from .sphere import Chart, KillingField, MetricField, random_sphere_points

_CRITICAL_EPS = 1e-10


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

    def chart_value(self, chart: Chart, x):
        return self(chart.map(x))

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


@dataclass
class LevelSetSample:
    """One projected point of a level set with its gradient data."""

    point: np.ndarray
    f_value: float
    h_gradient: np.ndarray


def _project(f: SphereFunction, c: float, P: np.ndarray,
             newton_cap: int) -> tuple:
    # Newton projection of the rows of P onto {f = c} along the tangential
    # gradient, each row halving its own step until its residual drops;
    # returns the projected rows and whether each reached |f - c| < 1e-12
    P = P.copy()
    R = f(P) - c
    ok = np.zeros(len(P), dtype=bool)
    live = np.arange(len(P))
    for _ in range(newton_cap):
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


def sample_level_set(f: SphereFunction, c: float, count: int, seed: int,
                     newton_cap: int = 60) -> list[LevelSetSample]:
    """Draw ``count`` points with |f - c| < 1e-10 by Newton projection.

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
    out = []
    attempts, cap = 0, 40 * count + 200
    while len(out) < count and attempts < cap:
        # as many seeds as points are missing, and at least as many as all
        # blocks so far, so a level where seeds fail needs few passes
        block = min(cap - attempts, max(count - len(out), attempts))
        attempts += block
        P, ok = _project(f, c, random_sphere_points(n, block, rng),
                         newton_cap)
        grad_t = f.tangent_gradient(P)
        # c must also be a regular value at the found point
        keep = ok & (np.linalg.norm(grad_t, axis=1) > 1e-6)
        vals = f(P[keep])
        out += [LevelSetSample(point=p, f_value=float(v), h_gradient=g)
                for p, v, g in zip(P[keep], vals, grad_t[keep])]
    out = out[:count]
    if not out:
        raise EmptyLevel(f"no sample of level {c} converged")
    if len(out) < count:
        raise EmptyLevel(
            f"only {len(out)}/{count} samples of level {c} converged")
    return out


def _dual(metric: MetricField, f: SphereFunction, X,
          step: Optional[float] = None) -> tuple:
    """(F(grad f), g_{grad f}, grad f) over the leading axes of the chart
    points X: one builder call and one Legendre solve of df.

    Raises CriticalPoint where |df| < 1e-10.  With a step, the results
    cover X (row 0) and its coordinate stencil_points (rows 1 to 4n) in
    the same pass, and a critical stencil point raises StencilEscape.
    """
    X = np.asarray(X, dtype=float)
    if step is not None:
        X = np.concatenate((X[None], stencil_points(X, step)))
    df = f.chart_gradient(metric.chart, X)
    small = np.linalg.norm(df, axis=-1) < _CRITICAL_EPS
    if _any(small if step is None else small[0]):
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


def nonlinear_laplacian(metric: MetricField, f: SphereFunction, x,
                        step: float = 1e-3):
    """Laplace-Beltrami of f in the localization metric g^F_{grad f}, over
    the rows of x."""
    _, q, grad = _dual(metric, f, x, step)
    flux = np.sqrt(np.linalg.det(q[1:]))[..., None] * grad[1:]
    div = np.einsum("k...k->...", stencil_derivative(flux, step))
    return div / np.sqrt(np.linalg.det(q[0]))


def _per_level_scan(metric: MetricField, f: SphereFunction, levels,
                    per_level: int, seed: int, quantity) -> tuple[list, float]:
    # quantity(fld, x) evaluates every sample of a level at once, at the
    # origins x of the stack of charts centered on the samples
    stats = []
    for idx, c in enumerate(levels):
        samples = sample_level_set(f, float(c), per_level, seed + 37 * idx)
        fld = metric.with_center(np.array([s.point for s in samples]))
        vals = np.asarray(quantity(fld, np.zeros((len(samples), metric.dim))))
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
    stats, worst = _per_level_scan(
        metric, f, levels, per_level, seed,
        lambda fld, x: gradient_norm(fld, f, x))
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
                        per_level: int = 50, tol: float = 1e-3, seed: int = 0,
                        include_reverse: bool = True) -> VerificationReport:
    """Spread of the nonlinear Laplacian across each level, for f and -f.

    The reverse check matters because gradient and Laplacian are not odd
    in f for a non-reversible metric.
    """
    stats, worst = _per_level_scan(
        metric, f, levels, per_level, seed,
        lambda fld, x: nonlinear_laplacian(fld, f, x))
    for entry in stats:
        entry["function"] = "f"
    if include_reverse:
        neg = -f
        stats_r, worst_r = _per_level_scan(
            metric, neg, [-c for c in levels], per_level, seed + 1,
            lambda fld, x: nonlinear_laplacian(fld, neg, x))
        for entry in stats_r:
            entry["function"] = "-f"
        stats += stats_r
        worst = worst_deviation((worst, worst_r))
    return VerificationReport(
        check="isoparametric",
        config={"metric": metric.kind, "function": f.kind,
                "levels": [float(c) for c in levels],
                "per_level": per_level, "tol": tol, "seed": seed,
                "reverse": include_reverse},
        n_samples=per_level * len(list(levels)) * (2 if include_reverse else 1),
        max_deviation=worst,
        per_level=stats,
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
                                 c: float, points: int = 20, seed: int = 0,
                                 gap: float = 1e-2,
                                 step: float = 1e-3) -> SpectrumResult:
    """Shape-operator eigenvalues of the level {f = c}, clustered.

    The shape operator is taken with respect to the localization metric
    q = g^F_{grad f}: S(u) = -(nabla^q_u n1) on the q-orthogonal
    complement of the F-unit normal n1 = grad f / F(grad f), with the
    covariant derivative assembled from finite differences of q.
    Eigenvalues are clustered by a relative gap; a clustering that changes
    under halving/doubling the gap raises ClusterAmbiguity.  The result is
    consistent when every sampled point reports the same multiplicities.
    A level of S^1 is a set of points and raises DimensionMismatch.
    """
    n = metric.dim
    if n < 2:
        raise DimensionMismatch("a level of S^1 has no principal curvatures")
    samples = sample_level_set(f, c, points, seed)
    fld = metric.with_center(np.array([s.point for s in samples]))
    # every sample's center and coordinate stencil in one pass: q and the
    # unit normal n1, then their x-derivatives [k] = d_k
    F, q, grad = _dual(fld, f, np.zeros((len(samples), n)), step)
    nu_all = grad / F[..., None]
    dq_all = stencil_derivative(q[1:], step)
    Jnu_all = stencil_derivative(nu_all[1:], step)
    per_point = []
    signatures = set()
    for i in range(len(samples)):
        q0, nu = q[0, i], nu_all[0, i]
        dq, Jnu = dq_all[:, i], Jnu_all[:, i].T

        qinv = np.linalg.inv(q0)
        # Gamma^k_{ij} = 1/2 q^{kl} (d_i q_{jl} + d_j q_{il} - d_l q_{ij});
        # dq[k, a, b] = d_k q_{ab}
        E = dq + dq.transpose(1, 0, 2) - dq.transpose(1, 2, 0)
        gamma = 0.5 * np.einsum("kl,ijl->kij", qinv, E)

        # q-orthonormal basis of the tangent space of the level set
        basis = []
        for u in np.eye(n):
            u = u - (u @ q0 @ nu) * nu   # q(nu, nu) = 1
            for b in basis:
                u = u - (u @ q0 @ b) * b
            norm_u = np.sqrt(max(u @ q0 @ u, 0.0))
            if norm_u > 1e-8:
                basis.append(u / norm_u)
        if len(basis) < n - 1:
            raise ClusterAmbiguity(
                "could not span the tangent space of the level set")
        U = np.array(basis[:n - 1])

        # row a is S(u_a) = -(nabla^q_{u_a} nu), less its nu component
        cov = U @ Jnu.T + np.einsum("kij,i,aj->ak", gamma, nu, U)
        cov -= np.outer(cov @ q0 @ nu, nu)
        mat = -cov @ q0 @ U.T
        evals = np.linalg.eigvalsh(0.5 * (mat + mat.T))

        clusters = _cluster(evals, gap)
        lo = _cluster(evals, 0.5 * gap)
        hi = _cluster(evals, 2.0 * gap)
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
