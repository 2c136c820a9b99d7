"""Nonlinear gradient and Laplacian, level sets, transnormality, spectra.

For a scalar function f on a Finsler sphere the nonlinear gradient at a
regular point is the Legendre dual of df:

    < grad f, v >^F_{grad f} = df(v)   for all v.

Every function here takes F from the navigation datum (round h, Killing
wind W), with W = 0 for the round sphere, and evaluates in ambient
coordinates with no chart.  The indicatrix of F is the h-indicatrix
translated by W(p) = Wp, so the dual norm is F*(xi) = |xi|_h + xi(Wp);
with nu the h-unit normal grad_h f / |grad_h f|,

    grad f = F(grad f) (nu + Wp),   F(grad f) = F*(df) = |grad_h f| + df(Wp).

The Laplacian is taken with the Busemann-Hausdorff (BH) volume, which for
navigation data is the round volume (the translated indicatrix has the
volume of the round one), so Lap f = div_h(grad f).

A function is transnormal when F(grad f) is constant on each level and
isoparametric when Lap f is too; the checks below sample level sets and
report the per-level spread of those quantities.  The principal-curvature
spectrum takes the same datum: the shape operator of the localization
metric q = g^F_{grad f}, in closed form from the same ambient jet of nu.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .clifford import (CliffordSystem, otfkm_gradient, otfkm_hessian,
                       otfkm_value)
from .errors import (ClusterAmbiguity, ConfigError, CriticalPoint,
                     DimensionMismatch, EmptyLevel)
from .minkowski import _any, _dot, _matvec, _vecmat
from .report import VerificationReport, worst_deviation
from .sphere import (KillingField, _check_wind, _complete_basis,
                     random_sphere_points)

_CRITICAL_EPS = 1e-10
_NEWTON_CAP = 60        # Newton steps of a level-set projection
_GAP = 1e-2             # relative eigenvalue gap between clusters
# a sample is regular where |grad_h f|^2 > _REGULAR.  By the eikonal
# identity |grad_h f|^2 = g^2 (1 - f^2) of f = cos(g theta), g <= 6, a point
# within 1e-12 of a focal level f = +-1 has |grad_h f|^2 <= 2 g^2 1e-12 <
# 1e-10, two decades below; a level c with g^2 (1 - c^2) > 1e-8 passes
_REGULAR = 1e-8


class SphereFunction:
    """A smooth scalar function on S^n given by three ambient rules.

    value maps points (..., n+1) to values (...), gradient to ambient
    gradients (..., n+1) and hessian to ambient Hessians (..., n+1, n+1):
    all broadcast over the rows of a stack of points.
    """

    def __init__(self, ambient_dim: int, kind: str,
                 value: Callable[[np.ndarray], np.ndarray],
                 gradient: Callable[[np.ndarray], np.ndarray],
                 hessian: Callable[[np.ndarray], np.ndarray]):
        self.ambient_dim = ambient_dim
        self.kind = kind
        self._value = value
        self._gradient = gradient
        self._hessian = hessian

    def __call__(self, p):
        """f(p): a float for one point, an array over the rows of a stack."""
        v = self._value(np.asarray(p, dtype=float))
        return float(v) if np.ndim(v) == 0 else v

    def gradient(self, p) -> np.ndarray:
        return self._gradient(np.asarray(p, dtype=float))

    def hessian(self, p) -> np.ndarray:
        return self._hessian(np.asarray(p, dtype=float))

    def __neg__(self) -> "SphereFunction":
        value, gradient, hessian = self._value, self._gradient, self._hessian
        return SphereFunction(self.ambient_dim, self.kind,
                              lambda p: -value(p), lambda p: -gradient(p),
                              lambda p: -hessian(p))


def height_function(ambient_dim: int, axis: int = 0) -> SphereFunction:
    """f(p) = p . a for the unit vector a of a coordinate axis; levels are
    latitude spheres."""
    a = np.zeros(ambient_dim)
    a[axis] = 1.0
    return SphereFunction(
        ambient_dim, "height", lambda p: _dot(p, a),
        lambda p: np.broadcast_to(a, p.shape).copy(),
        lambda p: np.zeros(p.shape + (ambient_dim,)))


def otfkm_function(sys_: CliffordSystem) -> SphereFunction:
    """The quartic polynomial of a symmetric Clifford system."""
    return SphereFunction(sys_.dim, "otfkm",
                          lambda p: otfkm_value(sys_, p),
                          lambda p: otfkm_gradient(sys_, p),
                          lambda p: otfkm_hessian(sys_, p))


def split_quadratic_function(ambient_dim: int, p_split: int) -> SphereFunction:
    """f(x) = |x_first|^2 - |x_rest|^2; levels are products of spheres."""
    mask = np.ones(ambient_dim)
    mask[p_split:] = -1.0
    return SphereFunction(
        ambient_dim, "split-quadratic", lambda p: _dot(p * p, mask),
        lambda p: 2.0 * mask * p,
        lambda p: np.broadcast_to(np.diag(2.0 * mask),
                                  p.shape + (ambient_dim,)).copy())


def _project(f: SphereFunction, c: np.ndarray, P: np.ndarray) -> tuple:
    # projection of each row of P onto {f = c}, c one level per row, along
    # the great circle cos(a) p + sin(a) nu of the unit tangential gradient
    # nu = t / |t|, each row halving its own angle until its residual drops;
    # returns the projected rows, the ambient gradient of f there (one
    # evaluation per pass) and whether each reached |f - c| < 1e-12.  The
    # arccos step lands at once where |t|^2 = g^2 (1 - f^2), as for
    # f = cos(g theta).  The rows of P are overwritten
    G = np.empty_like(P)
    R = f(P) - c
    ok = np.zeros(len(P), dtype=bool)
    live = np.arange(len(P))
    arc_c = np.arccos(np.minimum(np.maximum(c, -1.0), 1.0))
    for _ in range(_NEWTON_CAP):
        p, r = P[live], R[live]
        g = G[live] = f.gradient(p)
        done = np.abs(r) < 1e-12
        if done.all():
            ok[live] = True
            break
        ok[live[done]] = True
        t = g - _dot(g, p)[:, None] * p
        tt = _dot(t, t)
        go = ~done & (tt >= 1e-12)
        live, p, r, t, tt = live[go], p[go], r[go], t[go], tt[go]
        cl = c[live]
        s = np.sqrt(tt)
        nu = t / s[:, None]
        fp = np.minimum(np.maximum(r + cl, -1.0), 1.0)
        a = np.where((np.abs(r + cl) < 1.0) & (np.abs(cl) < 1.0),
                     (np.arccos(fp) - arc_c[live]) * np.sqrt(1.0 - fp * fp),
                     -r) / s
        todo = live
        for _ in range(30):
            q = np.cos(a)[:, None] * p + np.sin(a)[:, None] * nu
            rq = f(q) - cl
            better = np.abs(rq) < np.abs(r)
            if better.all():
                P[todo], R[todo] = q, rq
                break
            P[todo[better]], R[todo[better]] = q[better], rq[better]
            worse = ~better
            todo, a, p, nu, r, cl = (todo[worse], 0.5 * a[worse], p[worse],
                                     nu[worse], r[worse], cl[worse])
        else:
            live = np.setdiff1d(live, todo)   # the rows whose halving stalled
    return P, G, ok


def _sample_levels(f: SphereFunction, levels: list, count: int,
                   seeds: list) -> tuple:
    # count points of {f = c} and the ambient gradient of f there for each
    # level c, as rows of two arrays, sample after sample; the sample of
    # levels[j] draws from default_rng(seeds[j]) in its own block schedule,
    # and one projection takes the blocks of every sample of a round
    n, k = f.ambient_dim - 1, len(levels)
    rngs = [np.random.default_rng(s) for s in seeds]
    targets = np.asarray(levels, dtype=float)
    cap = 40 * count + 200
    have, attempts, kept = [0] * k, [0] * k, []
    while True:
        # as many seeds as points are missing, and at least as many as all
        # blocks so far, so a level where seeds fail needs few passes
        block = [min(cap - a, max(count - h, a)) if h < count else 0
                 for h, a in zip(have, attempts)]
        if not any(block):
            break
        attempts = [a + b for a, b in zip(attempts, block)]
        P, G, ok = _project(f, np.repeat(targets, block), np.concatenate(
            [random_sphere_points(n, b, rng)
             for b, rng in zip(block, rngs) if b]))
        # c must also be a regular value at the found point
        t = G - _dot(G, P)[:, None] * P
        keep = ok & (_dot(t, t) > _REGULAR)
        sample = np.repeat(np.arange(k), block)[keep]
        kept.append((sample, P[keep], G[keep]))
        have = [h + m for h, m in zip(have, np.bincount(
            sample, minlength=k).tolist())]
    for c, got in zip(levels, have):
        if got < max(count, 1):
            raise EmptyLevel(f"only {got}/{count} samples of level {c} "
                             "converged to a regular point" if got else
                             f"no regular point of level {c} found")
    (sample, P, G), *later = kept
    if later or len(P) > k * count:
        # each sample's rows in draw order, the first count of them
        sample, P, G = (np.concatenate(x) for x in zip(*kept))
        start = np.cumsum([0] + have[:-1])
        rows = np.argsort(sample, kind="stable")[
            (start[:, None] + np.arange(count)).ravel()]
        P, G = P[rows], G[rows]
    return P, G


def sample_level_set(f: SphereFunction, c: float, count: int,
                     seed: int) -> np.ndarray:
    """The rows of a (count, n+1) array of points with |f - c| < 1e-10,
    found by projection along great circles.

    Random sphere points move along the great circle of their tangential
    gradient by a Newton step in arccos f (one step lands on the level
    when f is Cartan-Muenzner, f = cos(g theta)), or by a Newton step in f
    where |f| or |c| is not below 1, with step halving when the residual
    worsens, until the level is hit.  The seeds go through in blocks
    drawn from one generator stream, so the points and their order are
    those of a seed-by-seed pass over at most 40 count + 200 seeds.  The
    level checks draw each of their samples so, all in one projection per
    round of blocks.  Deterministic given the seed; raises EmptyLevel
    when no seed point converges to a regular point of the level (e.g. c
    outside the range of f, or a focal level such as c = +-1).
    """
    return _sample_levels(f, [c], count, [seed])[0]


def _ambient(W: Optional[KillingField], f: SphereFunction, P) -> tuple:
    # the ambient points P of f as floats and the matrix of W (0 for None),
    # checked as randers_sphere checks them
    P = np.asarray(P, dtype=float)
    N = f.ambient_dim
    if P.shape[-1] != N:
        raise DimensionMismatch("points do not lie in the function's space")
    if W is None:
        return P, np.zeros((N, N))
    _check_wind(W, N)
    return P, W.matrix


def _tangent_dual(W: np.ndarray, P: np.ndarray, g: np.ndarray) -> tuple:
    # (t, |t|, F(grad f)) at the points P from the wind matrix W and the
    # ambient gradient g of f at P: t = grad_h f is the tangential part of
    # g and F(grad f) = |t| + t . Wp; CriticalPoint where |df| < 1e-10
    t = g - _dot(g, P)[..., None] * P
    s = np.sqrt(_dot(t, t))
    if _any(s < _CRITICAL_EPS):
        raise CriticalPoint("df vanishes; nonlinear gradient undefined")
    return t, s, s + _dot(t, _matvec(W, P))


def _unit_normal(W: Optional[KillingField], f: SphereFunction, P) -> tuple:
    # (F(grad f), n1 = nu + Wp) at the ambient points P, checked by _ambient
    P, W = _ambient(W, f, P)
    t, s, F = _tangent_dual(W, P, f.gradient(P))
    return F, t / s[..., None] + _matvec(W, P)


def gradient_norm(W: Optional[KillingField], f: SphereFunction, P):
    """F(grad f) = |grad_h f| + df(Wp), the transnormal quantity, at the
    ambient points P (over their leading axes) of the navigation datum
    (round h, W); W None is the round sphere.  Raises WindTooStrong and
    DimensionMismatch as randers_sphere does."""
    return _unit_normal(W, f, P)[0]


def nonlinear_gradient(W: Optional[KillingField], f: SphereFunction, P):
    """grad f = F(grad f) (nu + Wp), the Legendre dual of df, at ambient
    points P taken as gradient_norm takes them.  It points up f, and
    raises CriticalPoint where |grad_h f| < 1e-10."""
    F, n1 = _unit_normal(W, f, P)
    return F[..., None] * n1


def unit_gradient_field(W: Optional[KillingField], f: SphereFunction
                        ) -> Callable[[np.ndarray], np.ndarray]:
    """The F-unit normal field n1 = grad f / F(grad f) = nu + Wp of the
    levels of f, over ambient points taken as gradient_norm takes them."""
    return lambda P: _unit_normal(W, f, P)[1]


def _normal_jet(W: np.ndarray, P: np.ndarray, g: np.ndarray,
                H: np.ndarray) -> tuple:
    # (t, F, nu, Dt, Dnu) at the points P from the wind matrix W and the
    # ambient gradient g and Hessian H of f at P: t = grad_h f, extended off
    # the sphere as g(x) - (g(x) . x) x, F = F(grad f), nu = t / |t| and
    # the ambient Jacobians Dt and Dnu = (I - nu nu^T) Dt / |t|
    t, s, F = _tangent_dual(W, P, g)
    nu = t / s[..., None]
    Dt = (H - P[..., :, None] * (_matvec(H, P) + g)[..., None, :]
          - _dot(g, P)[..., None, None] * np.eye(P.shape[-1]))
    Dnu = (Dt - nu[..., :, None] * _vecmat(nu, Dt)[..., None, :]) \
        / s[..., None, None]
    return t, F, nu, Dt, Dnu


def _laplacian(W: np.ndarray, P: np.ndarray, g: np.ndarray,
               H: np.ndarray) -> np.ndarray:
    # the BH Laplacian at the points P from the wind matrix W and the
    # ambient gradient g and Hessian H of f at P; see nonlinear_laplacian
    t, F, nu, Dt, Dnu = _normal_jet(W, P, g, H)
    u = nu + _matvec(W, P)
    dF = _vecmat(u, Dt) - _matvec(W, t)
    DV = u[..., :, None] * dF[..., None, :] + F[..., None, None] * (Dnu + W)
    return np.trace(DV, axis1=-2, axis2=-1) - _dot(P, _matvec(DV, P))


def nonlinear_laplacian(W: Optional[KillingField], f: SphereFunction, P):
    """The Busemann-Hausdorff Laplacian div_h(grad f) at the ambient points
    P (over their leading axes) of the navigation datum (round h, W); W
    None is the round sphere.  Raises WindTooStrong and DimensionMismatch
    as randers_sphere does.

    V = grad f = F (nu + Wp) is extended off the sphere through
    t(x) = g(x) - (g(x) . x) x, nu = t / |t| and F = |t| + t . Wx, so
    DV = u (grad F)^T + F ((I - nu nu^T) Dt / |t| + W) with u = nu + Wp,
    Dt = H - p (Hp + g)^T - (g . p) I and grad F = Dt^T u + W^T t, and
    the Laplacian is tr DV - p^T DV p.
    """
    P, W = _ambient(W, f, P)
    return _laplacian(W, P, f.gradient(P), f.hessian(P))


def _level_list(levels) -> list[float]:
    # levels are read more than once, so a one-pass iterable becomes a list
    levels = [float(c) for c in levels]
    if not levels:
        raise ConfigError("levels must not be empty")
    return levels


def _level_stats(levels: list, values: np.ndarray) -> tuple[list, float]:
    # the mean and spread of each row of values, the values of one level
    spread = np.ptp(values, axis=1)
    stats = [{"level": c, "mean": mean, "spread": s} for c, mean, s
             in zip(levels, values.mean(axis=1).tolist(), spread.tolist())]
    return stats, worst_deviation(spread)


def _metric_kind(W: Optional[KillingField]) -> str:
    return "round-h" if W is None else "randers-from-navigation"


def check_transnormal(W: Optional[KillingField], f: SphereFunction, levels,
                      per_level: int, tol: float = 1e-6,
                      seed: int = 0) -> VerificationReport:
    """Spread of F(grad f) across each sampled level, for the navigation
    datum (round h, W); W None is the round sphere.

    Passes iff every spread is below tol; the per-level means are the
    fitted profile a(c) of F(grad f) = a(f).  The level levels[i] is
    sampled with seed + 37 i.  No levels is a ConfigError; the wind is
    checked as gradient_norm checks it.
    """
    levels = _level_list(levels)
    P, g = _sample_levels(f, levels, per_level,
                          [seed + 37 * i for i in range(len(levels))])
    F = _tangent_dual(_ambient(W, f, P)[1], P, g)[2]
    stats, worst = _level_stats(levels, F.reshape(len(levels), per_level))
    return VerificationReport(
        check="transnormal",
        config={"metric": _metric_kind(W), "function": f.kind,
                "levels": levels, "per_level": per_level, "tol": tol,
                "seed": seed},
        n_samples=per_level * len(levels),
        max_deviation=worst,
        per_level=stats,
        passed=bool(worst < tol),
    )


def check_isoparametric(W: Optional[KillingField], f: SphereFunction, levels,
                        per_level: int, tol: float = 1e-3,
                        seed: int = 0) -> VerificationReport:
    """Spread of the BH Laplacian across each level, for f and -f, for the
    navigation datum (round h, W); W None is the round sphere.

    The reverse check matters because gradient and Laplacian are not odd
    in f for a non-reversible metric.  The level levels[i] is sampled
    with seed + 37 i for f and seed + 1 + 37 i for -f, whose level -c is
    the same set {f = c}: every sample is projected in one pass, and the
    Laplacian of -f is that of the negated gradient and Hessian of f.  No
    levels is a ConfigError; the wind is checked as nonlinear_laplacian
    checks it.
    """
    levels = _level_list(levels)
    k = len(levels)
    P, g = _sample_levels(f, levels + levels, per_level,
                          [seed + 37 * i for i in range(k)]
                          + [seed + 1 + 37 * i for i in range(k)])
    sign = np.repeat([1.0, -1.0], k * per_level)
    lap = _laplacian(_ambient(W, f, P)[1], P, sign[:, None] * g,
                     sign[:, None, None] * f.hessian(P))
    stats, worst = _level_stats(levels + [-c for c in levels],
                                lap.reshape(2 * k, per_level))
    for i, entry in enumerate(stats):
        entry["function"] = "f" if i < k else "-f"
    return VerificationReport(
        check="isoparametric",
        config={"metric": _metric_kind(W), "function": f.kind,
                "levels": levels, "per_level": per_level, "tol": tol,
                "seed": seed},
        n_samples=per_level * len(levels) * 2,
        max_deviation=worst,
        per_level=stats,
        passed=bool(worst < tol),
    )


def check_tangency(f: SphereFunction, W: KillingField, samples: int,
                   tol: float = 1e-8, seed: int = 0) -> VerificationReport:
    """max |df(W x)| over sampled sphere points.

    Small residuals mean the flow of W preserves f; the flow exp(0.1 W)
    is cross-checked on a few points.  A wind of another dimension raises
    DimensionMismatch; its strength is not checked, as W only flows here.
    """
    _check_wind(W, f.ambient_dim, navigates=False)
    rng = np.random.default_rng(seed)
    pts = random_sphere_points(f.ambient_dim - 1, samples, rng)
    resid = np.abs(_dot(f.gradient(pts), pts @ W.matrix.T))
    head = pts[:20]
    # iW = V diag(mu) V^H is Hermitian, so exp(tW) = V diag(e^{-it mu}) V^H
    mu, V = np.linalg.eigh(1j * W.matrix)
    flow = ((V * np.exp(-0.1j * mu)) @ V.conj().T).real
    flow_dev = float(np.abs(f(head @ flow.T) - f(head)).max())
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


def _cluster(evals: np.ndarray, gap: float) -> np.ndarray:
    # the cuts between clusters of the ascending rows of evals: after each
    # eigenvalue whose successor is more than gap max(1, max |evals|) above
    # (fmax: a NaN in a row leaves its threshold at gap)
    thresh = gap * np.fmax(1.0, np.abs(evals).max(axis=1, keepdims=True))
    return np.diff(evals, axis=1) > thresh


def principal_curvature_spectrum(W: Optional[KillingField], f: SphereFunction,
                                 c: float, points: int,
                                 seed: int = 0) -> SpectrumResult:
    """Shape-operator eigenvalues of the level {f = c}, clustered, for the
    navigation datum (round h, W); W None is the round sphere.

    The shape operator is that of the localization metric q = g^F_{n1}
    on TM = {p, nu}^perp, q-orthogonal to the F-unit normal n1 = nu + w,
    w = Wp.  The navigated tensor q = I/sigma - (w nu^T + nu w^T)/sigma^2
    + (sigma - lambda) nu nu^T/sigma^3, sigma = 1 + nu.w, lambda =
    1 - |w|^2, is h/sigma on TM, and sym II(a, b) = -sym q(nabla^h_a n1, b)
    - (nabla^h_n1 q)(a, b)/2 gives the principal curvatures as the
    eigenvalues, in an h-orthonormal basis B of TM, of

        sigma sym II = sym(-B^T Dnu B + B^T w d^T B / sigma) + d.w/(2 sigma) I

    with Dnu the ambient Jacobian of nu and d = Dnu n1 - W nu.  A tangent
    wind has sigma = 1 and B^T d = 0 (its flow keeps nu, whose lines are
    geodesics), which leaves the h shape operator.  Eigenvalues are
    clustered by the relative gap _GAP; a clustering that changes under
    halving/doubling the gap raises ClusterAmbiguity.  The result is
    consistent when every sampled point reports the same multiplicities.
    A level of S^1 is a set of points and raises DimensionMismatch; the
    wind is checked as gradient_norm checks it.
    """
    if f.ambient_dim < 3:
        raise DimensionMismatch("a level of S^1 has no principal curvatures")
    P, g = _sample_levels(f, [c], points, [seed])
    P, W = _ambient(W, f, P)
    _, _, nu, _, Dnu = _normal_jet(W, P, g, f.hessian(P))
    w = _matvec(W, P)
    d = _matvec(Dnu, nu + w) - _matvec(W, nu)
    sigma = 1.0 + _dot(nu, w)
    U = _complete_basis(P)     # p^perp, then the complement of nu in it
    B = U @ _complete_basis(_vecmat(nu, U))
    S = (_vecmat(w, B)[:, :, None] * _vecmat(d, B)[:, None, :]
         / sigma[:, None, None] - B.swapaxes(1, 2) @ Dnu @ B)
    evals = np.linalg.eigvalsh(0.5 * (S + S.swapaxes(1, 2)) + (
        _dot(d, w) / (2.0 * sigma))[:, None, None] * np.eye(S.shape[-1]))
    cuts = [_cluster(evals, s * _GAP) for s in (0.5, 1.0, 2.0)]
    lo, mid, hi = (1 + cut.sum(axis=1) for cut in cuts)
    unstable = np.flatnonzero((lo != mid) | (hi != mid))
    if len(unstable):
        i = unstable[0]
        raise ClusterAmbiguity(f"clustering unstable at level {c}: "
                               f"{lo[i]}/{mid[i]}/{hi[i]} clusters")
    # the clusters of every point in one flat pass: one starts at the head
    # of each row and after each cut
    head = np.ones(evals.shape, dtype=bool)
    head[:, 1:] = cuts[1]
    starts = np.flatnonzero(head)
    sizes = np.diff(starts, append=evals.size)
    pairs = list(zip((np.add.reduceat(evals.ravel(), starts) / sizes).tolist(),
                     sizes.tolist()))
    ends = np.cumsum(mid).tolist()
    per_point = [pairs[a:b] for a, b in zip([0] + ends, ends)]
    consistent = len({tuple(k for _, k in pt) for pt in per_point}) == 1
    first = per_point[0]
    g = len(first)
    mults = tuple(mult for _, mult in first)
    means = [float(np.mean([pt[i][0] for pt in per_point]))
             for i in range(g)] if consistent else [m for m, _ in first]
    return SpectrumResult(level=float(c), g=g, multiplicities=mults,
                          cluster_means=means, consistent=consistent,
                          per_point=per_point)
