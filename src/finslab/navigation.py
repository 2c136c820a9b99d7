"""Zermelo navigation on a vector space.

Given a Minkowski norm F and a wind v with F(-v) < 1, the shifted
indicatrix {y + F(y) v : F(y) = 1} is the unit sphere of a new norm
F'; the defining property is F'(y + F(y) v) = F(y).  The condition says
that the shifted unit ball still contains 0.

Navigation composes, because shifting an indicatrix twice is one shift
(Bao-Robles-Shen, J. Differential Geom. 66, 2004).  A quadratic norm
sqrt(y^T A y) is the datum (A, 0), and a Randers norm is the datum
(A, w0) of ``navigation_from_randers``, so navigating either by v gives
the Randers norm of (A, w0 + v) in closed form,

    F'(u) = ( sqrt(lam * |u|_A^2 + <w,u>_A^2) - <w,u>_A ) / lam,
    lam   = 1 - |w|_A^2,   w = w0 + v.

``navigate`` recovers the same value from the defining property alone, by
solving F(u - s v) = s for the positive scalar s; the tests use it as the
oracle of the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, WindTooStrong
from .minkowski import NormEvaluator, _any, _cholesky, _dot, _matvec
from .report import VerificationReport, worst_deviation


@dataclass
class NavigationDatum:
    """A base norm and a wind of norm.dim finite entries with F(-wind) < 1."""

    norm: NormEvaluator
    wind: np.ndarray

    def __post_init__(self):
        self.wind = np.asarray(self.wind, dtype=float)
        if self.wind.shape != (self.norm.dim,):
            raise DimensionMismatch(f"wind must have shape ({self.norm.dim},)")
        if not np.isfinite(self.wind).all():   # no F(-wind) < 1 then
            raise WindTooStrong("wind entries must be finite")
        if np.any(self.wind) and (strength := self.norm(-self.wind)) >= 1.0:
            raise WindTooStrong(f"F(-wind) = {strength:.6f} >= 1")


def randers_from_navigation(A: np.ndarray, w: np.ndarray):
    """Randers data (alpha, beta) of the metric navigated from (sqrt(y^T A y), w).

    Broadcasts over the leading axes of (A, w), and is analytic in them
    (the strength test reads Re lam).
    """
    A = np.asarray(A)
    w = np.asarray(w)
    lam = 1.0 - _dot(_matvec(A.swapaxes(-1, -2), w), w)   # w^T A w
    if _any(lam.real <= 0.0):
        raise WindTooStrong("quadratic wind has norm >= 1")
    Aw = _matvec(A, w)
    lam2 = lam[..., None, None]
    alpha = (lam2 * A + Aw[..., :, None] * Aw[..., None, :]) / (lam2 * lam2)
    beta = -Aw / lam[..., None]
    return alpha, beta


def navigation_from_randers(alpha: np.ndarray, beta: np.ndarray):
    """Invert the Randers dictionary: recover (A, w) from (alpha, beta)."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    core = alpha - np.outer(beta, beta)
    L = _cholesky(core, "randers norm needs SPD alpha and |beta|_alpha < 1")
    z = np.linalg.solve(L, beta)                    # w = -L^-T L^-1 beta
    lam = 1.0 / (1.0 + float(z @ z))
    return lam * core, -np.linalg.solve(L.T, z)


def navigate(datum: NavigationDatum, y_tilde) -> float:
    """Value of the navigated norm at y_tilde, from its defining property.

    Solves phi(s) = F(y_tilde - s v) - s = 0 by bisection and a secant
    polish.  By subadditivity phi falls at a rate of at least
    1 - F(-v) > 0, so [0, F(y_tilde) / (1 - F(-v))] brackets the root.
    """
    F, v = datum.norm, datum.wind
    y_tilde = np.asarray(y_tilde, dtype=float)
    if not np.any(y_tilde):
        return 0.0

    def phi(s):
        return F(y_tilde - s * v) - s

    lo, flo = 0.0, F(y_tilde)
    hi = flo / (1.0 - F(-v))
    fhi = phi(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = phi(mid)
        if fm > 0.0:
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
        if hi - lo < 1e-13 * max(1.0, hi):
            break
    # secant polish inside the bracket
    s0, s1, f0, f1 = lo, hi, flo, fhi
    for _ in range(8):
        if f1 == f0:
            break
        s2 = s1 - f1 * (s1 - s0) / (f1 - f0)
        if not (lo <= s2 <= hi):
            break
        s0, f0, s1, f1 = s1, f1, s2, phi(s2)
    return 0.5 * (s0 + s1) if abs(f1) > abs(f0) else s1


def navigated_norm(datum: NavigationDatum) -> NormEvaluator:
    """The navigated norm: the Randers evaluator of the composed datum."""
    F, v = datum.norm, datum.wind
    if not np.any(v):
        return F
    A, w0 = (F.alpha, 0.0) if F.beta is None \
        else navigation_from_randers(F.alpha, F.beta)
    return NormEvaluator.randers(*randers_from_navigation(A, w0 + v))


def invert_navigation(randers: NormEvaluator, v) -> NormEvaluator:
    """Undo navigation: the datum (F', -v) recovers the original norm F."""
    return navigated_norm(NavigationDatum(randers, -np.asarray(v, float)))


def _rows(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """u . w over the rows."""
    return np.einsum("ij,ij->i", u, w)


def _fiber_rows(beta: np.ndarray, y: np.ndarray, ay: np.ndarray):
    """(F, F / a, p, m) at the rows y of the Randers norm (alpha, beta),
    from ay = alpha y: a = |y|_alpha, F = a + beta . y, p = alpha y / a
    and m = p + beta, so g_y(y, .) = F m; a quadratic norm is beta = 0.
    The closed form of minkowski.randers_fiber without its tensor g_y,
    whose stacked products keep the one-point bits, as a product of all
    rows by alpha does not; the lemma reads only inner products."""
    a = np.sqrt(_rows(y, ay))
    F = a + y @ beta
    p = ay / a[:, None]
    return F, F / a, p, p + beta


def _square(ratio, p, m, u, au):
    """g_y(u, u) = (F / a)(|u|_alpha^2 - (p . u)^2) + (m . u)^2 over the
    rows, from ratio = F / a, p and m of _fiber_rows and au = alpha u."""
    pu, mu = _rows(p, u), _rows(m, u)
    return ratio * (_rows(u, au) - pu * pu) + mu * mu


def _lemma_sides(F: NormEvaluator, Ft: NormEvaluator, v: np.ndarray,
                 Y: np.ndarray, U: np.ndarray):
    """<u,u>_y, <u,u>_y', <y',v>_y' and <y,v>_y over the pairs of rows
    (y, u) of (Y, U), with y scaled to F(y) = 1 and u made g_y-orthogonal
    to y.

    F.alpha multiplies the stacked rows of Y and U once, and alpha y and
    alpha u of the scaled y and the projected u follow by linearity;
    Ft.alpha multiplies the stacked rows of y' and u once."""
    N, n = Y.shape
    beta, bt = (np.zeros(n) if b is None else b for b in (F.beta, Ft.beta))
    AYU = np.concatenate((Y, U)) @ F.alpha
    s = (1.0 / (np.sqrt(_rows(Y, AYU[:N])) + Y @ beta))[:, None]
    y, ay = s * Y, s * AYU[:N]
    Fy, ratio, p, m = _fiber_rows(beta, y, ay)
    c = (_rows(m, U) / Fy)[:, None]     # <u,y>_y / <y,y>_y, <y,y>_y = F^2
    u = U - c * y
    yt = y + Fy[:, None] * v
    BYU = np.concatenate((yt, u)) @ Ft.alpha
    Ft_t, ratio_t, pt, mt = _fiber_rows(bt, yt, BYU[:N])
    # g_y(y, v) = F m . v, summed as (F / a)(alpha y . v) + F (beta . v)
    return (_square(ratio, p, m, u, AYU[N:] - c * ay),
            _square(ratio_t, pt, mt, u, BYU[N:]),
            ratio_t * (BYU[:N] @ v) + Ft_t * (bt @ v),
            ratio * (ay @ v) + Fy * (beta @ v))


def check_navigation_lemma(datum: NavigationDatum, samples: int,
                           tol: float = 1e-8,
                           seed: int = 0) -> VerificationReport:
    """Check the navigation inner-product identity on sampled pairs.

    Base vectors are scaled to F(y) = 1 (the identity lives on the
    indicatrix; for general y the wind terms pick up a factor 1/F(y)) and
    u is made g_y^F-orthogonal to y by one Gram-Schmidt step.  Then

        <u,u>_y^F * (1 - <y', v>_{y'}^{F'}) = <u,u>_{y'}^{F'},

    with y' = y + F(y) v, together with its rearranged corollary
    <u,u>_{y'}^{F'} = <u,u>_y^F / (1 + <y, v>_y^F) and the exact special
    case <u,u>_{y'}^{F'} = <u,u>_y^F when <v, y>_y^F = 0.

    The four inner products of each pair come from the fiber data of y
    and y' in closed form, g_y = (F/a)(alpha - p p^T) + m m^T
    (Bao-Chern-Shen, Ch. 11), with no fundamental-tensor stack; each
    norm's alpha enters as one matrix product over all rows of a pass.
    """
    F, v, n = datum.norm, datum.wind, datum.norm.dim
    Ft = navigated_norm(datum)
    rng = np.random.default_rng(seed)

    # y, then u, per pair; _lemma_sides scales each y to F(y) = 1
    yu = rng.standard_normal((samples, 2, n))
    uu_y, uu_t, ytv, yv_v = _lemma_sides(F, Ft, v, yu[:, 0], yu[:, 1])
    devs = {"identity": np.abs(uu_y * (1.0 - ytv) - uu_t),
            "corollary": np.abs(uu_t * (1.0 + yv_v) - uu_y)}
    # special case: base vectors with <v, y>_y^F = 0 give exact equality;
    # skipped where |v|_A^2 underflows and the projection onto v^perp fails
    if F.beta is None and float(v @ F.alpha @ v) > 0.0:
        A = F.alpha
        yu = rng.standard_normal((max(samples // 10, 1), 2, n))
        y = yu[:, 0] - ((yu[:, 0] @ (A @ v)) / (v @ A @ v))[:, None] * v
        keep = np.linalg.norm(y, axis=-1) >= 1e-8
        if keep.any():
            uu_y, uu_t, _, _ = _lemma_sides(F, Ft, v, y[keep], yu[keep, 1])
            devs["orthogonal-wind"] = np.abs(uu_t - uu_y)
    levels = [{"level": name, "mean": float(np.mean(d)),
               "spread": float(np.max(d))} for name, d in devs.items()]
    every = np.concatenate(list(devs.values()))
    max_dev = worst_deviation(every)
    return VerificationReport(
        check="navigation-lemma",
        config={"dim": n, "wind": v.tolist(), "samples": samples,
                "tol": tol, "seed": seed},
        n_samples=every.size,
        max_deviation=max_dev,
        per_level=levels,
        passed=bool(max_dev < tol),
    )
