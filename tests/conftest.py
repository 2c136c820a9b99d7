"""Shared numerical oracles for the test suite.

Everything here is deliberately independent of the code paths it checks:
finite differences instead of jets and sprays, direction scans and Newton
iteration instead of the closed-form Legendre dual, sampling ascent
instead of eigenvalues, coordinate-formula Laplacians instead of the
divergence form, fixed spaces of conjugations on the full skew-matrix
space instead of the null space on so(l), a QR projection, one trial at
a time, instead of the batched projection of the Lie closure check on
the basis itself, one spray model per stencil point instead of the
batched flag stencil, one seed, one norm and one Newton dual at a time
instead of the batched level-set layer, one (y, u) pair at a time
instead of the array pass of the navigation lemma.
"""

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigh, null_space

from finslab.navigation import navigated_norm


def fd_gradient(func, y, h=1e-6):
    """Central finite-difference gradient of a scalar function."""
    y = np.asarray(y, dtype=float)
    g = np.zeros(len(y))
    for i in range(len(y)):
        e = np.zeros(len(y))
        e[i] = h
        g[i] = (func(y + e) - func(y - e)) / (2 * h)
    return g


def fd_hessian(func, y, h=1e-5):
    """Central finite-difference Hessian of a scalar function."""
    y = np.asarray(y, dtype=float)
    n = len(y)
    H = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            H[i, j] = (func(y + ei + ej) - func(y + ei - ej)
                       - func(y - ei + ej) + func(y - ei - ej)) / (4 * h * h)
    return H


def direction_scan_legendre(norm, xi, count=1_000_000):
    """Brute-force Legendre dual on R^2: maximize xi(v)/F(v) over a dense
    fan of directions, then rescale the best direction to dual length."""
    theta = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    values = dirs @ np.asarray(xi, dtype=float)
    fvals = np.array([norm(d) for d in
                      dirs[np.argsort(values)[-2000:]]])
    best = dirs[np.argsort(values)[-2000:]]
    ratios = (best @ np.asarray(xi, dtype=float)) / fvals
    idx = int(np.argmax(ratios))
    dual_norm = ratios[idx]
    unit = best[idx] / fvals[idx]
    return dual_norm * unit


def newton_legendre(norm, xi, rel_tol=1e-9):
    """Legendre dual by damped Newton on r(y) = 1/2 grad F^2(y) - xi.

    The Jacobian of r is g(y), so every step is an SPD solve; the start
    is the Euclidean raise of xi.  Uses only the jets of F^2, never a
    closed-form dual.
    """
    xi = np.asarray(xi, dtype=float)
    xi_norm = np.linalg.norm(xi)
    y = xi.copy()

    def residual(z):
        jet = norm.sq_jet(z)
        return 0.5 * jet.grad - xi, 0.5 * jet.hess

    r, G = residual(y)
    rn = np.linalg.norm(r)
    for _ in range(100):
        if rn < rel_tol * xi_norm:
            return y
        try:
            step = cho_solve(cho_factor(0.5 * (G + G.T)), -r)
        except np.linalg.LinAlgError:
            raise AssertionError("g(y) is not SPD on the Newton path") \
                from None
        t = 1.0
        for _ in range(40):
            cand = y + t * step
            if np.any(cand):
                rc, Gc = residual(cand)
                rcn = np.linalg.norm(rc)
                if rcn < rn:
                    y, r, G, rn = cand, rc, Gc, rcn
                    break
            t *= 0.5
        else:
            # damping stalls only at the roundoff floor
            assert rn < 1e-9 * xi_norm, "Newton damping stalled"
            return y
    assert rn < rel_tol * xi_norm, "no convergence in 100 steps"
    return y


def fd_spray(metric, x, y, h=1e-4):
    """Geodesic spray from central differences of pointwise norm values
    F(x, y) only: G = 1/4 g^{-1} (y^k d_x^k d_y F^2 - d_x F^2) with
    g = 1/2 Hess_y F^2.  Second-order stencils; good to about 1e-7."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    E = h * np.eye(n)
    norm = metric.norm_at(x)
    g = 0.5 * fd_hessian(lambda z: norm(z) ** 2, y, h)
    mixed = np.zeros((n, n))                # [k, l] = d_x^k d_y^l F^2
    dx = np.zeros(n)
    for k in range(n):
        plus, minus = metric.norm_at(x + E[k]), metric.norm_at(x - E[k])
        dx[k] = (plus(y) ** 2 - minus(y) ** 2) / (2 * h)
        for l in range(n):
            mixed[k, l] = (plus(y + E[l]) ** 2 - plus(y - E[l]) ** 2
                           - minus(y + E[l]) ** 2
                           + minus(y - E[l]) ** 2) / (4 * h * h)
    return 0.25 * np.linalg.solve(g, y @ mixed - dx)


# fourth-order central stencil of the pointwise curvature oracle, kept
# apart from curvature.py's
_OFFS4 = (-2.0, -1.0, 1.0, 2.0)
_WGTS4 = (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)


def _diff4(fn, x, h, direction=None):
    """Fourth-order central derivatives of fn at x, one point at a time:
    along the coordinate axes ([k] = d fn / dx^k), or along direction."""
    x = np.asarray(x, dtype=float)
    dirs = np.eye(len(x)) if direction is None else [np.asarray(direction)]
    out = np.array([sum(w * np.asarray(fn(x + o * h * d))
                        for o, w in zip(_OFFS4, _WGTS4)) / h for d in dirs])
    return out if direction is None else out[0]


class _PointModel:
    """Closed-form spray at one chart point, from norm_at of the point and
    of its coordinate stencil: the per-point path the batched curvature
    replaces."""

    def __init__(self, metric, x, h=1e-4):
        norm = self.norm = metric.norm_at(x)
        self.quad = norm.is_quadratic
        if self.quad:
            self.A = norm.matrix
            self.DA = _diff4(lambda xv: metric.norm_at(xv).matrix, x, h)
        else:
            self.alpha, self.beta = norm.alpha, norm.beta
            self.Dalpha = _diff4(lambda xv: metric.norm_at(xv).alpha, x, h)
            self.Dbeta = _diff4(lambda xv: metric.norm_at(xv).beta, x, h)

    def fiber(self, y):
        """(a, F, p, m, g) of the Randers norm at y: a = |y|_alpha,
        F = a + beta.y, p = grad a, m = grad F and the fundamental tensor
        g = (F/a)(alpha - p p^T) + m m^T."""
        a = np.sqrt(y @ self.alpha @ y)
        F = a + self.beta @ y
        p = self.alpha @ y / a
        m = p + self.beta
        return a, F, p, m, (F / a) * (self.alpha - np.outer(p, p)) \
            + np.outer(m, m)

    def spray(self, y):
        if self.quad:
            DAy = self.DA @ y                        # [k, l]
            s = DAy @ y
            return 0.25 * np.linalg.solve(self.A, 2.0 * (y @ DAy) - s)
        a, F, p, m, g = self.fiber(y)
        Day = self.Dalpha @ y                        # [k, l]
        s = Day @ y
        dF = s / (2.0 * a) + self.Dbeta @ y          # dF/dx^k
        mixed = 2.0 * (np.outer(dF, m)
                       + F * (Day / a - np.outer(s, p) / (2.0 * a * a)
                              + self.Dbeta))
        return 0.25 * np.linalg.solve(g, y @ mixed - 2.0 * F * dF)


def pointwise_riemann(metric, x, y, h=5e-3):
    """R^i_k(y) = 2 dG/dx - y^j d^2G/dx^j dy + 2 G^j d^2G/dy^j dy
    - dG/dy dG/dy, building one spray model per stencil point and one
    norm per coefficient-stencil point."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    base = _PointModel(metric, x)

    def y_jacobian(model, yv):                       # [i, k] = dG^i/dy^k
        return _diff4(model.spray, yv, h).T

    G0 = base.spray(y)
    dGdx = _diff4(lambda xv: _PointModel(metric, xv).spray(y), x, h).T
    dGdy = y_jacobian(base, y)
    yn = np.linalg.norm(y)
    mixed = yn * _diff4(lambda xv: y_jacobian(_PointModel(metric, xv), y),
                        x, h, y / yn)
    g0n = np.linalg.norm(G0)
    second = 0.0
    if g0n > 1e-14:
        second = g0n * _diff4(lambda yv: y_jacobian(base, yv), y, h,
                              G0 / g0n)
    return 2.0 * dGdx - mixed + 2.0 * second - dGdy @ dGdy


def pointwise_flag_curvature(metric, x, y, v):
    """<R_y v, v>_y / (g(y, y) g(v, v) - g(y, v)^2) at F(y) = 1, from
    pointwise_riemann and the fundamental tensor of the oracle's model."""
    model = _PointModel(metric, x)
    y = np.asarray(y, dtype=float)
    if model.quad:
        y = y / np.sqrt(y @ model.A @ y)
        g = model.A
    else:
        y = y / model.fiber(y)[1]
        g = model.fiber(y)[4]
    R = pointwise_riemann(metric, x, y)
    return float((R @ v) @ g @ v / ((y @ g @ y) * (v @ g @ v)
                                     - (y @ g @ v) ** 2))


def sampled_killing_norm(W, samples, rng, polish_iters=60):
    """max |W x| over random unit x, polished by normalized gradient
    ascent of |W x|^2 from the best few samples (pure W-multiplies)."""
    W = np.asarray(W, dtype=float)
    dim = W.shape[0]
    pts = rng.standard_normal((samples, dim))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    vals = np.linalg.norm(pts @ W.T, axis=1)
    best = pts[np.argsort(vals)[-8:]]
    out = float(vals.max())
    for x in best:
        for _ in range(polish_iters):
            g = -W @ (W @ x)       # gradient of |Wx|^2 (ambient)
            x = g / np.linalg.norm(g) if np.linalg.norm(g) > 0 else x
        out = max(out, float(np.linalg.norm(W @ x)))
    return out


def laplace_beltrami_oracle(metric, f, x, h=1e-4):
    """Coordinate-formula Laplacian q^{ij}(d2_ij f - Gamma^k_ij d_k f) for a
    quadratic (Riemannian) metric field; independent of the divergence
    form used by the implementation."""
    x = np.asarray(x, dtype=float)
    n = metric.dim
    chart = metric.chart

    def fval(z):
        return f(chart.map(z))

    def qmat(z):
        return metric.norm_at(z).matrix

    q = qmat(x)
    qinv = np.linalg.inv(q)
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    f0 = fval(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        grad[i] = (fval(x + ei) - fval(x - ei)) / (2 * h)
        hess[i, i] = (fval(x + ei) - 2 * f0 + fval(x - ei)) / (h * h)
    for i in range(n):
        for j in range(i + 1, n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            hess[i, j] = hess[j, i] = (
                fval(x + ei + ej) - fval(x + ei - ej)
                - fval(x - ei + ej) + fval(x - ei - ej)) / (4 * h * h)
    dq = np.zeros((n, n, n))
    for k in range(n):
        ek = np.zeros(n)
        ek[k] = h
        dq[k] = (qmat(x + ek) - qmat(x - ek)) / (2 * h)
    E = dq + dq.transpose(1, 0, 2) - dq.transpose(1, 2, 0)
    gamma = 0.5 * np.einsum("kl,ijl->kij", qinv, E)
    return float(np.einsum("ij,ij->", qinv, hess)
                 - np.einsum("ij,kij,k->", qinv, gamma, grad))


def dense_centralizer(matrices, tol=1e-8):
    """Centralizer of a Clifford system on the full skew-matrix space:
    start from the skew matrices that commute with P_0 (pair bases of its
    two eigenspaces), then cut out the fixed space of each conjugation
    X -> P X P in turn, by an eigen-decomposition of its compression.
    Returns a Frobenius-orthonormal list of skew matrices."""
    evals, Q = np.linalg.eigh(matrices[0])

    def pairs(idx):
        return [(np.outer(Q[:, i], Q[:, j]) - np.outer(Q[:, j], Q[:, i]))
                / np.sqrt(2.0) for n, i in enumerate(idx) for j in idx[n + 1:]]

    basis = pairs(np.where(evals > 0.0)[0]) + pairs(np.where(evals < 0.0)[0])
    if not basis:
        return []
    stack = np.stack(basis)
    for P in matrices[1:]:
        conj = np.einsum("ab,nbc,cd->nad", P, stack, P, optimize=True)
        gram = np.tensordot(stack, conj, axes=([1, 2], [1, 2]))
        mu, V = np.linalg.eigh(0.5 * (gram + gram.T))
        keep = mu >= 1.0 - tol
        if not np.any(keep):
            return []
        stack = np.einsum("nk,nab->kab", V[:, keep], stack, optimize=True)
    return [0.5 * (E - E.T) for E in stack]


def qr_closure_residual(elements, trials, seed):
    """max over trials of |[X, Y] - Q Q^T [X, Y]| / (|X| |Y|), with Q an
    orthonormal basis of the span from a QR factorization, one trial at a
    time: X and Y are the span matrix times coefficients drawn in that
    order from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    S = np.column_stack([E.ravel() for E in elements])
    Q, _ = np.linalg.qr(S)
    shape = elements[0].shape
    worst = 0.0
    for _ in range(trials):
        X = (S @ rng.standard_normal(S.shape[1])).reshape(shape)
        Y = (S @ rng.standard_normal(S.shape[1])).reshape(shape)
        C = (X @ Y - Y @ X).ravel()
        worst = max(worst, float(np.linalg.norm(C - Q @ (Q.T @ C))
                                 / (np.linalg.norm(X) * np.linalg.norm(Y))))
    return worst


def pointwise_sample_level_set(f, c, count, seed, newton_cap=60):
    """Level-set points by Newton projection along the tangential
    gradient, one seed at a time with its own step halving, over at most
    40 count + 200 seeds; the rows of the result in draw order.  Raises
    AssertionError when fewer than count seeds converge."""
    rng = np.random.default_rng(seed)

    def residual(p):
        return float(f(p)) - c

    def tangent(p):
        g = np.asarray(f.gradient(p), dtype=float)
        return g - (g @ p) * p

    out = []
    attempts = 0
    while len(out) < count and attempts < 40 * count + 200:
        attempts += 1
        p = rng.standard_normal(f.ambient_dim)
        p = p / np.linalg.norm(p)
        ok = False
        for _ in range(newton_cap):
            r = residual(p)
            if abs(r) < 1e-12:
                ok = True
                break
            t = tangent(p)
            if t @ t < 1e-12:
                break
            step = -r / (t @ t) * t
            scale = 1.0
            for _ in range(30):
                q = p + scale * step
                q = q / np.linalg.norm(q)
                if abs(residual(q)) < abs(r):
                    p = q
                    break
                scale *= 0.5
            else:
                break
        if ok and abs(residual(p)) < 1e-10 \
                and np.linalg.norm(tangent(p)) > 1e-6:
            out.append(p)
    assert len(out) == count, f"{len(out)}/{count} seeds converged"
    return np.array(out)


def _pointwise_dual(metric, f, x):
    # (norm, grad f) at one chart point: one norm_at and the Newton dual
    chart = metric.chart
    df = chart.jacobian(x).T @ f.gradient(chart.map(x))
    norm = metric.norm_at(x)
    return norm, newton_legendre(norm, df, rel_tol=1e-14)


def pointwise_gradient_norm(metric, f, x):
    """F(grad f)(x) at one chart point, from norm_at and the Newton dual."""
    norm, grad = _pointwise_dual(metric, f, np.asarray(x, dtype=float))
    return norm(grad)


def pointwise_laplacian(metric, f, x, h=1e-3):
    """(det q)^{-1/2} d_i (sqrt(det q) (grad f)^i) with q = 1/2 Hess F^2
    at grad f, from one norm_at and one Newton dual per stencil point."""
    x = np.asarray(x, dtype=float)

    def q_and_grad(z):
        norm, grad = _pointwise_dual(metric, f, z)
        return 0.5 * norm.sq_jet(grad).hess, grad

    def flux(z):
        q, grad = q_and_grad(z)
        return np.sqrt(np.linalg.det(q)) * grad

    q0 = q_and_grad(x)[0]
    return float(np.trace(_diff4(flux, x, h))) / np.sqrt(np.linalg.det(q0))


def pointwise_shape_eigenvalues(metric, f, x, h=1e-3):
    """Principal curvatures at x of the level of f through it, in the
    localization metric q = g_{grad f}: the generalized eigenvalues of
    the form B(u, v) = -q(nabla^q_u n1, v) against q on the q-orthogonal
    complement of n1 = grad f / F(grad f), with q and n1 from one norm_at
    and one Newton dual per stencil point."""
    x = np.asarray(x, dtype=float)
    n = len(x)

    def q_and_normal(z):
        norm, grad = _pointwise_dual(metric, f, z)
        return 0.5 * norm.sq_jet(grad).hess, grad / norm(grad)

    q, nu = q_and_normal(x)
    dq = _diff4(lambda z: q_and_normal(z)[0], x, h)      # [k] = d_k q
    dnu = _diff4(lambda z: q_and_normal(z)[1], x, h)     # [k] = d_k n1
    qinv = np.linalg.inv(q)
    # nabla_k n1 = d_k n1 + Gamma(e_k, n1), Gamma^m_{kj} from d q
    cov = dnu.copy()
    for k in range(n):
        for j in range(n):
            for m in range(n):
                cov[k, m] += 0.5 * nu[j] * sum(
                    qinv[m, l] * (dq[k, j, l] + dq[j, k, l] - dq[l, k, j])
                    for l in range(n))
    T = null_space((q @ nu)[None, :])                    # n x (n - 1)
    B = -T.T @ cov @ q @ T
    return eigh(0.5 * (B + B.T), T.T @ q @ T, eigvals_only=True)


def pointwise_navigation_lemma(datum, y=None, u=None, samples=1000, seed=0):
    """Deviations of the navigation inner-product identity, its corollary
    and its orthogonal-wind case, one (y, u) pair at a time, drawn from
    default_rng(seed) in the order of ``check_navigation_lemma``; a
    dict of arrays keyed by the report's level names."""
    F = datum.norm
    v = datum.wind
    n = F.dim
    Ft = navigated_norm(datum)
    rng = np.random.default_rng(seed)

    def both_sides(yv, uv):
        yv = yv / F(yv)
        gy = 0.5 * F.sq_jet(yv).hess
        uv = uv - (uv @ gy @ yv) / (yv @ gy @ yv) * yv   # enforce <u,y>_y = 0
        yt = yv + F(yv) * v
        gt = 0.5 * Ft.sq_jet(yt).hess
        uu_y = float(uv @ gy @ uv)
        uu_t = float(uv @ gt @ uv)
        ytv = float(yt @ gt @ v)
        yv_v = float(yv @ gy @ v)
        r_main = abs(uu_y * (1.0 - ytv) - uu_t)
        r_cor = abs(uu_t * (1.0 + yv_v) - uu_y)
        return r_main, r_cor

    pairs = [(np.asarray(y, float), np.asarray(u, float))] \
        if y is not None and u is not None else []
    for _ in range(samples):
        pairs.append((rng.standard_normal(n), rng.standard_normal(n)))
    devs_main, devs_cor = np.array([both_sides(*p) for p in pairs]).T
    devs = {"identity": devs_main, "corollary": devs_cor}
    devs_orth = []
    if F.is_quadratic and float(v @ F.matrix @ v) > 0.0:
        A = F.matrix
        for _ in range(max(samples // 10, 1)):
            yv = rng.standard_normal(n)
            yv = yv - (yv @ A @ v) / (v @ A @ v) * v
            if np.linalg.norm(yv) < 1e-8:
                continue
            yv /= F(yv)
            uv = rng.standard_normal(n)
            gy = 0.5 * F.sq_jet(yv).hess
            uv = uv - (uv @ gy @ yv) / (yv @ gy @ yv) * yv
            yt = yv + F(yv) * v
            gt = 0.5 * Ft.sq_jet(yt).hess
            devs_orth.append(abs(float(uv @ gt @ uv) - float(uv @ gy @ uv)))
        if devs_orth:
            devs["orthogonal-wind"] = np.array(devs_orth)
    return devs
