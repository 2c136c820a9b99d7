"""Shared numerical oracles for the test suite.

Everything here is deliberately independent of the code paths it checks:
finite differences instead of jets and sprays, direction scans and
Newton iteration instead of the closed-form Legendre dual, sampling
ascent instead of eigenvalues, coordinate-formula Laplacians instead of
the divergence form, fixed spaces of conjugations on the full
skew-matrix space instead of the null space on so(l), the dense L x L
commutator Gram instead of the one built from the support of the C_i, a
QR projection, one trial at a time, instead of the batched projection of
the Lie closure check on the basis itself, one spray model per stencil
point instead of the batched flag stencil, one seed and one norm and one
Newton dual at a time instead of the batched level-set layer, charts,
the navigated Randers coefficients, the Legendre solve and a stencil of
the flux instead of the ambient closed forms of the level scan, a
stencil of the coefficient pair (``fd_coefficient_jet``) instead of the
closed-form coefficient jets of the metric-field builders, one
(y, u) pair at a time instead of the array pass of the navigation lemma,
the chart Jacobian J, J^T J and a linear solve for the wind instead
of the closed-form round and Randers coefficients of a gnomonic chart,
the chart Newton dual of ``_pointwise_dual`` instead of the ambient
closed-form nonlinear gradient, the chart Jacobian and a linear solve
(``chart_pull_tangent``) instead of ``Chart.pull_tangent``,
the stencil of a function's value and gradient rules
(``stencil_jacobian``, ``stencil_function``) instead of its closed-form
gradient and Hessian, the conjugated products U^T (P_i P_j / 2) U
instead of the spin lift read off the blocks C_i, and one ``np.kron``
and ``np.block`` per matrix instead of the stacked Clifford build.

The helpers at the end are test fixtures, not oracles: the two
metric-field helpers ``localization_field`` and ``finsler_value_ambient``,
the chart covector ``chart_gradient`` of df, the chart field
``chart_unit_normal`` of the F-unit normal, the one-center chart helper
``chart_coords``, ``unchecked_norm``, an invalid norm input, and
``span_matrix``, the vectorized elements of a basis of skew matrices.
"""

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigh, null_space

from finslab.errors import ChartBoundary
from finslab.isoparametric import SphereFunction, unit_gradient_field
from finslab.minkowski import NormEvaluator, legendre_solve, randers_fiber
from finslab.navigation import navigated_norm
from finslab.sphere import (_CHART_RADIUS, Chart, MetricField,
                            randers_sphere, round_metric)


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
        self.quad = norm.beta is None
        if self.quad:
            self.A = norm.alpha
            self.DA = _diff4(lambda xv: metric.norm_at(xv).alpha, x, h)
        else:
            self.alpha, self.beta = norm.alpha, norm.beta
            self.Dalpha = _diff4(lambda xv: metric.norm_at(xv).alpha, x, h)
            self.Dbeta = _diff4(lambda xv: metric.norm_at(xv).beta, x, h)

    @classmethod
    def of_jet(cls, alpha, beta, Dalpha, Dbeta):
        """The model of one chart point's coefficient jet as given, such
        as the closed-form jet of MetricField.coefficients."""
        model = object.__new__(cls)
        model.quad = beta is None
        if model.quad:
            model.A, model.DA = alpha, Dalpha
        else:
            model.alpha, model.beta = alpha, beta
            model.Dalpha, model.Dbeta = Dalpha, Dbeta
        return model

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
        return metric.norm_at(z).alpha

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


def dense_gram_null_coefficients(C, a, b, tol=1e-8):
    """(pairs, coeffs) per block size of the null vectors of the Gram of
    Y -> ([Y, C_i])_i on the pairs (a, b) of so(l), from the dense
    construction: the (L, l, l) product R[p, c, d] = sum_i C_i[a_p, c]
    C_i[b_p, d], the L x L Gram 2 (R[:, b, a] - R[:, a, b]) + 2 len(C) I,
    the connected blocks of its nonzero pattern by label propagation, and
    one stacked eigh per block size, eigenvalues at most tol null.  Blocks
    are ordered by size, then by least pair, pairs ascending in a block.
    """
    L = len(a)
    R = np.einsum("ipc,ipd->pcd", C[:, a], C[:, b], optimize=True)
    gram = 2.0 * (R[:, b, a] - R[:, a, b])
    gram[np.diag_indices(L)] += 2.0 * len(C)
    rows, cols = np.nonzero((gram != 0.0) | (gram.T != 0.0))
    label, old = np.arange(L), None
    while not np.array_equal(label, old):
        old = label.copy()
        np.minimum.at(label, rows, label[cols])
    size = np.bincount(label)[label]
    order = np.lexsort((label, size))
    found = []
    for s in np.flatnonzero(np.bincount(size)):
        blocks = order[size[order] == s].reshape(-1, s)
        mu, V = np.linalg.eigh(gram[blocks[:, :, None], blocks[:, None, :]])
        j, col = np.nonzero(mu <= tol)
        found.append((blocks[j], V[j, :, col]))
    return found


def frame_spin_products(matrices):
    """The products P_i P_j / 2 (i < j, row-major) conjugated into the
    eigenframe U = [Q+ | P_1 Q+] of P_0, with Q+ the +1 eigenvectors of
    P_0 as eigh returns them: U^T (P_i P_j / 2) U, from the products of
    the U^T P_i U."""
    evals, Q = np.linalg.eigh(matrices[0])
    Qp = Q[:, evals > 0.0]
    U = np.hstack([Qp, matrices[1] @ Qp])
    F = U.T @ matrices @ U
    return np.array([0.5 * (F[i] @ F[j]) for i in range(len(F))
                     for j in range(i + 1, len(F))])


_ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])
_DIAG = np.array([[1.0, 0.0], [0.0, -1.0]])
_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def kron_skew_family(q):
    """q anticommuting skew complex structures, one np.kron per matrix:
    from R, D, S, doubling at q in {1, 2, 4, 8}, and tensored with the
    8-generator family and its volume element beyond q = 8."""
    if q == 0:
        return []
    if q == 1:
        return [_ROT]
    if q <= 3:
        return [np.kron(_ROT, _DIAG), np.kron(_ROT, _SWAP),
                np.kron(np.eye(2), _ROT)][:q]
    if q <= 7:
        commuting = [np.kron(_DIAG, _ROT), np.kron(_SWAP, _ROT),
                     np.kron(_ROT, np.eye(2))]
        fam = [np.kron(_DIAG, E) for E in kron_skew_family(3)]
        fam += [np.kron(_ROT, np.eye(4))]
        fam += [np.kron(_SWAP, B) for B in commuting]
        return fam[:q]
    if q == 8:
        return ([np.kron(_DIAG, E) for E in kron_skew_family(7)]
                + [np.kron(_ROT, np.eye(8))])
    eight, rest = kron_skew_family(8), kron_skew_family(q - 8)
    omega = np.eye(16)
    for E in eight:
        omega = omega @ E
    return ([np.kron(E, np.eye(rest[0].shape[0])) for E in eight]
            + [np.kron(omega, E) for E in rest])


def kron_clifford_matrices(m, k1, k2, delta):
    """The matrices of k1 + k2 copies of the irreducible system on
    R^{2 delta}, the last k2 with P_m negated: each irreducible matrix
    by np.block, then np.kron with the identity or the sign."""
    eye = np.eye(delta)
    prime = [np.block([[eye, 0.0 * eye], [0.0 * eye, -eye]]),
             np.block([[0.0 * eye, eye], [eye, 0.0 * eye]])]
    prime += [np.block([[0.0 * E, E], [-E, 0.0 * E]])
              for E in kron_skew_family(m - 1)]
    sign = np.diag([1.0] * k1 + [-1.0] * k2)
    return np.array([np.kron(P, np.eye(k1 + k2)) for P in prime[:-1]]
                    + [np.kron(prime[-1], sign)])


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
    """Level-set points by steps along the great circle of the tangential
    gradient, one seed at a time with its own step halving, over at most
    40 count + 200 seeds; the rows of the result in draw order.  A step
    turns by the Newton angle of arccos f where |f|, |c| < 1 and of f
    elsewhere.  Raises AssertionError when fewer than count seeds
    converge."""
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
            speed = np.sqrt(t @ t)           # df/da along the great circle
            fp = r + c
            if abs(fp) < 1.0 and abs(c) < 1.0:
                # d(arccos f)/da = -speed / sqrt(1 - f^2)
                angle = (np.arccos(fp) - np.arccos(c)) \
                    * np.sqrt(1.0 - fp * fp) / speed
            else:
                angle = -r / speed
            scale = 1.0
            for _ in range(30):
                a = scale * angle
                q = np.cos(a) * p + np.sin(a) * t / speed
                if abs(residual(q)) < abs(r):
                    p = q
                    break
                scale *= 0.5
            else:
                break
        # a focal point, where |grad_h f|^2 <= 1e-8, is not on a regular
        # level
        if ok and abs(residual(p)) < 1e-10 \
                and np.linalg.norm(tangent(p)) > 1e-4:
            out.append(p)
    assert len(out) == count, f"{len(out)}/{count} seeds converged"
    return np.array(out)


def stencil_jacobian(rule, P, h=1e-3):
    """Derivatives of an ambient rule at the points P, on a new last axis,
    by the fourth-order central stencil at step h, one ambient axis at a
    time; exact up to roundoff on polynomials of degree <= 4."""
    P = np.asarray(P, dtype=float)
    return np.stack([sum(w * rule(P + o * h * e)
                         for o, w in zip(_OFFS4, _WGTS4)) / h
                     for e in np.eye(P.shape[-1])], axis=-1)


def stencil_function(ambient_dim, kind, value, gradient=None):
    """A SphereFunction of the value rule whose Hessian rule, and gradient
    rule when none is given, is the stencil_jacobian of the rule below."""
    if gradient is None:
        def gradient(P):
            return stencil_jacobian(value, P)
    return SphereFunction(ambient_dim, kind, value, gradient,
                          lambda P: stencil_jacobian(gradient, P))


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


def _chart_jacobian(chart, X):
    # (p, J) at the chart points X: p = (c + B x) / s and its Jacobian
    # J = B / s - p x^T / s^2, s = sqrt(1 + |x|^2), written out from the
    # chart's center and basis
    X = np.asarray(X, dtype=float)
    s = np.sqrt(1.0 + np.einsum("...i,...i->...", X, X))[..., None]
    p = (chart.center + np.einsum("...ij,...j->...i", chart.basis, X)) / s
    J = chart.basis / s[..., None] \
        - p[..., :, None] * X[..., None, :] / (s * s)[..., None]
    return p, J


def pullback_round(chart, X):
    """The round metric in chart coordinates, J^T J, from the chart
    Jacobian, over the leading axes of X."""
    J = _chart_jacobian(chart, X)[1]
    return np.swapaxes(J, -1, -2) @ J


def jacobian_randers_coefficients(chart, W, X):
    """(alpha, beta) of the Randers metric navigated from (round h, W),
    over the leading axes of X: A = J^T J, the chart wind solved from
    A w = J^T W p, and the Randers dictionary alpha = (lam A + A w (A w)^T)
    / lam^2, beta = -A w / lam with lam = 1 - w^T A w, written out."""
    p, J = _chart_jacobian(chart, X)
    Jt = np.swapaxes(J, -1, -2)
    A = Jt @ J
    w = np.linalg.solve(A, Jt @ (p @ W.matrix.T)[..., None])
    Aw = (A @ w)[..., 0]
    lam = (1.0 - np.einsum("...i,...i->...", w[..., 0], Aw))[..., None]
    alpha = (lam[..., None] * A + Aw[..., :, None] * Aw[..., None, :]) \
        / (lam * lam)[..., None]
    return alpha, -Aw / lam


def chart_laplacian(W, f, P, h=1e-3):
    """The Busemann-Hausdorff Laplacian sigma^-1 d_i(sigma (grad f)^i),
    with sigma = sqrt(det) of the round pullback, at the rows of the
    ambient points P, on gnomonic charts centered at them: the Randers
    coefficients of the navigation datum (round h, W) from
    randers_from_navigation (W None: round), the dual of df from
    legendre_solve, and the divergence from a fourth-order stencil of the
    flux at step h."""
    P = np.asarray(P, dtype=float)
    n = P.shape[-1] - 1
    chart = Chart(P)
    met = round_metric(chart) if W is None else randers_sphere(chart, W)
    x0 = np.zeros((len(P), n))
    # X[o, k] = x0 + h _OFFS4[o] e_k, the stencil of every chart origin
    X = x0 + h * np.array(_OFFS4)[:, None, None, None] \
        * np.eye(n)[None, :, None, :]
    grad = legendre_solve(met.coefficients(X)[:2],
                          chart_gradient(chart, f, X))
    flux = np.sqrt(np.linalg.det(pullback_round(chart, X)))[..., None] * grad
    div = np.einsum("o,okpk->p", np.array(_WGTS4) / h, flux)
    return div / np.sqrt(np.linalg.det(pullback_round(chart, x0)))


def _stencil_jet(pair, X, h=1e-4):
    # (alpha, beta, Dalpha, Dbeta) at the chart points X from the pair
    # rule P -> (alpha, beta) (beta None for a quadratic field), called
    # once on X and its coordinate stencil at step h
    X = np.asarray(X, dtype=float)
    n = X.shape[-1]
    steps = h * np.array(_OFFS4)[:, None, None] * np.eye(n)  # [o, k, :]
    P = X + steps.reshape((4, n) + (1,) * (X.ndim - 1) + (n,))
    values = pair(np.concatenate((X[None], P.reshape((4 * n,) + X.shape))))

    def derivative(c):
        # [..., k, ...]: the weighted stencil rows, k after the axes of X
        D = np.einsum("o,ok...->k...", np.array(_WGTS4) / h,
                      c[1:].reshape((4, n) + c.shape[1:]))
        return np.moveaxis(D, 0, X.ndim - 1)

    return tuple(None if c is None else c[0] for c in values) + tuple(
        None if c is None else derivative(c) for c in values)


def fd_coefficient_jet(metric, X, h=1e-4):
    """The coefficient jet (alpha, beta, Dalpha, Dbeta) of a metric field
    at the chart points X, with the x-derivatives taken by a fourth-order
    central stencil at step h of the coefficient pair of
    ``metric.coefficients``, in one call over X and the stencil."""
    return _stencil_jet(lambda P: metric.coefficients(P)[:2], X, h)


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


def _pointwise_lemma_sides(F, Ft, v, yv, uv):
    """<u,u>_y, <u,u>_y', <y',v>_y' and <y,v>_y of one (y, u) pair, from
    the Hessians of F^2 and F'^2, with y scaled to F(y) = 1 and u made
    g_y-orthogonal to y."""
    yv = yv / F(yv)
    gy = 0.5 * F.sq_jet(yv).hess
    uv = uv - (uv @ gy @ yv) / (yv @ gy @ yv) * yv      # enforce <u,y>_y = 0
    yt = yv + F(yv) * v
    gt = 0.5 * Ft.sq_jet(yt).hess
    return (float(uv @ gy @ uv), float(uv @ gt @ uv), float(yt @ gt @ v),
            float(yv @ gy @ v))


def pointwise_navigation_lemma(datum, samples=1000, seed=0):
    """Deviations of the navigation inner-product identity, its corollary
    and its orthogonal-wind case, one (y, u) pair at a time, drawn from
    default_rng(seed) in the order of ``check_navigation_lemma``: a
    dict of arrays keyed by the report's level names, and the list of
    (pairs, 4) arrays of the four inner products of each pass, in the
    order of ``_pointwise_lemma_sides``."""
    F = datum.norm
    v = datum.wind
    n = F.dim
    Ft = navigated_norm(datum)
    rng = np.random.default_rng(seed)

    pairs = [(rng.standard_normal(n), rng.standard_normal(n))
             for _ in range(samples)]
    sides = [np.array([_pointwise_lemma_sides(F, Ft, v, *p)
                       for p in pairs])]
    uu_y, uu_t, ytv, yv_v = sides[0].T
    devs = {"identity": np.abs(uu_y * (1.0 - ytv) - uu_t),
            "corollary": np.abs(uu_t * (1.0 + yv_v) - uu_y)}
    orth = []
    if F.beta is None and float(v @ F.alpha @ v) > 0.0:
        A = F.alpha
        for _ in range(max(samples // 10, 1)):
            yv = rng.standard_normal(n)
            yv = yv - (yv @ A @ v) / (v @ A @ v) * v
            if np.linalg.norm(yv) < 1e-8:
                continue
            orth.append(_pointwise_lemma_sides(F, Ft, v, yv,
                                               rng.standard_normal(n)))
        if orth:
            sides.append(np.array(orth))
            devs["orthogonal-wind"] = np.abs(sides[1][:, 1] - sides[1][:, 0])
    return devs, sides


def localization_field(base, Y):
    """Riemannian field g^F_Y: the fundamental tensor of ``base`` frozen
    along the nonvanishing chart vector field Y, which maps chart points
    (..., n) to vectors (..., n), with its x-derivatives from the stencil
    of ``fd_coefficient_jet``.  A build is one base builder call and one
    call of Y over all its points and their stencils, all real.

    At a complex point X = x + i t u, t = |Im X|, the field takes the
    first-order extension jet(x) + i t D_u jet(x), with D_u a fourth-order
    stencil along u: what an analytic builder gives there to O(t^2), so
    the complex step of flag curvature reads D_u jet(x) off it.

    The field builds in the chart of its base, whatever chart it is
    given, so it is never re-centered: with_center would swap a chart
    that its builder does not read."""

    def pair(P):
        alpha, beta = base.coefficients(P)[:2]
        Yx = Y(P)       # evaluated for a quadratic base too, which ignores it
        G = alpha if beta is None else randers_fiber(alpha, beta, Yx)[4]
        return 0.5 * (G + np.swapaxes(G, -1, -2)), None

    def build(field, X, h=1e-3):
        if not np.iscomplexobj(X):
            return _stencil_jet(pair, X)
        x, v = X.real, X.imag
        t = np.sqrt(np.einsum("...i,...i->...", v, v))[..., None]
        u = v / np.where(t > 0.0, t, 1.0)
        offs = h * np.array(_OFFS4).reshape((4,) + (1,) * X.ndim)
        jet = _stencil_jet(pair, np.concatenate((x[None], x + offs * u)))
        wgts = np.array(_WGTS4) / h
        return tuple(None if c is None else c[0] + 1j * t.reshape(
            t.shape[:-1] + (1,) * (c.ndim - X.ndim)) * np.einsum(
                "o,o...->...", wgts, c[1:]) for c in jet)

    return MetricField(base.chart, "localization", build)


def finsler_value_ambient(field, p, u):
    """F at the ambient point p applied to the ambient tangent vector u,
    on a chart of ``field`` centered at p."""
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)
    u = u - (u @ p) * p
    fld = field.with_center(p)
    return fld.norm_at(np.zeros(fld.dim))(fld.chart.basis.T @ u)


def chart_gradient(chart, f, X):
    """d(f o map) at the chart points X, the chart covector J^T grad f of
    df, from the chart Jacobian of the oracles."""
    p, J = _chart_jacobian(chart, X)
    return np.einsum("...ij,...i->...j", J, f.gradient(p))


def chart_coords(chart, p):
    """Chart coordinates of the ambient point p, for a one-center chart;
    ChartBoundary outside the chart's hemisphere."""
    p = np.asarray(p, dtype=float)
    c = float(p @ chart.center)
    if c <= 1.0 / np.sqrt(1.0 + _CHART_RADIUS * _CHART_RADIUS):
        raise ChartBoundary("point outside the chart hemisphere")
    return (chart.basis.T @ p) / c


def chart_pull_tangent(chart, x, u_amb):
    """The ambient tangent vectors u_amb at chart.map(x) in chart
    coordinates, (J^T J)^-1 J^T u_amb by a linear solve, over the leading
    axes of x and u_amb."""
    Jt = np.swapaxes(chart.jacobian(x), -1, -2)
    return np.linalg.solve(
        Jt @ np.swapaxes(Jt, -1, -2),
        (Jt @ np.asarray(u_amb, dtype=float)[..., None]))[..., 0]


def chart_unit_normal(chart, W, f):
    """The F-unit normal n1 of the levels of f for the navigation datum
    (round h, W) as a chart vector field: unit_gradient_field at the
    mapped chart points, pulled back by Chart.pull_tangent."""
    field = unit_gradient_field(W, f)
    return lambda X: chart.pull_tangent(X, field(chart.map(X)))


def unchecked_norm(alpha, beta=None):
    """A NormEvaluator of the coefficient pair as given, past the checks of
    its constructor: an invalid norm input for the checks downstream."""
    norm = object.__new__(NormEvaluator)
    norm.alpha = np.asarray(alpha, dtype=float)
    norm.beta = None if beta is None else np.asarray(beta, dtype=float)
    return norm


def span_matrix(basis):
    """(n^2, dim) matrix whose columns are the vectorized elements of a
    SkewBasis of n x n matrices."""
    return np.asarray(basis.elements).reshape(basis.dim, -1).T
