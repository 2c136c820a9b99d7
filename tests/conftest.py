"""Shared numerical oracles for the test suite.

Everything here is deliberately independent of the code paths it checks:
finite differences instead of jets and sprays, direction scans and Newton
iteration instead of the closed-form Legendre dual, sampling ascent
instead of eigenvalues, coordinate-formula Laplacians instead of the
divergence form.
"""

import numpy as np
from scipy.linalg import cho_factor, cho_solve


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
        return f.chart_value(chart, z)

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
