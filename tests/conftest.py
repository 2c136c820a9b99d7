"""Shared numerical oracles for the test suite.

Everything here is deliberately independent of the code paths it checks:
finite differences instead of jets, direction scans instead of Legendre
solves, sampling ascent instead of eigenvalues, coordinate-formula
Laplacians instead of the divergence form.
"""

import numpy as np


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
