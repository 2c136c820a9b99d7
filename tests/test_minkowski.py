"""Minkowski norms: fundamental tensor, inner product, Legendre solve."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (direction_scan_legendre, fd_gradient, fd_hessian,
                      newton_legendre)
from finslab.errors import NotPositiveDefinite, ZeroBaseVector
from finslab.minkowski import (NormEvaluator, fundamental_tensor,
                               inner_product, legendre_solve)

RANDERS_2D = NormEvaluator.randers(np.eye(2), [0.5, 0.0])


def _sample_norms(rng):
    M = rng.standard_normal((3, 3))
    spd = M @ M.T + 3.0 * np.eye(3)
    beta = rng.standard_normal(3) * 0.15
    return [
        NormEvaluator.euclidean(2),
        NormEvaluator.quadratic(spd),
        RANDERS_2D,
        NormEvaluator.randers(spd, beta),
    ]


def test_euclidean_tensor_is_identity():
    G = fundamental_tensor(NormEvaluator.euclidean(2), [1.0, 0.0]).matrix
    assert np.abs(G - np.eye(2)).max() < 1e-14


def test_tensor_zero_homogeneous():
    rng = np.random.default_rng(0)
    for norm in _sample_norms(rng):
        y = rng.standard_normal(norm.dim)
        G1 = fundamental_tensor(norm, y).matrix
        G2 = fundamental_tensor(norm, 2.0 * y).matrix
        assert np.abs(G1 - G2).max() < 1e-10


def test_randers_tensor_matches_fd_hessian():
    y = np.array([0.0, 1.0])
    G = fundamental_tensor(RANDERS_2D, y).matrix
    oracle = 0.5 * fd_hessian(lambda z: RANDERS_2D(z) ** 2, y)
    assert np.abs(G - oracle).max() < 1e-6


@pytest.mark.parametrize("dim", [3, 5, 7])
def test_randers_jet_matches_fd_oracles(dim):
    # closed-form value, gradient and Hessian of F^2 against central
    # differences, for winds |beta|_alpha from 0 up to 0.9
    rng = np.random.default_rng(dim)
    for strength in np.linspace(0.0, 0.9, 10):
        M = rng.standard_normal((dim, dim))
        alpha = M @ M.T / dim + np.eye(dim)
        beta = rng.standard_normal(dim)
        beta *= strength / np.sqrt(beta @ np.linalg.solve(alpha, beta))
        norm = NormEvaluator.randers(alpha, beta)
        y = rng.standard_normal(dim)
        y /= np.sqrt(y @ alpha @ y)

        def f2(z):
            return norm(z) ** 2

        jet = norm.sq_jet(y)
        assert abs(jet.val - f2(y)) < 1e-14
        assert np.abs(jet.grad - fd_gradient(f2, y)).max() < 1e-8
        assert np.abs(jet.hess - fd_hessian(f2, y, h=1e-4)).max() < 1e-6


def test_euler_identity():
    rng = np.random.default_rng(1)
    for norm in _sample_norms(rng):
        for _ in range(20):
            y = rng.standard_normal(norm.dim)
            val = inner_product(norm, y, y, y)
            assert abs(val - norm(y) ** 2) < 1e-9 * norm(y) ** 2


def test_euclidean_inner_is_dot():
    rng = np.random.default_rng(2)
    norm = NormEvaluator.euclidean(3)
    for _ in range(10):
        y, u, v = rng.standard_normal((3, 3))
        assert abs(inner_product(norm, y, u, v) - u @ v) < 1e-12


def test_randers_inner_matches_fd_entry():
    y = np.array([0.0, 1.0])
    oracle = 0.5 * fd_hessian(lambda z: RANDERS_2D(z) ** 2, y)
    val = inner_product(RANDERS_2D, y, [1.0, 0.0], [1.0, 0.0])
    assert abs(val - oracle[0, 0]) < 1e-6


def test_homogeneity_fixed_scales():
    rng = np.random.default_rng(3)
    for norm in _sample_norms(rng):
        for _ in range(25):
            y = rng.standard_normal(norm.dim)
            for lam in (0.5, 2.0, 7.0):
                assert abs(norm(lam * y) - lam * norm(y)) < 1e-12 * norm(y)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e3),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_homogeneity_property(lam, seed):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(2)
    if not np.any(y):
        return
    val = RANDERS_2D(lam * y)
    assert abs(val - lam * RANDERS_2D(y)) < 1e-12 * max(1.0, val)


def test_positive_definite_at_random_vectors():
    rng = np.random.default_rng(4)
    for norm in _sample_norms(rng):
        for _ in range(100):
            y = rng.standard_normal(norm.dim)
            G = fundamental_tensor(norm, y).matrix
            assert np.linalg.eigvalsh(G)[0] > 0.0


def test_legendre_euclidean_is_identity():
    xi = np.array([0.3, -1.2, 0.5])
    y = legendre_solve(NormEvaluator.euclidean(3), xi)
    assert np.abs(y - xi).max() < 1e-12


def test_legendre_one_homogeneous():
    rng = np.random.default_rng(5)
    for norm in _sample_norms(rng):
        xi = rng.standard_normal(norm.dim)
        y1 = legendre_solve(norm, xi)
        y2 = legendre_solve(norm, 2.0 * xi)
        assert np.abs(y2 - 2.0 * y1).max() < 1e-8 * np.linalg.norm(y1)


def test_legendre_matches_direction_scan():
    xi = np.array([1.0, 0.0])
    y = legendre_solve(RANDERS_2D, xi)
    oracle = direction_scan_legendre(RANDERS_2D, xi)
    assert np.linalg.norm(y - oracle) < 1e-4


def test_legendre_round_trip():
    rng = np.random.default_rng(6)
    for norm in _sample_norms(rng):
        for _ in range(25):
            y = rng.standard_normal(norm.dim)
            xi = 0.5 * norm.sq_jet(y).grad
            back = legendre_solve(norm, xi)
            assert np.linalg.norm(back - y) < 1e-8 * np.linalg.norm(y)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7])
def test_legendre_closed_form_matches_newton(dim):
    # the closed-form Randers dual against damped Newton on the jets, for
    # winds |beta|_alpha from 0 up to 0.95
    rng = np.random.default_rng(100 + dim)
    for strength in np.linspace(0.0, 0.95, 20):
        M = rng.standard_normal((dim, dim))
        alpha = M @ M.T / dim + 0.5 * np.eye(dim)
        beta = rng.standard_normal(dim)
        beta *= strength / np.sqrt(beta @ np.linalg.solve(alpha, beta))
        norm = NormEvaluator.randers(alpha, beta)
        for _ in range(5):
            xi = rng.standard_normal(dim)
            y = legendre_solve(norm, xi)
            oracle = newton_legendre(norm, xi, rel_tol=1e-13)
            assert np.linalg.norm(y - oracle) < 1e-10 * np.linalg.norm(y)


def test_legendre_residual_contract():
    rng = np.random.default_rng(7)
    norm = _sample_norms(rng)[3]
    xi = rng.standard_normal(3)
    y = legendre_solve(norm, xi)
    resid = 0.5 * norm.sq_jet(y).grad - xi
    assert np.linalg.norm(resid) < 1e-9 * np.linalg.norm(xi)


def test_zero_base_vector_errors():
    with pytest.raises(ZeroBaseVector):
        fundamental_tensor(RANDERS_2D, np.zeros(2))
    with pytest.raises(ZeroBaseVector):
        legendre_solve(RANDERS_2D, np.zeros(2))


def test_randers_needs_small_beta():
    with pytest.raises(NotPositiveDefinite):
        NormEvaluator.randers(np.eye(2), [1.0, 0.0])
    with pytest.raises(NotPositiveDefinite):
        NormEvaluator.quadratic([[1.0, 0.0], [0.0, -1.0]])


def test_fundamental_tensor_rejects_degenerate_rule():
    # |beta|_alpha = 1.5 slips past the validating constructor; where
    # F(y) < 0 the Randers g_y is indefinite (det g = (F/a)^3 det alpha),
    # so the PD check must flag the invalid norm input
    bad = NormEvaluator._randers_unchecked(np.eye(2), np.array([1.5, 0.0]))
    with pytest.raises(NotPositiveDefinite):
        fundamental_tensor(bad, np.array([-1.0, 0.5]))


def test_serialization_round_trip():
    for norm in (RANDERS_2D, NormEvaluator.euclidean(3)):
        clone = NormEvaluator.from_json(norm.to_json())
        y = np.array([0.4, -0.9, 0.1][:norm.dim])
        assert abs(clone(y) - norm(y)) < 1e-15
