"""Navigation: defining round trip, closed form, inversion, inner-product
identity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finslab.navigation as navigation
from conftest import pointwise_navigation_lemma, unchecked_norm
from finslab.errors import NotPositiveDefinite, WindTooStrong
from finslab.minkowski import NormEvaluator
from finslab.navigation import (NavigationDatum, check_navigation_lemma,
                                invert_navigation, navigate, navigated_norm)

EUCLID_DATUM = NavigationDatum(NormEvaluator.euclidean(2),
                               np.array([0.5, 0.0]))


def test_zero_wind_is_identity():
    datum = NavigationDatum(NormEvaluator.euclidean(2), np.zeros(2))
    rng = np.random.default_rng(0)
    for _ in range(20):
        y = rng.standard_normal(2)
        assert abs(navigate(datum, y) - np.linalg.norm(y)) < 1e-14


def test_two_thirds_example():
    # v = (1/2, 0): y = (1, 0) shifts to (3/2, 0), so by homogeneity the
    # navigated norm of (1, 0) is 2/3
    assert abs(navigate(EUCLID_DATUM, [1.0, 0.0]) - 2.0 / 3.0) < 1e-14
    y = np.array([1.0, 0.0])
    y_shift = y + np.linalg.norm(y) * EUCLID_DATUM.wind
    assert abs(navigate(EUCLID_DATUM, y_shift) - 1.0) < 1e-14


def test_defining_round_trip():
    rng = np.random.default_rng(1)
    F = EUCLID_DATUM.norm
    for _ in range(200):
        y = rng.standard_normal(2)
        shifted = y + F(y) * EUCLID_DATUM.wind
        assert abs(navigate(EUCLID_DATUM, shifted) - F(y)) < 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_round_trip_random_quadratic_data(seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((3, 3))
    A = M @ M.T + 2.0 * np.eye(3)
    F = NormEvaluator.quadratic(A)
    v = rng.standard_normal(3)
    v *= 0.7 / F(v)
    datum = NavigationDatum(F, v)
    y = rng.standard_normal(3)
    shifted = y + F(y) * v
    assert abs(navigate(datum, shifted) - F(y)) < 1e-10 * max(1.0, F(y))


def test_branches_agree_on_quadratic_norms():
    rng = np.random.default_rng(2)
    Ft = navigated_norm(EUCLID_DATUM)
    for _ in range(50):
        y = rng.standard_normal(2)
        closed = Ft(y)
        solved = navigate(EUCLID_DATUM, y)
        assert abs(closed - solved) < 1e-10 * max(1.0, closed)


def test_indicatrix_shift():
    rng = np.random.default_rng(3)
    Ft = navigated_norm(EUCLID_DATUM)
    for _ in range(50):
        y = rng.standard_normal(2)
        y /= np.linalg.norm(y)           # F(y) = 1
        assert abs(Ft(y + EUCLID_DATUM.wind) - 1.0) < 1e-10


def test_general_norm_navigation_round_trip():
    # base norm itself a (non-reversible) Randers norm
    F = NormEvaluator.randers(np.eye(2), [0.4, 0.1])
    v = np.array([0.2, -0.3])
    assert F(-v) < 1.0
    datum = NavigationDatum(F, v)
    rng = np.random.default_rng(4)
    for _ in range(30):
        y = rng.standard_normal(2)
        shifted = y + F(y) * v
        assert abs(navigate(datum, shifted) - F(y)) < 1e-9 * max(1.0, F(y))


def test_invert_recovers_euclidean():
    Ft = navigated_norm(EUCLID_DATUM)
    back = invert_navigation(Ft, EUCLID_DATUM.wind)
    rng = np.random.default_rng(5)
    for _ in range(100):
        y = rng.standard_normal(2)
        assert abs(back(y) - np.linalg.norm(y)) < 1e-9


def test_invert_zero_wind_identity():
    Ft = navigated_norm(EUCLID_DATUM)
    assert invert_navigation(Ft, np.zeros(2)) is Ft


def test_double_inversion_fixed_point():
    Ft = navigated_norm(EUCLID_DATUM)
    back = invert_navigation(Ft, EUCLID_DATUM.wind)
    forward = navigated_norm(NavigationDatum(back, EUCLID_DATUM.wind))
    rng = np.random.default_rng(6)
    for _ in range(50):
        y = rng.standard_normal(2)
        assert abs(forward(y) - Ft(y)) < 1e-9 * max(1.0, Ft(y))


def test_navigated_norm_is_randers_closed_form():
    Ft = navigated_norm(EUCLID_DATUM)
    assert Ft.kind == "randers"
    rng = np.random.default_rng(7)
    for _ in range(30):
        y = rng.standard_normal(2)
        assert abs(Ft(y) - navigate(EUCLID_DATUM, y)) < 1e-12


def test_wind_too_strong():
    with pytest.raises(WindTooStrong):
        NavigationDatum(NormEvaluator.euclidean(2), np.array([1.0, 0.0]))
    with pytest.raises(WindTooStrong):
        NavigationDatum(NormEvaluator.euclidean(2), np.array([1.3, 0.4]))


def test_invalid_randers_base_is_not_positive_definite():
    # |beta|_alpha >= 1 past the validating constructor: alpha - beta
    # beta^T is indefinite, so the base has no navigation datum
    base = unchecked_norm(np.eye(2), np.array([1.5, 0.0]))
    with pytest.raises(NotPositiveDefinite):
        navigated_norm(NavigationDatum(base, np.array([0.1, 0.0])))


def test_wind_is_checked_on_the_side_the_ball_moves():
    # the navigated unit ball is the base ball shifted by v; it contains 0
    # iff F(-v) < 1, which differs from F(v) < 1 for a Randers base
    F = NormEvaluator.randers(np.eye(2), [0.6, 0.0])
    upwind, v = np.array([-0.8, 0.0]), np.array([0.8, 0.0])
    assert F(upwind) < 1.0 <= F(-upwind)
    with pytest.raises(WindTooStrong):
        NavigationDatum(F, upwind)
    assert F(-v) < 1.0 <= F(v)
    datum = NavigationDatum(F, v)
    Ft = navigated_norm(datum)
    rng = np.random.default_rng(8)
    for _ in range(30):
        y = rng.standard_normal(2)
        shifted = y + F(y) * v
        assert abs(Ft(shifted) - F(y)) < 1e-12 * F(y)
        assert abs(navigate(datum, shifted) - F(y)) < 1e-12 * F(y)


def _random_randers_datum(rng, n):
    # a Randers base with |beta|_alpha < 1 and a wind with F(-v) < 1
    M = rng.standard_normal((n, n))
    alpha = M @ M.T + 0.5 * np.eye(n)
    b = rng.standard_normal(n)
    b *= rng.uniform(0.0, 0.9) / np.sqrt(b @ np.linalg.solve(alpha, b))
    F = NormEvaluator.randers(alpha, b)
    v = rng.standard_normal(n)
    return NavigationDatum(F, rng.uniform(0.05, 0.9) * v / F(-v))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_randers_base_navigates_in_closed_form(n):
    # oracles: the defining-property scalar solve, and the inverse datum
    rng = np.random.default_rng(20 + n)
    for _ in range(20):
        datum = _random_randers_datum(rng, n)
        F, v = datum.norm, datum.wind
        Ft = navigated_norm(datum)
        assert Ft.kind == "randers"
        back = invert_navigation(Ft, v)
        for y in rng.standard_normal((10, n)):
            assert abs(Ft(y) - navigate(datum, y)) < 1e-12 * Ft(y)
            assert abs(back(y) - F(y)) < 1e-12 * F(y)


def test_lemma_zero_wind_exact():
    datum = NavigationDatum(NormEvaluator.euclidean(3), np.zeros(3))
    rep = check_navigation_lemma(datum, samples=100, seed=0)
    assert rep.passed
    assert rep.max_deviation < 1e-14


def test_lemma_euclidean_r3():
    datum = NavigationDatum(NormEvaluator.euclidean(3),
                            np.array([0.3, 0.0, 0.0]))
    rep = check_navigation_lemma(datum, samples=1000, tol=1e-8, seed=0)
    assert rep.passed
    assert rep.max_deviation < 1e-8
    orth = [e for e in rep.per_level if e["level"] == "orthogonal-wind"]
    assert orth and orth[0]["spread"] < 1e-10


def test_lemma_general_quadratic_base():
    # regression: the identity is scale-sensitive, base vectors must be
    # F-unit, which differs from Euclidean-unit when A != I
    A = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, 0.1], [0.0, 0.1, 1.0]])
    datum = NavigationDatum(NormEvaluator.quadratic(A),
                            np.array([0.3, 0.0, 0.0]))
    rep = check_navigation_lemma(datum, samples=300, tol=1e-10, seed=0)
    assert rep.passed


def test_lemma_wind_below_underflow_has_finite_levels():
    # |v|^2 underflows to 0 here; the orthogonal-wind case is skipped
    # rather than reported as NaN
    datum = NavigationDatum(NormEvaluator.euclidean(3), [1e-170, 0.0, 0.0])
    rep = check_navigation_lemma(datum, samples=20, seed=0)
    assert rep.passed
    assert all(np.isfinite([e["mean"], e["spread"]]).all()
               for e in rep.per_level)


def _lemma_datum(kind, n, rng, sign=1.0):
    # a base of the given kind on R^n and a wind with F(-v) = 0.6
    if kind == "euclidean":
        F = NormEvaluator.euclidean(n)
    elif kind == "quadratic":
        M = rng.standard_normal((n, n))
        F = NormEvaluator.quadratic(M @ M.T + 0.5 * np.eye(n))
    else:
        F = _random_randers_datum(rng, n).norm
    v = rng.standard_normal(n)
    return NavigationDatum(F, sign * 0.6 * v / F(-sign * v))


_BASES = ("euclidean", "quadratic", "randers")
_LEMMA_CASES = [(kind, n, {}) for kind in _BASES for n in (1, 2, 3, 4)] + [
    ("quadratic", 3, {"sign": -1.0}), ("randers", 3, {"sign": -1.0}),
    ("underflow", 3, {})]


@pytest.mark.parametrize("kind, n, extra", _LEMMA_CASES)
def test_lemma_array_pass_matches_pointwise_oracle(kind, n, extra,
                                                   monkeypatch):
    rng = np.random.default_rng(40 + n)
    if kind == "underflow":
        datum = NavigationDatum(NormEvaluator.euclidean(n),
                                [1e-170] + [0.0] * (n - 1))
    else:
        datum = _lemma_datum(kind, n, rng, extra.get("sign", 1.0))
    seen = []
    monkeypatch.setattr(navigation, "worst_deviation",
                        lambda d: seen.append(d) or float(np.max(d)))
    rep = check_navigation_lemma(datum, samples=40, seed=n)
    oracle = pointwise_navigation_lemma(datum, samples=40, seed=n)
    assert [e["level"] for e in rep.per_level] == list(oracle)
    assert np.array_equal(seen[0], np.concatenate(list(oracle.values())))
    assert np.array_equal([[e["mean"], e["spread"]] for e in rep.per_level],
                          [[np.mean(d), np.max(d)] for d in oracle.values()])
    assert rep.n_samples == seen[0].size
