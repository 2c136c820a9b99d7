"""Sphere charts, Killing fields, metric fields."""

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import (chart_coords, fd_coefficient_jet, finsler_value_ambient,
                      jacobian_randers_coefficients, pullback_round,
                      sampled_killing_norm)
from finslab.errors import (ChartBoundary, DimensionMismatch,
                            LambdaOutOfRange, NotSkew, WindTooStrong)
from finslab.sphere import (Chart, KillingField, block_killing, killing_norm,
                            random_sphere_points, randers_sphere,
                            round_metric, standard_rotation)


def test_chart_map_lands_on_sphere():
    rng = np.random.default_rng(0)
    chart = Chart(rng.standard_normal(5))
    for _ in range(30):
        x = rng.standard_normal(4) * 2.0
        assert abs(np.linalg.norm(chart.map(x)) - 1.0) < 1e-12
    assert np.linalg.norm(chart.map(np.zeros(4)) - chart.center) < 1e-15


def test_chart_coords_round_trip():
    rng = np.random.default_rng(1)
    chart = Chart(rng.standard_normal(4))
    for _ in range(20):
        x = rng.standard_normal(3)
        back = chart_coords(chart, chart.map(x))
        assert np.linalg.norm(back - x) < 1e-12 * (1.0 + np.linalg.norm(x))


def test_chart_boundary():
    chart = Chart([1.0, 0.0, 0.0])
    with pytest.raises(ChartBoundary):
        chart.map(np.array([11.0, 0.0]))
    with pytest.raises(ChartBoundary):
        chart_coords(chart, np.array([-1.0, 0.0, 0.0]))
    # the coefficient builders keep the chart's domain check and message
    W = block_killing(1, [0.5], [1])
    for met in (round_metric(chart), randers_sphere(chart, W)):
        with pytest.raises(ChartBoundary,
                           match=r"^\|x\| = 11\.000 outside chart$"):
            met.coefficients(np.array([11.0, 0.0]))


def _random_wind(dim, rng):
    M = rng.standard_normal((dim, dim))
    W = KillingField(M - M.T)
    return KillingField(0.7 / killing_norm(W) * W.matrix)


_WINDS = {"standard": lambda rng: standard_rotation(6, 0.6),
          "block": lambda rng: block_killing(1, [0.3, 0.8], [1, 2]),
          "random-skew": lambda rng: _random_wind(6, rng)}


@pytest.mark.parametrize("stack", [False, True])
@pytest.mark.parametrize("kind,wind", [("round", None),
                                       ("randers", "standard"),
                                       ("randers", "block"),
                                       ("randers", "random-skew")])
def test_closed_form_coefficients_match_jacobian_oracle(kind, wind, stack):
    # the closed-form builders against J^T J and the solved chart wind, on
    # one chart or a stack of five, out to |x| = 9.9 of the radius-10 chart
    rng = np.random.default_rng(16)
    W = None if wind is None else _WINDS[wind](rng)
    dim = 6 if W is None else W.ambient_dim
    lead = (40, 5) if stack else (40,)
    centers = random_sphere_points(dim - 1, 5, rng)
    chart = Chart(centers if stack else centers[0])
    U = rng.standard_normal(lead + (dim - 1,))
    U /= np.linalg.norm(U, axis=-1, keepdims=True)
    X = np.linspace(0.0, 9.9, 40).reshape((40,) + (1,) * len(lead)) * U
    if W is None:
        got = round_metric(chart).coefficients(X)
        want = pullback_round(chart, X), None
    else:
        got = randers_sphere(chart, W).coefficients(X)
        want = jacobian_randers_coefficients(chart, W, X)
    assert (got[1] is None) == (want[1] is None)
    for a, b in zip(got, want):
        if b is None:
            continue
        assert a.shape == b.shape
        # relative to the largest entry at each point
        axes = tuple(range(len(lead), b.ndim))
        assert (np.abs(a - b).max(axis=axes)
                <= 1e-13 * np.abs(b).max(axis=axes)).all()


def _jet_wind(kind, dim, rng):
    # a wind on R^dim of each kind; the standard rotation needs dim even
    if kind == "standard":
        return standard_rotation(dim, 0.6)
    if kind == "block":
        return block_killing(1, [0.5], [1]) if dim < 4 \
            else block_killing(dim % 2, [0.3, 0.6], [1, 1])
    return _random_wind(dim, rng)


@pytest.mark.parametrize("chart_kind", ["one", "with_center", "stack"])
@pytest.mark.parametrize("n,wind", [
    (n, wind) for n in (2, 3, 4)
    for wind in (None, "standard", "block", "random-skew")
    if not (wind == "standard" and n % 2 == 0)])
def test_closed_form_jets_match_the_stencil_oracle(n, wind, chart_kind):
    # the builders' closed-form x-derivatives against a fourth-order
    # stencil of their coefficient pairs, for one point and for stacks,
    # out to |x| = 9 of the radius-10 chart
    rng = np.random.default_rng(60 + n)
    W = None if wind is None else _jet_wind(wind, n + 1, rng)
    make = round_metric if W is None \
        else (lambda chart: randers_sphere(chart, W))
    met = make(Chart(rng.standard_normal(n + 1)))
    lead = (20,)
    if chart_kind == "with_center":
        met = met.with_center(random_sphere_points(n, 1, rng)[0])
    elif chart_kind == "stack":
        met = met.with_center(random_sphere_points(n, 3, rng))
        lead = (20, 3)
    U = rng.standard_normal(lead + (n,))
    U /= np.linalg.norm(U, axis=-1, keepdims=True)
    X = np.linspace(0.05, 9.0, 20).reshape((20,) + (1,) * len(lead)) * U
    for points in (X, X[-1]):
        got = met.coefficients(points)
        want = fd_coefficient_jet(met, points)
        assert len(got) == len(want) == 4
        assert (got[1] is None) == (got[3] is None) == (W is None)
        for a, b in zip(got, want):
            if b is None:
                continue
            assert a.shape == b.shape
            # relative to the largest entry at each point
            axes = tuple(range(points.ndim - 1, b.ndim))
            assert (np.abs(a - b).max(axis=axes)
                    <= 1e-8 * np.abs(b).max(axis=axes)).all()
        # the complex step of flag curvature: Im (alpha, beta) at x + ih e_k
        # over h is the closed-form derivative along e_k, which a float
        # cast or a non-analytic call in the builder would break
        for k in range(n):
            pair = met.coefficients(points + 1e-30j * np.eye(n)[k])[:2]
            for c, D in zip(pair, got[2:]):
                if D is None:
                    continue
                Dk = np.take(D, k, axis=points.ndim - 1)
                axes = tuple(range(points.ndim - 1, Dk.ndim))
                assert (np.abs(c.imag / 1e-30 - Dk).max(axis=axes)
                        <= 1e-12 * np.abs(Dk).max(axis=axes)).all()


def test_round_metric_center_is_identity():
    chart = Chart([0.0, 1.0, 0.0])
    met = round_metric(chart)
    assert np.abs(met.norm_at(np.zeros(2)).alpha - np.eye(2)).max() < 1e-14


def test_round_metric_matches_gnomonic_formula():
    # symbolic pullback of the ambient metric, hard-coded
    rng = np.random.default_rng(2)
    chart = Chart(rng.standard_normal(4))
    met = round_metric(chart)
    for _ in range(20):
        x = rng.standard_normal(3)
        r2 = x @ x
        oracle = ((1.0 + r2) * np.eye(3) - np.outer(x, x)) / (1.0 + r2) ** 2
        assert np.abs(met.norm_at(x).alpha - oracle).max() < 1e-12


def test_killing_norm_examples():
    assert killing_norm(KillingField(np.zeros((3, 3)))) == 0.0
    W = block_killing(1, [0.7], [1])
    assert abs(killing_norm(W) - 0.7) < 1e-14


def test_killing_norm_vs_sampling_oracle():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((6, 6))
    W = KillingField(M - M.T)
    oracle = sampled_killing_norm(W.matrix, 100_000, rng)
    assert abs(killing_norm(W) - oracle) < 1e-3


def test_killing_field_requires_skew():
    with pytest.raises(NotSkew):
        KillingField(np.eye(3))


@pytest.mark.parametrize("entry", [(0, 1, np.nan), (0, 0, np.inf),
                                   (1, 1, -np.inf), (0, 2, np.inf)])
def test_killing_field_rejects_non_finite_entries(entry):
    # a NaN pair fails every comparison and an infinite diagonal keeps
    # |W + W^T| within its infinite scale: neither reads as skew
    i, j, value = entry
    W = np.zeros((3, 3))
    W[i, j], W[j, i] = value, (value if i == j else -value)
    with pytest.raises(NotSkew):
        KillingField(W)


def test_killing_field_tangency():
    rng = np.random.default_rng(4)
    M = rng.standard_normal((5, 5))
    W = KillingField(M - M.T)
    for p in random_sphere_points(4, 100, rng):
        assert abs(p @ (W.matrix @ p)) < 1e-13


def test_killing_norm_conjugation_invariant():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((6, 6))
    W = KillingField(M - M.T)
    base = killing_norm(W)
    for _ in range(5):
        T, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        assert abs(killing_norm(KillingField(T @ W.matrix @ T.T)) - base) < 1e-10


def test_block_killing_structure():
    W = standard_rotation(4, 0.5)
    expect = np.zeros((4, 4))
    expect[:2, 2:] = 0.5 * np.eye(2)
    expect[2:, :2] = -0.5 * np.eye(2)
    assert np.abs(W.matrix - expect).max() < 1e-15
    assert abs(killing_norm(W) - 0.5) < 1e-14
    zero = block_killing(4, [], [])
    assert np.abs(zero.matrix).max() == 0.0


def test_block_killing_validation():
    with pytest.raises(LambdaOutOfRange):
        block_killing(0, [1.2], [1])
    with pytest.raises(LambdaOutOfRange):
        block_killing(0, [0.5, 0.3], [1, 1])
    with pytest.raises(DimensionMismatch):
        block_killing(0, [0.5], [1, 1])


def test_block_killing_flow_preserves_height():
    # rotation around the first axis: latitude circles stay put
    W = block_killing(1, [0.3], [1])
    rng = np.random.default_rng(6)
    for t in (0.2, 1.1):
        flow = expm(t * W.matrix)
        for p in random_sphere_points(2, 20, rng):
            assert abs((flow @ p)[0] - p[0]) < 1e-12


@pytest.mark.parametrize("stack", [False, True])
@pytest.mark.parametrize("kind", ["round", "randers"])
def test_with_center_swaps_the_chart(kind, stack):
    # a re-centered field is the field built afresh on the new chart: the
    # same kind and the same coefficients, bit for bit
    rng = np.random.default_rng(15)
    W = standard_rotation(4, 0.4)
    make = {"round": round_metric,
            "randers": lambda chart: randers_sphere(chart, W)}[kind]
    met = make(Chart(rng.standard_normal(4)))
    p = random_sphere_points(3, 5, rng) if stack \
        else random_sphere_points(3, 1, rng)[0]
    moved = met.with_center(p)
    fresh = make(Chart(p))
    assert moved.kind == met.kind
    # chart points of a stack of N charts carry the axes (..., N, n)
    X = 0.3 * rng.standard_normal((7,) + p.shape[:-1] + (3,))
    got, want = moved.coefficients(X), fresh.coefficients(X)
    assert (got[1] is None) == (want[1] is None) == (kind == "round")
    for a, b in zip(got, want):
        assert b is None or np.array_equal(a, b)


def test_randers_sphere_zero_wind_is_round():
    chart = Chart([1.0, 0.0, 0.0, 0.0])
    met = randers_sphere(chart, KillingField(np.zeros((4, 4))))
    metr = round_metric(chart)
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        assert abs(met.norm_at(x)(y) - metr.norm_at(x)(y)) < 1e-12


def test_rotation_wind_has_constant_length():
    # |W(x)|_h = lam everywhere for W = lam J, so the navigated norm of
    # the wind is the constant lam / (1 + lam)
    lam = 0.4
    W = standard_rotation(4, lam)
    chart = Chart([1.0, 0.0, 0.0, 0.0])
    met = randers_sphere(chart, W)
    rng = np.random.default_rng(8)
    for p in random_sphere_points(3, 20, rng):
        assert abs(np.linalg.norm(W.matrix @ p) - lam) < 1e-13
        val = finsler_value_ambient(met, p, W.matrix @ p)
        assert abs(val - lam / (1.0 + lam)) < 1e-12


def test_randers_sphere_wind_too_strong():
    chart = Chart([1.0, 0.0, 0.0, 0.0])
    J = standard_rotation(4, 0.5).matrix / 0.5      # unit-speed rotation
    with pytest.raises(WindTooStrong):
        randers_sphere(chart, KillingField(J))
    with pytest.raises(WindTooStrong):
        randers_sphere(chart, KillingField(1.4 * J))


def test_randers_isometry_under_conjugation():
    rng = np.random.default_rng(9)
    W = standard_rotation(4, 0.4)
    chart = Chart([1.0, 0.0, 0.0, 0.0])
    met = randers_sphere(chart, W)
    T, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    met_conj = randers_sphere(chart, KillingField(T @ W.matrix @ T.T))
    for _ in range(10):
        p = random_sphere_points(3, 1, rng)[0]
        u = rng.standard_normal(4)
        u_t = u - (u @ p) * p
        v1 = finsler_value_ambient(met, p, u_t)
        v2 = finsler_value_ambient(met_conj, T @ p, T @ u_t)
        assert abs(v1 - v2) < 1e-10


def test_killing_serialization():
    W = standard_rotation(4, 0.3)
    import json
    data = json.loads(W.to_json())
    W2 = KillingField(np.array(data["matrix"]))
    assert np.abs(W.matrix - W2.matrix).max() == 0.0
