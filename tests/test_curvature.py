"""Spray, Riemann curvature, flag curvature, geodesics."""

import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import fd_spray, pointwise_flag_curvature
from finslab.curvature import (Flag, flag_curvature, geodesic_spray,
                               integrate_geodesic, riemann_curvature,
                               stencil_derivative, stencil_points)
from finslab.errors import (ChartBoundary, DegenerateFlag,
                            DifferentiationFailure, FinslabError)
from finslab.sphere import (Chart, KillingField, MetricField, block_killing,
                            killing_norm, localization_field, randers_sphere,
                            round_metric, standard_rotation)


def flat_metric(n: int) -> MetricField:
    chart = Chart(np.eye(n + 1)[0])
    return MetricField(chart, "localization",
                       lambda fld, X: (np.broadcast_to(
                           np.eye(n), X.shape[:-1] + (n, n)), None))


def test_stencil_exact_on_quartics():
    # the fourth-order stencil differentiates degree-4 polynomials exactly,
    # even at a coarse step; only roundoff remains
    rng = np.random.default_rng(11)
    a, b = rng.standard_normal((2, 3))
    M = rng.standard_normal((3, 3))

    def quartic(x):
        # broadcasts over the leading axes of x
        return ((x @ a) ** 4 - 2.0 * (x @ b) ** 3
                + np.einsum("...i,ij,...j->...", x, M, x) + 0.5 * x[..., 0])

    def quartic_grad(x):
        return (4.0 * (a @ x) ** 3 * a - 6.0 * (b @ x) ** 2 * b
                + (M + M.T) @ x + 0.5 * np.eye(3)[0])

    def field(x):
        return np.array([[quartic(x), x[1] ** 4],
                         [x[0] * x[2] ** 3, 7.0]])

    def field_jac(x):
        # [k, i, j] = d field[i, j] / dx^k
        J = np.zeros((3, 2, 2))
        J[:, 0, 0] = quartic_grad(x)
        J[1, 0, 1] = 4.0 * x[1] ** 3
        J[0, 1, 0] = x[2] ** 3
        J[2, 1, 0] = 3.0 * x[0] * x[2] ** 2
        return J

    def diff(fn, x, directions=None):
        P = stencil_points(x, 0.25, directions)
        return stencil_derivative([fn(p) for p in P], 0.25)

    u = rng.standard_normal(3)
    u /= np.linalg.norm(u)
    X = rng.standard_normal((5, 3))
    for x in X:
        g = quartic_grad(x)
        J = field_jac(x)
        scale = max(1.0, np.abs(J).max())
        assert np.abs(diff(quartic, x) - g).max() < 1e-11 * scale
        assert np.abs(diff(quartic, x, u) - [g @ u]).max() < 1e-11 * scale
        assert np.abs(diff(field, x) - J).max() < 1e-11 * scale
        assert np.abs(diff(field, x, u)[0]
                      - np.einsum("k,kij->ij", u, J)).max() < 1e-11 * scale
    # a stack of points in one pass: offset-major rows, then the stack axes
    P = stencil_points(X.reshape(5, 1, 3), 0.25, [u, -u])
    assert P.shape == (8, 5, 1, 3)
    assert np.array_equal(P[5], X.reshape(5, 1, 3) - 0.25 * u)
    D = stencil_derivative(quartic(P), 0.25)
    G = np.array([quartic_grad(x) for x in X])
    scale = max(1.0, np.abs(G).max())
    assert D.shape == (2, 5, 1)
    assert np.abs(D[:, :, 0] - [G @ u, -(G @ u)]).max() < 1e-11 * scale


def test_flat_spray_vanishes():
    met = flat_metric(2)
    rng = np.random.default_rng(0)
    for _ in range(10):
        G = geodesic_spray(met, rng.standard_normal(2) * 0.5,
                           rng.standard_normal(2))
        assert np.abs(G).max() < 1e-12


def test_round_spray_vanishes_at_center():
    met = round_metric(Chart([0.0, 0.0, 1.0]))
    G = geodesic_spray(met, np.zeros(2), np.array([0.3, -0.8]))
    assert np.abs(G).max() < 1e-11


def test_spray_homogeneity():
    rng = np.random.default_rng(1)
    met = randers_sphere(Chart(rng.standard_normal(4)),
                         standard_rotation(4, 0.4))
    for _ in range(10):
        x = rng.standard_normal(3) * 0.5
        y = rng.standard_normal(3)
        G1 = geodesic_spray(met, x, y)
        G2 = geodesic_spray(met, x, 2.0 * y)
        assert np.abs(G2 - 4.0 * G1).max() < 1e-8 * max(1.0, np.abs(G2).max())


def test_flat_curvature_vanishes():
    met = flat_metric(2)
    rng = np.random.default_rng(2)
    for _ in range(5):
        R = riemann_curvature(met, rng.standard_normal(2) * 0.3,
                              rng.standard_normal(2))
        assert np.abs(R).max() < 1e-8
        K = flag_curvature(met, Flag(rng.standard_normal(2) * 0.3,
                                     rng.standard_normal(2),
                                     rng.standard_normal(2)))
        assert abs(K) < 1e-8


def test_round_jacobi_operator():
    # constant curvature 1: R_y v = |y|^2 v - <y, v> y in the metric at x
    rng = np.random.default_rng(3)
    met = round_metric(Chart(rng.standard_normal(4)))
    for _ in range(5):
        x = rng.standard_normal(3) * 0.5
        y = rng.standard_normal(3)
        v = rng.standard_normal(3)
        A = met.norm_at(x).matrix
        R = riemann_curvature(met, x, y)
        expect = float(y @ A @ y) * v - float(y @ A @ v) * y
        assert np.abs(R @ v - expect).max() < 1e-5


def test_randers_curvature_kills_flagpole():
    rng = np.random.default_rng(4)
    met = randers_sphere(Chart(rng.standard_normal(4)),
                         standard_rotation(4, 0.6))
    for _ in range(5):
        x = rng.standard_normal(3) * 0.5
        y = rng.standard_normal(3)
        R = riemann_curvature(met, x, y)
        assert np.abs(R @ y).max() < 1e-6 * max(1.0, np.abs(R).max())


def test_round_flag_curvature_is_one():
    rng = np.random.default_rng(5)
    met = round_metric(Chart(rng.standard_normal(3)))
    for _ in range(20):
        K = flag_curvature(met, Flag(rng.standard_normal(2) * 0.5,
                                     rng.standard_normal(2),
                                     rng.standard_normal(2)))
        assert abs(K - 1.0) < 1e-6


def test_randers_sphere_flag_curvature_is_one():
    rng = np.random.default_rng(6)
    met = randers_sphere(Chart(rng.standard_normal(4)),
                         standard_rotation(4, 0.4))
    devs = []
    for _ in range(200):
        x = rng.standard_normal(3) * 0.5
        y = rng.standard_normal(3)
        v = rng.standard_normal(3)
        devs.append(abs(flag_curvature(met, Flag(x, y, v)) - 1.0))
    assert max(devs) < 1e-4


def test_randers_sphere_curvature_where_wind_vanishes():
    # the block wind vanishes at e_0, the chart center, so the stencils
    # there see both zero and nonzero wind; K is still 1
    met = randers_sphere(Chart([1.0, 0.0, 0.0]), block_killing(1, [0.5], [1]))
    rng = np.random.default_rng(8)
    for _ in range(3):
        y, v = rng.standard_normal((2, 2))
        assert abs(flag_curvature(met, Flag(np.zeros(2), y, v)) - 1.0) < 1e-4


def test_flag_curvature_builds_the_base_norm_once():
    # a flag needs spray models at x and at 4n + 4 points off x for the
    # x- and mixed derivatives, each with its 4n-point coefficient
    # stencil: one builder call sees all (1 + 4n)(4n + 5) points per flag,
    # for one flag or a stack of F, and the base point of each flag once
    rng = np.random.default_rng(9)
    for met, n, count in (
            (randers_sphere(Chart(rng.standard_normal(4)),
                            standard_rotation(4, 0.4)), 3, 221),
            (randers_sphere(Chart([0.6, 0.8, 0.0]),
                            block_killing(1, [0.5], [1])), 2, 117)):
        build = met._builder
        for F in (None, 1, 5):
            seen = []
            met._builder = lambda fld, X, b=build: seen.append(X) or b(fld, X)
            shape = (n,) if F is None else (F, n)
            x = rng.standard_normal(shape) * 0.3
            flag_curvature(met, Flag(x, *rng.standard_normal((2,) + shape)))
            assert len(seen) == 1
            pts = seen[0].reshape(-1, n)
            assert len(pts) == (F or 1) * count == (F or 1) * (1 + 4 * n) \
                * (4 * n + 5)
            for row in np.atleast_2d(x):
                assert np.all(pts == row, axis=1).sum() == 1


def _stack_metrics(n, rng):
    # Randers (random Killing wind), round and a localization field on S^n
    M = rng.standard_normal((n + 1, n + 1))
    M = M - M.T
    W = KillingField(0.6 * M / killing_norm(KillingField(M)))
    met = randers_sphere(Chart(rng.standard_normal(n + 1)), W)
    return {"randers": met,
            "round": round_metric(Chart(rng.standard_normal(n + 1))),
            "localization": localization_field(
                met, lambda x: np.arange(1.0, n + 1.0) + 0.5 * x)}


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", ["randers", "round", "localization"])
def test_flag_stack_matches_one_flag_calls_and_the_oracle(n, kind):
    rng = np.random.default_rng(40 + n)
    met = _stack_metrics(n, rng)[kind]
    x, y, v = rng.standard_normal((3, 4, n))
    x *= 0.4
    K = flag_curvature(met, Flag(x, y, v))
    assert K.shape == (4,)
    one = [flag_curvature(met, Flag(*row)) for row in zip(x, y, v)]
    assert all(isinstance(k, float) for k in one)
    assert np.abs(K - one).max() < 1e-9
    oracle = [pointwise_flag_curvature(met, *row) for row in zip(x, y, v)]
    assert np.abs(K - oracle).max() < 1e-6


def _first_error(call):
    try:
        call()
    except FinslabError as exc:
        return type(exc), str(exc)
    return None


# a row that fails on its own, as (x, y, v) in a chart of radius 0.5
_BAD_ROWS = {
    "degenerate-plane": ([0.1, 0.0], [1.0, 0.5], [-2.0, -1.0]),
    "zero-flagpole": ([0.1, 0.0], [0.0, 0.0], [1.0, 0.0]),
    "stencil-leaves-chart": ([0.49, 0.0], [1.0, 0.0], [0.0, 1.0]),
    "outside-chart": ([0.0, 0.6], [1.0, 0.0], [0.0, 1.0]),
}


@pytest.mark.parametrize("later", [None, *_BAD_ROWS])
@pytest.mark.parametrize("first", list(_BAD_ROWS))
def test_flag_stack_raises_the_error_of_its_first_failing_flag(first, later):
    # a loop over the flags stops at the first failing one; the stack
    # raises that flag's error class and message, whatever later rows do
    rng = np.random.default_rng(12)
    for met in (round_metric(Chart([0.0, 0.0, 1.0], radius=0.5)),
                randers_sphere(Chart([0.0, 0.0, 1.0], radius=0.5),
                               block_killing(1, [0.5], [1]))):
        rows = [tuple(r) for r in rng.standard_normal((6, 3, 2)) * 0.1]
        rows[2] = _BAD_ROWS[first]
        if later is not None:
            rows[4] = _BAD_ROWS[later]
        x, y, v = (np.array(a, dtype=float) for a in zip(*rows))

        def loop():
            for row in rows:
                flag_curvature(met, Flag(*row))

        expected = _first_error(loop)
        assert expected == _first_error(
            lambda: flag_curvature(met, Flag(*rows[2])))
        with warnings.catch_warnings():     # and no 0/0 on the way there
            warnings.simplefilter("error")
            assert _first_error(lambda: flag_curvature(met, Flag(x, y, v))) \
                == expected


def test_one_dimensional_flags_are_degenerate():
    met = round_metric(Chart([0.0, 1.0]))
    with pytest.raises(DegenerateFlag):
        flag_curvature(met, Flag([0.1], [1.0], [2.0]))
    with pytest.raises(DegenerateFlag):
        flag_curvature(met, Flag([[0.1], [0.2]], [[1.0], [-1.0]],
                                 [[2.0], [0.5]]))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_flag_curvature_matches_pointwise_oracle(n):
    # the batched flag stencil against one spray model per stencil point
    rng = np.random.default_rng(20 + n)
    M = rng.standard_normal((n + 1, n + 1))
    M = M - M.T
    W = KillingField(0.6 * M / killing_norm(KillingField(M)))
    met = randers_sphere(Chart(rng.standard_normal(n + 1)), W)
    for _ in range(3):
        x = rng.standard_normal(n) * 0.5
        y, v = rng.standard_normal((2, n))
        K = flag_curvature(met, Flag(x, y, v))
        assert abs(K - pointwise_flag_curvature(met, x, y, v)) < 1e-6


def test_localization_curvature_matches_pointwise_oracle():
    # a Randers tensor frozen along a non-geodesic field is a Riemannian
    # metric with nonconstant curvature, so K = 1 would not pass here
    met = randers_sphere(Chart([0.3, -0.5, 0.8, 0.1]),
                         standard_rotation(4, 0.5))
    loc = localization_field(
        met, lambda x: np.array([1.0, 0.3, -0.2]) + 0.5 * x)
    rng = np.random.default_rng(21)
    Ks = []
    for _ in range(4):
        x = rng.standard_normal(3) * 0.3
        y, v = rng.standard_normal((2, 3))
        Ks.append(flag_curvature(loc, Flag(x, y, v)))
        assert abs(Ks[-1] - pointwise_flag_curvature(loc, x, y, v)) < 1e-6
    assert max(Ks) - min(Ks) > 0.05


def test_flag_projective_invariance():
    rng = np.random.default_rng(7)
    met = randers_sphere(Chart(rng.standard_normal(4)),
                         standard_rotation(4, 0.3))
    for _ in range(5):
        x = rng.standard_normal(3) * 0.4
        y = rng.standard_normal(3)
        v = rng.standard_normal(3)
        K0 = flag_curvature(met, Flag(x, y, v))
        K1 = flag_curvature(met, Flag(x, y, v + 3.0 * y))
        K2 = flag_curvature(met, Flag(x, y, 5.0 * v))
        assert abs(K0 - K1) < 1e-6
        assert abs(K0 - K2) < 1e-6


def test_flag_chart_independence():
    rng = np.random.default_rng(8)
    W = standard_rotation(4, 0.5)
    c1 = Chart(rng.standard_normal(4))
    c2 = Chart(rng.standard_normal(4))
    m1 = randers_sphere(c1, W)
    m2 = randers_sphere(c2, W)
    for _ in range(5):
        # an ambient flag visible from both charts
        p = c1.map(rng.standard_normal(3) * 0.3)
        if p @ c2.center < 0.3:
            continue
        y_amb = rng.standard_normal(4)
        v_amb = rng.standard_normal(4)
        y_amb -= (y_amb @ p) * p
        v_amb -= (v_amb @ p) * p
        x1 = c1.coords(p)
        x2 = c2.coords(p)
        K1 = flag_curvature(m1, Flag(x1, c1.pull_tangent(x1, y_amb),
                                     c1.pull_tangent(x1, v_amb)))
        K2 = flag_curvature(m2, Flag(x2, c2.pull_tangent(x2, y_amb),
                                     c2.pull_tangent(x2, v_amb)))
        assert abs(K1 - K2) < 1e-4


def test_degenerate_flag_raises():
    met = round_metric(Chart([0.0, 0.0, 1.0]))
    with pytest.raises(DegenerateFlag):
        flag_curvature(met, Flag(np.zeros(2), [1.0, 0.0], [2.0, 0.0]))


def test_stencil_escape_raises():
    met = round_metric(Chart([0.0, 0.0, 1.0], radius=0.5))
    with pytest.raises(DifferentiationFailure):
        riemann_curvature(met, np.array([0.49, 0.0]), np.array([1.0, 0.0]))


def test_spray_outside_chart_raises():
    met = round_metric(Chart([0.0, 0.0, 1.0], radius=2.0))
    with pytest.raises(ChartBoundary):
        geodesic_spray(met, np.array([2.5, 0.0]), np.array([1.0, 0.0]))


def test_randers_spray_matches_fd_spray():
    # the closed-form Randers spray against central differences of the
    # pointwise norm values alone
    W = standard_rotation(4, 0.5)
    met = randers_sphere(Chart([1.0, 0.0, 0.0, 0.0]), W)
    rng = np.random.default_rng(10)
    for _ in range(3):
        x = rng.standard_normal(3) * 0.4
        y = rng.standard_normal(3)
        G = geodesic_spray(met, x, y)
        oracle = fd_spray(met, x, y)
        assert np.abs(G - oracle).max() < 1e-5 * max(1.0, np.abs(G).max())


def test_integrate_flat_straight_line():
    met = flat_metric(2)
    path = integrate_geodesic(met, np.zeros(2), np.array([1.0, 0.0]),
                              0.5, steps=50)
    expect = np.column_stack([np.linspace(0, 0.5, 51), np.zeros(51)])
    assert np.abs(path.chart_points - expect).max() < 1e-10


def test_round_geodesic_reaches_antipode():
    center = np.array([0.0, 0.0, 1.0])
    met = round_metric(Chart(center))
    path = integrate_geodesic(met, np.zeros(2), np.array([1.0, 0.0]),
                              np.pi, steps=1000)
    assert np.linalg.norm(path.ambient_points[-1] + center) < 1e-5
    assert len(path.recenters) > 0


def test_geodesic_energy_conservation():
    rng = np.random.default_rng(9)
    met = randers_sphere(Chart(rng.standard_normal(4)),
                         standard_rotation(4, 0.6))
    path = integrate_geodesic(met, np.zeros(3), rng.standard_normal(3),
                              np.pi, steps=1000)
    assert np.abs(path.F_values - 1.0).max() < 1e-6


@pytest.mark.parametrize("W, seed", [(block_killing(1, [0.5], [1]), 0),
                                     (standard_rotation(4, 0.5), 1)])
def test_randers_geodesic_matches_closed_form(W, seed):
    # an F-geodesic with F-unit initial velocity v at p is the unit great
    # circle through p with velocity u = v - W p, carried by the flow of
    # W: gamma(t) = exp(tW)(cos t p + sin t u), over a full turn
    rng = np.random.default_rng(seed)
    n = W.ambient_dim - 1
    chart = Chart(rng.standard_normal(n + 1))
    met = randers_sphere(chart, W)
    x0 = rng.standard_normal(n) * 0.3
    y0 = rng.standard_normal(n)
    path = integrate_geodesic(met, x0, y0, 2.0 * np.pi, steps=200)
    p = chart.map(x0)
    u = chart.jacobian(x0) @ y0 / met.value(x0, y0) - W(p)
    expect = np.array([expm(t * W.matrix) @ (np.cos(t) * p + np.sin(t) * u)
                       for t in path.times])
    assert len(path.recenters) > 0
    assert np.abs(path.ambient_points - expect).max() < 1e-5


def test_geodesic_csv_export(tmp_path):
    met = round_metric(Chart([0.0, 0.0, 1.0]))
    path = integrate_geodesic(met, np.zeros(2), np.array([1.0, 0.0]),
                              0.3, steps=30)
    out = tmp_path / "traj.csv"
    path.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,x1,x2,y1,y2,F"
    assert len(lines) == 32
