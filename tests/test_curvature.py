"""Spray, Riemann curvature, flag curvature, geodesics."""

import numpy as np
import pytest

from conftest import fd_spray
from finslab.curvature import (Flag, central_diff, flag_curvature,
                               geodesic_spray, integrate_geodesic,
                               riemann_curvature)
from finslab.errors import (ChartBoundary, DegenerateFlag,
                            DifferentiationFailure)
from finslab.minkowski import NormEvaluator
from finslab.sphere import (Chart, MetricField, block_killing, randers_sphere,
                            round_metric, standard_rotation)


def flat_metric(n: int) -> MetricField:
    chart = Chart(np.eye(n + 1)[0])
    return MetricField(chart, "localization",
                       lambda fld, x: NormEvaluator.euclidean(n))


def test_central_diff_exact_on_quartics():
    # the fourth-order stencil differentiates degree-4 polynomials exactly,
    # even at a coarse step; only roundoff remains
    rng = np.random.default_rng(11)
    a, b = rng.standard_normal((2, 3))
    M = rng.standard_normal((3, 3))

    def quartic(x):
        return (a @ x) ** 4 - 2.0 * (b @ x) ** 3 + x @ M @ x + 0.5 * x[0]

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

    u = rng.standard_normal(3)
    u /= np.linalg.norm(u)
    for _ in range(5):
        x = rng.standard_normal(3)
        g = quartic_grad(x)
        J = field_jac(x)
        scale = max(1.0, np.abs(J).max())
        assert np.abs(central_diff(quartic, x, 0.25) - g).max() < 1e-11 * scale
        assert np.abs(central_diff(quartic, x, 0.25, u)
                      - [g @ u]).max() < 1e-11 * scale
        assert np.abs(central_diff(field, x, 0.25) - J).max() < 1e-11 * scale
        assert np.abs(central_diff(field, x, 0.25, u)[0]
                      - np.einsum("k,kij->ij", u, J)).max() < 1e-11 * scale


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
    # a flag builds the model at x (1 + 4n norms) and 4n + 4 models off
    # x for the x- and mixed derivatives; the norm at x is not built again
    rng = np.random.default_rng(9)
    for met, n, count in (
            (randers_sphere(Chart(rng.standard_normal(4)),
                            standard_rotation(4, 0.4)), 3, 221),
            (randers_sphere(Chart([0.6, 0.8, 0.0]),
                            block_killing(1, [0.5], [1])), 2, 117)):
        builds = []
        build = met._builder
        met._builder = lambda fld, x, b=build: builds.append(1) or b(fld, x)
        flag_curvature(met, Flag(rng.standard_normal(n) * 0.3,
                                 *rng.standard_normal((2, n))))
        assert len(builds) == count == (1 + 4 * n) * (4 * n + 5)


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


def test_geodesic_csv_export(tmp_path):
    met = round_metric(Chart([0.0, 0.0, 1.0]))
    path = integrate_geodesic(met, np.zeros(2), np.array([1.0, 0.0]),
                              0.3, steps=30)
    out = tmp_path / "traj.csv"
    path.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,x1,x2,y1,y2,F"
    assert len(lines) == 32
