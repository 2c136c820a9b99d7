"""Nonlinear gradient/Laplacian, level sets, transnormality, spectra."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import finslab.isoparametric as iso
import finslab.sphere as sphere
from conftest import (laplace_beltrami_oracle, newton_legendre,
                      pointwise_gradient_norm, pointwise_laplacian,
                      pointwise_sample_level_set, pointwise_shape_eigenvalues)
from finslab import cli
from finslab.clifford import (build_clifford, centralizer, otfkm_gradient,
                              otfkm_value, spin_lift)
from finslab.curvature import Flag, flag_curvature
from finslab.errors import CriticalPoint, EmptyLevel
from finslab.isoparametric import (check_isoparametric, check_tangency,
                                   check_transnormal, custom_sphere_function,
                                   height_function,
                                   nonlinear_gradient,
                                   nonlinear_gradient_extended,
                                   nonlinear_laplacian, otfkm_function,
                                   gradient_norm, principal_curvature_spectrum,
                                   sample_level_set, split_quadratic_function,
                                   unit_gradient_field)
from finslab.minkowski import legendre_solve
from finslab.sphere import (Chart, KillingField, block_killing, killing_norm,
                            localization_field, randers_sphere, round_metric,
                            standard_rotation)

LEVELS = [-0.8, -0.3, 0.0, 0.3, 0.8]
SUITE = Path(__file__).resolve().parents[1] / "demos" / "paper_suite.json"
# every level of the paper suite's transnormal, isoparametric and
# spectrum entries
SUITE_LEVELS = sorted({float(c)
                       for e in json.loads(SUITE.read_text())["experiments"]
                       for c in e.get("levels", [e.get("level")])
                       if c is not None})


def s5_setup(wind="spin", scale=0.5):
    sys_ = build_clifford(1, 3)
    f = otfkm_function(sys_)
    chart = Chart(np.eye(6)[0])
    if wind is None:
        return sys_, f, round_metric(chart), None
    X = spin_lift(sys_).elements[0]
    W = KillingField(scale * X / killing_norm(KillingField(X)))
    return sys_, f, randers_sphere(chart, W), W


def test_riemannian_gradient_is_raised_gradient():
    met = round_metric(Chart([0.0, 0.0, 1.0]))
    f = height_function(3, axis=0)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.standard_normal(2) * 0.5
        df = f.chart_gradient(met.chart, x)
        grad = nonlinear_gradient(met, f, x)
        raised = np.linalg.solve(met.norm_at(x).matrix, df)
        assert np.linalg.norm(grad - raised) < 1e-9


def test_gradient_defining_relation():
    _, f, met, _ = s5_setup()
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.standard_normal(5) * 0.3
        grad = nonlinear_gradient(met, f, x)
        g = 0.5 * met.norm_at(x).sq_jet(grad).hess
        df = f.chart_gradient(met.chart, x)
        assert np.abs(g @ grad - df).max() < 1e-8 * (1 + np.linalg.norm(df))
        assert float(df @ grad) > 0.0       # increasing direction


def test_gradient_norm_is_dual_norm_value():
    # F(grad f)^2 = df(grad f) by the defining relation and Euler identity
    _, f, met, _ = s5_setup()
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.standard_normal(5) * 0.3
        grad = nonlinear_gradient(met, f, x)
        df = f.chart_gradient(met.chart, x)
        Fg = met.norm_at(x)(grad)
        assert abs(Fg * Fg - float(df @ grad)) < 1e-8 * max(1.0, Fg * Fg)


def test_critical_point_raises_and_extended_is_zero():
    met = round_metric(Chart([1.0, 0.0, 0.0]))
    f = height_function(3, axis=0)   # critical at the chart center
    with pytest.raises(CriticalPoint):
        nonlinear_gradient(met, f, np.zeros(2))
    assert np.array_equal(nonlinear_gradient_extended(met, f, np.zeros(2)),
                          np.zeros(2))


def test_unit_normal_is_h_normal_plus_wind():
    # F-unit normal of a wind-invariant level: n1 = n + W
    _, f, met, W = s5_setup()
    for p in sample_level_set(f, 0.3, 5, seed=3):
        fld = met.with_center(p)
        x0 = np.zeros(5)
        grad = nonlinear_gradient(fld, f, x0)
        n1 = grad / fld.norm_at(x0)(grad)
        A = fld.chart.pullback_round(x0)
        df = f.chart_gradient(fld.chart, x0)
        nh = np.linalg.solve(A, df)
        nh /= np.sqrt(nh @ A @ nh)
        wch = np.linalg.solve(A, fld.chart.jacobian(x0).T
                              @ (W.matrix @ p))
        assert np.linalg.norm(n1 - (nh + wch)) < 1e-6
        # both unit normals have norm one
        assert abs(fld.norm_at(x0)(nh + wch) - 1.0) < 1e-8
        assert abs(fld.norm_at(x0)(-nh + wch) - 1.0) < 1e-8
        # wind is the average of the two unit normals
        n2 = -nh + wch
        assert np.linalg.norm(0.5 * (n1 + n2) - wch) < 1e-6


def test_gradient_asymmetry_witness():
    # non-reversible metric: grad(-f) != -grad(f) somewhere
    _, f, met, _ = s5_setup()
    neg = -f
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(20):
        x = rng.standard_normal(5) * 0.3
        try:
            a = nonlinear_gradient(met, f, x)
            b = nonlinear_gradient(met, neg, x)
        except CriticalPoint:
            continue
        worst = max(worst, float(np.linalg.norm(a + b)))
    assert worst > 1e-3


def test_height_laplacian_on_s2():
    met = round_metric(Chart([0.0, 0.0, 1.0]))
    f = height_function(3, axis=2)
    for c in (0.3, -0.6):
        fld = met.with_center(sample_level_set(f, c, 2, seed=5)[0])
        lap = nonlinear_laplacian(fld, f, np.zeros(2))
        assert abs(lap + 2.0 * c) < 1e-8


def test_laplacian_matches_coordinate_oracle():
    # independent coordinate-formula Laplacian on a Riemannian metric
    met = round_metric(Chart(np.array([0.3, -0.5, 0.8, 0.1])))
    f = height_function(4, axis=1)
    rng = np.random.default_rng(6)
    for _ in range(5):
        x = rng.standard_normal(3) * 0.4
        lap = nonlinear_laplacian(met, f, x)
        oracle = laplace_beltrami_oracle(met, f, x)
        assert abs(lap - oracle) < 1e-4


def test_custom_function_broadcasts_and_falls_back_to_the_stencil():
    sys_ = build_clifford(1, 3)
    f = custom_sphere_function(6, lambda p: otfkm_value(sys_, p))
    P = sphere.random_sphere_points(5, 50, np.random.default_rng(3))
    assert f.kind == "custom"
    # the rules broadcast over rows, and one point gives a float
    vals = f(P)
    assert vals.shape == (50,)
    assert isinstance(f(P[0]), float) and f(P[0]) == vals[0]
    # with no gradient rule, the stencil of the value rule (exact on the
    # quartic) gives the tangent gradient
    exact = otfkm_gradient(sys_, P)
    exact -= np.einsum("ij,ij->i", exact, P)[:, None] * P
    fd = f.tangent_gradient(P)
    assert fd.shape == (50, 6)
    assert np.abs(fd - exact).max() < 2e-10
    assert np.abs(f.tangent_gradient(P[0]) - fd[0]).max() < 1e-14
    # a gradient rule, when given, is used as it is
    g = custom_sphere_function(6, lambda p: otfkm_value(sys_, p),
                               lambda p: otfkm_gradient(sys_, p))
    assert np.array_equal(g.gradient(P), otfkm_gradient(sys_, P))


def test_sample_level_set_height_equator():
    f = height_function(3, axis=2)
    P = sample_level_set(f, 0.0, 20, seed=7)
    assert isinstance(P, np.ndarray) and P.shape == (20, 3)
    assert np.abs(P[:, 2]).max() < 1e-10
    assert np.abs(np.linalg.norm(P, axis=1) - 1.0).max() < 1e-12
    assert np.abs(np.einsum("ij,ij->i", P, f.tangent_gradient(P))).max() \
        < 1e-10


def test_sample_level_set_otfkm():
    sys_ = build_clifford(1, 3)
    f = otfkm_function(sys_)
    P = sample_level_set(f, 0.0, 100, seed=8)
    assert P.shape == (100, 6)
    assert np.abs(f(P)).max() < 1e-10


def test_sample_level_set_out_of_range():
    sys_ = build_clifford(1, 3)
    f = otfkm_function(sys_)
    with pytest.raises(EmptyLevel):
        sample_level_set(f, 2.0, 5, seed=9)


def test_transnormal_round_height_profile():
    met = round_metric(Chart([0.0, 0.0, 1.0]))
    f = height_function(3, axis=2)
    rep = check_transnormal(met, f, [-0.5, 0.0, 0.5], per_level=20,
                            tol=1e-8, seed=0)
    assert rep.passed
    for entry in rep.per_level:
        expect = np.sqrt(1.0 - entry["level"] ** 2)
        assert abs(entry["mean"] - expect) < 1e-10


def test_transnormal_randers_otfkm():
    _, f, met, _ = s5_setup()
    rep = check_transnormal(met, f, LEVELS, per_level=15, tol=1e-6, seed=0)
    assert rep.passed
    # F(grad f) equals the h-length of the h-gradient pointwise
    round_rep = check_transnormal(round_metric(Chart(np.eye(6)[0])), f,
                                  LEVELS, per_level=15, tol=1e-6, seed=0)
    for a, b in zip(rep.per_level, round_rep.per_level):
        assert abs(a["mean"] - b["mean"]) < 1e-6


def test_transnormal_fails_for_non_tangent_wind():
    sys_ = build_clifford(1, 3)
    f = otfkm_function(sys_)
    rng = np.random.default_rng(10)
    M = rng.standard_normal((6, 6))
    M = M - M.T
    W = KillingField(0.5 * M / killing_norm(KillingField(M)))
    met = randers_sphere(Chart(np.eye(6)[0]), W)
    rep = check_transnormal(met, f, [0.0, 0.3], per_level=10, tol=1e-6,
                            seed=0)
    assert not rep.passed
    assert rep.max_deviation > 1e-3


def test_isoparametric_round_height():
    met = round_metric(Chart([0.0, 0.0, 1.0]))
    f = height_function(3, axis=2)
    rep = check_isoparametric(met, f, [-0.5, 0.0, 0.5], per_level=10,
                              tol=1e-4, seed=0)
    assert rep.passed
    for entry in rep.per_level:
        if entry["function"] == "f":
            assert abs(entry["mean"] + 2.0 * entry["level"]) < 1e-6


def test_isoparametric_randers_otfkm_both_signs():
    _, f, met, _ = s5_setup()
    rep = check_isoparametric(met, f, [-0.3, 0.0, 0.3], per_level=10,
                              tol=1e-3, seed=0)
    assert rep.passed
    assert {e["function"] for e in rep.per_level} == {"f", "-f"}


@pytest.mark.parametrize("check, quantity, good_values", [
    (check_transnormal, "gradient_norm", 3),            # second level
    (check_isoparametric, "nonlinear_laplacian", 6),    # reverse pass
])
def test_nan_in_a_later_level_fails(monkeypatch, check, quantity,
                                    good_values):
    # a NaN that is not the first value scanned must still reach
    # max_deviation and fail the check; the quantity is evaluated once per
    # level, over an array of its 3 sample points
    scanned = []

    def fake(fld, f, x):
        assert x.shape == (3, 2)
        idx = np.arange(len(scanned), len(scanned) + len(x))
        scanned.extend(idx)
        return np.where(idx < good_values, 1.0, math.nan)

    monkeypatch.setattr(iso, quantity, fake)
    met = round_metric(Chart([0.0, 0.0, 1.0]))
    rep = check(met, height_function(3, axis=0), [-0.5, 0.5], per_level=3)
    assert len(scanned) > good_values
    assert math.isnan(rep.max_deviation)
    assert not rep.passed


def test_legendre_matches_newton_at_paper_suite_levels():
    # the closed-form dual against damped Newton at points of every level
    # of the paper suite's isoparametric entries, for f and -f
    entries = [e for e in json.loads(SUITE.read_text())["experiments"]
               if e["check"] == "isoparametric"]
    assert entries
    for idx, entry in enumerate(entries):
        met, f, _ = cli._sphere_setup(cli.ExperimentConfig.from_dict(entry))
        for c in entry["levels"]:
            for p in sample_level_set(f, c, 3, seed=idx):
                fld = met.with_center(p)
                x0 = np.zeros(fld.dim)
                norm = fld.norm_at(x0)
                for fn in (f, -f):
                    df = fn.chart_gradient(fld.chart, x0)
                    y = legendre_solve(norm, df)
                    oracle = newton_legendre(norm, df, rel_tol=1e-13)
                    assert (np.linalg.norm(y - oracle)
                            < 1e-10 * np.linalg.norm(y))


def test_isoparametric_riemannian_cross_check():
    _, f, met_round, _ = s5_setup(wind=None)
    rep = check_isoparametric(met_round, f, [-0.3, 0.3], per_level=10,
                              tol=1e-4, seed=0)
    assert rep.passed


def test_tangency_checks():
    sys_, f, _, W = s5_setup()
    rep = check_tangency(f, W, samples=100, seed=0)
    assert rep.passed and rep.max_deviation < 1e-10
    zero = check_tangency(f, KillingField(np.zeros((6, 6))), samples=10)
    assert zero.max_deviation == 0.0
    rng = np.random.default_rng(11)
    M = rng.standard_normal((6, 6))
    bad = check_tangency(f, KillingField(M - M.T), samples=100, seed=0)
    assert not bad.passed


def test_spectrum_round_equator():
    met = round_metric(Chart([0.0, 0.0, 1.0]))
    f = height_function(3, axis=2)
    spec = principal_curvature_spectrum(met, f, 0.0, points=5, seed=0)
    assert spec.g == 1
    assert spec.multiplicities == (1,)
    assert abs(spec.cluster_means[0]) < 1e-5
    assert spec.consistent


def test_spectrum_round_otfkm_g4():
    _, f, met, _ = s5_setup(wind=None)
    spec = principal_curvature_spectrum(met, f, 0.3, points=8, seed=0)
    assert spec.g == 4
    assert spec.multiplicities == (1, 1, 1, 1)
    assert spec.consistent


def test_spectrum_randers_homogeneous_counts():
    # rotation-invariant height levels: one principal curvature
    met1 = randers_sphere(Chart(np.eye(5)[0]), block_killing(1, [0.5], [2]))
    spec1 = principal_curvature_spectrum(met1, height_function(5, axis=0),
                                         0.4, points=5, seed=0)
    assert spec1.g == 1 and spec1.consistent
    # product-of-spheres levels: two principal curvatures
    met2 = randers_sphere(Chart(np.eye(4)[0]),
                          block_killing(0, [0.3, 0.6], [1, 1]))
    spec2 = principal_curvature_spectrum(
        met2, split_quadratic_function(4, 2), 0.4, points=5, seed=0)
    assert spec2.g == 2 and spec2.consistent
    # OT-FKM with a spin wind: four principal curvatures
    _, f, met3, _ = s5_setup()
    spec3 = principal_curvature_spectrum(met3, f, 0.3, points=5, seed=0)
    assert spec3.g == 4 and spec3.consistent
    assert all(s.g in (1, 2, 4) for s in (spec1, spec2, spec3))


def test_one_norm_build_and_one_solve_per_point(monkeypatch):
    # every builder call of every field (re-centered ones included), and
    # the shape of the covectors of every Legendre solve
    solves = []
    solve = iso.legendre_solve
    monkeypatch.setattr(
        iso, "legendre_solve",
        lambda norm, xi: solves.append(np.shape(xi)) or solve(norm, xi))
    builds = []
    coefficients = sphere.MetricField.coefficients
    monkeypatch.setattr(
        sphere.MetricField, "coefficients",
        lambda fld, X: builds.append(1) or coefficients(fld, X))
    _, f, met, _ = s5_setup()
    x = np.array([0.1, -0.2, 0.05, 0.3, -0.1])
    for evaluate in (lambda: gradient_norm(met, f, x),
                     lambda: unit_gradient_field(met, f)(-x)):
        builds.clear()
        solves.clear()
        evaluate()
        assert (len(builds), solves) == (1, [(5,)])
    # a spectrum of P points makes one builder call and one solve for the
    # centers and the 4 n stencil points of all of them (n = 5 on S^5)
    for points in (1, 4):
        builds.clear()
        solves.clear()
        principal_curvature_spectrum(met, f, 0.3, points=points, seed=0)
        assert (len(builds), solves) == (1, [(1 + 4 * 5, points, 5)])


def test_localization_build_is_two_builder_calls(monkeypatch):
    # one base build for the tensor and one inside the unit normal field,
    # however many points the build covers
    builds = []
    coefficients = sphere.MetricField.coefficients
    monkeypatch.setattr(
        sphere.MetricField, "coefficients",
        lambda fld, X: builds.append(fld.kind) or coefficients(fld, X))
    _, f, met, _ = s5_setup()
    fld = met.with_center(sample_level_set(f, 0.2, 1, seed=12)[0])
    loc = localization_field(fld, unit_gradient_field(fld, f))
    rng = np.random.default_rng(14)
    for shape in ((5,), (10, 5), (3, 7, 5)):
        builds.clear()
        loc.coefficients(0.05 * rng.standard_normal(shape))
        assert builds.count("randers-from-navigation") == 2


@pytest.mark.parametrize("kind", ["height", "split-quadratic", "otfkm"])
def test_sampler_matches_pointwise_oracle(kind):
    # the blocked sampler returns the seed-by-seed oracle's points, in
    # order, at every paper-suite level, for f and -f
    f = {"height": lambda: height_function(5, axis=0),
         "split-quadratic": lambda: split_quadratic_function(4, 2),
         "otfkm": lambda: otfkm_function(build_clifford(1, 3))}[kind]()
    for fn in (f, -f):
        for idx, c in enumerate(SUITE_LEVELS):
            pts = sample_level_set(fn, c, 12, idx)
            oracle = pointwise_sample_level_set(fn, c, 12, idx)
            assert pts.shape == oracle.shape
            assert np.abs(pts - oracle).max() < 1e-12
    with pytest.raises(EmptyLevel):
        sample_level_set(f, 1.5, 2, seed=9)


@pytest.mark.parametrize("mk, wind", [
    ((1, 3), None), ((1, 3), "spin"), ((1, 3), "centralizer"),
    ((1, 4), "spin"), ((1, 4), "centralizer")])
def test_level_quantities_match_pointwise_oracles(mk, wind):
    # batched F(grad f), Laplacian and shape-operator spectrum against one
    # norm_at and one Newton dual per point, for f and -f
    sys_ = build_clifford(*mk)
    f = otfkm_function(sys_)
    chart = Chart(np.eye(sys_.dim)[0])
    met = round_metric(chart)
    if wind is not None:
        X = (spin_lift(sys_) if wind == "spin"
             else centralizer(sys_)).elements[0]
        met = randers_sphere(
            chart, KillingField(0.5 * X / killing_norm(KillingField(X))))
    n = sys_.dim - 1
    x0 = np.zeros(n)
    for fn, c in ((f, 0.3), (-f, 0.5)):
        pts = sample_level_set(fn, c, 3, seed=21)
        fld = met.with_center(pts)
        Fg = gradient_norm(fld, fn, np.zeros((3, n)))
        lap = nonlinear_laplacian(fld, fn, np.zeros((3, n)))
        spec = principal_curvature_spectrum(met, fn, c, points=3, seed=21)
        for i, p in enumerate(pts):
            one = met.with_center(p)
            assert abs(Fg[i] - pointwise_gradient_norm(one, fn, x0)) < 1e-12
            oracle = pointwise_laplacian(one, fn, x0)
            assert abs(lap[i] - oracle) < 1e-8 * max(1.0, abs(oracle))
            evals = np.sort(pointwise_shape_eigenvalues(one, fn, x0))
            clusters = spec.per_point[i]
            groups = np.split(evals, np.cumsum([k for _, k in clusters])[:-1])
            assert np.allclose([m for m, _ in clusters],
                               [g.mean() for g in groups], rtol=0, atol=1e-8)


def test_spectrum_matches_pointwise_oracle_for_a_non_tangent_wind():
    # the wind rotates the (x0, x1) plane while the height function reads
    # x0, so F*(df) != |df| and q nu = df / F is not a unit vector: the
    # tangent basis must come from its direction
    met = randers_sphere(Chart(np.eye(4)[0]), block_killing(0, [0.5], [2]))
    f = height_function(4, axis=0)
    x0 = np.zeros(3)
    for c in (0.3, -0.5):
        spec = principal_curvature_spectrum(met, f, c, points=3, seed=4)
        assert spec.g == 2 and spec.consistent
        for p, clusters in zip(sample_level_set(f, c, 3, seed=4),
                               spec.per_point):
            evals = np.sort(pointwise_shape_eigenvalues(
                met.with_center(p), f, x0))
            groups = np.split(evals, np.cumsum([k for _, k in clusters])[:-1])
            assert np.allclose([m for m, _ in clusters],
                               [g.mean() for g in groups], rtol=0, atol=1e-8)


def test_localization_metrics_have_round_curvature():
    # freezing the Randers tensor along either unit normal of a
    # wind-invariant family gives a constant-curvature-1 metric
    _, f, met, _ = s5_setup()
    fld = met.with_center(sample_level_set(f, 0.2, 1, seed=12)[0])
    rng = np.random.default_rng(13)
    for sign in (+1.0, -1.0):
        fn = f if sign > 0 else -f
        field = unit_gradient_field(fld, fn)
        loc = localization_field(fld, field)
        for _ in range(3):
            x = rng.standard_normal(5) * 0.05
            K = flag_curvature(loc, Flag(x, rng.standard_normal(5),
                                         rng.standard_normal(5)))
            assert abs(K - 1.0) < 1e-4
