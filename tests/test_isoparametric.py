"""Nonlinear gradient/Laplacian, level sets, transnormality, spectra."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import finslab.isoparametric as iso
import finslab.sphere as sphere
from conftest import (chart_gradient, chart_laplacian,
                      laplace_beltrami_oracle, localization_field,
                      newton_legendre, pointwise_gradient_norm,
                      pointwise_sample_level_set, pointwise_shape_eigenvalues,
                      pullback_round, stencil_function, stencil_jacobian)
from finslab import cli
from finslab.clifford import (build_clifford, centralizer, otfkm_gradient,
                             otfkm_value, spin_lift)
from finslab.curvature import Flag, flag_curvature
from finslab.errors import (ConfigError, CriticalPoint, DimensionMismatch,
                            EmptyLevel, WindTooStrong)
from finslab.isoparametric import (SphereFunction, check_isoparametric,
                                   check_tangency, check_transnormal,
                                   height_function, nonlinear_gradient,
                                   nonlinear_laplacian, otfkm_function,
                                   gradient_norm, principal_curvature_spectrum,
                                   sample_level_set, split_quadratic_function,
                                   unit_gradient_field)
from finslab.minkowski import legendre_solve
from finslab.sphere import (Chart, KillingField, block_killing, killing_norm,
                            randers_sphere, round_metric, standard_rotation)

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
        df = chart_gradient(met.chart, f, x)
        grad = nonlinear_gradient(met, f, x)
        raised = np.linalg.solve(met.norm_at(x).alpha, df)
        assert np.linalg.norm(grad - raised) < 1e-9


def test_gradient_defining_relation():
    _, f, met, _ = s5_setup()
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.standard_normal(5) * 0.3
        grad = nonlinear_gradient(met, f, x)
        g = 0.5 * met.norm_at(x).sq_jet(grad).hess
        df = chart_gradient(met.chart, f, x)
        assert np.abs(g @ grad - df).max() < 1e-8 * (1 + np.linalg.norm(df))
        assert float(df @ grad) > 0.0       # increasing direction


def test_gradient_norm_is_dual_norm_value():
    # F(grad f)^2 = df(grad f) by the defining relation and Euler identity
    _, f, met, _ = s5_setup()
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.standard_normal(5) * 0.3
        grad = nonlinear_gradient(met, f, x)
        df = chart_gradient(met.chart, f, x)
        Fg = met.norm_at(x)(grad)
        assert abs(Fg * Fg - float(df @ grad)) < 1e-8 * max(1.0, Fg * Fg)


def test_critical_point_raises():
    met = round_metric(Chart([1.0, 0.0, 0.0]))
    f = height_function(3, axis=0)   # critical at the chart center
    with pytest.raises(CriticalPoint):
        nonlinear_gradient(met, f, np.zeros(2))


@pytest.mark.parametrize("check", [check_transnormal, check_isoparametric])
def test_level_checks_read_a_level_iterator_once(check):
    # a generator of levels gives the report of the same list: every
    # level scanned, for f and for -f
    f = height_function(4)
    rep = check(None, f, iter([0.3]), per_level=5)
    assert rep.to_dict() == check(None, f, [0.3], per_level=5).to_dict()
    assert rep.config["levels"] == [0.3]
    assert rep.n_samples == (10 if check is check_isoparametric else 5)
    if check is check_isoparametric:
        assert [e["function"] for e in rep.per_level] == ["f", "-f"]


@pytest.mark.parametrize("check", [check_transnormal, check_isoparametric])
def test_level_checks_reject_no_levels(check):
    # no level would pass vacuously
    for levels in ([], iter([])):
        with pytest.raises(ConfigError, match="levels"):
            check(None, height_function(4), levels, per_level=5)


def test_unit_normal_is_h_normal_plus_wind():
    # F-unit normal of a wind-invariant level: n1 = n + W
    _, f, met, W = s5_setup()
    for p in sample_level_set(f, 0.3, 5, seed=3):
        fld = met.with_center(p)
        x0 = np.zeros(5)
        grad = nonlinear_gradient(fld, f, x0)
        n1 = grad / fld.norm_at(x0)(grad)
        A = pullback_round(fld.chart, x0)
        df = chart_gradient(fld.chart, f, x0)
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
    f = height_function(3, axis=2)
    for c in (0.3, -0.6):
        lap = nonlinear_laplacian(None, f, sample_level_set(f, c, 2, seed=5))
        assert np.abs(lap + 2.0 * c).max() < 1e-8


def test_laplacian_matches_coordinate_oracle():
    # independent coordinate-formula Laplacian on a Riemannian metric
    met = round_metric(Chart(np.array([0.3, -0.5, 0.8, 0.1])))
    f = height_function(4, axis=1)
    rng = np.random.default_rng(6)
    for _ in range(5):
        x = rng.standard_normal(3) * 0.4
        lap = nonlinear_laplacian(None, f, met.chart.map(x))
        oracle = laplace_beltrami_oracle(met, f, x)
        assert abs(lap - oracle) < 1e-4


def test_sample_level_set_height_equator():
    f = height_function(3, axis=2)
    P = sample_level_set(f, 0.0, 20, seed=7)
    assert isinstance(P, np.ndarray) and P.shape == (20, 3)
    assert np.abs(P[:, 2]).max() < 1e-10
    assert np.abs(np.linalg.norm(P, axis=1) - 1.0).max() < 1e-12


def test_sample_level_set_otfkm():
    sys_ = build_clifford(1, 3)
    f = otfkm_function(sys_)
    P = sample_level_set(f, 0.0, 100, seed=8)
    assert P.shape == (100, 6)
    assert np.abs(f(P)).max() < 1e-10


@pytest.mark.parametrize("kind", ["height", "split-quadratic", "otfkm"])
def test_focal_levels_have_no_regular_point(kind):
    # c = +-1 are focal values of each f = cos(g theta): the projection
    # lands within 1e-12 of them where |grad_h f|^2 = g^2 (1 - f^2) is
    # below 1e-10, and neither sampler keeps such a point, while
    # c = +-0.9999 stays a regular level
    f = {"height": lambda: height_function(5, axis=0),
         "split-quadratic": lambda: split_quadratic_function(4, 2),
         "otfkm": lambda: otfkm_function(build_clifford(1, 3))}[kind]()
    for c in (1.0, -1.0):
        with pytest.raises(EmptyLevel, match=f"no regular point of level {c}"):
            sample_level_set(f, c, 3, seed=2)
        with pytest.raises(AssertionError, match="0/3"):
            pointwise_sample_level_set(f, c, 3, 2)
    for c in (0.9999, -0.9999):
        assert np.abs(sample_level_set(f, c, 3, seed=2)
                      - pointwise_sample_level_set(f, c, 3, 2)).max() < 1e-12
    assert check_transnormal(None, f, [0.9999, -0.9999], per_level=3).passed


def test_sample_level_set_out_of_range():
    sys_ = build_clifford(1, 3)
    f = otfkm_function(sys_)
    with pytest.raises(EmptyLevel):
        sample_level_set(f, 2.0, 5, seed=9)
    with pytest.raises(EmptyLevel):
        sample_level_set(f, 0.3, 0, seed=9)
    # a report raises for its first level without enough samples
    with pytest.raises(EmptyLevel, match="of level 2.0 "):
        check_isoparametric(None, f, [0.3, 2.0], per_level=3)


def test_transnormal_round_height_profile():
    f = height_function(3, axis=2)
    rep = check_transnormal(None, f, [-0.5, 0.0, 0.5], per_level=20,
                            tol=1e-8, seed=0)
    assert rep.passed
    for entry in rep.per_level:
        expect = np.sqrt(1.0 - entry["level"] ** 2)
        assert abs(entry["mean"] - expect) < 1e-10


def test_transnormal_randers_otfkm():
    _, f, _, W = s5_setup()
    rep = check_transnormal(W, f, LEVELS, per_level=15, tol=1e-6, seed=0)
    assert rep.passed
    # F(grad f) equals the h-length of the h-gradient pointwise
    round_rep = check_transnormal(None, f, LEVELS, per_level=15, tol=1e-6,
                                  seed=0)
    for a, b in zip(rep.per_level, round_rep.per_level):
        assert abs(a["mean"] - b["mean"]) < 1e-6


def test_transnormal_fails_for_non_tangent_wind():
    sys_ = build_clifford(1, 3)
    f = otfkm_function(sys_)
    rng = np.random.default_rng(10)
    M = rng.standard_normal((6, 6))
    M = M - M.T
    W = KillingField(0.5 * M / killing_norm(KillingField(M)))
    rep = check_transnormal(W, f, [0.0, 0.3], per_level=10, tol=1e-6,
                            seed=0)
    assert not rep.passed
    assert rep.max_deviation > 1e-3


def test_isoparametric_round_height():
    f = height_function(3, axis=2)
    rep = check_isoparametric(None, f, [-0.5, 0.0, 0.5], per_level=10,
                              tol=1e-4, seed=0)
    assert rep.passed
    for entry in rep.per_level:
        if entry["function"] == "f":
            assert abs(entry["mean"] + 2.0 * entry["level"]) < 1e-6


def test_isoparametric_randers_otfkm_both_signs():
    _, f, _, W = s5_setup()
    rep = check_isoparametric(W, f, [-0.3, 0.0, 0.3], per_level=10,
                              tol=1e-3, seed=0)
    assert rep.passed
    assert {e["function"] for e in rep.per_level} == {"f", "-f"}


@pytest.mark.parametrize("check, quantity, bad", [
    (check_transnormal, "_tangent_dual", 4),        # second level
    (check_isoparametric, "_laplacian", 4),         # second level of f
    (check_isoparametric, "_laplacian", 10),        # second level of -f
])
def test_nan_in_a_later_level_fails(monkeypatch, check, quantity, bad):
    # a NaN that is not the first value scanned must still reach
    # max_deviation and fail the check; the quantity is evaluated once per
    # report, over an array of the 3 sample points of every level and sign
    real = getattr(iso, quantity)
    scanned = []

    def fake(W, P, *args):
        scanned.append(P.shape)
        vals = np.where(np.arange(len(P)) == bad, math.nan, 1.0)
        out = real(W, P, *args)     # (t, |t|, F) or the Laplacian
        return out[:2] + (vals,) if isinstance(out, tuple) else vals

    monkeypatch.setattr(iso, quantity, fake)
    rep = check(None, height_function(3, axis=0), [-0.5, 0.5], per_level=3)
    assert scanned == [(12 if check is check_isoparametric else 6, 3)]
    assert math.isnan(rep.max_deviation)
    assert not rep.passed


def test_legendre_matches_newton_at_paper_suite_levels():
    # the closed-form dual against damped Newton at points of every level
    # of the paper suite's isoparametric entries, for f and -f
    entries = [e for e in json.loads(SUITE.read_text())["experiments"]
               if e["check"] == "isoparametric"]
    assert entries
    for idx, entry in enumerate(entries):
        f, W = cli._sphere_setup(cli.ExperimentConfig.from_dict(entry), {})
        met = randers_sphere(Chart(np.eye(f.ambient_dim)[0]), W)
        for c in entry["levels"]:
            for p in sample_level_set(f, c, 3, seed=idx):
                fld = met.with_center(p)
                x0 = np.zeros(fld.dim)
                norm = fld.norm_at(x0)
                for fn in (f, -f):
                    df = chart_gradient(fld.chart, fn, x0)
                    y = legendre_solve(norm, df)
                    oracle = newton_legendre(norm, df, rel_tol=1e-13)
                    assert (np.linalg.norm(y - oracle)
                            < 1e-10 * np.linalg.norm(y))


def test_isoparametric_riemannian_cross_check():
    _, f, _, _ = s5_setup(wind=None)
    rep = check_isoparametric(None, f, [-0.3, 0.3], per_level=10,
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


def _random_skew(n, seed):
    M = np.random.default_rng(seed).standard_normal((n, n))
    return KillingField(M - M.T)


def _scaled_wind(sys_, kind, scale=0.5):
    # element 0 of the spin lift or of the centralizer, or a random skew
    # matrix (tangent to no level), at killing_norm = scale
    if kind == "random-skew":
        X = _random_skew(sys_.dim, 21).matrix
    else:
        X = (spin_lift(sys_) if kind == "spin"
             else centralizer(sys_)).elements[0]
    return KillingField(scale * X / killing_norm(KillingField(X)))


@pytest.mark.parametrize("W", [
    standard_rotation(6, 0.5),          # eigenvalues +-0.5i, three each
    block_killing(1, [0.5], [2]),       # a zero block
    _random_skew(8, 4),
    KillingField(np.zeros((4, 4))),
], ids=["lamJ-R6", "zero-block-R5", "random-R8", "zero"])
def test_tangency_flow_matches_expm_oracle(W):
    # the flow(0.1) entry against scipy's expm, on a linear f that no
    # nonzero wind preserves, so a wrong flow moves the entry
    N = W.ambient_dim
    c = np.random.default_rng(N).standard_normal(N)
    f = SphereFunction(N, "linear", lambda p: p @ c,
                       lambda p: np.broadcast_to(c, p.shape),
                       lambda p: np.zeros(p.shape + (N,)))
    rep = check_tangency(f, W, samples=50, seed=3)
    head = sphere.random_sphere_points(N - 1, 50,
                                       np.random.default_rng(3))[:20]
    expect = np.abs((head @ expm(0.1 * W.matrix).T - head) @ c).max()
    [flow] = [e for e in rep.per_level if e["level"] == "flow(0.1)"]
    assert abs(flow["spread"] - expect) <= 1e-12


def test_spectrum_round_equator():
    f = height_function(3, axis=2)
    spec = principal_curvature_spectrum(None, f, 0.0, points=5, seed=0)
    assert spec.g == 1
    assert spec.multiplicities == (1,)
    assert abs(spec.cluster_means[0]) < 1e-5
    assert spec.consistent


def test_spectrum_round_otfkm_g4():
    _, f, _, _ = s5_setup(wind=None)
    spec = principal_curvature_spectrum(None, f, 0.3, points=8, seed=0)
    assert spec.g == 4
    assert spec.multiplicities == (1, 1, 1, 1)
    assert spec.consistent


def test_spectrum_randers_homogeneous_counts():
    # rotation-invariant height levels: one principal curvature
    spec1 = principal_curvature_spectrum(block_killing(1, [0.5], [2]),
                                         height_function(5, axis=0),
                                         0.4, points=5, seed=0)
    assert spec1.g == 1 and spec1.consistent
    # product-of-spheres levels: two principal curvatures
    spec2 = principal_curvature_spectrum(
        block_killing(0, [0.3, 0.6], [1, 1]), split_quadratic_function(4, 2),
        0.4, points=5, seed=0)
    assert spec2.g == 2 and spec2.consistent
    # OT-FKM with a spin wind: four principal curvatures
    _, f, _, W = s5_setup()
    spec3 = principal_curvature_spectrum(W, f, 0.3, points=5, seed=0)
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
    _, f, met, W = s5_setup()
    unit_gradient_field(met, f)(np.array([-0.1, 0.2, -0.05, -0.3, 0.1]))
    assert (len(builds), solves) == (1, [(5,)])
    # the spectrum is a closed form in ambient coordinates: no builder
    # call and no Legendre solve, however many points it takes
    for points in (1, 4):
        builds.clear()
        solves.clear()
        principal_curvature_spectrum(W, f, 0.3, points=points, seed=0)
        assert (len(builds), solves) == (0, [])


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
    ((1, 4), "spin"), ((1, 4), "centralizer"), ((1, 3), "random-skew")])
def test_level_quantities_match_pointwise_oracles(mk, wind):
    # ambient F(grad f) and the closed-form shape-operator spectrum against
    # one norm_at and one Newton dual per point, for f and -f; the
    # random-skew wind, tangent to no level, exercises the wind terms of
    # the closed form (its spectra vary by point)
    sys_ = build_clifford(*mk)
    f = otfkm_function(sys_)
    chart = Chart(np.eye(sys_.dim)[0])
    met, W = round_metric(chart), None
    if wind is not None:
        W = _scaled_wind(sys_, wind)
        met = randers_sphere(chart, W)
    x0 = np.zeros(sys_.dim - 1)
    for fn, c in ((f, 0.3), (-f, 0.5)):
        pts = sample_level_set(fn, c, 3, seed=21)
        Fg = gradient_norm(W, fn, pts)
        spec = principal_curvature_spectrum(W, fn, c, points=3, seed=21)
        for i, p in enumerate(pts):
            one = met.with_center(p)
            assert abs(Fg[i] - pointwise_gradient_norm(one, fn, x0)) < 1e-12
            evals = np.sort(pointwise_shape_eigenvalues(one, fn, x0))
            clusters = spec.per_point[i]
            groups = np.split(evals, np.cumsum([k for _, k in clusters])[:-1])
            assert np.allclose([m for m, _ in clusters],
                               [g.mean() for g in groups], rtol=0, atol=1e-8)


@pytest.mark.parametrize("mk", [(1, 3), (2, 2)])
@pytest.mark.parametrize("wind", ["spin", "centralizer", "random-skew"])
def test_level_reports_match_the_pointwise_oracles(mk, wind):
    # the one-pass reports against samples drawn seed by seed for each
    # level and sign (-f at -c with seed + 1) and quantities taken one
    # point at a time (F(grad f)) or on charts (the BH Laplacian, at a
    # step where its stencil error is near 1e-11); the random-skew wind
    # spreads the values by O(1), so each sample's points must be its own
    sys_ = build_clifford(*mk)
    f = otfkm_function(sys_)
    W = _scaled_wind(sys_, wind)
    met = randers_sphere(Chart(np.eye(sys_.dim)[0]), W)
    x0 = np.zeros(sys_.dim - 1)
    levels, seed = [-0.5, 0.0, 0.3], 11
    tn = check_transnormal(W, f, levels, per_level=4, seed=seed)
    lap = check_isoparametric(W, f, levels, per_level=4, seed=seed)
    expect_tn, expect_lap = [], {"f": [], "-f": []}
    for i, c in enumerate(levels):
        P = pointwise_sample_level_set(f, c, 4, seed + 37 * i)
        expect_tn.append((c, [pointwise_gradient_norm(met.with_center(p),
                                                      f, x0) for p in P]))
        for name, fn, level, s in (("f", f, c, seed), ("-f", -f, -c, seed + 1)):
            P = pointwise_sample_level_set(fn, level, 4, s + 37 * i)
            expect_lap[name].append((level, chart_laplacian(W, fn, P,
                                                            h=5e-4)))
    for rep, expect in ((tn, expect_tn),
                        (lap, expect_lap["f"] + expect_lap["-f"])):
        assert [e["level"] for e in rep.per_level] == [c for c, _ in expect]
        for entry, (_, vals) in zip(rep.per_level, expect):
            scale = max(1.0, abs(np.mean(vals)))
            assert abs(entry["mean"] - np.mean(vals)) < 1e-10 * scale
            assert abs(entry["spread"] - np.ptp(vals)) < 1e-10 * scale
    assert [e["function"] for e in lap.per_level] == ["f"] * 3 + ["-f"] * 3


def test_spectrum_matches_pointwise_oracle_for_a_non_tangent_wind():
    # the wind rotates the (x0, x1) plane while the height function reads
    # x0, so F*(df) != |df| and q nu = df / F is not a unit vector: the
    # tangent basis must come from its direction
    W = block_killing(0, [0.5], [2])
    met = randers_sphere(Chart(np.eye(4)[0]), W)
    f = height_function(4, axis=0)
    x0 = np.zeros(3)
    for c in (0.3, -0.5):
        spec = principal_curvature_spectrum(W, f, c, points=3, seed=4)
        assert spec.g == 2 and spec.consistent
        for p, clusters in zip(sample_level_set(f, c, 3, seed=4),
                               spec.per_point):
            evals = np.sort(pointwise_shape_eigenvalues(
                met.with_center(p), f, x0))
            groups = np.split(evals, np.cumsum([k for _, k in clusters])[:-1])
            assert np.allclose([m for m, _ in clusters],
                               [g.mean() for g in groups], rtol=0, atol=1e-8)


def _tangent_split_wind(ambient_dim, p_split):
    # rotations of the planes (x0, x1) and (x_p, x_p+1), one in each factor
    # of the split, so the wind is tangent to every level; killing_norm 0.5
    W = np.zeros((ambient_dim, ambient_dim))
    W[0, 1], W[p_split, p_split + 1] = 0.3, 0.5
    return KillingField(W - W.T)


def _muenzner_cases():
    # (label, f, g, (m1, m2), winds): m1 is the multiplicity of the
    # curvature that blows up at the focal set {f = 1}, its codimension
    # minus one, and m2 that of {f = -1}.  OT-FKM of (m, l): {f = 1} is
    # {<P_i x, x> = 0, i = 0..m}, codimension m + 1, and m1 + m2 = l - 1;
    # height on S^n: a point; split-quadratic |x_1..p|^2 - |x_p+1..N|^2: the
    # spheres S^(p-1) and S^(N-p-1)
    for mk in ((1, 3), (1, 4), (2, 2)):
        sys_ = build_clifford(*mk)
        yield (f"otfkm{mk}", otfkm_function(sys_), 4,
               (sys_.m, sys_.l - sys_.m - 1),
               [None] + [_scaled_wind(sys_, kind)
                         for kind in ("spin", "centralizer")])
    yield ("height S^4", height_function(5, axis=0), 1, (3, 3),
           [None, block_killing(1, [0.5], [2])])
    for N, p in ((4, 2), (5, 2)):
        yield (f"split-quadratic S^{N - 1}", split_quadratic_function(N, p),
               2, (N - p - 1, p - 1), [None, _tangent_split_wind(N, p)])


def test_spectrum_is_muenzners_for_every_tangent_wind():
    # on the level f = c of f = cos(g theta) the principal curvatures are
    # cot(theta + j pi / g), theta = arccos(c) / g, with multiplicity m1
    # for even j and m2 for odd j (Muenzner); -f swaps m1 and m2.  A
    # tangent wind leaves them as they are
    levels = sorted({-0.5, 0.3} | {
        e["level"] for e in json.loads(SUITE.read_text())["experiments"]
        if e["check"] == "spectrum"})
    for label, f, g, (m1, m2), winds in _muenzner_cases():
        for W in winds:
            for fn, mults in ((f, (m1, m2)), (-f, (m2, m1))):
                for c in levels:
                    spec = principal_curvature_spectrum(W, fn, c, points=4,
                                                        seed=7)
                    j = np.arange(g)[::-1]      # ascending curvatures
                    expect = 1.0 / np.tan(np.arccos(c) / g + j * np.pi / g)
                    assert spec.consistent, (label, c)
                    assert spec.multiplicities == tuple(
                        mults[k % 2] for k in j), (label, c)
                    assert np.allclose(spec.cluster_means, expect,
                                       rtol=1e-10, atol=0), (label, c)


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


@pytest.mark.parametrize("mk", [(1, 3), (1, 4)])
@pytest.mark.parametrize("wind", [None, "spin", "centralizer",
                                  "random-skew"])
def test_ambient_level_quantities_match_chart_oracles(mk, wind):
    # F(grad f) against one norm_at and one Newton dual per point, and the
    # BH Laplacian against the chart Laplacian, for f and -f; the
    # random-skew wind is tangent to no level, so df(Wp) != 0 there
    sys_ = build_clifford(*mk)
    f = otfkm_function(sys_)
    W = None if wind is None else _scaled_wind(sys_, wind)
    chart = Chart(np.eye(sys_.dim)[0])
    met = round_metric(chart) if W is None else randers_sphere(chart, W)
    x0 = np.zeros(sys_.dim - 1)
    for fn, c in ((f, 0.3), (-f, -0.5)):
        pts = sample_level_set(fn, c, 4, seed=5)
        Fg = gradient_norm(W, fn, pts)
        for i, p in enumerate(pts):
            oracle = pointwise_gradient_norm(met.with_center(p), fn, x0)
            assert abs(Fg[i] - oracle) < 1e-12
        lap = nonlinear_laplacian(W, fn, pts)
        oracle = chart_laplacian(W, fn, pts)
        assert np.abs(lap - oracle).max() \
            < 1e-9 * max(1.0, np.abs(oracle).max())


def _level_spreads(quantity, W, fn, levels, per_level, seed):
    # per-level spreads of quantity(W, fn, P) over sampled levels
    return [float(np.ptp(quantity(W, fn, sample_level_set(fn, c, per_level,
                                                           seed + i))))
            for i, c in enumerate(levels)]


def _ht_laplacian(W, f, P):
    # the Holmes-Thompson Laplacian: sigma_HT = sigma_BH lambda^-(n+1)/2
    # with lambda = 1 - |Wp|^2, so Lap_HT f = Lap_BH f
    # + (n+1) <grad f, W^T W p> / (1 - |Wp|^2), grad f = F (nu + Wp)
    n = f.ambient_dim - 1
    Wp = P @ W.matrix.T
    g = f.gradient(P)
    t = g - np.einsum("ij,ij->i", g, P)[:, None] * P
    nu = t / np.linalg.norm(t, axis=1, keepdims=True)
    grad = gradient_norm(W, f, P)[:, None] * (nu + Wp)
    WtWp = Wp @ W.matrix
    return nonlinear_laplacian(W, f, P) + (n + 1) \
        * np.einsum("ij,ij->i", grad, WtWp) / (1.0 - np.einsum("ij,ij->i",
                                                               Wp, Wp))


def test_holmes_thompson_laplacian_is_not_constant_on_levels():
    # a measured negative result: under the HT volume, paper-suite entry
    # 7 ((1, 4), centralizer wind) fails the isoparametric tol 1e-3 by at
    # least two decades, while with the (1, 3) spin wind W^T W is a
    # multiple of I, the HT term is constant on levels and entry 6 passes
    entries = [e for e in json.loads(SUITE.read_text())["experiments"]
               if e["check"] == "isoparametric"]
    spreads = []
    for entry in entries:
        f, W = cli._sphere_setup(cli.ExperimentConfig.from_dict(entry), {})
        spreads.append(max(
            max(_level_spreads(_ht_laplacian, W, fn, levels,
                               entry["per_level"], entry["seed"]))
            for fn, levels in ((f, entry["levels"]),
                               (-f, [-c for c in entry["levels"]]))))
    spin, centralizer_wind = spreads
    assert entries[1]["w_spec"]["kind"] == "centralizer"
    assert spin < entries[0]["tol"]
    assert centralizer_wind > 100.0 * entries[1]["tol"]


@pytest.mark.parametrize("mk", [(1, 3), (1, 4), (2, 2)])
@pytest.mark.parametrize("wind", ["spin", "centralizer"])
def test_level_means_follow_the_cartan_muenzner_profile(mk, wind):
    # for a Killing wind tangent to the levels of f = cos(g theta), g = 4,
    # Lap f = -g (g + n - 1) c + (m2 - m1) g^2 / 2 and F(grad f) =
    # g sqrt(1 - c^2) on the level c; -f has the multiplicities swapped
    sys_ = build_clifford(*mk)
    f = otfkm_function(sys_)
    W = _scaled_wind(sys_, wind)
    g, n = 4, sys_.dim - 1
    m1, m2 = sys_.multiplicities
    levels = [-0.8, 0.0, 0.5]
    lap = check_isoparametric(W, f, levels, per_level=5, seed=3)
    tn = check_transnormal(W, f, levels, per_level=5, seed=3)
    scale = g * (g + n - 1)
    for entry in lap.per_level:
        c, sign = entry["level"], 1.0 if entry["function"] == "f" else -1.0
        expect = -scale * c + sign * (m2 - m1) * g * g / 2.0
        assert abs(entry["mean"] - expect) < 1e-9 * scale
    for entry in tn.per_level:
        expect = g * np.sqrt(1.0 - entry["level"] ** 2)
        assert abs(entry["mean"] - expect) < 1e-9 * g


def test_level_checks_build_no_chart_and_solve_no_dual(monkeypatch):
    # the level scan is chart-free: no chart, no metric field, no Legendre
    # solve anywhere under check_transnormal and check_isoparametric
    def refuse(*args, **kwargs):
        raise AssertionError("the level scan built a chart or solved a dual")

    import finslab.minkowski as minkowski
    monkeypatch.setattr(sphere.Chart, "__init__", refuse)
    monkeypatch.setattr(sphere.MetricField, "__init__", refuse)
    monkeypatch.setattr(minkowski, "legendre_solve", refuse)
    monkeypatch.setattr(iso, "legendre_solve", refuse)
    sys_ = build_clifford(1, 3)
    f = otfkm_function(sys_)
    for W in (None, _scaled_wind(sys_, "spin")):
        assert check_transnormal(W, f, [0.3], per_level=5).passed
        assert check_isoparametric(W, f, [0.3], per_level=5).passed


@pytest.mark.parametrize("kind", ["height", "split-quadratic", "otfkm"])
def test_projection_lands_in_at_most_two_gradient_passes(monkeypatch, kind):
    # f = cos(g theta) on each kind, so every seed of these first blocks
    # lands on its level in one great-circle step, and a level report makes
    # two gradient passes, at the seeds and at the landed points (which the
    # regular-value check and the level quantity reuse), and one Hessian
    # pass for f and -f together, over one level or all of them
    f = {"height": lambda: height_function(5, axis=0),
         "split-quadratic": lambda: split_quadratic_function(4, 2),
         "otfkm": lambda: otfkm_function(build_clifford(1, 3))}[kind]()
    passes = []
    for name in ("gradient", "hessian"):
        monkeypatch.setattr(
            SphereFunction, name,
            lambda fn, p, name=name, rule=getattr(SphereFunction, name):
            passes.append(name) or rule(fn, p))
    for levels in [[c] for c in SUITE_LEVELS] + [SUITE_LEVELS]:
        for check, expect in ((check_transnormal, ["gradient"] * 2),
                              (check_isoparametric,
                               ["gradient"] * 2 + ["hessian"])):
            passes.clear()
            assert check(None, f, levels, per_level=5, seed=3).passed
            assert passes == expect


def test_projection_converges_for_a_non_isoparametric_cubic():
    # the arccos step is a Newton step for any f, not one that lands at once
    a = np.array([1.0, 0.5, -0.3, 0.2])

    def value(p):
        x = p @ a
        return 0.3 * x ** 3 + 0.5 * p[..., 1] * p[..., 2] - 0.2 * p[..., 3]

    f = stencil_function(4, "custom", value)
    for c in (-0.2, 0.0, 0.15):
        P = sample_level_set(f, c, 20, seed=2)
        assert np.abs(f(P) - c).max() < 1e-12


def test_joint_samples_over_several_rounds_are_the_samples_alone(
        monkeypatch):
    # seeds of a cubic that is not isoparametric fail often at these
    # levels, so the joint sampler takes several rounds of blocks; every
    # sample must be the one drawn alone, with the gradient of f at its
    # points.  (Its Newton paths turn on near-ties of the step halving, so
    # the seed-by-seed oracle agrees only to about 1e-7 here, one sample
    # alone or not; it pins the one-sample path on Cartan-Muenzner f)
    a = np.array([1.0, 0.5, -0.3, 0.2])

    def value(p):
        x = p @ a
        return 0.3 * x ** 3 + 0.5 * p[..., 1] * p[..., 2] - 0.2 * p[..., 3]

    def gradient(p):
        return (0.9 * (p @ a)[..., None] ** 2 * a
                + 0.5 * p[..., [0, 2, 1, 0]] * [0.0, 1.0, 1.0, 0.0]
                - [0.0, 0.0, 0.0, 0.2])

    f = stencil_function(4, "custom", value, gradient)
    rounds = []
    project = iso._project
    monkeypatch.setattr(iso, "_project",
                        lambda *args: rounds.append(1) or project(*args))
    levels, seeds = [0.38, -0.45, 0.0, 0.4], [5, 4, 2, 3]
    P, G = iso._sample_levels(f, levels, 6, seeds)
    assert len(rounds) > 1 and P.shape == G.shape == (24, 4)
    for j, (c, seed) in enumerate(zip(levels, seeds)):
        alone = sample_level_set(f, c, 6, seed)
        assert np.abs(P[6 * j:6 * j + 6] - alone).max() < 1e-12
    assert np.abs(G - f.gradient(P)).max() < 1e-12


def test_level_quantities_check_the_wind():
    # the wind is checked as randers_sphere checks it; tangency, whose
    # wind only flows, checks its dimension alone
    sys_ = build_clifford(1, 3)
    f = otfkm_function(sys_)
    P = sample_level_set(f, 0.3, 2, seed=1)
    strong = KillingField(2.0 * spin_lift(sys_).elements[0]
                          / killing_norm(KillingField(
                              spin_lift(sys_).elements[0])))
    small = standard_rotation(4, 0.5)
    tangency = lambda W: check_tangency(f, W, samples=2)    # noqa: E731
    for evaluate in (lambda W: gradient_norm(W, f, P),
                     lambda W: nonlinear_laplacian(W, f, P),
                     lambda W: check_transnormal(W, f, [0.3], per_level=2),
                     lambda W: check_isoparametric(W, f, [0.3], per_level=2),
                     lambda W: principal_curvature_spectrum(W, f, 0.3,
                                                            points=2),
                     tangency):
        if evaluate is not tangency:
            with pytest.raises(WindTooStrong):
                evaluate(strong)
        with pytest.raises(DimensionMismatch):
            evaluate(small)
    assert tangency(strong).passed


def test_custom_function_broadcasts_and_falls_back_to_the_stencil():
    # a function of a value rule alone: its rules broadcast over rows, one
    # point gives a float, and the stencil of the value rule (exact on the
    # quartic) gives the gradient on the tangent space, as the value rule
    # is extended off the sphere through x / |x|; a gradient rule, when
    # given, is used as it is
    sys_ = build_clifford(1, 3)
    f = stencil_function(6, "custom", lambda p: otfkm_value(sys_, p))
    P = sphere.random_sphere_points(5, 50, np.random.default_rng(3))
    assert f.kind == "custom"
    vals = f(P)
    assert vals.shape == (50,)
    assert isinstance(f(P[0]), float) and f(P[0]) == vals[0]
    exact = otfkm_gradient(sys_, P)
    exact -= np.einsum("ij,ij->i", exact, P)[:, None] * P
    fd = f.gradient(P)
    fd -= np.einsum("ij,ij->i", fd, P)[:, None] * P
    assert fd.shape == (50, 6)
    assert np.abs(fd - exact).max() < 2e-10
    one = f.gradient(P[0])
    assert np.abs(one - (one @ P[0]) * P[0] - fd[0]).max() < 1e-14
    g = stencil_function(6, "custom", lambda p: otfkm_value(sys_, p),
                         lambda p: otfkm_gradient(sys_, p))
    assert np.array_equal(g.gradient(P), otfkm_gradient(sys_, P))
    # the built-in functions and their negations broadcast alike
    for h in (height_function(6, axis=2), split_quadratic_function(6, 2),
              otfkm_function(sys_)):
        for fn in (h, -h):
            assert fn(P).shape == (50,)
            assert isinstance(fn(P[0]), float) and fn(P[0]) == fn(P)[0]
            assert fn.gradient(P).shape == (50, 6)
            assert fn.hessian(P).shape == (50, 6, 6)


def test_hessian_rules_match_the_stencil_of_the_gradient():
    # the gradient and Hessian rules of the built-in functions, and of
    # their negations, against the stencil of the rule below, which is
    # exact on quartics.  The value rule of OT-FKM is extended off the
    # sphere as a function of x / |x|, so gradients are compared on the
    # tangent space
    P = sphere.random_sphere_points(5, 20, np.random.default_rng(7))

    def tangent(G):
        return G - np.einsum("ij,ij->i", G, P)[:, None] * P

    for f in (height_function(6, axis=2), split_quadratic_function(6, 2),
              otfkm_function(build_clifford(1, 3))):
        for fn in (f, -f):
            G, H = fn.gradient(P), fn.hessian(P)
            assert G.shape == (20, 6) and H.shape == (20, 6, 6)
            assert np.abs(tangent(G - stencil_jacobian(fn, P))).max() < 1e-9
            assert np.abs(H - stencil_jacobian(fn.gradient, P)).max() < 1e-9
        assert np.array_equal((-f).gradient(P), -f.gradient(P))
        assert np.array_equal((-f).hessian(P), -f.hessian(P))
