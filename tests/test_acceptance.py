"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single pass/fail line (run pytest -s to see them all).
"""

import warnings

import numpy as np
import pytest

from conftest import sampled_killing_norm
from finslab.clifford import (SkewBasis, anticommutation_error,
                              build_clifford, centralizer, clifford_delta,
                              find_clifford_point, lie_closure_residual,
                              otfkm_value, predicted_centralizer_dim,
                              spin_lift, symmetry_basis)
from finslab.curvature import (Flag, flag_curvature, geodesic_field_residual,
                               integrate_flow)
from finslab.errors import NotOnFocalSet, WindTooStrong
from finslab.isoparametric import (check_isoparametric, check_tangency,
                                   check_transnormal, height_function,
                                   otfkm_function, principal_curvature_spectrum,
                                   sample_level_set, split_quadratic_function,
                                   unit_gradient_field)
from finslab.minkowski import NormEvaluator
from finslab.navigation import (NavigationDatum, check_navigation_lemma,
                                navigate)
from finslab.sphere import (Chart, KillingField, block_killing, killing_norm,
                            randers_sphere, round_metric, standard_rotation)

LEVELS = [-0.8, -0.3, 0.0, 0.3, 0.8]


def report(number, name, passed, detail):
    flag = "PASS" if passed else "FAIL"
    print(f"[criterion {number}] {name}: {flag} ({detail})")
    assert passed, f"criterion {number} {name}: {detail}"


def scaled_wind(X, norm=0.5):
    return KillingField(norm * X / killing_norm(KillingField(X)))


def build_quiet(m, k):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_clifford(m, k)


def max_curvature_deviation(metric, n, flags, rng):
    # one stack of flags, drawn x, y, v flag after flag
    x, y, v = np.moveaxis(rng.standard_normal((flags, 3, n)), 1, 0)
    K = flag_curvature(metric, Flag(0.5 * x, y, v))
    return float(np.max(np.abs(K - 1.0)))


def test_criterion_1_flag_curvature_constancy():
    rng = np.random.default_rng(101)
    worst_randers = 0.0
    for n in (2, 3):
        center = rng.standard_normal(n + 1)
        for lam in (0.2, 0.5, 0.8):
            if (n + 1) % 2 == 0:
                W = standard_rotation(n + 1, lam)
            else:
                W = block_killing(1, [lam], [n // 2])
            met = randers_sphere(Chart(center), W)
            worst_randers = max(worst_randers,
                                max_curvature_deviation(met, n, 200, rng))
    worst_round = 0.0
    for n in (2, 3):
        met = round_metric(Chart(rng.standard_normal(n + 1)))
        worst_round = max(worst_round,
                          max_curvature_deviation(met, n, 200, rng))
    report(1, "flag-curvature constancy",
           worst_randers < 1e-4 and worst_round < 1e-5,
           f"randers max|K-1| = {worst_randers:.2e} (tol 1e-4), "
           f"round max|K-1| = {worst_round:.2e} (tol 1e-5)")


def test_criterion_2_navigation_identities():
    rng = np.random.default_rng(102)
    datum = NavigationDatum(NormEvaluator.euclidean(3),
                            np.array([0.3, 0.0, 0.0]))
    F = datum.norm
    worst_rt = 0.0
    for _ in range(1000):
        y = rng.standard_normal(3)
        shifted = y + F(y) * datum.wind
        worst_rt = max(worst_rt, abs(navigate(datum, shifted) - F(y)))
    rep = check_navigation_lemma(datum, samples=1000, tol=1e-8, seed=102)
    orth = [e for e in rep.per_level if e["level"] == "orthogonal-wind"]
    orth_dev = orth[0]["spread"] if orth else float("inf")
    report(2, "navigation identities",
           worst_rt < 1e-10 and rep.max_deviation < 1e-8 and orth_dev < 1e-10,
           f"round-trip {worst_rt:.2e} (tol 1e-10), lemma "
           f"{rep.max_deviation:.2e} (tol 1e-8), orthogonal case "
           f"{orth_dev:.2e} (tol 1e-10)")


def test_criterion_3_clifford_audit_grid():
    failures = []
    count = 0
    for m in range(1, 10):
        kmax = 32 // clifford_delta(m)
        for k in range(1, kmax + 1):
            specs = [(k, 0), (k - k // 2, k // 2)] if m % 4 == 0 and k > 1 \
                else ([(k, 0)] if m % 4 == 0 else [k])
            for spec in specs:
                sys_ = build_quiet(m, spec)
                count += 1
                if anticommutation_error(sys_) != 0.0:
                    failures.append((m, spec, "anticommutation"))
                    continue
                evals = np.linalg.eigvalsh(sys_.matrices[0])
                if (int(np.sum(evals > 0.5)) != sys_.l
                        or int(np.sum(evals < -0.5)) != sys_.l):
                    failures.append((m, spec, "multiplicities"))
                    continue
                cent = centralizer(sys_)
                predicted = predicted_centralizer_dim(sys_.m, sys_.k,
                                                      sys_.k1, sys_.k2)
                if cent.dim != predicted:
                    failures.append((m, spec, "centralizer"))
                    continue
                spin = spin_lift(sys_)
                if spin.dim != m * (m + 1) // 2:
                    failures.append((m, spec, "spin"))
                    continue
                basis = SkewBasis(spin.elements + cent.elements)
                resid = lie_closure_residual(basis, trials=4, seed=count)
                if resid >= 1e-10:
                    failures.append((m, spec, f"closure {resid:.1e}"))
    report(3, "clifford audit grid", not failures,
           f"{count} systems with 2l <= 64, failures: {failures or 'none'}")


def _isoparametric_case(sys_, winds, per_level):
    f = otfkm_function(sys_)
    chart = Chart(np.eye(sys_.dim)[0])
    results = []
    met = round_metric(chart)
    t = check_transnormal(met, f, LEVELS, per_level=per_level, tol=1e-6,
                          seed=11)
    i = check_isoparametric(met, f, LEVELS, per_level=per_level, tol=1e-3,
                            seed=11)
    results.append(("round", t, i))
    for name, W in winds:
        met = randers_sphere(chart, W)
        t = check_transnormal(met, f, LEVELS, per_level=per_level, tol=1e-6,
                              seed=13)
        i = check_isoparametric(met, f, LEVELS, per_level=per_level,
                                tol=1e-3, seed=13)
        tn = check_transnormal(met, -f, [-c for c in LEVELS],
                               per_level=per_level, tol=1e-6, seed=17)
        results.append((name, t, i, tn))
    return results


def test_criterion_4_otfkm_isoparametricity():
    details = []
    ok = True
    for m, k in ((1, 3), (1, 4)):        # S^5 and S^7
        sys_ = build_quiet(m, k)
        winds = [("spin", scaled_wind(spin_lift(sys_).elements[0]))]
        if (m, k) == (1, 3):
            winds.append(("centralizer",
                          scaled_wind(centralizer(sys_).elements[0])))
        for res in _isoparametric_case(sys_, winds, per_level=50):
            name, t, i = res[0], res[1], res[2]
            ok = ok and t.passed and i.passed
            details.append(f"S^{sys_.dim - 1} {name}: F(grad) "
                           f"{t.max_deviation:.1e}, lap {i.max_deviation:.1e}")
            if len(res) == 4:
                ok = ok and res[3].passed
    report(4, "otfkm isoparametricity", ok, "; ".join(details))


def test_criterion_5_tangency_eligibility():
    rng = np.random.default_rng(105)
    ok = True
    details = []
    for m, k in ((1, 3), (1, 4)):
        sys_ = build_quiet(m, k)
        f = otfkm_function(sys_)
        basis = symmetry_basis(sys_)
        worst = 0.0
        for X in basis.elements:
            rep = check_tangency(f, scaled_wind(X), samples=500, tol=1e-8,
                                 seed=105)
            worst = max(worst, rep.max_deviation)
            ok = ok and rep.passed
        details.append(f"(m={m},k={k}): {basis.dim} elements, "
                       f"max {worst:.1e}")
        M = rng.standard_normal((sys_.dim, sys_.dim))
        bad = check_tangency(f, scaled_wind(M - M.T), samples=500,
                             tol=1e-8, seed=105)
        ok = ok and (not bad.passed) and bad.max_deviation > 1e-2
        details.append(f"negative control {bad.max_deviation:.1e}")
    report(5, "tangency eligibility", ok, "; ".join(details))


def test_criterion_6_principal_curvature_counts():
    sys_ = build_quiet(1, 3)
    f = otfkm_function(sys_)
    chart6 = Chart(np.eye(6)[0])
    details = []
    ok = True

    spec = principal_curvature_spectrum(round_metric(chart6), f, 0.3,
                                        points=20, seed=106)
    ok = ok and spec.g == 4 and spec.consistent
    details.append(f"round otfkm: g={spec.g} mult={spec.multiplicities} "
                   f"consistent={spec.consistent}")

    # homogeneous configurations: rotation-invariant heights (g = 1),
    # product-of-spheres levels (g = 2), otfkm with a spin wind (g = 4)
    cases = [
        ("height", randers_sphere(Chart(np.eye(5)[0]),
                                  block_killing(1, [0.5], [2])),
         height_function(5, axis=0), 0.4),
        ("split-quadratic", randers_sphere(Chart(np.eye(4)[0]),
                                           block_killing(0, [0.3, 0.6],
                                                         [1, 1])),
         split_quadratic_function(4, 2), 0.4),
        ("otfkm", randers_sphere(chart6,
                                 scaled_wind(spin_lift(sys_).elements[0])),
         f, 0.3),
    ]
    for name, met, fn, level in cases:
        s = principal_curvature_spectrum(met, fn, level, points=8, seed=106)
        ok = ok and s.g in (1, 2, 4) and s.consistent
        details.append(f"randers {name}: g={s.g} consistent={s.consistent}")
    report(6, "principal curvature counts", ok, "; ".join(details))


def test_criterion_7_geodesic_field():
    sys_ = build_quiet(1, 3)
    f = otfkm_function(sys_)
    W = scaled_wind(spin_lift(sys_).elements[0])
    base = randers_sphere(Chart(np.eye(6)[0]), W)
    worst = 0.0
    arc_total = 0.0
    # four integral-curve segments of the two unit normal fields, 0.25 of
    # arc each (the regular set only allows pi/4 of arc per curve)
    for fn, level in ((f, -0.8), (f, -0.3), (-f, -0.8), (-f, -0.3)):
        start = sample_level_set(fn, level, 1, seed=107)[0]
        met = base.with_center(start)
        field = unit_gradient_field(met, fn)
        path = integrate_flow(field, np.zeros(5), 0.25, steps=50)
        arc_total += 0.25
        for idx in range(0, 51, 10):
            worst = max(worst,
                        geodesic_field_residual(met, field, path[idx]))
    report(7, "geodesic unit-normal fields", worst < 1e-5,
           f"max ODE residual {worst:.2e} over {arc_total:.2f} of arc "
           f"(tol 1e-5)")


def test_criterion_8_killing_norm_agreement():
    rng = np.random.default_rng(108)
    worst = 0.0
    for i in range(20):
        dim = 3 + i % 6           # dimensions 3..8
        M = rng.standard_normal((dim, dim))
        W = KillingField(M - M.T)
        exact = killing_norm(W)
        sampled = sampled_killing_norm(W.matrix, 100_000, rng)
        worst = max(worst, abs(exact - sampled))
    report(8, "killing norm agreement", worst < 1e-3,
           f"max |formula - sampled| = {worst:.2e} (tol 1e-3)")


def test_criterion_9_negative_controls():
    sys_ = build_quiet(1, 3)
    f = otfkm_function(sys_)
    rng = np.random.default_rng(109)

    M = rng.standard_normal((6, 6))
    W_bad = scaled_wind(M - M.T)
    met = randers_sphere(Chart(np.eye(6)[0]), W_bad)
    rep = check_transnormal(met, f, [0.0, 0.3], per_level=10, tol=1e-6,
                            seed=109)
    control_a = (not rep.passed) and rep.max_deviation > 1e-6

    x = rng.standard_normal(6)
    x /= np.linalg.norm(x)
    try:
        find_clifford_point(sys_, x)
        control_b = False
    except NotOnFocalSet:
        control_b = abs(otfkm_value(sys_, x) + 1.0) > 1e-8

    try:
        randers_sphere(Chart(np.eye(4)[0]),
                       KillingField(standard_rotation(4, 0.5).matrix * 2.0))
        control_c = False
    except WindTooStrong:
        control_c = True
    try:
        NavigationDatum(NormEvaluator.euclidean(2), np.array([1.0, 0.0]))
        control_d = False
    except WindTooStrong:
        control_d = True

    report(9, "negative controls",
           control_a and control_b and control_c and control_d,
           f"non-tangent spread {rep.max_deviation:.1e}, focal rejection "
           f"{control_b}, wind rejection {control_c and control_d}")
