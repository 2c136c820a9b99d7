"""The public API: finslab's exports and their keyword parameters with
defaults."""

import inspect

import finslab

# The public names finslab exports, submodules aside (a submodule joins
# dir(finslab) once anything imports it, so it is not part of the API).
# Helpers that only tests use live in tests/conftest.py, not here.
EXPORTS = [
    "Chart", "CliffordSystem", "FinslabError", "Flag", "GeodesicPath",
    "InnerProductAtY", "KillingField", "MetricField", "NavigationDatum",
    "NormEvaluator", "SkewBasis", "SpectrumResult", "SphereFunction",
    "VerificationReport", "anticommutation_error", "block_killing",
    "build_clifford", "centralizer", "check_isoparametric",
    "check_navigation_lemma", "check_tangency", "check_transnormal",
    "clifford_delta", "custom_sphere_function", "find_clifford_point",
    "flag_curvature", "full_symmetry_dimension", "fundamental_tensor",
    "geodesic_field_residual", "geodesic_spray", "gradient_norm",
    "height_function", "integrate_flow", "integrate_geodesic",
    "invert_navigation", "killing_norm", "legendre_solve",
    "lie_closure_residual", "navigate", "navigated_norm",
    "navigation_from_randers", "nonlinear_gradient", "nonlinear_laplacian",
    "otfkm_function", "otfkm_gradient", "otfkm_value",
    "predicted_centralizer_dim", "principal_curvature_spectrum",
    "randers_from_navigation", "randers_sphere", "random_sphere_points",
    "riemann_curvature", "round_metric", "sample_level_set", "spin_lift",
    "split_quadratic_function", "standard_rotation", "symmetry_basis",
    "unit_gradient_field",
]

# Every keyword parameter with a default on a callable that finslab
# exports.  A numerical setting with one value in use is a private module
# constant, not a parameter, so a new entry here is a reviewed change of
# the API; "<factory>" marks a dataclass field with a default factory.
KEYWORD_DEFAULTS = {
    "NormEvaluator": {"beta": None},
    "SkewBasis": {"elements": "<factory>"},
    "SpectrumResult": {"per_point": "<factory>"},
    "SphereFunction": {"gradient": None},
    "VerificationReport": {"per_level": "<factory>", "passed": False,
                           "wall_time_ms": 0},
    "check_isoparametric": {"per_level": 50, "tol": 1e-3, "seed": 0},
    "check_navigation_lemma": {"y": None, "u": None, "samples": 1000,
                               "tol": 1e-8, "seed": 0},
    "check_tangency": {"samples": 500, "tol": 1e-8, "seed": 0},
    "check_transnormal": {"per_level": 50, "tol": 1e-6, "seed": 0},
    "custom_sphere_function": {"gradient": None},
    "height_function": {"axis": 0},
    "integrate_flow": {"steps": 200},
    "integrate_geodesic": {"steps": None},
    "lie_closure_residual": {"trials": 10, "seed": 0},
    "principal_curvature_spectrum": {"points": 20, "seed": 0},
}


def test_exported_names_are_pinned():
    names = [name for name in dir(finslab) if not name.startswith("_")
             and not inspect.ismodule(getattr(finslab, name))]
    assert names == EXPORTS


def test_exported_keyword_defaults_are_pinned():
    found = {}
    for name in dir(finslab):
        obj = getattr(finslab, name)
        if name.startswith("_") or not callable(obj) or (
                isinstance(obj, type) and issubclass(obj, BaseException)):
            continue
        defaults = {p.name: "<factory>" if repr(p.default) == "<factory>"
                    else p.default
                    for p in inspect.signature(obj).parameters.values()
                    if p.default is not inspect.Parameter.empty}
        if defaults:
            found[name] = defaults
    assert found == KEYWORD_DEFAULTS


def test_clifford_system_is_built_from_its_matrices_alone():
    # m, l, k, k1, k2 and delta_m are read off the matrices
    assert list(inspect.signature(finslab.CliffordSystem).parameters) == [
        "matrices"]
