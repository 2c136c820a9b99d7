"""The public API: keyword parameters with defaults on finslab's exports."""

import inspect

import finslab

# Every keyword parameter with a default on a callable that finslab
# exports.  A numerical setting with one value in use is a private module
# constant, not a parameter, so a new entry here is a reviewed change of
# the API; "<factory>" marks a dataclass field with a default factory.
KEYWORD_DEFAULTS = {
    "Chart": {"radius": 10.0},
    "CliffordSystem": {"k1": None, "k2": None, "delta_m": 0},
    "MetricField": {"wind": None},
    "NormEvaluator": {"matrix": None, "alpha": None, "beta": None},
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
    "predicted_centralizer_dim": {"k1": None, "k2": None},
    "principal_curvature_spectrum": {"points": 20, "seed": 0},
}


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
