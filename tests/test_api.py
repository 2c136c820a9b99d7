"""The public API: finslab's exports, their keyword parameters with
defaults, and the field order of an experiment config."""

import ast
import inspect
from pathlib import Path

import finslab
from finslab.cli import ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent

# The public names finslab exports, submodules aside (a submodule joins
# dir(finslab) once anything imports it, so it is not part of the API).
# Helpers that only tests use live in tests/conftest.py, not here.
EXPORTS = [
    "Chart", "CliffordSystem", "FinslabError", "Flag", "GeodesicPath",
    "KillingField", "MetricField", "NavigationDatum", "NormEvaluator",
    "SkewBasis", "SpectrumResult", "SphereFunction", "VerificationReport",
    "anticommutation_error", "block_killing", "build_clifford",
    "centralizer", "check_isoparametric", "check_navigation_lemma",
    "check_tangency", "check_transnormal", "clifford_delta",
    "find_clifford_point", "flag_curvature", "fundamental_tensor",
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

# Exports that nothing outside the tests refers to, each with the reason
# it stays public.
UNREFERENCED_EXPORTS = {
    "find_clifford_point": "the off-focal negative control of criterion 9",
}

# Every keyword parameter with a default on a callable that finslab
# exports.  A numerical setting with one value in use is a private module
# constant, not a parameter, so a new entry here is a reviewed change of
# the API; "<factory>" marks a dataclass field with a default factory.
KEYWORD_DEFAULTS = {
    "NormEvaluator": {"beta": None},
    "SkewBasis": {"elements": "<factory>"},
    "SpectrumResult": {"per_point": "<factory>"},
    "VerificationReport": {"per_level": "<factory>", "passed": False,
                           "wall_time_ms": 0},
    "check_isoparametric": {"tol": 1e-3, "seed": 0},
    "check_navigation_lemma": {"tol": 1e-8, "seed": 0},
    "check_tangency": {"tol": 1e-8, "seed": 0},
    "check_transnormal": {"tol": 1e-6, "seed": 0},
    "height_function": {"axis": 0},
    "lie_closure_residual": {"seed": 0},
    "principal_curvature_spectrum": {"seed": 0},
}


def _exports():
    return [name for name in dir(finslab) if not name.startswith("_")
            and not inspect.ismodule(getattr(finslab, name))]


def test_exported_names_are_pinned():
    assert _exports() == EXPORTS


def _public_methods():
    # "Class.name" of each public method or property that an exported
    # class defines itself
    return [f"{name}.{attr}" for name in _exports()
            if isinstance(cls := getattr(finslab, name), type)
            for attr, value in vars(cls).items() if not attr.startswith("_")
            and (callable(value) or isinstance(value, (property, classmethod,
                                                       staticmethod)))]


def test_every_export_has_a_caller_outside_the_tests():
    # a reference is a name, an attribute or an imported name in the
    # package modules, the demos or the benchmark, or a part of a dotted
    # string of the benchmark, whose tracer names what it patches that way;
    # a public method of an exported class needs one to its name as well
    package = [p for p in (ROOT / "src" / "finslab").glob("*.py")
               if p.name != "__init__.py"]
    bench = list((ROOT / "bench").glob("*.py"))
    seen = set()
    for path in package + list((ROOT / "demos").glob("*.py")) + bench:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                seen.update(alias.name for alias in node.names)
            elif (path in bench and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                seen.update(node.value.split("."))
    unreferenced = [name for name in _exports() + _public_methods()
                    if name.split(".")[-1] not in seen]
    assert unreferenced == sorted(UNREFERENCED_EXPORTS)


def test_every_private_helper_is_referenced_in_the_package():
    # each private module-level function, class and constant of src/finslab
    # is referenced (a name, an attribute or an imported name) by some
    # module-level statement of the package other than its own definition,
    # so a helper whose last caller left does not stay behind
    defined, seen = [], []
    for path in sorted((ROOT / "src" / "finslab").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
            seen.append(names)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                targets = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = [t.id for t in getattr(stmt, "targets", [])
                           + [getattr(stmt, "target", None)]
                           if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(f"{path.stem}.{name}", len(seen) - 1)
                        for name in targets
                        if name.startswith("_") and not name.startswith("__")]
    orphaned = [name for name, own in defined
                if not any(name.split(".")[1] in names
                           for i, names in enumerate(seen) if i != own)]
    assert len(defined) > 50 and orphaned == []


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


def test_experiment_config_field_order_is_pinned():
    # the order in which a report's config echoes the fields it read
    assert list(ExperimentConfig.__dataclass_fields__) == [
        "check", "n", "metric", "function", "tol", "seed", "levels",
        "per_level", "samples", "w_spec", "clifford", "level", "expect_g",
        "lam", "norm", "expect_fail"]


def test_clifford_system_is_built_from_its_matrices_alone():
    # m, l, k, k1, k2 and delta_m are read off the matrices
    assert list(inspect.signature(finslab.CliffordSystem).parameters) == [
        "matrices"]
