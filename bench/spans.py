"""Timing spans around the public functions of each finslab layer.

The tracer patches the package from outside: a function is replaced in
every ``finslab`` module namespace that binds it (several are imported by
name into other modules), and a method is replaced on its class.
``uninstall`` puts every original back.  Spans are kept in memory; a
span's self time is its duration minus the time covered by its children,
so the self times of all spans plus the time outside any span add up to
the traced wall time.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (span name, module, attribute); "Class.method" patches the class
SPANS = (
    ("sphere.norm_at", "finslab.sphere", "MetricField.norm_at"),
    ("navigation.randers_from_navigation", "finslab.navigation",
     "randers_from_navigation"),
    ("navigation.navigate", "finslab.navigation", "navigate"),
    ("curvature.flag_curvature", "finslab.curvature", "flag_curvature"),
    ("curvature.riemann_curvature", "finslab.curvature", "riemann_curvature"),
    ("minkowski.legendre_solve", "finslab.minkowski", "legendre_solve"),
    ("minkowski.sq_jet", "finslab.minkowski", "NormEvaluator.sq_jet"),
    ("isoparametric.sample_level_set", "finslab.isoparametric",
     "sample_level_set"),
    ("isoparametric.nonlinear_laplacian", "finslab.isoparametric",
     "nonlinear_laplacian"),
    ("isoparametric.nonlinear_gradient", "finslab.isoparametric",
     "nonlinear_gradient"),
    ("isoparametric.principal_curvature_spectrum", "finslab.isoparametric",
     "principal_curvature_spectrum"),
    ("clifford.centralizer", "finslab.clifford", "centralizer"),
    ("clifford.lie_closure_residual", "finslab.clifford",
     "lie_closure_residual"),
    ("clifford.anticommutation_error", "finslab.clifford",
     "anticommutation_error"),
    ("clifford.spin_lift", "finslab.clifford", "spin_lift"),
    ("clifford.build_clifford", "finslab.clifford", "build_clifford"),
    ("clifford.otfkm_value", "finslab.clifford", "otfkm_value"),
    ("cli.run", "finslab.cli", "run"),
    ("cli.from_dict", "finslab.cli", "ExperimentConfig.from_dict"),
    ("report.to_json", "finslab.report", "VerificationReport.to_json"),
)

# per-layer metrics of a traced run: (name, unit, better)
PER_LAYER = (
    ("sphere.norm_at.calls", "count", "lower"),
    ("sphere.norm_at.self_s", "s", "lower"),
    ("sphere.norm_at.hit_ratio", "ratio", "higher"),
    ("sphere.with_center.calls", "count", "lower"),
    ("navigation.randers_from_navigation.calls", "count", "lower"),
    ("navigation.randers_from_navigation.self_s", "s", "lower"),
    ("navigation.navigate.calls", "count", "lower"),
    ("navigation.navigate.self_s", "s", "lower"),
    ("navigation.navigate.norm_evals_per_call", "evals/call", "lower"),
    ("curvature.flag_curvature.calls", "count", "lower"),
    ("curvature.flag_curvature.self_s", "s", "lower"),
    ("curvature.riemann_curvature.calls", "count", "lower"),
    ("curvature.riemann_curvature.self_s", "s", "lower"),
    ("minkowski.legendre_solve.calls", "count", "lower"),
    ("minkowski.legendre_solve.self_s", "s", "lower"),
    ("minkowski.legendre_solve.jets_per_call", "jets/call", "lower"),
    ("minkowski.legendre_solve.failed", "count", "lower"),
    ("minkowski.sq_jet.calls", "count", "lower"),
    ("minkowski.sq_jet.self_s", "s", "lower"),
    ("isoparametric.sample_level_set.calls", "count", "lower"),
    ("isoparametric.sample_level_set.self_s", "s", "lower"),
    ("isoparametric.level_set.accept_ratio", "ratio", "higher"),
    ("isoparametric.nonlinear_laplacian.self_s", "s", "lower"),
    ("isoparametric.nonlinear_gradient.self_s", "s", "lower"),
    ("isoparametric.principal_curvature_spectrum.self_s", "s", "lower"),
    ("clifford.centralizer.calls", "count", "lower"),
    ("clifford.centralizer.self_s", "s", "lower"),
    ("clifford.lie_closure_residual.self_s", "s", "lower"),
    ("clifford.anticommutation_error.self_s", "s", "lower"),
    ("clifford.spin_lift.self_s", "s", "lower"),
    ("clifford.build_clifford.self_s", "s", "lower"),
    ("clifford.otfkm_value.calls", "count", "lower"),
    ("clifford.otfkm_value.self_s", "s", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("cli.from_dict.self_s", "s", "lower"),
    ("report.to_json.self_s", "s", "lower"),
    ("unattributed_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
)


def _resolve(module: str, attr: str):
    """(owner, name, raw attribute) for a module function or a method."""
    owner = sys.modules[module]
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Spans and counters for one traced pass; install, run, uninstall."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, name, start, end, parent, report)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.failed: Counter = Counter()
        self.counts: Counter = Counter()
        self.edges: Counter = Counter()  # (parent span, child span) calls
        self.report = -1                 # id shared by the spans of a report
        self._stack: list[list] = []     # [id, name, child seconds]
        self._open: Counter = Counter()
        self._patches: list[tuple] = []

    # -- wrappers ------------------------------------------------------

    def _span(self, name: str, fn, on_result=None):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [len(tracer.spans) + len(stack), name, 0.0]
            if parent is not None:
                tracer.edges[parent[1], name] += 1
            stack.append(frame)
            tracer._open[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.failed[name] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                tracer._open[name] -= 1
                duration = end - start
                tracer.self_s[name] += duration - frame[2]
                tracer.calls[name] += 1
                if parent is not None:
                    parent[2] += duration
                tracer.spans.append(
                    (frame[0], name, start, end,
                     parent[0] if parent is not None else -1, tracer.report))
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name: str, fn, under: str | None = None):
        tracer = self

        def wrapper(*args, **kwargs):
            if under is None or tracer._open[under]:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_builds(self, init):
        # MetricField builds a pointwise norm only on a cache miss, by
        # calling the builder it was constructed with
        sig = inspect.signature(init)
        tracer = self

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            builder = bound.arguments["builder"]

            def counted(*a, **k):
                tracer.counts["sphere.build"] += 1
                return builder(*a, **k)

            bound.arguments["builder"] = counted
            return init(*bound.args, **bound.kwargs)

        wrapper.__wrapped__ = init
        return wrapper

    # -- patching ------------------------------------------------------

    def _patch(self, module: str, attr: str, make):
        owner, name, raw = _resolve(module, attr)
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            self._patches.append((owner, name, raw))
            setattr(owner, name, new)
            return
        new = make(raw)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "finslab" and not mod_name.startswith("finslab."):
                continue
            for key in [k for k, v in vars(mod).items() if v is raw]:
                self._patches.append((mod, key, raw))
                setattr(mod, key, new)

    def install(self):
        for name, module, attr in SPANS:
            on_result = None
            if name == "isoparametric.sample_level_set":
                def on_result(points):
                    self.counts["isoparametric.level_set.accepted"] += \
                        len(points)
            self._patch(module, attr,
                        lambda fn, n=name, r=on_result: self._span(n, fn, r))
        self._patch("finslab.sphere", "MetricField.__init__",
                    self._count_builds)
        self._patch("finslab.sphere", "MetricField.with_center",
                    lambda fn: self._counter("sphere.with_center", fn))
        self._patch("finslab.minkowski", "NormEvaluator.__call__",
                    lambda fn: self._counter("navigation.navigate.norm_evals",
                                             fn, under="navigation.navigate"))
        self._patch("finslab.sphere", "random_sphere_points",
                    lambda fn: self._counter(
                        "isoparametric.level_set.attempts", fn,
                        under="isoparametric.sample_level_set"))

    def uninstall(self):
        while self._patches:
            owner, name, raw = self._patches.pop()
            setattr(owner, name, raw)

    # -- results -------------------------------------------------------

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        """Every PER_LAYER metric from this pass; 0 where a layer is idle."""

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for name, _, _ in SPANS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        c = self.counts
        out["sphere.norm_at.hit_ratio"] = (
            1.0 - ratio(c["sphere.build"], self.calls["sphere.norm_at"])
            if self.calls["sphere.norm_at"] else 0.0)
        out["sphere.with_center.calls"] = c["sphere.with_center"]
        out["navigation.navigate.norm_evals_per_call"] = ratio(
            c["navigation.navigate.norm_evals"],
            self.calls["navigation.navigate"])
        out["minkowski.legendre_solve.jets_per_call"] = ratio(
            self.edges["minkowski.legendre_solve", "minkowski.sq_jet"],
            self.calls["minkowski.legendre_solve"])
        out["minkowski.legendre_solve.failed"] = \
            self.failed["minkowski.legendre_solve"]
        out["isoparametric.level_set.accept_ratio"] = ratio(
            c["isoparametric.level_set.accepted"],
            c["isoparametric.level_set.attempts"])
        out["unattributed_s"] = traced_wall - sum(self.self_s.values())
        out["trace_overhead"] = ratio(traced_wall, untraced_wall) - 1.0
        return {name: {"value": float(out[name]), "unit": unit}
                for name, unit, _ in PER_LAYER}

    def write_spans(self, path):
        """Write every span as an .npz of columns plus the name table."""
        import numpy as np

        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        cols = list(zip(*self.spans)) if self.spans else [()] * 6
        np.savez(path,
                 names=np.array(names, dtype=str),
                 id=np.array(cols[0], dtype=np.int64),
                 name=np.array([index[n] for n in cols[1]], dtype=np.int16),
                 start=np.array(cols[2], dtype=float),
                 end=np.array(cols[3], dtype=float),
                 parent=np.array(cols[4], dtype=np.int64),
                 report=np.array(cols[5], dtype=np.int32))
