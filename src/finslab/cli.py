"""Batch verification harness and command-line interface.

Subcommands:

    finslab verify <check> [flags]     one check, JSON report on stdout
    finslab clifford build|audit ...   construct / audit Clifford systems
    finslab batch <file> [--out dir]   run a battery of experiments

Exit codes: 0 pass, 1 fail, 2 configuration error.  Reports stream to
stdout; files are written only under an explicit --out.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import clifford as cl
from .curvature import Flag, flag_curvature
from .errors import (ConfigError, FinslabError, NumericalError, ParseError,
                     UnknownCheck)
from .isoparametric import (check_isoparametric, check_tangency,
                            check_transnormal, height_function,
                            otfkm_function, principal_curvature_spectrum,
                            split_quadratic_function)
from .minkowski import NormEvaluator
from .navigation import NavigationDatum, check_navigation_lemma
from .report import VerificationReport, worst_deviation
from .sphere import (Chart, KillingField, _check_wind, block_killing,
                     killing_norm, randers_sphere, round_metric)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: check name plus everything needed to run it.

    Frozen and validated once, when it is built; JSON arrays are kept as
    tuples, so no field changes after validation (``dataclasses.replace``
    builds, and validates, a new config).  The fields are declared in the
    order a report's config echoes them: the fields its runner read
    (check, n, tol and seed always), None left out, lam as "lambda"."""

    check: str
    n: int = 3
    metric: str = "round"
    function: str = "height"
    tol: float | None = None
    seed: int = 0
    levels: tuple[float, ...] = (-0.5, 0.0, 0.5)
    per_level: int = 20
    samples: int = 200
    w_spec: dict | str | None = None
    clifford: dict | str | None = None
    level: float = 0.0
    expect_g: tuple[int, ...] | None = None
    lam: float = 0.5
    norm: dict | str | None = None
    expect_fail: bool = False

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict) or "check" not in data:
            raise ConfigError("missing field 'check'")
        kwargs = {}
        for key, value in data.items():
            attr = {"lambda": "lam"}.get(key, key.replace("-", "_"))
            if attr not in cls.__dataclass_fields__:
                raise ConfigError(f"unknown field '{key}'")
            kwargs[attr] = value
        return cls(**kwargs)

    def __post_init__(self):
        self.validate()

    def validate(self):
        for name, (shown, accepts) in _FIELD_CHECKS.items():
            value = getattr(self, name)
            if not accepts(value):
                key = "lambda" if name == "lam" else name
                raise ConfigError(f"field '{key}' must be {shown}"
                                  + _finite_note(value))
            if isinstance(value, list):
                object.__setattr__(self, name, tuple(value))
        if self.check not in _CHECKS:
            raise UnknownCheck(f"unknown check '{self.check}'")
        if self.tol is None:
            object.__setattr__(self, "tol", _CHECKS[self.check][0])
        if self.tol <= 0:
            raise ConfigError("field 'tol' must be positive")
        for name, low in (("n", 1), ("samples", 1), ("per_level", 1),
                          ("seed", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"field '{name}' must be >= {low}")
        if self.metric not in ("round", "randers"):
            raise ConfigError("field 'metric' must be round or randers")
        if self.check in ("transnormal", "isoparametric") and not self.levels:
            raise ConfigError("field 'levels' must not be empty")
        for name in ("clifford", "w_spec", "norm"):
            value = getattr(self, name)
            if isinstance(value, str) and not Path(value).exists():
                raise ConfigError(f"field '{name}': file {value!r} "
                                  "does not exist")


class _Reads:
    """A config as its runner sees it, adding each field read to read."""

    def __init__(self, config: ExperimentConfig, read: set):
        self._state = config, read

    def __getattribute__(self, name):
        config, read = object.__getattribute__(self, "_state")
        read.add(name)
        return getattr(config, name)


def _type_check(hint):
    """The predicate of a declared type, built once at import: bool is
    never a number, an int passes where a float is declared but NaN and
    infinities do not, and a list or a tuple where either is."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) in (list, tuple):
        item = _type_check(args[0])
        return lambda v: isinstance(v, (list, tuple)) and all(map(item, v))
    if args:   # a union
        checks = [_type_check(h) for h in args]
        return lambda v: any(check(v) for check in checks)
    if hint is float:
        return lambda v: math.isfinite(v) if isinstance(v, float) \
            else isinstance(v, int) and not isinstance(v, bool)
    return lambda v: isinstance(v, hint) and (hint is bool
                                              or not isinstance(v, bool))


def _type_checks(**hints) -> dict:
    # name -> (its type as messages show it, its predicate)
    return {name: (hint.__name__ if isinstance(hint, type) else hint,
                   _type_check(hint)) for name, hint in hints.items()}


_FIELD_CHECKS = _type_checks(**typing.get_type_hints(ExperimentConfig))
_CLIFFORD_ENTRIES = _type_checks(m=int, l=int, k=int, k1=int, k2=int)
_WIND_ENTRIES = _type_checks(n0=int, lambdas=list[float], sizes=list[int],
                             kind=str, scale=float, index=int, seed=int)
# the shapes of each spec, in the order its reader tries them, and the
# keys each reads
_CLIFFORD_SHAPES = dict.fromkeys(("matrices", "m"),
                                 ("matrices", *_CLIFFORD_ENTRIES))
_WIND_SHAPES = {"matrix": ("matrix",), "n0": ("n0", "lambdas", "sizes"),
                "random-skew": ("kind", "scale", "seed")} | dict.fromkeys(
    ("spin", "centralizer"), ("kind", "scale", "index"))
_NORM_SHAPES = {"randers": ("kind", "alpha", "beta"),
                "euclidean-quadratic-form": ("kind", "matrix")}


def _finite_note(value) -> str:
    # the reason a value of the declared type was refused, if it was one
    items = value if isinstance(value, (list, tuple)) else [value]
    if any(isinstance(v, float) and not np.isfinite(v) for v in items):
        return "; NaN and infinities are refused"
    return ""


def _read_json(path, what: str):
    """The JSON document in the file at path; ``what`` names it in errors."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what}: line {exc.lineno}: {exc.msg}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{what}: {exc}") from None


def _nested(cfg: ExperimentConfig, name: str):
    """The nested spec of field name, or None, read from the file it names."""
    spec = getattr(cfg, name)
    return _read_json(spec, f"field '{name}'") if isinstance(spec, str) \
        else spec


def _check_spec(where: str, spec, checks: dict, required=(), shapes=None):
    """A nested spec: an object whose entries named in checks (from
    _type_checks) have their type, with every required entry, and no key
    that its shape, the first of shapes named by one of its keys or by its
    kind, does not read (a spec of no listed shape is left to its reader)."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be an object")
    for name, (shown, accepts) in checks.items():
        if name in spec and not accepts(spec[name]):
            raise ConfigError(f"{where}: '{name}' must be {shown}"
                              + _finite_note(spec[name]))
    reads = next((keys for shape, keys in (shapes or {}).items()
                  if shape in spec or spec.get("kind") == shape), spec)
    for name in spec:
        if name not in reads:
            raise ConfigError(f"{where}: '{name}' is not read; this spec "
                              "reads " + ", ".join(f"'{r}'" for r in reads))
    for name in required:
        if name not in spec:
            raise ConfigError(f"{where}: missing '{name}'")


def _array(where: str, name: str, value, shape) -> np.ndarray:
    """Entry ``name`` of a nested spec: nested lists of finite numbers of
    the given shape (of any shape for None)."""
    try:
        arr = np.array(value)
    except ValueError:   # ragged lists
        arr = np.array(None)
    if (shape not in (None, arr.shape) or arr.dtype.kind not in "iuf"
            or not np.isfinite(arr).all()):
        raise ConfigError(f"{where}: '{name}' needs finite numbers"
                          + ("" if shape is None else f" of shape {shape}"))
    return arr.astype(float)


# largest 2l built from {m, k}: on one core, an audit of (2, 32) there
# takes about 0.03 s and lifts the peak RSS of the process from 32 MB to
# about 60 MB, its centralizer Gram built from its nonzeros alone; (1, 64)
# builds no Gram: 0.05 s and 75 MB.  A dense 2l = 128 system (matrices
# given rotated) has a dense 32 MB Gram: about 1.5-2 s and 200 MB
_MAX_2L = 128


def _clifford_system(spec, where: str = "field 'clifford'"
                     ) -> cl.CliffordSystem:
    """A Clifford system from its matrices, or from {m, k} or the split
    {m, k1, k2} ({m, k, k2} reads k as k1), with the field types checked.
    No key given is dropped: beside the matrices each must agree with
    them, beside k1 and k2 k must be their sum, l must be the built
    system's, and k1 needs k2.  {m, k} must give 2l = 2 k delta_m <=
    _MAX_2L."""
    _check_spec(where, spec, _CLIFFORD_ENTRIES, shapes=_CLIFFORD_SHAPES)
    try:
        if "matrices" in spec:   # numbers; the system checks their shape
            return cl.CliffordSystem.from_json(spec | {"matrices": _array(
                where, "matrices", spec["matrices"], None)})
        if "m" in spec:
            k = spec.get("k", 1)
            if "k2" in spec:
                k = (spec.get("k1", k), spec["k2"])
                if "k1" in spec and spec.get("k", sum(k)) != sum(k):
                    raise ConfigError(f"{where}: 'k' is {spec['k']}, but "
                                      f"'k1' + 'k2' is {sum(k)}")
            elif "k1" in spec:
                raise ConfigError(f"{where}: 'k1' is used only with 'k2'")
            # delta_m grows with m and delta_16 = 128: the clamp fails a
            # huge m without computing its huge delta_m
            ktot = sum(k) if isinstance(k, tuple) else k
            if 2 * ktot * cl.clifford_delta(min(spec["m"], 16)) > _MAX_2L:
                raise ConfigError(f"{where}: 2l = 2 k delta_m must be at most "
                                  f"{_MAX_2L}, not m = {spec['m']}, k = {k}")
            sys_ = cl.build_clifford(spec["m"], k)
            if spec.get("l", sys_.l) != sys_.l:
                raise ConfigError(f"{where}: 'l' is {spec['l']}, but m and "
                                  f"k give {sys_.l}")
            return sys_
    except ValueError as exc:
        raise ConfigError(f"{where}: invalid Clifford system: {exc}") \
            from None
    raise ConfigError(f"{where}: need a file, matrices, or {{m, k}}")


def _load_clifford(cfg: ExperimentConfig) -> cl.CliffordSystem:
    spec = _nested(cfg, "clifford")
    if spec is None:
        raise ConfigError("field 'clifford': required for otfkm functions")
    return _clifford_system(spec)


def _load_norm(cfg: ExperimentConfig) -> NormEvaluator:
    spec = _nested(cfg, "norm")
    if spec is None:
        return NormEvaluator.euclidean(cfg.n)
    _check_spec("field 'norm'", spec, {}, shapes=_NORM_SHAPES)
    try:
        return NormEvaluator.from_json(spec)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"field 'norm': invalid norm: {exc}") from None


def _load_killing(cfg: ExperimentConfig, ambient_dim: int,
                  sys_=None) -> KillingField:
    spec = _nested(cfg, "w_spec")
    if spec is None:   # lam J, plus one fixed axis when the dimension is odd
        return block_killing(ambient_dim % 2, [cfg.lam], [ambient_dim // 2])
    _check_spec("field 'w_spec'", spec, _WIND_ENTRIES, shapes=_WIND_SHAPES)
    if "matrix" in spec:
        return KillingField(_array("field 'w_spec'", "matrix", spec["matrix"],
                                   (ambient_dim, ambient_dim)))
    if "n0" in spec:
        _check_spec("field 'w_spec'", spec, {}, ("lambdas", "sizes"))
        W = block_killing(spec["n0"], spec["lambdas"], spec["sizes"])
        if W.ambient_dim != ambient_dim:
            raise ConfigError(
                f"field 'w_spec': wind acts on R^{W.ambient_dim} but the "
                f"configuration needs R^{ambient_dim}")
        return W
    kind = spec.get("kind")
    scale = spec.get("scale", 0.5)
    if kind in ("spin", "centralizer"):
        if sys_ is None:
            raise ConfigError(f"field 'w_spec': {kind} winds need a "
                              "clifford system")
        algebra = cl.spin_lift if kind == "spin" else cl.centralizer
        elems = algebra(sys_).elements
        idx = spec.get("index", 0)
        if not 0 <= idx < len(elems):
            raise ConfigError(f"field 'w_spec': index {idx} is outside the "
                              f"{len(elems)} {kind} elements")
        M = elems[idx]
    elif kind == "random-skew":
        seed = spec.get("seed", 0)
        if seed < 0:
            raise ConfigError("field 'w_spec': 'seed' must be >= 0")
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((ambient_dim, ambient_dim))
        M = M - M.T
    else:
        raise ConfigError("field 'w_spec': unrecognized wind specification")
    return KillingField(scale * M / killing_norm(KillingField(M)))


def _build_function(cfg: ExperimentConfig, ambient_dim: int, sys_=None):
    if cfg.function == "height":
        return height_function(ambient_dim)
    if cfg.function == "otfkm":
        return otfkm_function(sys_)
    if cfg.function == "split-quadratic":
        return split_quadratic_function(ambient_dim, ambient_dim // 2)
    raise ConfigError(f"field 'function': unknown kind '{cfg.function}'")


def _sphere_setup(cfg: ExperimentConfig, extras: dict,
                  need_wind: bool = False):
    """Function and wind (None if round, unless need_wind); a Randers wind
    is checked as randers_sphere checks it."""
    sys_ = _load_clifford(cfg) if cfg.function == "otfkm" else None
    ambient = sys_.dim if sys_ is not None else cfg.n + 1
    extras["n"] = ambient - 1   # echo the sphere a Clifford system fixes
    randers = cfg.metric == "randers"
    W = _load_killing(cfg, ambient, sys_) if randers or need_wind else None
    if randers:
        _check_wind(W, ambient)
    return _build_function(cfg, ambient, sys_), W


def _run_flag_curvature(cfg: ExperimentConfig, extras: dict):
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n
    center = rng.standard_normal(n + 1)
    chart = Chart(center / np.linalg.norm(center))
    if cfg.metric == "round":
        met = round_metric(chart)
    else:
        met = randers_sphere(chart, _load_killing(cfg, n + 1))
    # rows x, y and v of each flag, drawn in that order, flag after flag
    x, y, v = np.moveaxis(rng.standard_normal((cfg.samples, 3, n)), 1, 0)
    devs = np.abs(flag_curvature(met, Flag(0.5 * x, y, v)) - 1.0)
    worst = float(np.max(devs))
    return VerificationReport(
        check="flag-curvature", config={}, n_samples=cfg.samples,
        max_deviation=worst,
        per_level=[{"level": "|K-1|", "mean": float(np.mean(devs)),
                    "spread": worst}],
        passed=bool(worst < cfg.tol))


def _run_navigation_lemma(cfg: ExperimentConfig, extras: dict):
    base = _load_norm(cfg)
    spec = _nested(cfg, "w_spec")
    if spec is None:
        wind = np.zeros(base.dim)
        wind[0] = cfg.lam
    else:
        _check_spec("field 'w_spec'", spec, {}, ("vector",),
                    {"vector": ("vector",)})
        wind = _array("field 'w_spec'", "vector", spec["vector"],
                      (base.dim,))
    # n echoes the dimension checked, which a given norm fixes
    extras.update(n=base.dim, wind=wind.tolist(),
                  norm=base.kind if cfg.norm else "euclidean")
    return check_navigation_lemma(NavigationDatum(base, wind),
                                  samples=cfg.samples, tol=cfg.tol,
                                  seed=cfg.seed)


def _run_level_scan(cfg: ExperimentConfig, extras: dict):
    f, W = _sphere_setup(cfg, extras)
    check = check_transnormal if cfg.check == "transnormal" \
        else check_isoparametric
    return check(W, f, cfg.levels, per_level=cfg.per_level, tol=cfg.tol,
                 seed=cfg.seed)


def _run_tangency(cfg: ExperimentConfig, extras: dict):
    f, W = _sphere_setup(cfg, extras, need_wind=True)
    return check_tangency(f, W, samples=cfg.samples, tol=cfg.tol,
                          seed=cfg.seed)


def _run_spectrum(cfg: ExperimentConfig, extras: dict):
    f, W = _sphere_setup(cfg, extras)
    spec = principal_curvature_spectrum(W, f, cfg.level,
                                        points=cfg.per_level, seed=cfg.seed)
    # expect_g is read, and so echoed, whether the spectrum is consistent
    ok = (cfg.expect_g is None or spec.g in cfg.expect_g) and spec.consistent
    # cluster-mean spread across sampled points, per cluster
    spreads = [float(np.ptp([pt[i][0] for pt in spec.per_point]))
               for i in range(spec.g)] if spec.consistent else []
    worst = worst_deviation(spreads) if spreads else float("inf")
    return VerificationReport(
        check="spectrum", config={}, n_samples=cfg.per_level,
        max_deviation=worst,
        per_level=[{"level": mean, "mean": mean, "spread": float(spread),
                    "multiplicity": mult}
                   for (mean, mult), spread in
                   zip(zip(spec.cluster_means, spec.multiplicities),
                       spreads or [float("nan")] * spec.g)],
        passed=bool(ok and worst < cfg.tol))


def _run_clifford_audit(cfg: ExperimentConfig, extras: dict):
    sys_ = _load_clifford(cfg)
    extras.update(n=sys_.dim - 1, m=sys_.m, k=sys_.k)
    audit = cl.audit(sys_, seed=cfg.seed)
    per = [{"level": key, "mean": float(val) if np.isscalar(val) else val,
            "spread": 0.0}
           for key, val in audit.items() if key not in ("ok",)]
    worst = float(max(audit["anticommutation_error"],
                      audit["lie_closure_residual"],
                      abs(audit["centralizer_dim"]
                          - audit["centralizer_dim_predicted"])))
    return VerificationReport(
        check="clifford-audit", config={}, n_samples=len(sys_.matrices),
        max_deviation=worst, per_level=per,
        passed=bool(audit["ok"] and worst < cfg.tol))


# check name -> (default tolerance, runner); a runner reads a _Reads of the
# config, puts its additions to the echo in the dict given, then reports
_CHECKS = {
    "flag-curvature": (1e-4, _run_flag_curvature),
    "navigation-lemma": (1e-8, _run_navigation_lemma),
    "transnormal": (1e-6, _run_level_scan),
    "isoparametric": (1e-3, _run_level_scan),
    "tangency": (1e-8, _run_tangency),
    "spectrum": (1e-2, _run_spectrum),
    "clifford-audit": (1e-10, _run_clifford_audit),
}


def run(config: ExperimentConfig) -> VerificationReport:
    """Run and time one experiment, set-up included.  The report's config
    echoes the fields its runner read, as ExperimentConfig declares them,
    then what the runner adds (n in place).  A NumericalError gives a
    failed report: NaN deviation, one per_level entry {"error": name,
    "message": text}, and what was read and added before the error."""
    return _run(config, NumericalError)[0]


def _run(config: ExperimentConfig, caught) -> tuple:
    # (report, error): run, with an error of the classes in caught made
    # the failed report that run makes of a NumericalError
    start = time.perf_counter()
    read, extras, error = {"check", "n", "tol", "seed"}, {}, None
    try:
        rep = _CHECKS[config.check][1](_Reads(config, read), extras)
    except caught as exc:
        error = exc
        rep = VerificationReport(
            check=config.check, config={}, n_samples=0,
            max_deviation=float("nan"),
            per_level=[{"error": type(exc).__name__, "message": str(exc)}])
    # vars(config) holds the fields in declared order
    rep.config = {"lambda" if name == "lam" else name: value
                  for name, value in vars(config).items()
                  if name in read and value is not None
                  and (name == "n" or name not in extras)} | extras
    rep.wall_time_ms = int(1000 * (time.perf_counter() - start))
    return rep, error


def batch(path: str, out_dir: str | None = None) -> tuple[list, bool, list]:
    """Run a battery file: a JSON array of experiment objects (or a
    document with an "experiments" array).

    Returns (reports, all_ok, errors) where a report counts as ok when
    pass matches the experiment's expect_fail flag and it holds no error:
    a numerical failure is not the failure a negative control expects.
    Every entry gives one report, in config order: a FinslabError raised
    while it runs gives it the failed report of a NumericalError, and
    errors lists those that are not numerical.  A file that does not
    parse, or an entry with an invalid field, raises before any entry
    runs.
    """
    doc = _read_json(path, "battery file")
    entries = doc.get("experiments") if isinstance(doc, dict) else doc
    if not isinstance(entries, list):
        raise ParseError('battery must be a JSON array of experiments '
                         'or an object with an "experiments" array')
    configs = [ExperimentConfig.from_dict(e) for e in entries]
    reports, ok, errors = [], True, []
    for c in configs:
        rep, error = _run(c, FinslabError)
        if error is not None and not isinstance(error, NumericalError):
            errors.append(error)
        ok = ok and rep.passed != c.expect_fail and error is None
        reports.append(rep)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "reports.json").write_text(
            json.dumps([r.to_dict() for r in reports], indent=2))
        with open(out / "summary.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["check", "n", "pass", "max_deviation",
                             "wall_time_ms"])
            for r in reports:
                writer.writerow([r.check, r.config["n"], r.passed,
                                 r.max_deviation, r.wall_time_ms])
    return reports, ok, errors


def _parse_levels(text: str) -> list:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _add_common_flags(p: argparse.ArgumentParser):
    # no defaults here: a flag left out keeps the ExperimentConfig default
    p.add_argument("--n", type=int)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--w-spec", dest="w_spec",
                   help="wind: JSON file or inline JSON")
    p.add_argument("--norm", help="base norm: JSON file or inline JSON")
    p.add_argument("--clifford",
                   help="Clifford system: JSON file or inline JSON")
    p.add_argument("--function")
    p.add_argument("--levels", type=_parse_levels)
    p.add_argument("--per-level", dest="per_level", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--level", type=float)
    p.add_argument("--metric")
    p.add_argument("--tol", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--json", action="store_true",
                   help="pretty-print the JSON report")
    p.add_argument("--out", help="also write the report to this file")


def _config_from_args(args) -> ExperimentConfig:
    data = {key: value for key, value in vars(args).items()
            if value is not None and key not in ("command", "json", "out")}
    for key in ("w_spec", "norm", "clifford"):
        text = data.get(key)
        if text is not None and text.lstrip().startswith("{"):
            try:
                data[key] = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"field '{key}': {exc}") from None
    return ExperimentConfig.from_dict(data)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="finslab",
        description="numerical checks for Randers spheres of constant flag "
                    "curvature and their isoparametric hypersurfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run one verification check")
    p_verify.add_argument("check", choices=_CHECKS)
    _add_common_flags(p_verify)

    p_cl = sub.add_parser("clifford", help="build or audit Clifford systems")
    cl_sub = p_cl.add_subparsers(dest="cl_command", required=True)
    p_build = cl_sub.add_parser("build")
    p_build.add_argument("--m", type=int, required=True)
    p_build.add_argument("--k", type=int, default=1)
    p_build.add_argument("--k2", type=int, default=None)
    p_build.add_argument("--out", required=True)
    p_audit = cl_sub.add_parser("audit")
    p_audit.add_argument("file")
    p_audit.add_argument("--json", action="store_true")

    p_batch = sub.add_parser("batch", help="run a battery of experiments")
    p_batch.add_argument("file")
    p_batch.add_argument("--out", help="directory for reports.json/summary.csv")

    if argv is None:
        argv = sys.argv[1:]
    # argparse reads "-0.8,0,0.8" as a flag; fold level lists into --levels=
    argv = list(argv)
    for i, tok in enumerate(argv[:-1]):
        if tok == "--levels" and argv[i + 1].startswith("-"):
            argv[i:i + 2] = [f"--levels={argv[i + 1]}"]
            break

    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            report = run(_config_from_args(args))
            text = report.to_json(indent=2 if args.json else None)
            print(text)
            if args.out:
                Path(args.out).write_text(text)
            return 0 if report.passed else 1
        if args.command == "clifford":
            if args.cl_command == "build":
                k = {"k": args.k} if args.k2 is None \
                    else {"k1": args.k, "k2": args.k2}
                sys_ = _clifford_system({"m": args.m} | k, "clifford build")
                Path(args.out).write_text(sys_.to_json())
                print(json.dumps({"m": sys_.m, "l": sys_.l, "k": sys_.k,
                                  "delta_m": sys_.delta_m, "out": args.out}))
                return 0
            sys_ = _clifford_system(_read_json(args.file, "clifford audit"),
                                    "clifford audit")
            rep = cl.audit(sys_)
            print(json.dumps(rep, indent=2 if args.json else None))
            return 0 if rep["ok"] else 1
        reports, ok, errors = batch(args.file, out_dir=args.out)   # batch
        print(json.dumps([r.to_dict() for r in reports]))
        for exc in errors:
            _print_error(exc)
        return 2 if errors else 0 if ok else 1
    except FinslabError as exc:
        _print_error(exc)
        # a numerical failure reaches here only from `clifford audit`
        return 1 if isinstance(exc, NumericalError) else 2


def _print_error(exc: FinslabError):
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
          file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
