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
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import clifford as cl
from .curvature import Flag, flag_curvature
from .errors import ConfigError, FinslabError, ParseError, UnknownCheck
from .isoparametric import (check_isoparametric, check_tangency,
                            check_transnormal, height_function,
                            otfkm_function, principal_curvature_spectrum,
                            split_quadratic_function)
from .minkowski import NormEvaluator
from .navigation import NavigationDatum, check_navigation_lemma
from .report import VerificationReport
from .sphere import (Chart, KillingField, block_killing, killing_norm,
                     randers_sphere, round_metric, standard_rotation)

_CHECKS = ("flag-curvature", "navigation-lemma", "transnormal",
           "isoparametric", "tangency", "spectrum", "clifford-audit")

_DEFAULT_TOLS = {
    "flag-curvature": 1e-4,
    "navigation-lemma": 1e-8,
    "transnormal": 1e-6,
    "isoparametric": 1e-3,
    "tangency": 1e-8,
    "spectrum": 1e-2,
    "clifford-audit": 1e-10,
}


@dataclass
class ExperimentConfig:
    """One experiment: check name plus everything needed to run it."""

    check: str
    n: int = 3
    metric: str = "round"
    w_spec: dict | None = None
    function: str = "height"
    clifford: dict | str | None = None
    levels: list = field(default_factory=lambda: [-0.5, 0.0, 0.5])
    per_level: int = 20
    samples: int = 200
    tol: float | None = None
    seed: int = 0
    lam: float = 0.5
    level: float = 0.0
    expect_g: list | None = None
    expect_fail: bool = False
    m: int | None = None
    k: object = None
    norm: dict | str | None = None

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if "check" not in data:
            raise ConfigError("missing field 'check'")
        known = {f for f in cls.__dataclass_fields__}
        cfg = cls(check=data["check"])
        for key, value in data.items():
            attr = {"lambda": "lam"}.get(key, key.replace("-", "_"))
            if attr not in known:
                raise ConfigError(f"unknown field '{key}'")
            setattr(cfg, attr, value)
        cfg.validate()
        return cfg

    def validate(self):
        if self.check not in _CHECKS:
            raise UnknownCheck(f"unknown check '{self.check}'")
        ints = {"n": self.n, "per_level": self.per_level,
                "samples": self.samples, "seed": self.seed}
        if self.m is not None:
            ints["m"] = self.m
        for name, value in ints.items():
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"field '{name}' must be an integer")
        if self.tol is None:
            self.tol = _DEFAULT_TOLS[self.check]
        if self.tol <= 0:
            raise ConfigError("field 'tol' must be positive")
        if self.samples < 1:
            raise ConfigError("field 'samples' must be >= 1")
        if self.per_level < 1:
            raise ConfigError("field 'per_level' must be >= 1")
        if self.metric not in ("round", "randers"):
            raise ConfigError("field 'metric' must be round or randers")
        if isinstance(self.clifford, str) and not Path(self.clifford).exists():
            raise ConfigError(f"field 'clifford': file {self.clifford!r} "
                              "does not exist")
        if isinstance(self.w_spec, str) and not Path(self.w_spec).exists():
            raise ConfigError(f"field 'w_spec': file {self.w_spec!r} "
                              "does not exist")

    def echo(self) -> dict:
        out = {"check": self.check, "n": self.n, "metric": self.metric,
               "function": self.function, "tol": self.tol, "seed": self.seed}
        if self.check in ("transnormal", "isoparametric"):
            out["levels"] = self.levels
            out["per_level"] = self.per_level
        if self.check in ("flag-curvature", "navigation-lemma", "tangency"):
            out["samples"] = self.samples
        if self.w_spec is not None:
            out["w_spec"] = self.w_spec
        if self.clifford is not None:
            out["clifford"] = self.clifford
        return out


def _load_clifford(cfg: ExperimentConfig) -> cl.CliffordSystem:
    spec = cfg.clifford
    try:
        if spec is None:
            if cfg.m is not None:
                return cl.build_clifford(cfg.m,
                                         cfg.k if cfg.k is not None else 1)
            raise ConfigError("field 'clifford': required for otfkm functions")
        if isinstance(spec, str):
            return cl.CliffordSystem.from_json(Path(spec).read_text())
        if "matrices" in spec:
            return cl.CliffordSystem.from_json(spec)
        if "m" in spec:
            k = spec.get("k", 1)
            if "k2" in spec:
                k = (spec.get("k1", k), spec["k2"])
            return cl.build_clifford(spec["m"], k)
    except ValueError as exc:
        raise ConfigError(f"invalid Clifford system: {exc}") from None
    raise ConfigError("field 'clifford': need a file, matrices, or {m, k}")


def _load_killing(cfg: ExperimentConfig, ambient_dim: int,
                  sys_=None) -> KillingField:
    spec = cfg.w_spec
    if spec is None:
        if ambient_dim % 2 == 0:
            return standard_rotation(ambient_dim, cfg.lam)
        return block_killing(1, [cfg.lam], [(ambient_dim - 1) // 2])
    if isinstance(spec, str):
        spec = json.loads(Path(spec).read_text())

    def check_dim(W: KillingField) -> KillingField:
        if W.ambient_dim != ambient_dim:
            raise ConfigError(
                f"field 'w_spec': wind acts on R^{W.ambient_dim} but the "
                f"configuration needs R^{ambient_dim}")
        return W

    if "matrix" in spec:
        return check_dim(KillingField(np.asarray(spec["matrix"], dtype=float)))
    if "n0" in spec:
        return check_dim(block_killing(spec["n0"], spec["lambdas"],
                                       spec["sizes"]))
    kind = spec.get("kind")
    scale = float(spec.get("scale", 0.5))
    if kind == "spin":
        if sys_ is None:
            raise ConfigError("field 'w_spec': spin winds need a clifford system")
        elems = cl.spin_lift(sys_).elements
        idx = int(spec.get("index", 0))
        W = elems[idx]
        return KillingField(scale * W / killing_norm(KillingField(W)))
    if kind == "centralizer":
        if sys_ is None:
            raise ConfigError("field 'w_spec': centralizer winds need a "
                              "clifford system")
        elems = cl.centralizer(sys_).elements
        idx = int(spec.get("index", 0))
        W = elems[idx]
        return KillingField(scale * W / killing_norm(KillingField(W)))
    if kind == "random-skew":
        rng = np.random.default_rng(int(spec.get("seed", 0)))
        M = rng.standard_normal((ambient_dim, ambient_dim))
        M = M - M.T
        return KillingField(scale * M / killing_norm(KillingField(M)))
    raise ConfigError("field 'w_spec': unrecognized wind specification")


def _build_function(cfg: ExperimentConfig, ambient_dim: int, sys_=None):
    if cfg.function == "height":
        return height_function(ambient_dim)
    if cfg.function == "otfkm":
        return otfkm_function(sys_)
    if cfg.function == "split-quadratic":
        return split_quadratic_function(ambient_dim, ambient_dim // 2)
    raise ConfigError(f"field 'function': unknown kind '{cfg.function}'")


def _run_flag_curvature(cfg: ExperimentConfig) -> VerificationReport:
    start = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n
    center = rng.standard_normal(n + 1)
    chart = Chart(center / np.linalg.norm(center))
    if cfg.metric == "round":
        met = round_metric(chart)
    else:
        W = _load_killing(cfg, n + 1)
        met = randers_sphere(chart, W)
    devs = []
    for _ in range(cfg.samples):
        x = rng.standard_normal(n) * 0.5
        y = rng.standard_normal(n)
        v = rng.standard_normal(n)
        devs.append(abs(flag_curvature(met, Flag(x, y, v)) - 1.0))
    worst = float(np.max(devs))
    return VerificationReport(
        check="flag-curvature", config=cfg.echo(), n_samples=cfg.samples,
        max_deviation=worst,
        per_level=[{"level": "|K-1|", "mean": float(np.mean(devs)),
                    "spread": worst}],
        passed=bool(worst < cfg.tol),
        wall_time_ms=int(1000 * (time.perf_counter() - start)))


def _run_navigation_lemma(cfg: ExperimentConfig) -> VerificationReport:
    if cfg.norm is not None:
        spec = cfg.norm
        if isinstance(spec, str):
            spec = json.loads(Path(spec).read_text())
        base = NormEvaluator.from_json(spec)
    else:
        base = NormEvaluator.euclidean(cfg.n)
    wind = np.zeros(base.dim)
    wind[0] = cfg.lam if cfg.lam < 1.0 else 0.3
    if isinstance(cfg.w_spec, dict) and "vector" in cfg.w_spec:
        wind = np.asarray(cfg.w_spec["vector"], dtype=float)
    datum = NavigationDatum(base, wind)
    rep = check_navigation_lemma(datum, samples=cfg.samples, tol=cfg.tol,
                                 seed=cfg.seed)
    rep.config = cfg.echo() | {"wind": wind.tolist(),
                               "norm": "custom" if cfg.norm else "euclidean"}
    return rep


def _sphere_setup(cfg: ExperimentConfig):
    sys_ = _load_clifford(cfg) if cfg.function == "otfkm" else None
    ambient = sys_.dim if sys_ is not None else cfg.n + 1
    chart = Chart(np.eye(ambient)[0])
    if cfg.metric == "round":
        met = round_metric(chart)
        W = None
    else:
        W = _load_killing(cfg, ambient, sys_)
        met = randers_sphere(chart, W)
    f = _build_function(cfg, ambient, sys_)
    return met, f, W, sys_


def _run_transnormal(cfg: ExperimentConfig) -> VerificationReport:
    met, f, _, _ = _sphere_setup(cfg)
    rep = check_transnormal(met, f, cfg.levels, per_level=cfg.per_level,
                            tol=cfg.tol, seed=cfg.seed)
    rep.config = cfg.echo()
    return rep


def _run_isoparametric(cfg: ExperimentConfig) -> VerificationReport:
    met, f, _, _ = _sphere_setup(cfg)
    rep = check_isoparametric(met, f, cfg.levels, per_level=cfg.per_level,
                              tol=cfg.tol, seed=cfg.seed)
    rep.config = cfg.echo()
    return rep


def _run_tangency(cfg: ExperimentConfig) -> VerificationReport:
    sys_ = _load_clifford(cfg) if cfg.function == "otfkm" else None
    ambient = sys_.dim if sys_ is not None else cfg.n + 1
    f = _build_function(cfg, ambient, sys_)
    W = _load_killing(cfg, ambient, sys_)
    rep = check_tangency(f, W, samples=cfg.samples, tol=cfg.tol,
                         seed=cfg.seed)
    rep.config = cfg.echo()
    return rep


def _run_spectrum(cfg: ExperimentConfig) -> VerificationReport:
    start = time.perf_counter()
    met, f, _, _ = _sphere_setup(cfg)
    spec = principal_curvature_spectrum(met, f, cfg.level,
                                        points=cfg.per_level, seed=cfg.seed)
    ok = spec.consistent
    if cfg.expect_g is not None:
        ok = ok and spec.g in cfg.expect_g
    # cluster-mean spread across sampled points, per cluster
    spreads = []
    if spec.consistent:
        for i in range(spec.g):
            vals = [pt[i][0] for pt in spec.per_point]
            spreads.append(max(vals) - min(vals))
    worst = float(max(spreads)) if spreads else float("inf")
    return VerificationReport(
        check="spectrum",
        config=cfg.echo() | {"level": cfg.level, "expect_g": cfg.expect_g},
        n_samples=cfg.per_level,
        max_deviation=worst,
        per_level=[{"level": mean, "mean": mean, "spread": float(spread),
                    "multiplicity": mult}
                   for (mean, mult), spread in
                   zip(zip(spec.cluster_means, spec.multiplicities),
                       spreads or [float("nan")] * spec.g)],
        passed=bool(ok and worst < cfg.tol),
        wall_time_ms=int(1000 * (time.perf_counter() - start)))


def _run_clifford_audit(cfg: ExperimentConfig) -> VerificationReport:
    start = time.perf_counter()
    sys_ = _load_clifford(cfg)
    rep = cl.audit(sys_, seed=cfg.seed)
    per = [{"level": key, "mean": float(val) if np.isscalar(val) else val,
            "spread": 0.0}
           for key, val in rep.items() if key not in ("ok",)]
    return VerificationReport(
        check="clifford-audit",
        config=cfg.echo() | {"m": sys_.m, "k": sys_.k},
        n_samples=len(sys_.matrices),
        max_deviation=float(max(rep["anticommutation_error"],
                                rep["lie_closure_residual"],
                                abs(rep["centralizer_dim"]
                                    - rep["centralizer_dim_predicted"]))),
        per_level=per,
        passed=bool(rep["ok"]),
        wall_time_ms=int(1000 * (time.perf_counter() - start)))


_RUNNERS = {
    "flag-curvature": _run_flag_curvature,
    "navigation-lemma": _run_navigation_lemma,
    "transnormal": _run_transnormal,
    "isoparametric": _run_isoparametric,
    "tangency": _run_tangency,
    "spectrum": _run_spectrum,
    "clifford-audit": _run_clifford_audit,
}


def run(config: ExperimentConfig) -> VerificationReport:
    """Dispatch one experiment to its check."""
    if config.check not in _RUNNERS:
        raise UnknownCheck(f"unknown check '{config.check}'")
    return _RUNNERS[config.check](config)


def batch(path: str, out_dir: str | None = None) -> tuple[list, bool]:
    """Run a battery file: a JSON array of experiment objects (or a
    document with an "experiments" array).

    Returns (reports, all_ok) where a report counts as ok when pass
    matches the experiment's expect_fail flag.  Reports keep config
    order.
    """
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}: {exc.msg}") from None
    entries = doc["experiments"] if isinstance(doc, dict) else doc
    if not isinstance(entries, list):
        raise ParseError("battery must be a JSON array of experiments")
    configs = [ExperimentConfig.from_dict(e) for e in entries]
    reports = [run(c) for c in configs]
    ok = all(r.passed != c.expect_fail for r, c in zip(reports, configs))
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "reports.json").write_text(
            json.dumps([r.to_dict() for r in reports], indent=2))
        with open(out / "summary.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["check", "n", "pass", "max_deviation",
                             "wall_time_ms"])
            for r, c in zip(reports, configs):
                writer.writerow([r.check, c.n, r.passed, r.max_deviation,
                                 r.wall_time_ms])
    return reports, ok


def _parse_levels(text: str) -> list:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p.add_argument("--w-spec", dest="w_spec",
                   help="wind: JSON file or inline JSON")
    p.add_argument("--norm", help="base norm: JSON file or inline JSON")
    p.add_argument("--clifford", help="Clifford system JSON file")
    p.add_argument("--function", default=None)
    p.add_argument("--levels", type=_parse_levels, default=None)
    p.add_argument("--per-level", dest="per_level", type=int, default=20)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--level", type=float, default=0.0)
    p.add_argument("--metric", default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true",
                   help="pretty-print the JSON report")
    p.add_argument("--out", help="also write the report to this file")


def _config_from_args(args) -> ExperimentConfig:
    data = {"check": args.check, "n": args.n, "lambda": args.lam,
            "per_level": args.per_level, "samples": args.samples,
            "seed": args.seed, "level": args.level}
    if args.metric:
        data["metric"] = args.metric
    if args.function:
        data["function"] = args.function
    if args.levels is not None:
        data["levels"] = args.levels
    if args.tol is not None:
        data["tol"] = args.tol
    if args.w_spec:
        text = args.w_spec
        data["w_spec"] = (json.loads(text) if text.lstrip().startswith("{")
                          else text)
    if args.norm:
        text = args.norm
        data["norm"] = (json.loads(text) if text.lstrip().startswith("{")
                        else text)
    if args.clifford:
        data["clifford"] = args.clifford
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
            cfg = _config_from_args(args)
            report = run(cfg)
            text = report.to_json(indent=2 if args.json else None)
            print(text)
            if args.out:
                Path(args.out).write_text(text)
            return 0 if report.passed else 1
        if args.command == "clifford":
            if args.cl_command == "build":
                k = args.k if args.k2 is None else (args.k, args.k2)
                sys_ = cl.build_clifford(args.m, k)
                Path(args.out).write_text(sys_.to_json())
                print(json.dumps({"m": sys_.m, "l": sys_.l, "k": sys_.k,
                                  "delta_m": sys_.delta_m, "out": args.out}))
                return 0
            sys_ = cl.CliffordSystem.from_json(Path(args.file).read_text())
            rep = cl.audit(sys_)
            print(json.dumps(rep, indent=2 if args.json else None))
            return 0 if rep["ok"] else 1
        if args.command == "batch":
            reports, ok = batch(args.file, out_dir=args.out)
            print(json.dumps([r.to_dict() for r in reports]))
            return 0 if ok else 1
    except (ConfigError, UnknownCheck, ParseError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2
    except FinslabError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
