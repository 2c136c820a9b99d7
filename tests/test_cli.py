"""CLI: dispatch, exit codes, determinism, batch batteries."""

import importlib.util
import inspect
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finslab.cli as cli
from finslab import errors
from finslab.cli import ExperimentConfig, batch, main, run
from finslab.errors import ConfigError, ParseError, UnknownCheck
from finslab.isoparametric import SpectrumResult
from finslab.report import worst_deviation
from finslab.sphere import MetricField

ROOT = Path(__file__).resolve().parent.parent


def test_run_flag_curvature_round():
    cfg = ExperimentConfig.from_dict(
        {"check": "flag-curvature", "n": 2, "metric": "round",
         "samples": 20, "tol": 1e-5})
    rep = run(cfg)
    assert rep.passed
    assert rep.max_deviation < 1e-5


@pytest.mark.parametrize("metric", ["round", "randers"])
def test_flag_curvature_report_builds_once(monkeypatch, metric):
    # all the flags of a report are evaluated in one pass: one builder
    # call over every coefficient-stencil point of its flags
    calls = []
    coefficients = MetricField.coefficients
    monkeypatch.setattr(MetricField, "coefficients",
                        lambda fld, X: calls.append(np.shape(X))
                        or coefficients(fld, X))
    rep = run(ExperimentConfig.from_dict(
        {"check": "flag-curvature", "n": 3, "metric": metric,
         "samples": 7}))
    assert rep.passed and rep.n_samples == 7
    assert len(calls) == 1 and np.prod(calls[0][:-1]) == 7 * 13 * 17


def test_spectrum_nan_spread_fails(monkeypatch):
    # a NaN cluster spread after a finite one must reach max_deviation
    spec = SpectrumResult(level=0.0, g=2, multiplicities=(1, 1),
                          cluster_means=[0.0, 1.0], consistent=True,
                          per_point=[[(0.0, 1), (1.0, 1)],
                                     [(0.0, 1), (math.nan, 1)]])
    monkeypatch.setattr(cli, "principal_curvature_spectrum",
                        lambda *args, **kwargs: spec)
    rep = run(ExperimentConfig.from_dict({"check": "spectrum"}))
    assert math.isnan(rep.max_deviation)
    assert not rep.passed


@pytest.mark.parametrize("deviations,worst", [
    ([], 0.0), ((), 0.0), (np.array([]), 0.0), ([2.0, 0.5], 2.0),
    ([1e-9, math.nan, 3.0], math.nan), (np.array([0.5, math.nan]), math.nan)])
def test_worst_deviation_keeps_nan_and_empty_input(deviations, worst):
    np.testing.assert_equal(worst_deviation(deviations), worst)


def test_run_clifford_audit():
    cfg = ExperimentConfig.from_dict(
        {"check": "clifford-audit", "clifford": {"m": 1, "k": 3}})
    rep = run(cfg)
    assert rep.passed
    dims = {e["level"]: e["mean"] for e in rep.per_level}
    assert dims["centralizer_dim"] == 3


def test_clifford_audit_reads_its_tol():
    # the built (1, 3) audit deviates by about 4e-17 from exact
    entry = {"check": "clifford-audit", "clifford": {"m": 1, "k": 3}}
    rep = run(ExperimentConfig.from_dict(entry | {"tol": 1e-20}))
    assert 0.0 < rep.max_deviation < 1e-10 and not rep.passed
    assert run(ExperimentConfig.from_dict(entry)).passed


def test_run_negative_control_fails():
    cfg = ExperimentConfig.from_dict(
        {"check": "transnormal", "function": "height", "n": 3,
         "metric": "randers",
         "w_spec": {"kind": "random-skew", "seed": 3, "scale": 0.5},
         "levels": [0.3], "per_level": 5})
    rep = run(cfg)
    assert not rep.passed


def test_unknown_check_and_config_errors():
    with pytest.raises(UnknownCheck):
        ExperimentConfig.from_dict({"check": "nonsense"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"check": "tangency", "tol": -1.0})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"check": "tangency", "bogus": 1})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(
            {"check": "transnormal", "clifford": "/no/such/file.json"})


def test_report_determinism():
    spec = {"check": "flag-curvature", "n": 2, "metric": "randers",
            "lambda": 0.3, "samples": 10, "seed": 42}
    r1 = run(ExperimentConfig.from_dict(spec)).to_dict()
    r2 = run(ExperimentConfig.from_dict(spec)).to_dict()
    r1.pop("wall_time_ms")
    r2.pop("wall_time_ms")
    assert json.dumps(r1) == json.dumps(r2)


def test_report_schema_order():
    cfg = ExperimentConfig.from_dict(
        {"check": "tangency", "function": "height", "n": 2, "samples": 10,
         "w_spec": {"n0": 1, "lambdas": [0.5], "sizes": [1]}})
    rep = run(cfg)
    assert list(rep.to_dict()) == ["check", "config", "n_samples",
                                   "max_deviation", "per_level", "pass",
                                   "wall_time_ms"]
    assert rep.passed == (rep.max_deviation < cfg.tol)


def test_batch_empty(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("[]")
    reports, ok, errors = batch(str(path))
    assert reports == [] and ok and errors == []


def test_batch_expect_fail_inversion(tmp_path):
    battery = [
        {"check": "flag-curvature", "n": 2, "metric": "round",
         "samples": 10, "tol": 1e-5},
        {"check": "transnormal", "function": "height", "n": 3,
         "metric": "randers",
         "w_spec": {"kind": "random-skew", "seed": 3, "scale": 0.5},
         "levels": [0.3], "per_level": 5, "expect_fail": True},
    ]
    path = tmp_path / "batt.json"
    path.write_text(json.dumps(battery))
    reports, ok, errors = batch(str(path), out_dir=str(tmp_path / "out"))
    assert ok and errors == []
    assert reports[0].passed and not reports[1].passed
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert summary[0] == "check,n,pass,max_deviation,wall_time_ms"
    assert len(summary) == 3
    saved = json.loads((tmp_path / "out" / "reports.json").read_text())
    assert len(saved) == 2 and saved[0]["pass"]


def test_batch_parse_error_line_number(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('[\n  {"check": "flag-curvature",}\n]')
    with pytest.raises(ParseError, match="line 2"):
        batch(str(path))


@pytest.mark.parametrize("doc", [{"foo": 1}, {"experiments": {}}, 3])
def test_battery_without_experiments_array_exits_2(tmp_path, capsys, doc):
    path = tmp_path / "batt.json"
    path.write_text(json.dumps(doc))
    assert main(["batch", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert json.loads(err[-1])["error"] == "ParseError"


def test_each_report_is_validated_once(tmp_path, monkeypatch, capsys):
    calls = []
    validate = ExperimentConfig.validate

    def counted(self):
        calls.append(self.check)
        validate(self)

    monkeypatch.setattr(ExperimentConfig, "validate", counted)
    entry = {"check": "flag-curvature", "n": 2, "samples": 3}
    path = tmp_path / "batt.json"
    path.write_text(json.dumps({"experiments": [entry, entry]}))
    assert main(["batch", str(path)]) == 0
    assert main(["verify", "flag-curvature", "--n", "2", "--samples", "3"]) == 0
    run(ExperimentConfig.from_dict(entry))
    assert len(calls) == 4
    # a config built directly is validated when it is built, not by run;
    # a changed config is a new one, validated in turn
    cfg = ExperimentConfig(check="flag-curvature", n=2, samples=3)
    run(cfg)
    assert len(calls) == 5 and cfg.tol == 1e-4
    with pytest.raises(FrozenInstanceError):
        cfg.n = 0
    with pytest.raises(ConfigError, match="'n'"):
        replace(cfg, n=0)
    with pytest.raises(UnknownCheck):
        ExperimentConfig(check="nonsense")
    capsys.readouterr()


def test_config_cannot_change_after_validation():
    # a list field changed in place used to skip validation and crash run
    cfg = ExperimentConfig.from_dict({"check": "transnormal",
                                      "levels": [0.3], "per_level": 3})
    assert cfg.levels == (0.3,)
    with pytest.raises(AttributeError):
        cfg.levels.append("a")
    with pytest.raises(ConfigError, match="'levels'"):
        replace(cfg, levels=[0.3, "a"])
    rep = run(cfg)
    assert json.loads(rep.to_json())["config"]["levels"] == [0.3]


def test_main_exit_codes(tmp_path, capsys):
    assert main(["verify", "flag-curvature", "--n", "2", "--metric", "round",
                 "--samples", "5", "--tol", "1e-5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["check"] == "flag-curvature" and out["pass"]

    # failing check exits 1
    code = main(["verify", "transnormal", "--function", "height", "--n", "3",
                 "--metric", "randers",
                 "--w-spec", '{"kind": "random-skew", "seed": 3}',
                 "--levels", "0.3", "--per-level", "4"])
    assert code == 1
    capsys.readouterr()
    # so does a focal level, which has no regular point
    assert main(["verify", "spectrum", "--n", "3", "--level", "1.0",
                 "--per-level", "4"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["per_level"][0]["error"] == "EmptyLevel"

    # config error exits 2
    assert main(["verify", "transnormal", "--function", "otfkm",
                 "--clifford", "/no/such/file.json"]) == 2
    capsys.readouterr()


def test_verify_flags_left_out_keep_config_defaults(capsys):
    assert main(["verify", "flag-curvature", "--samples", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    cfg = ExperimentConfig.from_dict({"check": "flag-curvature",
                                      "samples": 3})
    assert out["config"] == run(cfg).config == {
        "check": "flag-curvature", "n": 3, "metric": "round", "tol": 1e-4,
        "seed": 0, "samples": 3}


_SPIN = {"kind": "spin", "scale": 0.5}
_SYS = {"m": 1, "k": 3}
_ROUND = ["check", "n", "metric", "function", "tol", "seed"]


@pytest.mark.parametrize("entry,keys", [
    ({"check": "flag-curvature", "n": 2},
     ["check", "n", "metric", "tol", "seed", "samples"]),
    ({"check": "flag-curvature", "n": 2, "metric": "randers", "lambda": 0.4},
     ["check", "n", "metric", "tol", "seed", "samples", "lambda"]),
    ({"check": "flag-curvature", "n": 2, "metric": "randers",
      "w_spec": {"n0": 1, "lambdas": [0.5], "sizes": [1]}},
     ["check", "n", "metric", "tol", "seed", "samples", "w_spec"]),
    # a round metric reads no wind, flag curvature no function, and no
    # check reads expect_fail
    ({"check": "flag-curvature", "n": 2, "function": "otfkm",
      "w_spec": _SPIN, "lambda": 0.4, "expect_fail": True},
     ["check", "n", "metric", "tol", "seed", "samples"]),
    ({"check": "navigation-lemma", "metric": "randers"},
     ["check", "n", "tol", "seed", "samples", "lambda", "wind", "norm"]),
    ({"check": "navigation-lemma", "w_spec": {"vector": [0.1, 0, 0]},
      "lambda": 0.4},
     ["check", "n", "tol", "seed", "samples", "w_spec", "wind", "norm"]),
    ({"check": "navigation-lemma",
      "norm": {"kind": "euclidean-quadratic-form", "matrix": [[2]]}},
     ["check", "n", "tol", "seed", "samples", "lambda", "wind", "norm"]),
    ({"check": "transnormal", "levels": [0.3], "per_level": 2},
     _ROUND + ["levels", "per_level"]),
    ({"check": "isoparametric", "metric": "randers", "levels": [0.3],
      "per_level": 2, "clifford": _SYS},
     _ROUND + ["levels", "per_level", "lambda"]),
    ({"check": "transnormal", "function": "otfkm", "clifford": _SYS,
      "metric": "randers", "w_spec": _SPIN, "levels": [0.3], "per_level": 2},
     _ROUND + ["levels", "per_level", "w_spec", "clifford"]),
    ({"check": "tangency", "samples": 2},
     _ROUND + ["samples", "lambda"]),
    ({"check": "tangency", "function": "otfkm", "clifford": _SYS,
      "w_spec": _SPIN, "samples": 2},
     _ROUND + ["samples", "w_spec", "clifford"]),
    ({"check": "spectrum", "level": 0.3, "per_level": 2},
     _ROUND + ["per_level", "level"]),
    ({"check": "spectrum", "function": "otfkm", "clifford": _SYS,
      "metric": "randers", "w_spec": _SPIN, "level": 0.3, "per_level": 2,
      "expect_g": [1, 2, 4]},
     _ROUND + ["per_level", "w_spec", "clifford", "level", "expect_g"]),
    ({"check": "clifford-audit", "clifford": _SYS, "metric": "randers",
      "function": "otfkm", "samples": 5},
     ["check", "n", "tol", "seed", "clifford", "m", "k"]),
])
def test_report_echoes_the_fields_its_check_read(entry, keys):
    rep = run(ExperimentConfig.from_dict(entry))
    assert "error" not in rep.per_level[0]
    assert list(rep.config) == keys


@pytest.mark.parametrize("entry", [
    {"check": "flag-curvature", "samples": "5"},
    {"check": "clifford-audit", "clifford": {"m": 0}},
    {"check": "tangency", "tol": "1e-4"},
    {"check": "flag-curvature", "metric": "randers", "lambda": "0.3"},
    {"check": "spectrum", "level": "0.3"},
    {"check": "transnormal", "levels": "0.5"},
    {"check": "spectrum", "expect_g": "x"},
    {"check": "flag-curvature", "n": -1},
    {"check": "flag-curvature", "seed": -1},
    {"check": "navigation-lemma", "norm": "/no/such/norm.json"},
    {"check": "tangency", "function": "otfkm", "clifford": {"m": 1, "k": 3},
     "w_spec": {"kind": "spin", "index": 99}},
    {"check": "navigation-lemma", "norm": {"kind": "x"}},
    {"check": "transnormal", "levels": []},
    {"check": "isoparametric", "levels": []},
    {"check": "clifford-audit", "clifford": {"m": 1.5}},
    {"check": "clifford-audit",
     "clifford": {"matrices": [[1]], "m": 1, "l": 1, "k": 1}},
    {"check": "tangency", "w_spec": {"n0": "a", "lambdas": [0.5],
                                     "sizes": [1]}},
    {"check": "tangency", "w_spec": {"kind": "random-skew", "scale": "x"}},
    {"check": "tangency", "w_spec": {"matrix": "abc"}},
    {"check": "navigation-lemma", "n": 3, "w_spec": {"vector": [0.1, 0.2]}},
    {"check": "navigation-lemma", "n": 3, "w_spec": {"vector": ["a", 0, 0]}},
    {"check": "navigation-lemma", "w_spec": {"kind": "random-skew", "seed": 3}},
    {"check": "clifford-audit", "m": 3},
])
def test_bad_battery_entry_is_config_error(tmp_path, capsys, entry):
    path = tmp_path / "batt.json"
    path.write_text(json.dumps([entry]))
    assert main(["batch", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    error = json.loads(err[-1])
    assert error["error"] == "ConfigError"
    if "w_spec" in entry:
        assert "'w_spec'" in error["message"]


NAN_PAIR = [[0, math.nan, 0, 0], [math.nan, 0, 0, 0], [0, 0, 0, 0],
            [0, 0, 0, 0]]
INF_DIAGONAL = [[math.inf, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0],
                [0, 0, 0, 0]]


@pytest.mark.parametrize("argv,error", [
    (["--w-spec", json.dumps({"matrix": NAN_PAIR})], "ConfigError"),
    (["--w-spec", json.dumps({"matrix": INF_DIAGONAL})], "ConfigError"),
    (["--w-spec", json.dumps({"kind": "random-skew", "scale": math.nan})],
     "ConfigError"),
    (["--w-spec", json.dumps({"n0": 0, "lambdas": [math.inf],
                              "sizes": [2]})], "ConfigError"),
    (["--tol", "nan"], "ConfigError"),
    (["--lambda", "inf"], "ConfigError"),
])
def test_non_finite_wind_and_number_exit_2(capsys, argv, error):
    # NaN and infinities are configuration errors, with no traceback
    assert main(["verify", "tangency", "--n", "3", "--samples", "4"]
                + argv) == 2
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] \
        == error


@pytest.mark.parametrize("entry,error", [
    ({"check": "transnormal", "levels": [math.nan]}, "ConfigError"),
    ({"check": "spectrum", "level": -math.inf}, "ConfigError"),
    ({"check": "navigation-lemma", "w_spec": {"vector": [math.nan, 0, 0]}},
     "ConfigError"),
    ({"check": "clifford-audit",
      "clifford": {"matrices": [[[1, 0], [0, math.nan]], [[0, 1], [1, 0]]]}},
     "ConfigError"),
    ({"check": "navigation-lemma",
      "norm": {"kind": "randers", "alpha": [[1, math.nan], [math.nan, 1]],
               "beta": [0.1, 0]}}, "NotPositiveDefinite"),
    ({"check": "navigation-lemma",
      "norm": {"kind": "euclidean-quadratic-form",
               "matrix": [[1, 0], [0, math.inf]]}}, "NotPositiveDefinite"),
])
def test_non_finite_battery_entry_exits_2(tmp_path, capsys, entry, error):
    path = tmp_path / "batt.json"
    path.write_text(json.dumps([entry]))
    assert main(["batch", str(path)]) == 2
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] \
        == error


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_number_message_says_why(capsys, value):
    # NaN has the declared type float; the message names the refusal
    assert main(["verify", "tangency", f"--tol={value}"]) == 2
    message = json.loads(capsys.readouterr().err.splitlines()[-1])["message"]
    assert message == ("field 'tol' must be float | None; "
                       "NaN and infinities are refused")


def test_configuration_error_of_a_running_entry_keeps_the_battery(
        tmp_path, capsys):
    # the norm passes the config checks and fails when the entry runs: the
    # entry gets a failed report, the first entry keeps its own, --out is
    # written, and the battery exits 2 with the error on stderr
    path = tmp_path / "batt.json"
    path.write_text(json.dumps([
        {"check": "flag-curvature", "samples": 3},
        {"check": "navigation-lemma",
         "norm": {"kind": "euclidean-quadratic-form",
                  "matrix": [[1, 0], [0, -1]]}}]))
    out = tmp_path / "out"
    assert main(["batch", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    first, second = json.loads(captured.out)
    assert first["pass"] and math.isfinite(first["max_deviation"])
    assert second["check"] == "navigation-lemma" and not second["pass"]
    assert math.isnan(second["max_deviation"]) and second["n_samples"] == 0
    assert [list(e) for e in second["per_level"]] == [["error", "message"]]
    assert second["per_level"][0]["error"] == "NotPositiveDefinite"
    assert json.loads(captured.err.splitlines()[-1]) \
        == second["per_level"][0]
    saved = json.loads((out / "reports.json").read_text())
    assert [r["check"] for r in saved] == ["flag-curvature",
                                          "navigation-lemma"]
    assert math.isnan(saved[1]["max_deviation"])
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 3 and summary[2].startswith(
        "navigation-lemma,3,False,nan,")
    reports, ok, errors = batch(str(path))
    assert not ok and [type(e).__name__ for e in errors] \
        == ["NotPositiveDefinite"]
    assert reports[0].passed


def _failed_battery_report(captured) -> dict:
    # the one report of a one-entry battery whose entry raised: a failed
    # report holding the error that stderr prints
    [report] = json.loads(captured.out)
    [line] = captured.err.strip().splitlines()
    assert not report["pass"] and math.isnan(report["max_deviation"])
    assert report["per_level"] == [json.loads(line)]
    return report["per_level"][0]


# a 2 x 1 matrix that A + A^T broadcast to a singular 2 x 2 form, whose
# Cholesky factorisation passes in rounding
_COLUMN_NORM = {"kind": "euclidean-quadratic-form",
                "matrix": [[2.5824623856365605], [2.5824623856365605]]}


def test_one_report_per_battery_entry(tmp_path, capsys):
    # whatever an entry raises while it runs, it gets one failed report,
    # in its place, and the other entries run
    (tmp_path / "wind.json").write_text("{not json")
    D = np.diag([1, 1, -1, -1]).tolist()
    failing = [
        ({"check": "clifford-audit", "clifford": {"m": 1, "k": 65}},
         "ConfigError"),
        ({"check": "clifford-audit", "clifford": {"matrices": [D, D]}},
         "NotClifford"),
        ({"check": "tangency", "w_spec": str(tmp_path / "wind.json")},
         "ParseError"),
        ({"check": "transnormal", "function": "cubic"}, "ConfigError"),
        ({"check": "tangency", "function": "otfkm", "clifford": {"m": 1,
                                                               "k": 3},
          "w_spec": {"kind": "spin", "index": 99}}, "ConfigError"),
        ({"check": "navigation-lemma", "norm": _COLUMN_NORM},
         "DimensionMismatch"),
    ]
    good = {"check": "flag-curvature", "n": 2, "samples": 3}
    entries = [e for e, _ in failing[:3]] + [good] \
        + [e for e, _ in failing[3:]]
    path = tmp_path / "battery.json"
    path.write_text(json.dumps(entries))
    out = tmp_path / "out"
    assert main(["batch", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    reports = json.loads(captured.out)
    assert [r["check"] for r in reports] == [e["check"] for e in entries]
    assert reports.pop(3)["pass"]
    for rep, (_, error) in zip(reports, failing):
        assert not rep["pass"] and math.isnan(rep["max_deviation"])
        assert rep["n_samples"] == 0 and rep["per_level"][0]["error"] == error
    assert [json.loads(line) for line in captured.err.splitlines()] \
        == [rep["per_level"][0] for rep in reports]
    assert len(json.loads((out / "reports.json").read_text())) == 7
    assert len((out / "summary.csv").read_text().splitlines()) == 8


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_non_square_norm_matrix_exits_2(tmp_path, capsys, seed):
    # the seeds on which the broadcast norm used to exit 1 or 2
    path = tmp_path / "battery.json"
    path.write_text(json.dumps([{"check": "navigation-lemma", "seed": seed,
                                 "norm": _COLUMN_NORM}]))
    assert main(["batch", str(path)]) == 2
    assert _failed_battery_report(capsys.readouterr())["error"] \
        == "DimensionMismatch"
    assert main(["verify", "navigation-lemma", "--seed", str(seed),
                 "--norm", json.dumps(_COLUMN_NORM)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "DimensionMismatch"


RANDERS_X = {"kind": "randers", "alpha": [[1.0, 0.0], [0.0, 1.0]],
             "beta": [0.6, 0.0]}


@pytest.mark.parametrize("entry", [
    {"check": "navigation-lemma", "lambda": 1.5},
    # F(v) = 0.32 but F(-v) = 1.28: the shifted ball misses 0
    {"check": "navigation-lemma", "norm": RANDERS_X,
     "w_spec": {"vector": [-0.8, 0.0]}},
])
def test_navigation_wind_too_strong_exits_2(tmp_path, capsys, entry):
    path = tmp_path / "batt.json"
    path.write_text(json.dumps([entry]))
    assert main(["batch", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert json.loads(err[-1])["error"] == "WindTooStrong"


def test_navigation_lemma_over_a_randers_base(capsys):
    # the benchmark's navigation-general probe, at the default tol
    norm = {"kind": "randers", "alpha": [[1.2, 0, 0], [0, 1.0, 0],
                                         [0, 0, 0.8]],
            "beta": [0.1, -0.2, 0.05]}
    assert main(["verify", "navigation-lemma", "--norm", json.dumps(norm),
                 "--w-spec", json.dumps({"vector": [0.2, 0.1, -0.1]}),
                 "--samples", "8", "--seed", "126"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["max_deviation"] < 1e-12
    assert rep["config"]["norm"] == "randers"
    assert main(["verify", "navigation-lemma", "--norm",
                 json.dumps({"kind": "euclidean-quadratic-form",
                             "matrix": [[2.0, 0.0], [0.0, 1.0]]}),
                 "--lambda", "0.3", "--samples", "8"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["config"]["norm"] == "euclidean-quadratic-form"


def test_navigation_lemma_echoes_the_dimension_of_its_norm(capsys):
    # a given norm fixes the dimension; n keeps its place in the echo
    assert main(["verify", "navigation-lemma", "--norm",
                 json.dumps({"kind": "euclidean-quadratic-form",
                             "matrix": [[2, 0], [0, 1]]})]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert config["n"] == 2 and config["wind"] == [0.5, 0.0]
    assert list(config)[:2] == ["check", "n"]


def test_batch_summary_writes_the_dimension_each_report_echoes(tmp_path):
    # a 2x2 norm makes a 2-dimensional check, whatever n the entry had
    path = tmp_path / "batt.json"
    path.write_text(json.dumps([
        {"check": "navigation-lemma", "samples": 20,
         "norm": {"kind": "euclidean-quadratic-form",
                  "matrix": [[2, 0], [0, 1]]}}]))
    reports, ok, _ = batch(str(path), out_dir=str(tmp_path / "out"))
    assert ok and reports[0].config["n"] == 2
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert summary[1].split(",")[:2] == ["navigation-lemma", "2"]


_ENTRY = st.floats(-3.0, 3.0)


@st.composite
def _matrix(draw):
    # SPD half the time, else any (possibly ragged or indefinite) lists
    k = draw(st.integers(1, 4))
    if draw(st.booleans()):
        M = np.array(draw(st.lists(_ENTRY, min_size=k * k, max_size=k * k)))
        M = M.reshape(k, k)
        return (M @ M.T + draw(st.floats(0.0, 1.0)) * np.eye(k)).tolist()
    return draw(st.lists(st.lists(_ENTRY, min_size=1, max_size=4),
                         min_size=1, max_size=4))


_VECTOR = st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=4)


@st.composite
def _navigation_entry(draw):
    entry = {"check": "navigation-lemma", "n": draw(st.integers(1, 4)),
             "samples": draw(st.integers(1, 4)),
             "lambda": draw(st.floats(-2.0, 2.0))}
    norm = draw(st.one_of(
        st.none(),
        st.fixed_dictionaries({"kind": st.just("euclidean-quadratic-form"),
                               "matrix": _matrix()}),
        st.fixed_dictionaries({"kind": st.just("randers"),
                               "alpha": _matrix(), "beta": _VECTOR})))
    if norm is not None:
        entry["norm"] = norm
    if draw(st.booleans()):
        entry["w_spec"] = {"vector": draw(_VECTOR)}
    return entry


def _batch_exit_code(tmp_path_factory, entry):
    # the drawn entries include degenerate norms, such as one whose y^T A y
    # underflows or rounds below 0, which fail with NaN and a numpy
    # RuntimeWarning by design; such a warning is recorded here rather than
    # raised, and a battery that raised one must not pass
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps([entry]))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always", RuntimeWarning)
        code = main(["batch", str(path)])
    assert code != 0 or not any(issubclass(w.category, RuntimeWarning)
                                for w in seen)
    return code


@settings(max_examples=150, deadline=None)
@given(_navigation_entry())
def test_navigation_lemma_entries_never_crash(tmp_path_factory, entry):
    assert _batch_exit_code(tmp_path_factory, entry) in (0, 1, 2)


# an entry of _navigation_entry's space whose norm (5e-324) y^2 underflows
# to F(y) = 0 on the drawn y, so scaling y to F(y) = 1 divides by zero
_UNDERFLOWING_NORM_ENTRY = {
    "check": "navigation-lemma", "n": 1, "samples": 1, "lambda": 0.0,
    "norm": {"kind": "euclidean-quadratic-form", "matrix": [[5e-324]]}}


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_navigation_lemma_underflowing_norm_fails_with_nan(tmp_path):
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        rep = run(ExperimentConfig.from_dict(_UNDERFLOWING_NORM_ENTRY))
    # the pair is kept: both of its deviations are NaN, and so is the worst
    assert rep.n_samples == 2 and not rep.passed
    assert math.isnan(rep.max_deviation)
    assert all(math.isnan(lv["spread"]) for lv in rep.per_level)
    path = tmp_path / "entry.json"
    path.write_text(json.dumps([_UNDERFLOWING_NORM_ENTRY]))
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        assert main(["batch", str(path)]) == 1


_SPECTRUM_ENTRY = st.fixed_dictionaries({
    "check": st.just("spectrum"), "n": st.integers(1, 4),
    "function": st.sampled_from(["height", "split-quadratic"]),
    "metric": st.sampled_from(["round", "randers"]),
    "level": st.floats(-1.2, 1.2), "lambda": st.floats(-2.0, 2.0),
    "per_level": st.integers(1, 3)})


@settings(max_examples=60, deadline=None)
@given(_SPECTRUM_ENTRY)
def test_spectrum_entries_never_crash(tmp_path_factory, entry):
    assert _batch_exit_code(tmp_path_factory, entry) in (0, 1, 2)


_LEVEL_SCAN_ENTRY = st.fixed_dictionaries({
    "check": st.sampled_from(["transnormal", "isoparametric"]),
    "n": st.integers(2, 4),
    "function": st.sampled_from(["height", "split-quadratic", "otfkm"]),
    "metric": st.sampled_from(["round", "randers"]),
    "levels": st.lists(st.floats(-1.2, 1.2), min_size=1, max_size=2),
    "per_level": st.integers(1, 3), "seed": st.integers(0, 50)})


@settings(max_examples=20, deadline=None)
@given(_LEVEL_SCAN_ENTRY)
def test_level_scan_entries_never_crash(tmp_path_factory, entry):
    # levels outside the range of f raise EmptyLevel, a failed report
    if entry["function"] == "otfkm":
        entry["clifford"] = {"m": 1, "k": 3}
    assert _batch_exit_code(tmp_path_factory, entry) in (0, 1, 2)


# winds of every spec kind, valid or not, and Clifford systems up to
# 2l = 64, valid or not (m = 0 and k = 0 are configuration errors)
_WIND = st.one_of(
    st.fixed_dictionaries({"kind": st.just("random-skew"),
                           "scale": st.floats(-2.0, 2.0),
                           "seed": st.integers(-1, 5)}),
    st.fixed_dictionaries({"kind": st.sampled_from(["spin", "centralizer"]),
                           "index": st.integers(-1, 3)}),
    st.fixed_dictionaries({"n0": st.integers(0, 2),
                           "lambdas": st.lists(st.floats(-1.5, 1.5),
                                               min_size=1, max_size=2),
                           "sizes": st.lists(st.integers(0, 2),
                                             min_size=1, max_size=2)}))
_CLIFFORD = st.fixed_dictionaries({"m": st.integers(0, 9),
                                   "k": st.integers(0, 2)},
                                  optional={"k2": st.integers(0, 2)})

_FLAG_ENTRY = st.fixed_dictionaries({
    "check": st.just("flag-curvature"), "n": st.integers(1, 4),
    "metric": st.sampled_from(["round", "randers"]),
    "lambda": st.floats(-1.2, 1.2), "samples": st.integers(1, 3),
    "seed": st.integers(0, 50)}, optional={"w_spec": _WIND})


@st.composite
def _tangency_entry(draw):
    entry = draw(st.fixed_dictionaries({
        "check": st.just("tangency"), "n": st.integers(1, 4),
        "function": st.sampled_from(["height", "split-quadratic", "otfkm"]),
        "metric": st.sampled_from(["round", "randers"]),
        "lambda": st.floats(-1.2, 1.2), "samples": st.integers(1, 30),
        "seed": st.integers(0, 50)}, optional={"w_spec": _WIND}))
    if entry["function"] == "otfkm":
        entry["clifford"] = draw(_CLIFFORD)
    return entry


_AUDIT_ENTRY = st.fixed_dictionaries({
    "check": st.just("clifford-audit"), "clifford": _CLIFFORD,
    "seed": st.integers(0, 50)})


@settings(max_examples=40, deadline=None)
@given(_FLAG_ENTRY)
def test_flag_curvature_entries_never_crash(tmp_path_factory, entry):
    assert _batch_exit_code(tmp_path_factory, entry) in (0, 1, 2)


@pytest.mark.filterwarnings("ignore:m2 =:UserWarning")   # m2 < 1 systems
@settings(max_examples=40, deadline=None)
@given(_tangency_entry())
def test_tangency_entries_never_crash(tmp_path_factory, entry):
    assert _batch_exit_code(tmp_path_factory, entry) in (0, 1, 2)


@pytest.mark.filterwarnings("ignore:m2 =:UserWarning")
@settings(max_examples=25, deadline=None)
@given(_AUDIT_ENTRY)
def test_clifford_audit_entries_never_crash(tmp_path_factory, entry):
    assert _batch_exit_code(tmp_path_factory, entry) in (0, 1, 2)


def test_spectrum_on_the_circle_exits_2(capsys):
    # a level of S^1 is a set of points, with no principal curvatures
    argv = ["verify", "spectrum", "--n", "1", "--level", "0.3",
            "--per-level", "3"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "DimensionMismatch"


UNSTABLE_SPECTRUM = {"check": "spectrum", "n": 3, "function": "height",
                     "metric": "randers", "level": -0.9, "lambda": 0.3,
                     "per_level": 3}


def test_numerical_error_fails_its_entry_and_the_battery_runs_on(
        tmp_path, capsys):
    # a valid entry whose clustering is unstable is a failed report, not
    # a configuration error: the next entry runs and --out is written
    path = tmp_path / "battery.json"
    path.write_text(json.dumps([UNSTABLE_SPECTRUM,
                                {"check": "tangency", "n": 3}]))
    assert main(["batch", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == ""
    failed, tangency = json.loads(
        (tmp_path / "out" / "reports.json").read_text())
    assert tangency["check"] == "tangency" and tangency["n_samples"] == 200
    assert list(failed) == list(tangency)
    assert failed["check"] == "spectrum" and failed["pass"] is False
    assert failed["config"]["level"] == -0.9
    assert math.isnan(failed["max_deviation"])
    [entry] = failed["per_level"]
    assert entry["error"] == "ClusterAmbiguity"
    assert "clustering unstable" in entry["message"]
    # an error is not the failure a negative control expects
    path.write_text(json.dumps([UNSTABLE_SPECTRUM | {"expect_fail": True}]))
    assert main(["batch", str(path)]) == 1
    capsys.readouterr()


def test_rank_deficiency_in_an_audit_is_a_failed_report(monkeypatch):
    # the failed report still echoes the m and k read off the system
    monkeypatch.setattr(cli.cl, "_AMBIGUITY_BAND", 5.0)
    rep = run(ExperimentConfig.from_dict(
        {"check": "clifford-audit", "clifford": {"m": 3, "k": 2}}))
    assert not rep.passed and math.isnan(rep.max_deviation)
    assert rep.per_level[0]["error"] == "RankDeficiency"
    assert rep.config == {"check": "clifford-audit", "n": 15, "tol": 1e-10,
                          "seed": 0, "clifford": {"m": 3, "k": 2},
                          "m": 3, "k": 2}


def test_rank_deficiency_in_clifford_audit_exits_1(tmp_path, monkeypatch,
                                                   capsys):
    # a numerical failure, not a configuration error
    monkeypatch.setattr(cli.cl, "_AMBIGUITY_BAND", 5.0)
    path = tmp_path / "sys.json"
    path.write_text(cli.cl.build_clifford(3, 2).to_json())
    assert main(["clifford", "audit", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.strip().splitlines()
    assert json.loads(line)["error"] == "RankDeficiency"


def test_numerical_errors_share_a_base():
    for name in ("EmptyLevel", "ClusterAmbiguity", "RankDeficiency",
                 "CriticalPoint"):
        assert issubclass(getattr(errors, name), errors.NumericalError)
    assert not issubclass(ConfigError, errors.NumericalError)


def test_runs_with_scipy_blocked(tmp_path):
    # numpy is the one runtime dependency: with scipy unimportable, every
    # finslab module imports and the paper suite exits 0
    code = ("import sys; sys.modules['scipy'] = None\n"
            "import importlib, pkgutil, finslab\n"
            "for mod in pkgutil.iter_modules(finslab.__path__):\n"
            "    importlib.import_module('finslab.' + mod.name)\n"
            "from finslab.cli import main\n"
            f"sys.exit(main(['batch', {str(SUITE)!r}]))")
    env = os.environ | {"PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_missing_file_and_bad_build_exit_2(tmp_path, capsys):
    for argv in (["batch", "/no/such.json"],
                 ["clifford", "audit", "/no/such.json"],
                 ["clifford", "build", "--m", "0",
                  "--out", str(tmp_path / "x.json")]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.strip().splitlines()
        assert json.loads(line)["error"] == "ConfigError"
    assert not (tmp_path / "x.json").exists()


def test_oversized_clifford_system_exits_2(tmp_path, capsys):
    # {m: 1, k: 65} asks for 2l = 130 > 128: a ConfigError in every
    # command that builds from {m, k}, before anything is written; in a
    # battery the entry's report holds it
    spec = {"m": 1, "k": 65}
    (tmp_path / "sys.json").write_text(json.dumps(spec))
    (tmp_path / "battery.json").write_text(
        json.dumps([{"check": "clifford-audit", "clifford": spec}]))
    for argv in (["verify", "clifford-audit",
                  "--clifford", str(tmp_path / "sys.json")],
                 ["batch", str(tmp_path / "battery.json")],
                 ["clifford", "build", "--m", "1", "--k", "65",
                  "--out", str(tmp_path / "out.json")],
                 ["clifford", "audit", str(tmp_path / "sys.json")]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        if argv[0] == "batch":
            error = _failed_battery_report(captured)
        else:
            assert captured.out == ""
            [line] = captured.err.strip().splitlines()
            error = json.loads(line)
        assert error["error"] == "ConfigError" and "128" in error["message"]
    assert not (tmp_path / "out.json").exists()


def test_oversized_clifford_system_is_never_built(monkeypatch):
    # the size is checked from {m, k} alone; with 2l = 128 the system
    # is built
    def build(m, k):
        raise AssertionError(f"built m = {m}, k = {k}")

    monkeypatch.setattr(cli.cl, "build_clifford", build)
    for spec in ({"m": 24, "k": 1}, {"m": 1, "k": 200}, {"m": 10**9},
                 {"m": 8, "k1": 5, "k2": 4}, {"m": 8, "k": 1, "k2": 8}):
        with pytest.raises(ConfigError, match="at most 128"):
            cli._clifford_system(spec)
    with pytest.raises(AssertionError, match="m = 1, k = 64"):
        cli._clifford_system({"m": 1, "k": 64})


@pytest.mark.parametrize("spec, name", [
    ({"m": 4, "k1": 2}, "k1"),                     # k1 without k2
    ({"m": 3, "k": 2, "k1": 7}, "k1"),
    ({"m": 4, "k": 5, "k1": 2, "k2": 1}, "k"),     # k is not k1 + k2
    ({"m": 1, "k": 3, "l": 4}, "l"),               # m and k give l = 3
    ({"m": 1, "k": 3, "kk": 5}, "kk"),             # no spec reads kk
])
def test_clifford_spec_key_that_is_not_used_exits_2(tmp_path, capsys, spec,
                                                    name):
    # a key of an {m, k} spec is used or must agree, never dropped
    with pytest.raises(ConfigError, match=f"'{name}'"):
        cli._clifford_system(spec)
    entry = {"check": "clifford-audit", "clifford": spec}
    (tmp_path / "battery.json").write_text(json.dumps([entry]))
    assert main(["batch", str(tmp_path / "battery.json")]) == 2
    error = _failed_battery_report(capsys.readouterr())
    assert error["error"] == "ConfigError" and f"'{name}'" in error["message"]


def test_clifford_spec_keys_that_agree_build_the_system():
    # k beside k1 and k2 is their sum, as a system's JSON writes it, and
    # with k2 alone k is read as k1
    for spec, k12 in (({"m": 4, "k": 2, "k1": 1, "k2": 1}, (1, 1)),
                      ({"m": 4, "k": 2, "k2": 1}, (2, 1)),
                      ({"m": 4, "k1": 1, "k2": 1, "l": 8}, (1, 1))):
        sys_ = cli._clifford_system(spec)
        assert (sys_.k1, sys_.k2) == k12
    assert cli._clifford_system({"m": 1, "k": 3, "l": 3}).k == 3


_SKEW4 = [[0, 0.5, 0, 0], [-0.5, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]


@pytest.mark.parametrize("entry, name", [
    ({"check": "tangency", "w_spec": {"kind": "random-skew", "sead": 3}},
     "sead"),
    ({"check": "flag-curvature", "metric": "randers", "samples": 1,
      "w_spec": {"n0": 2, "lambdas": [0.5], "sizes": [1], "scale": 2.0}},
     "scale"),
    ({"check": "tangency", "w_spec": {"matrix": _SKEW4, "kind": "spin",
                                      "index": 1}}, "kind"),
    ({"check": "navigation-lemma",
      "norm": {"kind": "euclidean-quadratic-form",
               "matrix": np.eye(3).tolist(), "beta": [0.5, 0, 0]}}, "beta"),
])
def test_spec_key_that_is_not_read_exits_2(tmp_path, capsys, entry, name):
    # each shape of a nested spec reads its own keys; any other key is a
    # configuration error that names it, not a value silently dropped (the
    # Clifford case is in test_clifford_spec_key_that_is_not_used_exits_2)
    with pytest.raises(ConfigError, match=f"'{name}' is not read"):
        run(ExperimentConfig.from_dict(entry))
    (tmp_path / "battery.json").write_text(json.dumps([entry]))
    assert main(["batch", str(tmp_path / "battery.json")]) == 2
    error = _failed_battery_report(capsys.readouterr())
    assert error["error"] == "ConfigError" and f"'{name}'" in error["message"]


@pytest.mark.filterwarnings("ignore:m2 =:UserWarning")   # m2 < 1 systems
def test_every_benchmark_spec_reads_all_its_keys(monkeypatch):
    # a round of each benchmark workload, whose nested specs must pass the
    # rule that a spec has no key its shape does not read, gives the
    # outcomes it declares (its dataclass needs its module registered)
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS.values():
        for case in workload(seed=3, tiny=True).round():
            rep = run(ExperimentConfig.from_dict(case.config))
            assert rep.passed == case.expect_pass, case.config


def test_inline_clifford_flag_is_read_as_json(capsys):
    # --clifford takes a file or inline JSON, as --w-spec and --norm do
    assert main(["verify", "clifford-audit",
                 "--clifford", '{"m": 1, "k": 3}']) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] and out["config"]["clifford"] == {"m": 1, "k": 3}
    assert main(["verify", "clifford-audit", "--clifford", "{"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


@pytest.mark.parametrize("function", ["height", "split-quadratic", "otfkm"])
@pytest.mark.parametrize("check", ["transnormal", "isoparametric",
                                   "spectrum"])
def test_focal_level_is_a_failed_empty_level(function, check):
    # c = +-1 are the focal values of every built-in f = cos(g theta): a
    # point found there is critical, so the level has no regular point
    for c in (1.0, -1.0):
        entry = {"check": check, "function": function, "n": 3,
                 "per_level": 4} | (
            {"level": c} if check == "spectrum" else {"levels": [c]})
        if function == "otfkm":
            entry["clifford"] = {"m": 1, "k": 3}
        rep = run(ExperimentConfig.from_dict(entry))
        assert not rep.passed and math.isnan(rep.max_deviation)
        [error] = rep.per_level
        assert error["error"] == "EmptyLevel"
        assert error["message"].startswith(f"no regular point of level {c}")


@pytest.mark.parametrize("level", [0.9999, -0.9999])
def test_near_focal_spectrum_keeps_its_clusters(capsys, level):
    # 1e-4 from a focal value the two curvatures of split-quadratic on S^3
    # are Muenzner's cot(arccos(c) / 2 + j pi / 2), about 141.4178 and
    # -0.00707, and each keeps one value across the sampled points
    assert main(["verify", "spectrum", "--n", "3", "--function",
                 "split-quadratic", "--level", str(level),
                 "--per-level", "4"]) == 0
    rep = json.loads(capsys.readouterr().out)
    expect = sorted(1.0 / np.tan(np.arccos(level) / 2 + np.arange(2)
                                 * np.pi / 2))
    assert [e["multiplicity"] for e in rep["per_level"]] == [1, 1]
    assert np.allclose([e["mean"] for e in rep["per_level"]], expect,
                       rtol=1e-10, atol=0)
    assert rep["max_deviation"] < 1e-9


def test_non_clifford_matrices_exit_2(tmp_path, capsys):
    # P_1 = P_0 does not anticommute: an error, not a centralizer dimension
    D = np.diag([1, 1, -1, -1]).tolist()
    system = {"m": 1, "l": 2, "k": 2, "matrices": [D, D]}
    (tmp_path / "sys.json").write_text(json.dumps(system))
    (tmp_path / "battery.json").write_text(
        json.dumps([{"check": "clifford-audit", "clifford": system}]))
    assert main(["batch", str(tmp_path / "battery.json")]) == 2
    assert _failed_battery_report(capsys.readouterr())["error"] \
        == "NotClifford"
    assert main(["clifford", "audit", str(tmp_path / "sys.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.strip().splitlines()
    assert json.loads(line)["error"] == "NotClifford"


def _audit_runs(tmp_path, capsys, system):
    # (exit code, last stderr line as JSON or None) of `clifford audit
    # FILE` and of a battery with one clifford-audit entry, for one system
    (tmp_path / "sys.json").write_text(json.dumps(system))
    (tmp_path / "battery.json").write_text(
        json.dumps([{"check": "clifford-audit", "clifford": system}]))
    runs = []
    for argv in (["clifford", "audit", str(tmp_path / "sys.json")],
                 ["batch", str(tmp_path / "battery.json")]):
        code = main(argv)
        err = capsys.readouterr().err.strip().splitlines()
        runs.append((code, json.loads(err[-1]) if err else None))
    return runs


@pytest.mark.parametrize("m", [4, 8])
def test_split_system_without_k1_k2_audits_ok(tmp_path, capsys, m):
    # the (1, 1) split is read off the matrices, not taken to be (2, 0);
    # so are m, l and k when the file leaves them out too
    system = json.loads(cli.cl.build_clifford(m, (1, 1)).to_json())
    for keep in (("m", "l", "k", "matrices"), ("matrices",)):
        bare = {key: system[key] for key in keep}
        assert _audit_runs(tmp_path, capsys, bare) == [(0, None), (0, None)]


@pytest.mark.parametrize("name,wrong", [("m", 2), ("l", 4), ("k", 99),
                                        ("k1", 2), ("k2", 0)])
def test_declared_field_that_disagrees_exits_2(tmp_path, capsys, name,
                                               wrong):
    m, k = (4, (1, 1)) if name in ("k1", "k2") else (1, 3)
    system = json.loads(cli.cl.build_clifford(m, k).to_json())
    for code, error in _audit_runs(tmp_path, capsys,
                                   system | {name: wrong}):
        assert code == 2 and error["error"] == "ConfigError"
        assert f"'{name}' is {wrong}" in error["message"]


def test_fewer_than_two_matrices_exit_2(tmp_path, capsys):
    P0 = np.diag([1, 1, -1, -1]).tolist()
    for code, error in _audit_runs(tmp_path, capsys, {"matrices": [P0]}):
        assert code == 2 and error["error"] == "ConfigError"
        assert "at least two" in error["message"]


def test_config_error_names_the_written_key():
    with pytest.raises(ConfigError, match="'lambda'"):
        ExperimentConfig.from_dict({"check": "tangency", "lambda": "0.3"})
    with pytest.raises(ConfigError, match="'expect_fail'"):
        ExperimentConfig.from_dict({"check": "tangency", "expect_fail": 1})
    with pytest.raises(ConfigError, match="'tol'"):
        ExperimentConfig.from_dict({"check": "tangency", "tol": True})
    # an int is accepted where a float is declared
    cfg = ExperimentConfig.from_dict({"check": "spectrum", "level": 1})
    assert cfg.level == 1


_REFUSED = "; NaN and infinities are refused"
_RANDERS_FLAG = {"check": "flag-curvature", "metric": "randers"}
_AUDIT_CLIFFORD = {"check": "clifford-audit"}


@pytest.mark.parametrize("entry,message", [
    # every ExperimentConfig field
    ({"check": 5}, "field 'check' must be str"),
    ({"n": True}, "field 'n' must be int"),
    ({"n": 3.0}, "field 'n' must be int"),
    ({"metric": 1}, "field 'metric' must be str"),
    ({"w_spec": 2}, "field 'w_spec' must be dict | str | None"),
    ({"w_spec": True}, "field 'w_spec' must be dict | str | None"),
    ({"function": 0}, "field 'function' must be str"),
    ({"clifford": [1]}, "field 'clifford' must be dict | str | None"),
    ({"levels": [0.5, math.nan]},
     "field 'levels' must be tuple[float, ...]" + _REFUSED),
    ({"levels": [True]}, "field 'levels' must be tuple[float, ...]"),
    ({"levels": 0.5}, "field 'levels' must be tuple[float, ...]"),
    ({"per_level": False}, "field 'per_level' must be int"),
    ({"samples": True}, "field 'samples' must be int"),
    ({"tol": math.nan}, "field 'tol' must be float | None" + _REFUSED),
    ({"tol": False}, "field 'tol' must be float | None"),
    ({"seed": True}, "field 'seed' must be int"),
    ({"lambda": math.inf}, "field 'lambda' must be float" + _REFUSED),
    ({"lambda": True}, "field 'lambda' must be float"),
    ({"level": -math.inf}, "field 'level' must be float" + _REFUSED),
    ({"expect_g": [2, True]},
     "field 'expect_g' must be tuple[int, ...] | None"),
    ({"expect_g": [2.0]}, "field 'expect_g' must be tuple[int, ...] | None"),
    ({"expect_fail": 1}, "field 'expect_fail' must be bool"),
    ({"norm": 7}, "field 'norm' must be dict | str | None"),
    # typed entries of the w_spec and clifford specs
    (_RANDERS_FLAG | {"w_spec": {"n0": True, "lambdas": [0.5],
                                 "sizes": [1]}},
     "field 'w_spec': 'n0' must be int"),
    (_RANDERS_FLAG | {"w_spec": {"n0": 1, "lambdas": [math.nan],
                                 "sizes": [1]}},
     "field 'w_spec': 'lambdas' must be list[float]" + _REFUSED),
    (_RANDERS_FLAG | {"w_spec": {"n0": 1, "lambdas": [False],
                                 "sizes": [1]}},
     "field 'w_spec': 'lambdas' must be list[float]"),
    (_RANDERS_FLAG | {"w_spec": {"n0": 1, "lambdas": [0.5],
                                 "sizes": [True]}},
     "field 'w_spec': 'sizes' must be list[int]"),
    (_RANDERS_FLAG | {"w_spec": {"kind": 3}},
     "field 'w_spec': 'kind' must be str"),
    (_RANDERS_FLAG | {"w_spec": {"kind": "random-skew", "scale": math.inf}},
     "field 'w_spec': 'scale' must be float" + _REFUSED),
    (_RANDERS_FLAG | {"w_spec": {"kind": "random-skew", "scale": True}},
     "field 'w_spec': 'scale' must be float"),
    (_RANDERS_FLAG | {"w_spec": {"kind": "spin", "index": True}},
     "field 'w_spec': 'index' must be int"),
    (_RANDERS_FLAG | {"w_spec": {"kind": "random-skew", "seed": False}},
     "field 'w_spec': 'seed' must be int"),
    (_AUDIT_CLIFFORD | {"clifford": {"m": True, "k": 1}},
     "field 'clifford': 'm' must be int"),
    (_AUDIT_CLIFFORD | {"clifford": {"m": 1, "l": True}},
     "field 'clifford': 'l' must be int"),
    (_AUDIT_CLIFFORD | {"clifford": {"m": 1, "k": 2.0}},
     "field 'clifford': 'k' must be int"),
    (_AUDIT_CLIFFORD | {"clifford": {"m": 4, "k1": True, "k2": 1}},
     "field 'clifford': 'k1' must be int"),
    (_AUDIT_CLIFFORD | {"clifford": {"m": 4, "k1": 1, "k2": False}},
     "field 'clifford': 'k2' must be int"),
])
def test_wrong_typed_value_messages(entry, message):
    # the exact ConfigError text, from validation or from the runner that
    # reads the nested spec
    with pytest.raises(ConfigError) as exc:
        run(ExperimentConfig.from_dict({"check": "tangency"} | entry))
    assert str(exc.value) == message


def test_main_clifford_build_and_audit(tmp_path, capsys):
    out = tmp_path / "sys.json"
    assert main(["clifford", "build", "--m", "3", "--k", "2",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert data["m"] == 3 and data["k"] == 2 and data["l"] == 8
    assert main(["clifford", "audit", str(out)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ok"] and rep["centralizer_dim"] == 10


def test_main_negative_levels(capsys):
    code = main(["verify", "transnormal", "--function", "height", "--n", "2",
                 "--metric", "round", "--levels", "-0.5,0.5",
                 "--per-level", "4", "--tol", "1e-6"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert [e["level"] for e in rep["per_level"]] == [-0.5, 0.5]


def test_main_spectrum_cli(tmp_path, capsys):
    out = tmp_path / "sys13.json"
    main(["clifford", "build", "--m", "1", "--k", "3", "--out", str(out)])
    capsys.readouterr()
    code = main(["verify", "spectrum", "--function", "otfkm",
                 "--clifford", str(out), "--metric", "round",
                 "--level", "0.3", "--per-level", "4"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert len(rep["per_level"]) == 4


SUITE = ROOT / "demos" / "paper_suite.json"


@pytest.fixture(scope="module")
def paper_suite():
    return batch(str(SUITE))


def test_shipped_paper_suite_passes(paper_suite):
    reports, ok, errors = paper_suite
    assert ok and errors == []
    expected_failures = [r.check for r in reports if not r.passed]
    assert expected_failures == ["tangency", "transnormal"]


# (check, max_deviation, pass) of each paper-suite entry, in suite order,
# as recorded before the shared finite-difference stencil; the spectra as
# recorded when the shape operator became a closed form, which took the
# 1e-10 error of the chart stencil out of their cluster spreads
PAPER_SUITE_PINS = [
    ("flag-curvature", 4.316884516519792e-09, True),
    ("flag-curvature", 3.828899086677495e-09, True),
    ("flag-curvature", 1.700260376935603e-08, True),
    ("navigation-lemma", 3.552713678800501e-15, True),
    ("transnormal", 3.881339694089547e-12, True),
    ("isoparametric", 2.389679565339975e-09, True),
    ("isoparametric", 5.240501366188255e-10, True),
    ("tangency", 7.244809052713609e-16, True),
    ("tangency", 1.281725385413494, False),
    ("spectrum", 1.3766765505351941e-14, True),
    ("spectrum", 3.9968028886505635e-15, True),
    ("spectrum", 2.7755575615628914e-16, True),
    ("clifford-audit", 5.12596635510839e-17, True),
    ("clifford-audit", 2.0105220386345435e-16, True),
    ("clifford-audit", 1.5125090994211418e-16, True),
    ("transnormal", 1.316970181886381, False),
]


def test_paper_suite_deviations_stay_within_10x_of_pins(paper_suite):
    # a change may cost accuracy only within a decade of the pinned run,
    # and must keep every pass flag
    reports, _, _ = paper_suite
    assert len(reports) == len(PAPER_SUITE_PINS)
    for rep, (check, pinned, passed) in zip(reports, PAPER_SUITE_PINS):
        assert (rep.check, rep.passed) == (check, passed)
        assert rep.max_deviation <= 10.0 * pinned, (check, rep.max_deviation)


# delta_m, the dimension of the irreducible module of the Clifford
# algebra C_{m-1}, for the m of the paper suite's systems
_DELTA = {1: 1, 2: 2, 3: 4, 4: 4}


def test_clifford_reports_echo_the_sphere_they_check(paper_suite):
    # an otfkm function or an audit of a system with 2l = 2 k delta_m
    # checks S^{2l-1}, whatever n the entry had
    reports, _, _ = paper_suite
    checked = [r for r in reports if "clifford" in r.config]
    assert len(checked) == 11
    for rep in checked:
        spec = rep.config["clifford"]
        k = spec["k"] if "k" in spec else spec["k1"] + spec["k2"]
        assert rep.config["n"] + 1 == 2 * k * _DELTA[spec["m"]], rep.config


def test_run_stamps_config_and_time(paper_suite):
    # the echoed fields come in declared order with the entry's values
    # (n and a navigation norm are what the runner puts in their place)
    reports, _, _ = paper_suite
    entries = json.loads(SUITE.read_text())["experiments"]
    assert len(reports) == len(entries)
    declared = ["lambda" if name == "lam" else name
                for name in ExperimentConfig.__dataclass_fields__]
    for entry, rep in zip(entries, reports):
        cfg = ExperimentConfig.from_dict(entry)
        echoed = [key for key in rep.config if key in declared]
        assert echoed[:2] == ["check", "n"] and "seed" in echoed
        assert echoed == sorted(echoed, key=declared.index)
        for key in echoed:
            if key not in ("n", "norm"):
                attr = {"lambda": "lam"}.get(key, key)
                assert rep.config[key] == getattr(cfg, attr), key
        assert rep.config["tol"] == cfg.tol
        assert isinstance(rep.wall_time_ms, int) and rep.wall_time_ms >= 0


def test_benchmark_tracer_names_resolve():
    # bench/spans.py patches these names from outside the package; a
    # rename must fail here, not only in the benchmark smoke test
    spec = importlib.util.spec_from_file_location(
        "bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for _, module, attr in spans.SPANS:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{attr}"
    assert "builder" in inspect.signature(MetricField.__init__).parameters
