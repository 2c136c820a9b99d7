"""The demo scripts run to the end against the current API."""

import runpy
import warnings
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["01_minkowski_and_navigation.py",
                                  "02_randers_sphere_curvature.py",
                                  "03_otfkm_isoparametric.py",
                                  "04_symmetry_algebras.py",
                                  "05_normal_geodesics_and_spectra.py"])
def test_demo_runs(name, capsys):
    # a demo may install warning filters; keep them out of later tests
    with warnings.catch_warnings():
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
