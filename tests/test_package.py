"""Tests for the package's public surface."""

import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import ccflab
import ccflab.operators
from ccflab.operators import calibrate_cgamma
from ccflab.records import Outcome
from ccflab.solver import DiagnosticPlan, ModelParams, StepControl, run
from ccflab.torus import RealField, TorusGrid
from ccflab.verify import verify_suite


@pytest.mark.parametrize("module", [ccflab, ccflab.operators], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_report_is_the_module():
    assert isinstance(ccflab.report, types.ModuleType)
    assert callable(ccflab.report.build_summary)
    assert "report" not in ccflab.__all__


def test_records_loads_no_other_ccflab_module():
    """records reads and writes what every layer produces, so it depends on none
    of them. The package is registered bare, so its __init__ imports nothing."""
    src = Path(ccflab.__file__).resolve().parent
    code = (
        "import sys, types\n"
        "pkg = types.ModuleType('ccflab')\n"
        f"pkg.__path__ = [{str(src)!r}]\n"
        "sys.modules['ccflab'] = pkg\n"
        "import ccflab.records\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'ccflab'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['ccflab', 'ccflab.records']"


def test_no_full_spectrum_transform_is_reached(monkeypatch):
    """Every coefficient array is the rfft half spectrum, the quadrature's
    half-cell shift included: verify, calibration and a run never reach the
    full-spectrum fft, ifft or fftfreq."""

    def refuse(*args, **kwargs):
        raise AssertionError("full-spectrum transform reached")

    for name in ("fft", "ifft", "fftfreq"):
        monkeypatch.setattr(np.fft, name, refuse)
    assert all(row.passed for row in verify_suite(n=64))
    calibrate_cgamma(0.9, TorusGrid(256))
    grid = TorusGrid(64)
    rec = run(
        RealField(grid, 1.0 + 0.5 * np.cos(grid.points)),
        ModelParams(gamma=0.9, n=64),
        StepControl(t_end=0.1, snapshot_every=0.05),
        DiagnosticPlan(holder_alphas=(0.2,)),
    )
    assert rec.outcome is Outcome.COMPLETED
