"""Tests for the package's public surface."""

import json
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
from ccflab.solver import DiagnosticPlan, ModelParams, SolverState, StepControl, nonlinear_term, run, run_batch, step
from ccflab.torus import RealField, TorusGrid, forward, inverse
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


def test_no_route_imports_scipy_and_only_a_paying_sweep_imports_the_pool(tmp_path):
    """run, a one-worker sweep, a two-worker sweep whose work is below what a
    pool costs, report, verify and calibrate load no scipy module and not the
    process pool's: the quadrature's zeta is computed in-house. The process may
    run on two CPUs, so only the pool's cost keeps the two-worker sweep
    in-process."""
    code = (
        "import contextlib, io, json, os, sys\n"
        f"sys.path.insert(0, {str(Path(ccflab.__file__).resolve().parent.parent)!r})\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from ccflab.cli import main\n"
        f"out = {str(tmp_path)!r}\n"
        "heavy = lambda: sorted(m for m in sys.modules\n"
        "                       if m.split('.')[0] == 'scipy' or m == 'concurrent.futures.process')\n"
        "model = ['--gamma', '0.9', '--n', '64', '--t-end', '0.01', '--out-dir', out]\n"
        "gated = ['--gamma', '0.6,0.9', '--n', '64', '--t-end', '0.01', '--jobs', '2', '--out-dir', out + '/gated']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['run', *model]), main(['sweep', *model, '--jobs', '1']), main(['sweep', *gated]),\n"
        "             main(['report', out + '/sweep.jsonl', '--out-dir', out]),\n"
        "             main(['verify', '--n', '64']), main(['calibrate', '--gamma', '0.9', '--n', '64'])]\n"
        "print(json.dumps([codes, heavy()]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout)
    assert codes == [0, 0, 0, 0, 0, 0]
    assert len((tmp_path / "gated" / "sweep.jsonl").read_text().splitlines()) == 2
    assert loaded == []


def test_the_solver_and_the_field_transforms_reach_no_public_transform(monkeypatch):
    """Every forward-normalized transform goes through torus.rfft and
    torus.irfft: run(), run_batch() on two rows, step(), nonlinear_term(),
    forward and inverse never reach np.fft.rfft or np.fft.irfft."""

    def refuse(*args, **kwargs):
        raise AssertionError("public np.fft transform reached")

    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, refuse)
    grid = TorusGrid(64)
    theta0 = RealField(grid, 1.0 + 0.5 * np.cos(grid.points))
    p, c, plan = ModelParams(gamma=0.9, n=64), StepControl(t_end=0.1, snapshot_every=0.05), DiagnosticPlan((0.2,))
    assert run(theta0, p, c, plan).outcome is Outcome.COMPLETED
    rows = [(theta0, p, plan, None), (RealField(grid, 2.0 * theta0.values), ModelParams(gamma=1.2, n=64), plan, None)]
    assert [record.outcome for record in run_batch(rows, c)] == [Outcome.COMPLETED] * 2
    theta_hat = forward(theta0)
    assert np.allclose(inverse(theta_hat).values, theta0.values, rtol=0.0, atol=1e-15)
    assert step(SolverState(t=0.0, theta_hat=theta_hat), p, c).t > 0.0
    assert np.isfinite(nonlinear_term(theta_hat, p).coeffs).all()


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


def test_readme_python_quick_start_runs(capsys):
    """README's Python quick start runs as written, so a public signature that
    changes under it fails here."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("Completed ")
