"""The ten acceptance criteria, one test each, at their stated tolerances.

Every test registers a single PASS/FAIL line (printed in the terminal summary
by the conftest hook) and asserts the criterion, including its runtime
ceiling. Numbers in the brackets are the measured values backing the verdict.
"""

import time

import numpy as np
import pytest

import conftest
from ccflab.experiments import make_datum, von_mises_bump
from ccflab.operators import (
    calibrate_cgamma,
    cordoba_identity_residual,
    dgamma,
    frac_laplacian_quadrature,
    frac_laplacian_spectral,
    hilbert,
)
from ccflab.records import Outcome
from ccflab.regularity import (
    RegularityConstants,
    alpha_policy,
    energy_inequality_probe,
    gamma_one,
    gamma_one_condition,
    holder_seminorm,
    make_schedule,
    t_local_exponents,
    t_star,
)
from ccflab.solver import DiagnosticPlan, ModelParams, SolverState, StepControl, run, step
from ccflab.torus import RealField, TorusGrid, derivative, forward, inverse
from ccflab.verify import random_band_limited


def _criterion(num: int, description: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {description} [{detail}]"
    conftest.record_acceptance(line)
    print(line)
    assert ok, line


def test_criterion_01_operator_identities():
    t0 = time.perf_counter()
    grid = TorusGrid(256)
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        f = random_band_limited(grid, rng)
        F = forward(f)
        lam = inverse(frac_laplacian_spectral(F, 1.0)).values
        hdx = inverse(hilbert(derivative(F))).values
        worst = max(worst, float(np.max(np.abs(lam - hdx))))
        twice = inverse(hilbert(hilbert(F))).values
        worst = max(worst, float(np.max(np.abs(twice + f.values))))
    elapsed = time.perf_counter() - t0
    _criterion(
        1,
        "Lambda^1 = H d/dx and H^2 = -I on 20 random fields, max error < 1e-10",
        worst < 1e-10 and elapsed < 1.0,
        f"max error {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_cordoba_identity():
    t0 = time.perf_counter()
    grid = TorusGrid(256)
    x = grid.points
    fields = [np.cos(x), 1.0 + np.cos(x) + 0.3 * np.cos(3 * x)]
    worst_res, worst_cal, worst_cross = 0.0, 0.0, 0.0
    for gamma in (0.5, 0.7, 0.9):
        cal = calibrate_cgamma(gamma, grid)
        worst_cal = max(worst_cal, cal.residual)
        got = frac_laplacian_quadrature(RealField(grid, np.cos(2 * x)), cal).values
        want = 2.0**gamma * np.cos(2 * x)
        cross = float(np.sqrt(np.mean((got - want) ** 2) / np.mean(want**2)))
        worst_cross = max(worst_cross, cross)
        for values in fields:
            res = cordoba_identity_residual(RealField(grid, values), cal)
            worst_res = max(worst_res, res)
    elapsed = time.perf_counter() - t0
    _criterion(
        2,
        "pointwise product-rule identity residual < 5e-2 after c_gamma calibration",
        worst_res < 5e-2 and worst_cal < 1e-3 and worst_cross < 1e-2 and elapsed < 10.0,
        f"residual {worst_res:.2e}, calibration {worst_cal:.1e}, mode-2 {worst_cross:.1e}, {elapsed:.1f}s",
    )


def test_criterion_03_dgamma_closed_form():
    t0 = time.perf_counter()
    grid = TorusGrid(256)
    x = grid.points
    worst = 0.0
    for gamma in (0.5, 1.0):
        cal = calibrate_cgamma(gamma, grid)
        got = dgamma(RealField(grid, np.cos(x)), cal).values
        want = 1.0 + (1.0 - 2.0 ** (gamma - 1.0)) * np.cos(2 * x)
        worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - t0
    _criterion(
        3,
        "D_gamma(cos) = 1 + (1-2^{gamma-1})cos2x within 1e-2",
        worst < 1e-2 and elapsed < 5.0,
        f"max error {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_04_linear_mode_exactness():
    t0 = time.perf_counter()
    grid = TorusGrid(64)
    worst = 0.0
    for gamma in (0.5, 0.9):
        for mode in (1, 4):
            theta0 = RealField(grid, np.cos(mode * grid.points))
            p = ModelParams(gamma=gamma, n=64, linear_only=True)
            c = StepControl(t_end=1.0, dt_max=0.01)
            state = SolverState(t=0.0, theta_hat=forward(theta0))
            while state.t < 1.0 - 1e-12:
                state = step(state, p, c)
            expected = np.exp(-float(mode) ** gamma) * np.cos(mode * grid.points)
            err = float(np.max(np.abs(inverse(state.theta_hat).values - expected)))
            worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    _criterion(
        4,
        "nonlinear term off: modes decay as e^{-|m|^gamma t} within 1e-8 at t=1",
        worst < 1e-8 and elapsed < 5.0,
        f"max error {worst:.2e}, {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def smooth_runs():
    """1+cos x runs at gamma in {0.6, 0.9}, n=256, t_end=1, shared by 5 and 9."""
    grid = TorusGrid(256)
    theta0 = RealField(grid, 1.0 + np.cos(grid.points))
    out = {}
    for gamma in (0.6, 0.9):
        t0 = time.perf_counter()
        rec = run(
            theta0,
            ModelParams(gamma=gamma, n=256),
            StepControl(t_end=1.0, snapshot_every=0.02),
            plan=DiagnosticPlan((0.2,)),
        )
        out[gamma] = (rec, time.perf_counter() - t0)
    return out


def test_criterion_05_invariant_monitors(smooth_runs):
    elapsed = sum(wall for _, wall in smooth_runs.values())
    ok = True
    details = []
    for gamma, (rec, _) in smooth_runs.items():
        linf0 = rec.samples[0].linf
        max_ok = all(s.linf <= linf0 * (1 + 1e-6) for s in rec.samples)
        pos_ok = all(s.min_value >= -1e-6 * linf0 for s in rec.samples)
        l2_ok = all(
            b.l2 <= a.l2 * (1 + 1e-8) for a, b in zip(rec.samples, rec.samples[1:])
        )
        t = np.array([s.t for s in rec.samples])
        integral = 2 * np.pi * np.array([s.mean for s in rec.samples])
        rhs = -np.array([s.hdot_half**2 for s in rec.samples])
        fd = np.gradient(integral, t, edge_order=2)
        mean_rel = float(np.max(np.abs(fd[1:-1] - rhs[1:-1]) / np.abs(rhs[1:-1])))
        ok = ok and rec.outcome is Outcome.COMPLETED and max_ok and pos_ok and l2_ok
        ok = ok and mean_rel < 1e-3
        details.append(f"gamma={gamma}: mean-identity {mean_rel:.1e}")
    ok = ok and elapsed < 60.0
    _criterion(
        5,
        "max principle, positivity, L2 monotonicity, mean identity on full runs",
        ok,
        "; ".join(details) + f", {elapsed:.1f}s",
    )


def test_criterion_06_formula_calculators():
    t0 = time.perf_counter()
    exact_t_star = t_star(0.8, 0.4, 2.0) == 0.2048
    xi_ok = True
    sched = make_schedule(0.5, 0.5, 1.0)
    for t in np.linspace(0.0, 0.5, 26):
        xi_ok = xi_ok and abs(sched.xi_at(float(t)) - (0.5 - t) ** 2) < 1e-14
    xi_ok = xi_ok and sched.xi_at(0.7) == 0.0
    xi_ok = xi_ok and sched.xi_at(t_star(0.5, 0.5, 1.0)) == 0.0
    ode_ok = True
    h = 1e-6
    for t in (0.1, 0.25, 0.4):
        fd = (sched.xi_at(t + h) - sched.xi_at(t - h)) / (2 * h)
        xi = sched.xi_at(t)
        expected = -(xi**0.5) / 0.5
        ode_ok = ode_ok and abs(fd - expected) <= 1e-6 * abs(expected)
    e1, e2 = t_local_exponents(0.5)
    exps_ok = e1 == 10 / 33 and e2 == 53 / 33
    elapsed = time.perf_counter() - t0
    _criterion(
        6,
        "t_star = 0.2048 exactly, xi(t) = (1/2-t)^2 with its ODE, exponents 10/33 and 53/33",
        exact_t_star and xi_ok and ode_ok and exps_ok and elapsed < 1.0,
        f"t_star exact={exact_t_star}, ode ok={ode_ok}, {elapsed:.2f}s",
    )


def test_criterion_07_gamma_one_finder():
    t0 = time.perf_counter()
    grid = tuple(np.linspace(0.5, 0.999, 500))
    at_unit = gamma_one(1.0, gamma_grid=grid)
    min_ok = at_unit == grid[0]
    found = [gamma_one(r, gamma_grid=grid) for r in (1.0, 10.0, 100.0)]
    mono_ok = all(v is not None for v in found) and found[0] <= found[1] <= found[2]
    k = RegularityConstants()
    bracket_ok = True
    for r, got in zip((1.0, 10.0, 100.0), found):
        bracket_ok = bracket_ok and gamma_one_condition(got, r, k)
        idx = grid.index(got)
        if idx > 0:
            bracket_ok = bracket_ok and not gamma_one_condition(grid[idx - 1], r, k)
    elapsed = time.perf_counter() - t0
    _criterion(
        7,
        "gamma_1: grid minimum at R=1, non-decreasing in R, bracketing holds",
        min_ok and mono_ok and bracket_ok and elapsed < 1.0,
        f"gamma_1(1,10,100) = {tuple(round(v, 4) for v in found)}, {elapsed:.2f}s",
    )


def test_criterion_08_holder_estimator():
    t0 = time.perf_counter()
    grid = TorusGrid(512)
    f = RealField(grid, np.cos(grid.points))
    est_one = holder_seminorm(f, 1.0)
    est_half = holder_seminorm(f, 0.5)

    # independent oracle: brute force over a fine 1D separation grid, using
    # max_x |cos(x+d)-cos(x)| = 2 sin(d/2)
    d = np.linspace(1e-6, np.pi, 2_000_001)
    oracle_one = float(np.max(2 * np.sin(d / 2) / d))
    oracle_half = float(np.max(2 * np.sin(d / 2) / np.sqrt(d)))

    ok = (
        abs(est_one - 1.0) < 2e-2
        and abs(est_half - 1.204) < 2e-2
        and abs(est_one - oracle_one) < 2e-2
        and abs(est_half - oracle_half) < 2e-2
    )
    elapsed = time.perf_counter() - t0
    _criterion(
        8,
        "[cos]_{C^1} = 1 and [cos]_{C^{1/2}} = 1.204 within 2e-2, oracle-checked",
        ok and elapsed < 10.0,
        f"C^1 {est_one:.6f} (oracle {oracle_one:.6f}), "
        f"C^0.5 {est_half:.6f} (oracle {oracle_half:.6f}), {elapsed:.1f}s",
    )


def test_criterion_09_empirical_smoothness(smooth_runs):
    t0 = time.perf_counter()
    rec, base_wall = smooth_runs[0.9]
    probe = energy_inequality_probe(rec)
    t_end = max(2.0 * probe.t1_fitted if probe.t1_fitted is not None else 0.0, 1.0)
    if t_end != 1.0:
        grid = TorusGrid(256)
        theta0 = RealField(grid, 1.0 + np.cos(grid.points))
        rec = run(
            theta0,
            ModelParams(gamma=0.9, n=256),
            StepControl(t_end=t_end, snapshot_every=0.02),
            plan=DiagnosticPlan((0.2,)),
        )
    completed = rec.outcome is Outcome.COMPLETED
    tail_ok = all(s.tail_fraction < 1e-4 for s in rec.samples)
    ts = t_star(0.9, alpha_policy(0.9), rec.samples[0].linf)
    running_min = np.inf
    holder_ok = True
    for s in rec.samples:
        if s.t < ts:
            continue
        value = s.holder[0.2]
        running_min = min(running_min, value)
        holder_ok = holder_ok and value <= 3.0 * running_min
    elapsed = base_wall + (time.perf_counter() - t0)
    _criterion(
        9,
        "gamma=0.9 run completes resolved; C^0.2 series bounded after T*",
        completed and tail_ok and holder_ok and elapsed < 120.0,
        f"fitted C {probe.fitted_c:.4f}, t_end {t_end:g}, T* {ts:.2e}, {elapsed:.1f}s",
    )


def test_criterion_10_inviscid_stress_test():
    t0 = time.perf_counter()
    grid = TorusGrid(256)
    theta0 = make_datum(von_mises_bump(5.0), grid)
    # dealiasing is regularization: it suppresses exactly the gradient growth
    # this criterion watches for, so the stress run disables it
    p = ModelParams(gamma=1.0, n=256, dissipation_on=False, dealias_on=False)
    c = StepControl(t_end=10.0, snapshot_every=0.5)
    rec = run(theta0, p, c, datum={"kind": "von_mises_bump", "kappa": 5.0})
    fired = rec.outcome in (Outcome.BLOWUP_SUSPECTED, Outcome.UNDER_RESOLVED)
    before_end = rec.samples[-1].t < 10.0
    grad_ratio = rec.samples[-1].grad_linf / rec.samples[0].grad_linf
    elapsed = time.perf_counter() - t0
    _criterion(
        10,
        "inviscid bump: detector fires before t_end with >= 10x gradient growth",
        fired and before_end and grad_ratio >= 10.0 and elapsed < 60.0,
        f"outcome {rec.outcome.value} at t={rec.samples[-1].t:g}, "
        f"gradient x{grad_ratio:.1f}, {elapsed:.1f}s",
    )
