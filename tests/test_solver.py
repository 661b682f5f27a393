"""Tests for the time integrator: parameter validation, the nonlinear term,
linear exactness, detectors, monitors, and temporal convergence."""

import numpy as np
import pytest

from ccflab import solver
from ccflab.experiments import custom_datum
from ccflab.records import Outcome, record_to_dict
from ccflab.solver import (
    DiagnosticPlan,
    ModelParams,
    SolverState,
    StepControl,
    _take_sample,
    nonlinear_term,
    run,
    step,
)
from ccflab.torus import RealField, SpectralField, TorusGrid, forward, inverse


class TestParamValidation:
    def test_gamma_range(self):
        with pytest.raises(ValueError, match="gamma"):
            ModelParams(gamma=0.0, n=64)
        with pytest.raises(ValueError, match="gamma"):
            ModelParams(gamma=2.1, n=64)
        ModelParams(gamma=2.0, n=64)  # closed right endpoint is legal

    def test_n_must_be_even_and_at_least_32(self):
        with pytest.raises(ValueError, match="n must be"):
            ModelParams(gamma=1.0, n=31)
        with pytest.raises(ValueError, match="n must be"):
            ModelParams(gamma=1.0, n=16)

    def test_step_control_ranges(self):
        with pytest.raises(ValueError, match="cfl"):
            StepControl(t_end=1.0, cfl=0.0)
        with pytest.raises(ValueError, match="t_end"):
            StepControl(t_end=0.0)
        with pytest.raises(ValueError, match="snapshot_every"):
            StepControl(t_end=1.0, snapshot_every=2.0)

    @pytest.mark.parametrize("key", ["t_end", "dt_max"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")], ids=["inf", "nan"])
    def test_step_control_rejects_a_non_finite_time(self, key, value):
        """An infinite t_end would step forever, and an infinite dt_max would be
        written to the record as the non-JSON token Infinity."""
        with pytest.raises(ValueError, match=f"{key} must be positive and finite, got {value}"):
            StepControl(**{"t_end": 1.0, key: value})

    def test_diagnostic_plan_alpha_range(self):
        with pytest.raises(ValueError, match="alpha"):
            DiagnosticPlan(holder_alphas=(1.5,))


class TestNonlinearTerm:
    def test_constant_state_gives_zero(self):
        grid = TorusGrid(64)
        F = forward(RealField(grid, np.full(64, 2.0)))
        out = nonlinear_term(F, ModelParams(gamma=1.0, n=64))
        assert np.max(np.abs(out.coeffs)) < 1e-15

    def test_cos_hand_product(self):
        """H(cos) = sin, (cos)' = -sin: product -sin^2 = -1/2 + cos(2x)/2."""
        grid = TorusGrid(64)
        F = forward(RealField(grid, np.cos(grid.points)))
        out = nonlinear_term(F, ModelParams(gamma=1.0, n=64))
        assert out.coeff(0) == pytest.approx(-0.5, abs=1e-10)
        assert out.coeff(2) == pytest.approx(0.25, abs=1e-10)
        assert out.coeff(-2) == pytest.approx(0.25, abs=1e-10)
        others = [m for m in range(-5, 6) if m not in (0, 2, -2)]
        for m in others:
            assert abs(out.coeff(m)) < 1e-10

    def test_dealias_strips_high_modes(self):
        grid = TorusGrid(96)
        rng = np.random.default_rng(3)
        F = forward(RealField(grid, rng.standard_normal(96)))
        out = nonlinear_term(F, ModelParams(gamma=1.0, n=96, dealias_on=True))
        m = grid.modes
        assert np.all(np.abs(out.coeffs[np.abs(m) > 96 // 3]) == 0)

    @pytest.mark.parametrize("dealias_on", [True, False])
    @pytest.mark.parametrize("n", [64, 96, 4096])
    def test_matches_a_full_spectrum_oracle(self, n, dealias_on):
        """The half-spectrum kernel against the first n//2+1 entries of
        H(theta)*theta_x made here with full-length complex transforms and
        symbols built from the signed wavenumbers."""
        grid = TorusGrid(n)
        theta = np.random.default_rng(n).standard_normal(n)
        F = forward(RealField(grid, theta))
        m = np.fft.fftfreq(n, d=1.0 / n)
        odd = m != -n // 2  # odd symbols vanish on the Nyquist slot
        keep = np.abs(m) <= n // 3 if dealias_on else np.ones(n, dtype=bool)
        c = np.where(keep, np.fft.fft(theta, norm="forward"), 0.0)
        velocity = np.fft.ifft(np.where(odd, -1j * np.sign(m), 0.0) * c, norm="forward").real
        gradient = np.fft.ifft(np.where(odd, 1j * m, 0.0) * c, norm="forward").real
        want = np.where(keep, np.fft.fft(velocity * gradient, norm="forward"), 0.0)[: n // 2 + 1]

        out = nonlinear_term(F, ModelParams(gamma=1.0, n=n, dealias_on=dealias_on))

        assert out.coeffs.shape == want.shape
        assert np.max(np.abs(out.coeffs - want)) <= 1e-14 * np.max(np.abs(want))
        SpectralField(grid, out.coeffs)  # the Hermitian check of a fresh field
        if dealias_on:
            assert np.all(out.coeffs[~keep[: n // 2 + 1]] == 0)

    def test_linear_only_hook_nulls_the_term(self):
        grid = TorusGrid(64)
        F = forward(RealField(grid, np.cos(grid.points)))
        out = nonlinear_term(F, ModelParams(gamma=1.0, n=64, linear_only=True))
        assert np.max(np.abs(out.coeffs)) == 0.0


def _integrate_to(theta0, p, c):
    state = SolverState(t=0.0, theta_hat=forward(theta0))
    while state.t < c.t_end - 1e-12:
        state = step(state, p, c)
    return state


class TestStep:
    @pytest.mark.parametrize("gamma", [0.5, 0.9, 1.5])
    def test_linear_decay_exact_mode_one(self, gamma):
        grid = TorusGrid(64)
        theta0 = RealField(grid, np.cos(grid.points))
        p = ModelParams(gamma=gamma, n=64, linear_only=True)
        c = StepControl(t_end=1.0, dt_max=0.01)
        state = _integrate_to(theta0, p, c)
        expected = np.exp(-1.0) * np.cos(grid.points)
        got = inverse(state.theta_hat).values
        assert np.max(np.abs(got - expected)) < 1e-8

    def test_linear_decay_mode_four_sqrt_rate(self):
        """gamma = 1/2: |4|^{1/2} = 2, so cos 4x decays as e^{-2t}."""
        grid = TorusGrid(64)
        theta0 = RealField(grid, np.cos(4 * grid.points))
        p = ModelParams(gamma=0.5, n=64, linear_only=True)
        c = StepControl(t_end=1.0, dt_max=0.01)
        state = _integrate_to(theta0, p, c)
        expected = np.exp(-2.0) * np.cos(4 * grid.points)
        assert np.max(np.abs(inverse(state.theta_hat).values - expected)) < 1e-8

    def test_zero_data_stays_zero(self):
        grid = TorusGrid(64)
        p = ModelParams(gamma=0.9, n=64)
        c = StepControl(t_end=0.3, dt_max=0.01)
        state = _integrate_to(RealField(grid, np.zeros(64)), p, c)
        assert np.max(np.abs(state.theta_hat.coeffs)) == 0.0

    def test_time_and_count_advance(self):
        grid = TorusGrid(64)
        theta0 = RealField(grid, 1.0 + np.cos(grid.points))
        s0 = SolverState(t=0.0, theta_hat=forward(theta0))
        s1 = step(s0, ModelParams(gamma=0.9, n=64), StepControl(t_end=1.0, dt_max=0.01))
        assert s1.t > s0.t

    @pytest.mark.parametrize("n", [96, 128, 192])
    def test_chained_steps_reproduce_the_run(self, n):
        """step() and run() advance the same theta_hat through the same code:
        chaining step() to t_end gives run()'s final sample bit for bit, also
        at grid sizes that are not powers of two."""
        grid = TorusGrid(n)
        theta0 = RealField(grid, 1.0 + np.cos(grid.points))
        p = ModelParams(gamma=0.7, n=n)
        c = StepControl(t_end=0.2, snapshot_every=0.2)
        rec = run(theta0, p, c)
        s = SolverState(t=0.0, theta_hat=forward(theta0))
        while s.t < c.t_end - 1e-12:
            s = step(s, p, c)
        final = _take_sample(s.theta_hat, s.t, p.gamma, DiagnosticPlan())
        assert len(rec.samples) == 2
        assert final == rec.samples[-1]

    def test_chained_steps_build_one_kernel(self):
        """run(), step() and nonlinear_term() share the kernel of one (grid,
        params) pair, so a chain of public steps builds its symbols once."""
        grid = TorusGrid(64)
        p = ModelParams(gamma=0.9, n=64)
        c = StepControl(t_end=1.0)
        s = SolverState(t=0.0, theta_hat=forward(RealField(grid, 1.0 + np.cos(grid.points))))
        solver._kernel.cache_clear()
        for _ in range(5):
            s = step(s, p, c)
        nonlinear_term(s.theta_hat, p)
        run(inverse(s.theta_hat), p, StepControl(t_end=0.02))
        assert solver._kernel.cache_info().misses == 1

    def test_step_never_overshoots_the_limit(self):
        grid = TorusGrid(64)
        theta0 = RealField(grid, 1.0 + np.cos(grid.points))
        s = SolverState(t=0.0, theta_hat=forward(theta0))
        c = StepControl(t_end=1.0, dt_max=0.4)
        s = step(s, ModelParams(gamma=0.9, n=64), c, t_limit=0.005)
        assert s.t <= 0.005 + 1e-15


class TestTemporalConvergence:
    def test_fourth_order_in_dt(self):
        """Halving dt_max should shrink the error against a dt/8 reference by
        about 2^4; the scheme's nominal order within 20%."""
        grid = TorusGrid(64)
        theta0 = RealField(grid, 1.0 + np.cos(grid.points))
        p = ModelParams(gamma=0.9, n=64)

        def final(dt):
            c = StepControl(t_end=0.5, dt_max=dt)
            return inverse(_integrate_to(theta0, p, c).theta_hat).values

        ref = final(0.0025)
        e_coarse = np.max(np.abs(final(0.02) - ref))
        e_fine = np.max(np.abs(final(0.01) - ref))
        ratio = e_coarse / e_fine
        assert 16.0 * 0.8 < ratio < 16.0 * 1.2


class TestRun:
    def test_smooth_run_completes_with_max_principle(self):
        grid = TorusGrid(256)
        theta0 = RealField(grid, 1.0 + np.cos(grid.points))
        rec = run(theta0, ModelParams(gamma=0.9, n=256), StepControl(t_end=1.0, snapshot_every=0.02))
        assert rec.outcome is Outcome.COMPLETED
        assert all(s.linf <= 2.0 * (1 + 1e-6) for s in rec.samples)
        assert rec.samples[0].t == 0.0
        assert rec.samples[-1].t == pytest.approx(1.0, abs=1e-12)

    def test_zero_datum_yields_zero_record(self):
        grid = TorusGrid(64)
        rec = run(RealField(grid, np.zeros(64)), ModelParams(gamma=0.9, n=64), StepControl(t_end=0.2))
        assert rec.outcome is Outcome.COMPLETED
        assert all(s.l2 == 0.0 and s.linf == 0.0 for s in rec.samples)
        assert rec.t_star_predicted is None
        assert rec.t_local_predicted is None

    def test_inviscid_bump_triggers_a_detector(self):
        grid = TorusGrid(256)
        theta0 = RealField(grid, np.exp(5 * (np.cos(grid.points) - 1)))
        p = ModelParams(gamma=1.0, n=256, dissipation_on=False, dealias_on=False)
        rec = run(theta0, p, StepControl(t_end=10.0, snapshot_every=0.5))
        assert rec.outcome in (Outcome.BLOWUP_SUSPECTED, Outcome.UNDER_RESOLVED)
        assert rec.samples[-1].t < 10.0  # stopped early
        assert rec.outcome_detail != ""

    def test_runs_are_bit_deterministic(self):
        grid = TorusGrid(128)
        theta0 = RealField(grid, 1.0 + np.cos(grid.points))
        p = ModelParams(gamma=0.7, n=128)
        c = StepControl(t_end=0.3, snapshot_every=0.1)
        a = record_to_dict(run(theta0, p, c, plan=DiagnosticPlan((0.5,))))
        b = record_to_dict(run(theta0, p, c, plan=DiagnosticPlan((0.5,))))
        a.pop("wall_time")
        b.pop("wall_time")
        assert a == b

    def test_snapshot_cadence_and_grid_mismatch(self):
        grid = TorusGrid(64)
        theta0 = RealField(grid, 1.0 + np.cos(grid.points))
        rec = run(theta0, ModelParams(gamma=0.9, n=64), StepControl(t_end=0.2, snapshot_every=0.05))
        times = [s.t for s in rec.samples]
        assert times == pytest.approx([0.0, 0.05, 0.1, 0.15, 0.2], abs=1e-12)
        with pytest.raises(ValueError, match="n mismatch"):
            run(theta0, ModelParams(gamma=0.9, n=128), StepControl(t_end=0.2))

    @pytest.mark.parametrize(
        "call",
        [
            lambda F, p: step(SolverState(t=0.0, theta_hat=F), p, StepControl(t_end=0.1)),
            lambda F, p: nonlinear_term(F, p),
        ],
        ids=["step", "nonlinear_term"],
    )
    def test_step_and_nonlinear_term_reject_a_grid_mismatch(self, call):
        """The check run() makes guards every entry that builds a kernel."""
        F = forward(RealField(TorusGrid(64), np.ones(64)))
        with pytest.raises(ValueError, match="n mismatch: field has n=64, params n=128"):
            call(F, ModelParams(gamma=0.9, n=128))

    def test_a_run_without_a_datum_records_its_field(self):
        """Without a datum block the config holds the samples, so two fields
        never share a config hash."""
        grid = TorusGrid(64)
        values = [1.0 + b * np.cos(grid.points) for b in (0.5, 0.9)]
        p, c = ModelParams(gamma=0.9, n=64), StepControl(t_end=0.05)
        first, second = (run(RealField(grid, v), p, c) for v in values)
        assert first.config["datum"] == custom_datum(values[0]).to_config()
        assert first.config_hash != second.config_hash

    def test_predictions_present_for_supercritical_dissipative_runs(self):
        grid = TorusGrid(64)
        theta0 = RealField(grid, 1.0 + np.cos(grid.points))
        rec = run(theta0, ModelParams(gamma=0.9, n=64), StepControl(t_end=0.1))
        assert rec.t_star_predicted == pytest.approx(5.8254222222222e-05, rel=1e-12)
        assert rec.t_local_predicted is not None
        inviscid = run(
            theta0,
            ModelParams(gamma=0.9, n=64, dissipation_on=False),
            StepControl(t_end=0.1),
        )
        assert inviscid.t_star_predicted is None


class TestMonitors:
    @pytest.mark.parametrize("gamma", [0.6, 0.9])
    def test_invariants_on_smooth_runs(self, gamma):
        grid = TorusGrid(256)
        theta0 = RealField(grid, 1.0 + np.cos(grid.points))
        rec = run(
            theta0, ModelParams(gamma=gamma, n=256), StepControl(t_end=1.0, snapshot_every=0.02)
        )
        assert rec.outcome is Outcome.COMPLETED
        linf0 = rec.samples[0].linf
        for s in rec.samples:
            assert s.linf <= linf0 * (1 + 1e-6)
            assert s.min_value >= -1e-6 * linf0
        for a, b in zip(rec.samples, rec.samples[1:]):
            assert b.l2 <= a.l2 * (1 + 1e-8)

    def test_mean_identity_by_centered_differences(self):
        """d/dt integral(theta) = -||Lambda^{1/2} theta||^2, from skew-adjointness
        of H and Lambda = H d/dx; the dissipation integrates to zero."""
        grid = TorusGrid(256)
        theta0 = RealField(grid, 1.0 + np.cos(grid.points))
        rec = run(
            theta0, ModelParams(gamma=0.9, n=256), StepControl(t_end=1.0, snapshot_every=0.02)
        )
        t = np.array([s.t for s in rec.samples])
        integral = 2 * np.pi * np.array([s.mean for s in rec.samples])
        rhs = -np.array([s.hdot_half**2 for s in rec.samples])
        fd = np.gradient(integral, t, edge_order=2)
        interior = slice(1, -1)
        rel = np.max(np.abs(fd[interior] - rhs[interior]) / np.abs(rhs[interior]))
        assert rel < 1e-3
