"""Tests for the time integrator: parameter validation, the nonlinear term,
linear exactness, detectors, monitors, and temporal convergence."""

import dataclasses
import json
import warnings

import numpy as np
import pytest

from ccflab import solver
from ccflab.experiments import cosine_positive, custom_datum, make_datum, von_mises_bump
from ccflab.records import SCALAR_FIELDS, DiagnosticsSample, Outcome, config_hash, record_to_dict, record_to_json
from ccflab.regularity import (
    RegularityConstants,
    alpha_policy,
    holder_seminorm,
    sobolev_norm,
    t_star,
)
from ccflab.solver import (
    DiagnosticPlan,
    ModelParams,
    SolverState,
    StepControl,
    _take_sample,
    build_config,
    nonlinear_term,
    run,
    step,
)
from ccflab.torus import (
    RealField,
    SpectralField,
    TorusGrid,
    derivative,
    forward,
    inverse,
    tail_fraction,
)


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

    def test_a_numpy_integer_n_is_stored_as_int(self):
        assert type(ModelParams(gamma=1.0, n=np.int64(64)).n) is int

    def test_step_control_ranges(self):
        with pytest.raises(ValueError, match="cfl"):
            StepControl(t_end=1.0, cfl=0.0)
        with pytest.raises(ValueError, match="t_end"):
            StepControl(t_end=0.0)
        with pytest.raises(ValueError, match="snapshot_every"):
            StepControl(t_end=1.0, snapshot_every=2.0)

    @pytest.mark.parametrize("t_end, snapshot_every", [(1e-11, 1e-13), (1.0, solver.DT_FLOOR)])
    def test_step_control_rejects_snapshots_below_the_time_floor(self, t_end, snapshot_every):
        """Steps below DT_FLOOR are not taken, so such a cadence would record
        snapshots at t = 0 and call the run Completed."""
        with pytest.raises(ValueError, match=rf"^snapshot_every must be in \(1e-12, t_end\], got {snapshot_every}$"):
            StepControl(t_end=t_end, snapshot_every=snapshot_every)
        StepControl(t_end=1e-11, snapshot_every=2e-12)

    @pytest.mark.parametrize("t_end, snapshot_every", [(5e-13, 5e-13), (1e-13, None), (solver.DT_FLOOR, None)])
    def test_step_control_rejects_a_t_end_at_or_below_the_time_floor(self, t_end, snapshot_every):
        """The error names t_end, the field below the solver's time resolution,
        not the cadence the caller may never have set."""
        with pytest.raises(ValueError, match=rf"^t_end must exceed the time floor 1e-12, got {t_end}$"):
            StepControl(t_end=t_end, snapshot_every=snapshot_every)

    @pytest.mark.parametrize("key", ["t_end", "dt_max"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")], ids=["inf", "nan"])
    def test_step_control_rejects_a_non_finite_time(self, key, value):
        """An infinite t_end would step forever, and an infinite dt_max would be
        written to the record as the non-JSON token Infinity."""
        with pytest.raises(ValueError, match=f"{key} must be positive and finite, got {value}"):
            StepControl(**{"t_end": 1.0, key: value})

    def test_the_default_cadence_is_capped_at_t_end(self):
        """A short run needs no cadence of its own; a run of 1.0 keeps 0.02,
        and so its config and hash."""
        assert StepControl(t_end=0.01).snapshot_every == 0.01
        c = StepControl(t_end=1.0)
        assert c.snapshot_every == 0.02
        p, k, plan = ModelParams(gamma=0.9, n=64), RegularityConstants(), DiagnosticPlan()
        config = build_config(p, c, k, {"kind": "cosine", "a": 1.0, "b": 1.0}, plan)
        assert config["control"] == {"t_end": 1.0, "dt_max": 0.01, "cfl": 0.4, "snapshot_every": 0.02}
        explicit = build_config(p, StepControl(t_end=1.0, snapshot_every=0.02), k, config["datum"], plan)
        assert config_hash(config) == config_hash(explicit)

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
        assert out.coeffs[0] == pytest.approx(-0.5, abs=1e-10)
        assert out.coeffs[2] == pytest.approx(0.25, abs=1e-10)
        for m in (1, 3, 4, 5):
            assert abs(out.coeffs[m]) < 1e-10

    def test_dealias_strips_high_modes(self):
        grid = TorusGrid(96)
        rng = np.random.default_rng(3)
        F = forward(RealField(grid, rng.standard_normal(96)))
        out = nonlinear_term(F, ModelParams(gamma=1.0, n=96, dealias_on=True))
        assert np.all(np.abs(out.coeffs[grid.abs_modes > 96 // 3]) == 0)

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
        final = _sample(s.theta_hat, s.t, p.gamma, DiagnosticPlan())
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

    def test_a_nan_limit_is_a_value_error(self):
        """min() would drop a NaN limit and take a full dt_max step."""
        grid = TorusGrid(64)
        s = SolverState(t=0.0, theta_hat=forward(RealField(grid, 1.0 + np.cos(grid.points))))
        with pytest.raises(ValueError, match="t_limit"):
            step(s, ModelParams(gamma=0.9, n=64), StepControl(t_end=1.0), t_limit=float("nan"))


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


class TestSpatialConvergence:
    @pytest.mark.parametrize(
        "datum, gamma, ladder",
        [
            (von_mises_bump(5.0), 0.6, (48, 64, 96, 128, 256)),
            (cosine_positive(3.0, 3.0), 1.5, (32, 48, 64, 96)),
        ],
        ids=["von_mises_5", "cosine_3_3"],
    )
    def test_full_runs_converge_spectrally_in_n(self, datum, gamma, ladder):
        """The relative Hdot^{3/2} error at t = 0.5 against an n = 1024 run
        falls at least 5x per step in n until it is below 1e-12 (measured:
        von Mises 4.0e-4 at n = 48 to 3.2e-15 at 256; the cosine 2.8e-6 at 32
        to 8.9e-13 at 96). At n = 32 the von Mises run stops as
        BlowupSuspected before t_end, so its ladder starts at 48."""
        c = StepControl(t_end=0.5, dt_max=1e-3)

        def final_hdot32(n):
            rec = run(make_datum(datum, TorusGrid(n)), ModelParams(gamma=gamma, n=n), c)
            assert rec.outcome is Outcome.COMPLETED, (n, rec.outcome_detail)
            assert rec.samples.t[-1] == 0.5
            return rec.samples.hdot_three_half[-1]

        ref = final_hdot32(1024)
        errors = [abs(final_hdot32(n) - ref) / ref for n in ladder]
        for n, coarse, fine in zip(ladder[1:], errors, errors[1:]):
            assert coarse < 1e-12 or fine <= coarse / 5.0, (n, errors)
        assert errors[-1] < 1e-12, errors


def _stop(rec) -> tuple:
    """What pins a stopped run: outcome, detail, sample count and step count."""
    return rec.outcome, rec.outcome_detail, len(rec.samples), rec.step_count


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
        detail = "tail fraction 3.913e-01 exceeds 0.0001 and is growing at t=1"
        assert _stop(rec) == (Outcome.BLOWUP_SUSPECTED, detail, 3, 102)

    def test_record_counts_its_steps_and_their_range(self):
        """step_count, dt_min and dt_max are those of the chained steps that
        reproduce the run: six steps at dt_max, then one clipped to t_end."""
        grid = TorusGrid(64)
        theta0 = RealField(grid, 1.0 + np.cos(grid.points))
        p = ModelParams(gamma=0.7, n=64)
        c = StepControl(t_end=0.2, dt_max=0.03, snapshot_every=0.2)
        rec = run(theta0, p, c)
        s, times = SolverState(t=0.0, theta_hat=forward(theta0)), [0.0]
        while s.t < c.t_end - 1e-12:
            s = step(s, p, c)
            times.append(s.t)
        assert rec.step_count == len(times) - 1 == 7
        assert rec.dt_max == c.dt_max
        assert rec.dt_min == c.t_end - times[-2] < c.dt_max

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

    @pytest.mark.parametrize("amplitude, finite", [(1000.0, True), (1e5, False)])
    def test_a_t_star_past_the_direct_formula_is_recorded(self, amplitude, finite):
        """Near gamma = 1, linf0^{gamma/(1-gamma)} overflows: linf0 = 2000 still
        has a float64 T* (~8.1e156), linf0 = 2e5 (~1e355) is recorded as None."""
        grid = TorusGrid(64)
        theta0 = make_datum(cosine_positive(amplitude, amplitude), grid)
        rec = run(theta0, ModelParams(gamma=0.99, n=64), StepControl(t_end=2e-6, snapshot_every=1e-6))
        if finite:
            assert rec.t_star_predicted == t_star(0.99, alpha_policy(0.99), 2.0 * amplitude)
            assert 8e156 < rec.t_star_predicted < 8.2e156
        else:
            assert rec.t_star_predicted is None
        json.loads(record_to_json(rec), parse_constant=lambda token: pytest.fail(f"non-standard JSON token {token}"))

    def test_an_underflowing_t_star_is_recorded(self):
        """At gamma = 0.995 the factor alpha^200 underflows; T* ~ 1e-201 does not."""
        theta0 = make_datum(cosine_positive(5.0, 5.0), TorusGrid(64))
        rec = run(theta0, ModelParams(gamma=0.995, n=64), StepControl(t_end=0.01, snapshot_every=0.005))
        assert rec.t_star_predicted == t_star(0.995, alpha_policy(0.995), 10.0)
        assert rec.t_star_predicted == pytest.approx(1.00502512562873e-201, rel=1e-12, abs=0.0)


def _snapshot(t: float, tail: float, grad: float) -> list[float]:
    """A snapshot row in SCALAR_FIELDS order, zero but for t, tail_fraction and grad_linf."""
    values = dict(t=t, tail_fraction=tail, grad_linf=grad)
    return [values.get(name, 0.0) for name in SCALAR_FIELDS]


class TestDetect:
    """_detect judges the newest row of a run's snapshot table: its gradient
    against the first row's, its tail growth against the row before it."""

    @pytest.mark.parametrize(
        "table, expected",
        [
            ([(0.0, 1e-8, 1.0), (0.02, 2e-8, 900.0)], None),
            (
                [(0.0, 1e-8, 1.0), (0.02, 1e-8, 5.0), (0.04, 1e-8, 1500.0)],
                (Outcome.BLOWUP_SUSPECTED, "gradient grew 1.5e+03x (limit 1000x) at t=0.04"),
            ),
            (
                [(0.0, 5e-4, 1.0), (0.02, 1.5e-4, 1.0), (0.04, 2e-4, 1.0)],
                (Outcome.BLOWUP_SUSPECTED, "tail fraction 2.000e-04 exceeds 0.0001 and is growing at t=0.04"),
            ),
            (
                [(0.0, 3e-4, 1.0), (0.02, 2e-4, 1.0)],
                (Outcome.UNDER_RESOLVED, "tail fraction 2.000e-04 exceeds 0.0001 at t=0.02"),
            ),
            ([(0.0, 2e-4, 1.0)], (Outcome.UNDER_RESOLVED, "tail fraction 2.000e-04 exceeds 0.0001 at t=0")),
        ],
        ids=["quiet", "gradient_growth", "growing_tail", "steady_tail", "one_row"],
    )
    def test_outcome_and_detail(self, table, expected):
        stop = solver._detect([_snapshot(*row) for row in table])
        assert (None if stop is None else (stop.outcome, stop.detail)) == expected


class TestStopPaths:
    """Every way a run ends, each pinned to its outcome, its exact detail, its
    sample count and its step count. The growing tail is
    TestRun.test_inviscid_bump_triggers_a_detector."""

    GRID = TorusGrid(64)
    P = ModelParams(gamma=0.9, n=64)
    C = StepControl(t_end=1.0, snapshot_every=0.02)
    SMOOTH = RealField(GRID, 1.0 + np.cos(GRID.points))

    def test_completed(self):
        rec = run(self.SMOOTH, self.P, StepControl(t_end=0.1, snapshot_every=0.02))
        assert _stop(rec) == (Outcome.COMPLETED, "reached t_end=0.1", 6, 10)

    def test_step_collapse(self):
        """The CFL step 0.4*dx/1e12 is below the 1e-12 floor before the first step."""
        rec = run(RealField(self.GRID, 1e12 * np.cos(self.GRID.points)), self.P, self.C)
        assert _stop(rec) == (Outcome.STEP_COLLAPSE, "step size collapsed to 3.927e-14 at t=0", 1, 0)

    def test_step_raises_the_stop_run_records(self):
        """The public step() raises, as a RunStopped, the StepCollapse run() records for the same datum."""
        big = RealField(self.GRID, 1e12 * np.cos(self.GRID.points))
        with pytest.raises(solver.RunStopped) as raised:
            step(SolverState(t=0.0, theta_hat=forward(big)), self.P, self.C)
        rec = run(big, self.P, self.C)
        assert (raised.value.outcome, raised.value.detail) == (rec.outcome, rec.outcome_detail)
        assert raised.value.detail == "step size collapsed to 3.927e-14 at t=0"

    @pytest.mark.parametrize("n", [64, 4096])
    def test_a_finite_table_is_the_only_overflow_check_of_a_snapshot(self, n):
        """Scaled by 1e153, 1 + cos x has a finite table and finite Holder values;
        scaled by 1e154, the table itself leaves float64 and stops the run at t = 0."""
        grid = TorusGrid(n)
        p, plan = ModelParams(gamma=0.9, n=n), DiagnosticPlan((1.0, 0.05))
        edge, past = (run(RealField(grid, a * (1.0 + np.cos(grid.points))), p, self.C, plan) for a in (1e153, 1e154))
        assert len(edge.samples) == 1 and set(edge.samples.holder) == {1.0, 0.05}
        assert all(np.isfinite(values).all() for values in edge.samples.holder.values())
        assert _stop(past) == (Outcome.BLOWUP_SUSPECTED, "non-finite diagnostics at t=0", 0, 0)

    def test_under_resolved(self):
        """White noise fills the tail at t = 0, where there is no growth to judge."""
        noise = RealField(self.GRID, np.random.default_rng(0).standard_normal(64))
        rec = run(noise, self.P, self.C)
        assert _stop(rec) == (Outcome.UNDER_RESOLVED, "tail fraction 3.679e-01 exceeds 0.0001 at t=0", 1, 0)

    def test_gradient_growth(self, monkeypatch):
        """Snapshots whose grad_linf is scaled by 1 + 1e4*t pass the 1000x limit at t = 0.12."""
        take, t, grad = solver._take_sample, SCALAR_FIELDS.index("t"), SCALAR_FIELDS.index("grad_linf")

        def scaled(*args):
            table, holders, stops = take(*args)
            table[:, grad] *= 1.0 + 1e4 * table[:, t]
            return table, holders, stops

        monkeypatch.setattr(solver, "_take_sample", scaled)
        rec = run(self.SMOOTH, self.P, self.C)
        detail = "gradient grew 1.07e+03x (limit 1000x) at t=0.12"
        assert _stop(rec) == (Outcome.BLOWUP_SUSPECTED, detail, 7, 12)

    def test_an_overflowing_datum(self):
        """A datum whose own transform leaves floating point stops the run
        before its first snapshot; T1, read from that snapshot, is None."""
        big = RealField(self.GRID, 1.5e308 * np.cos(self.GRID.points))
        rec = run(big, self.P, self.C)
        assert _stop(rec) == (Outcome.BLOWUP_SUSPECTED, "non-finite state at t=0", 0, 0)
        assert (rec.t_local_predicted, rec.dt_min, rec.dt_max) == (None, None, None)
        json.loads(record_to_json(rec), parse_constant=lambda token: pytest.fail(f"non-standard JSON token {token}"))

    def test_a_run_stopped_before_its_first_snapshot_tracks_no_exponent(self):
        """With no sample, its holder map is empty whatever its plan tracks,
        in the table and in its line, as in a record built from no rows."""
        big = RealField(self.GRID, 1.5e308 * np.cos(self.GRID.points))
        rec = run(big, self.P, self.C, DiagnosticPlan((0.2,)))
        assert _stop(rec) == (Outcome.BLOWUP_SUSPECTED, "non-finite state at t=0", 0, 0)
        assert dict(rec.samples.holder) == {} and '"holder":{}' in record_to_json(rec)
        assert rec.samples == dataclasses.replace(rec, samples=[]).samples

    def test_an_overflowing_datum_prints_no_warning(self):
        """The outcome says that the transform of 5e307*(1 + cos x) overflows;
        numpy's overflow and invalid-value warnings would only repeat it."""
        theta0 = make_datum(cosine_positive(5e307, 5e307), self.GRID)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = run(theta0, self.P, self.C)
        assert (rec.outcome, rec.outcome_detail) == (Outcome.BLOWUP_SUSPECTED, "non-finite state at t=0")

    def test_diagnostics_that_overflow(self):
        """1e300*(1 + cos x) and its transform are finite, its squared
        coefficients are not: the t = 0 snapshot stops the run unrecorded."""
        theta0 = make_datum(cosine_positive(1e300, 1e300), self.GRID)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = run(theta0, self.P, self.C, DiagnosticPlan((alpha_policy(0.9),)))
        assert _stop(rec) == (Outcome.BLOWUP_SUSPECTED, "non-finite diagnostics at t=0", 0, 0)
        assert rec.t_local_predicted is None

    def test_nonlinear_term_of_a_state_whose_product_overflows(self):
        """The coefficients of 1e300*cos x are finite, the product of its
        velocity and gradient is not: nonlinear_term raises the RunStopped,
        not numpy's overflow warning."""
        big = forward(RealField(self.GRID, 1e300 * np.cos(self.GRID.points)))
        with warnings.catch_warnings(), pytest.raises(solver.RunStopped, match=r"^non-finite state at t=nan$") as raised:
            warnings.simplefilter("error")
            nonlinear_term(big, self.P)
        assert raised.value.outcome is Outcome.BLOWUP_SUSPECTED

    def test_non_finite_state(self, monkeypatch):
        """The step that would leave floating point is not counted; its end time is named."""
        nonlinear = solver._nonlinear_raw
        monkeypatch.setattr(solver, "_nonlinear_raw", lambda *args: np.full_like(nonlinear(*args), np.inf))
        rec = run(self.SMOOTH, self.P, self.C)
        assert _stop(rec) == (Outcome.BLOWUP_SUSPECTED, "non-finite state at t=0.01", 1, 0)
        with pytest.raises(RuntimeError, match=r"^non-finite state at t=nan$"):
            nonlinear_term(forward(self.SMOOTH), self.P)


def _rows(stack, times, kernel, plans):
    """The snapshot _take_sample takes of a stack, each row read as a
    DiagnosticsSample: its table row by SCALAR_FIELDS, its Holder values by
    its plan's exponents."""
    table, holders, stops = _take_sample(stack, np.array(times), kernel, plans)
    assert stops == {} and table.shape == (len(stack), len(SCALAR_FIELDS))
    return [
        DiagnosticsSample(**dict(zip(SCALAR_FIELDS, row)), holder=dict(zip(plan.holder_alphas, values)))
        for row, values, plan in zip(table.tolist(), holders, plans)
    ]


def _sample(F, t, gamma, plan):
    """The snapshot run() takes of F at t: that of a one-row stack."""
    kernel = solver._kernel(F.grid, (ModelParams(gamma=gamma, n=F.grid.n),))
    (sample,) = _rows(F.coeffs[None], [t], kernel, [plan])
    return sample


def _reference_sample(F, t, gamma, plan):
    """A snapshot taken field by field: theta and theta_x each through inverse()."""
    phys = inverse(F)
    grad = inverse(derivative(F)).values
    return DiagnosticsSample(
        t=t,
        l2=sobolev_norm(F, 0.0),
        linf=float(np.max(np.abs(phys.values))),
        mean=float(F.coeffs[0].real),
        hdot_half=sobolev_norm(F, 0.5),
        hdot_three_half=sobolev_norm(F, 1.5),
        hdot_mid=sobolev_norm(F, (3.0 + gamma) / 2.0),
        holder={a: holder_seminorm(phys, a) for a in plan.holder_alphas},
        tail_fraction=float(tail_fraction(F.grid, F.coeffs)),
        min_value=float(np.min(phys.values)),
        grad_linf=float(np.max(np.abs(grad))),
    )


class TestSnapshot:
    @pytest.mark.parametrize("alphas", [(), (0.2,)])
    @pytest.mark.parametrize("n", [64, 1024, 4096])
    @pytest.mark.parametrize("datum", ["cosine", "von_mises", "noise"])
    def test_one_batched_transform_gives_the_field_by_field_sample(self, datum, n, alphas):
        grid = TorusGrid(n)
        if datum == "noise":
            theta = RealField(grid, np.random.default_rng(n).standard_normal(n))
        else:
            theta = make_datum(cosine_positive(1.0, 1.0) if datum == "cosine" else von_mises_bump(5.0), grid)
        F, plan = forward(theta), DiagnosticPlan(alphas)
        sample, reference = _sample(F, 0.25, 0.9, plan), _reference_sample(F, 0.25, 0.9, plan)
        for f in dataclasses.fields(DiagnosticsSample):
            assert getattr(sample, f.name) == getattr(reference, f.name), f.name

    @pytest.mark.parametrize("n", [64, 1024])
    def test_a_stack_gives_each_row_its_field_by_field_sample(self, n):
        """Rows of different data, times, gammas and tracked exponents, sampled
        as one stack: each row's sample is its own field-by-field one."""
        grid = TorusGrid(n)
        fields = [
            forward(make_datum(cosine_positive(1.0, 1.0), grid)),
            forward(make_datum(von_mises_bump(5.0), grid)),
            forward(RealField(grid, np.random.default_rng(n).standard_normal(n))),
        ]
        times, gammas = [0.0, 0.25, 0.5], [0.6, 0.9, 1.5]
        plans = [DiagnosticPlan((0.5,)), DiagnosticPlan(), DiagnosticPlan((0.2, 1.0))]
        kernel = solver._Kernel(grid, tuple(ModelParams(gamma=g, n=n) for g in gammas))
        stack = np.array([F.coeffs for F in fields])
        samples = _rows(stack, times, kernel, plans)
        assert samples == [_reference_sample(*row) for row in zip(fields, times, gammas, plans)]

    def test_a_row_whose_diagnostics_overflow_stops_by_its_position(self):
        """Its squared coefficients leave float64: it gets a stop and no Holder
        values, and the rows beside it are sampled as alone."""
        grid = TorusGrid(64)
        fields = [forward(make_datum(cosine_positive(a, a), grid)) for a in (1.0, 1e300, 2.0)]
        plans, times = [DiagnosticPlan((0.2,))] * 3, [0.0, 0.25, 0.5]
        kernel = solver._Kernel(grid, (ModelParams(gamma=0.9, n=64),) * 3)
        with np.errstate(over="ignore", invalid="ignore"):
            table, holders, stops = _take_sample(np.array([F.coeffs for F in fields]), np.array(times), kernel, plans)
        assert list(stops) == [1] and stops[1].detail == "non-finite diagnostics at t=0.25"
        assert holders[1] == [] and not np.isfinite(table[1]).all()
        for i in (0, 2):
            alone = _sample(fields[i], times[i], 0.9, plans[i])
            assert table[i].tolist() == [getattr(alone, name) for name in SCALAR_FIELDS]
            assert holders[i] == list(alone.holder.values())

    def test_a_snapshot_makes_one_inverse_transform(self, monkeypatch):
        """B rows go through one irfft of 2B rows: theta and theta_x of each."""
        calls, irfft = [], solver.irfft

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return irfft(a, *args, **kwargs)

        monkeypatch.setattr(solver, "irfft", counted)
        grid = TorusGrid(64)
        p = ModelParams(gamma=0.9, n=64)
        stack = np.array([forward(RealField(grid, k * np.cos(grid.points))).coeffs for k in (1.0, 2.0, 3.0)])
        _take_sample(stack, np.zeros(3), solver._Kernel(grid, (p, p, p)), [DiagnosticPlan((0.2,))] * 3)
        assert calls == [(2, 3, 33)]


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
