"""Tests for the regularity calculators: norms, Holder machinery, the xi
schedule, T*, T1, gamma_1, and the energy-inequality probe."""

import dataclasses

import numpy as np
import pytest

from ccflab.regularity import (
    RegularityConstants,
    alpha_policy,
    energy_inequality_probe,
    gamma_one,
    gamma_one_condition,
    holder_alphas,
    holder_seminorm,
    make_schedule,
    sobolev_norm,
    t_local,
    t_local_exponents,
    t_star,
    v_field,
)
from ccflab.solver import DiagnosticPlan, ModelParams, StepControl, run
from ccflab.torus import RealField, TorusGrid, forward

SQRT_PI = np.sqrt(np.pi)


def _h32_barrier(t, x0, l2_0, gamma, c):
    """x0 * (1 - c*e2*l2_0^{e1}*x0^{e2}*t)^{-1/e2}: the H^{3/2} bound that the
    probe's inequality (X^2)'/2 <= C*X^{2+e2}*l2_0^{e1} integrates to; inf once
    the bracket reaches 0."""
    e1, e2 = t_local_exponents(gamma)
    bracket = 1.0 - c * e2 * l2_0**e1 * x0**e2 * t
    return x0 * bracket ** (-1.0 / e2) if bracket > 0.0 else np.inf


class TestConstants:
    def test_defaults_are_unit(self):
        k = RegularityConstants()
        assert (k.k1, k.k2, k.c0, k.C_star, k.C1, k.C3) == (1.0,) * 6

    def test_positivity_enforced(self):
        with pytest.raises(ValueError, match="k1"):
            RegularityConstants(k1=0.0)
        with pytest.raises(ValueError, match="C3"):
            RegularityConstants(C3=-1.0)

    @pytest.mark.parametrize("key", ["k1", "k2", "c0", "C_star", "C1", "C3"])
    def test_non_finite_constant_is_named(self, key):
        with pytest.raises(ValueError, match=f"{key} must be strictly positive and finite, got inf"):
            RegularityConstants(**{key: float("inf")})

    def test_k2_lower_bound(self):
        with pytest.raises(ValueError, match="k2"):
            RegularityConstants(k2=0.5)


class TestAlphaPolicy:
    def test_matches_min_rule(self):
        assert alpha_policy(0.9) == pytest.approx(0.2, abs=1e-15)
        assert alpha_policy(0.5) == 0.5
        assert alpha_policy(0.6) == 0.5  # 2*(1-0.6) = 0.8 capped at 1/2

    def test_outside_supercritical_range_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            alpha_policy(1.0)


class TestHolderAlphas:
    def test_explicit_alpha_is_checked_against_the_schedule(self):
        assert holder_alphas(0.9, 0.3, True) == (0.3,)
        assert holder_alphas(0.9, 0.3, False) == (0.3,)
        with pytest.raises(ValueError, match="alpha must be in"):
            holder_alphas(0.6, 0.3, True)
        with pytest.raises(ValueError, match="gamma must be in"):
            holder_alphas(1.2, 0.3, True)

    @pytest.mark.parametrize(
        "gamma, dissipation_on, tracked",
        [(0.6, True, (0.5,)), (0.9, True, (alpha_policy(0.9),)), (0.9, False, ()), (1.0, True, ()), (1.2, True, ())],
    )
    def test_policy_alpha_only_where_the_schedule_applies(self, gamma, dissipation_on, tracked):
        assert holder_alphas(gamma, None, dissipation_on) == tracked


class TestTStar:
    def test_hand_value_exact(self):
        # C = 1.25, alpha^5 = 0.4^5, L^4 = 16: product is exactly 0.2048
        assert t_star(0.8, 0.4, 2.0) == 0.2048

    def test_amplitude_scaling(self):
        gamma, alpha = 0.7, 0.5
        base = t_star(gamma, alpha, 1.3)
        lam = 2.7
        scaled = t_star(gamma, alpha, lam * 1.3)
        assert scaled == pytest.approx(base * lam ** (gamma / (1 - gamma)), rel=1e-12)

    def test_continuous_and_positive_at_left_alpha_endpoint(self):
        gamma = 0.6
        assert t_star(gamma, 1 - gamma, 1.0) > 0.0

    def test_gamma_at_or_above_one_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            t_star(1.0, 0.5, 1.0)


class TestXiSchedule:
    def test_closed_form_at_half(self):
        """gamma = alpha = 1/2, unit everything: xi(t) = (1/2 - t)^2."""
        assert make_schedule(0.5, 0.5, 1.0, RegularityConstants()).xi0 == 0.25
        sched = make_schedule(0.5, 0.5, 1.0)
        for t in np.linspace(0.0, 0.5, 26):
            assert sched.xi_at(float(t)) == pytest.approx((0.5 - t) ** 2, abs=1e-14)
        assert sched.xi_at(0.6) == 0.0

    def test_ode_satisfied_at_zero_by_finite_differences(self):
        gamma, alpha, L = 0.5, 0.5, 1.0
        h = 1e-7
        sched = make_schedule(gamma, alpha, L)
        fd = (sched.xi_at(h) - sched.xi_at(0.0)) / h
        xi0 = make_schedule(gamma, alpha, L, RegularityConstants()).xi0
        expected = -(xi0 ** (1 - gamma)) / (alpha * 1.0)
        assert fd == pytest.approx(expected, rel=1e-6)

    def test_vanishing_time_matches_t_star_for_random_constants(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            gamma = float(rng.uniform(0.3, 0.95))
            alpha = float(rng.uniform(1 - gamma, 0.99))
            L = float(rng.uniform(0.1, 5.0))
            k = RegularityConstants(
                k1=float(rng.uniform(0.2, 4.0)),
                k2=float(rng.uniform(1.0, 4.0)),
                C_star=float(rng.uniform(0.2, 4.0)),
            )
            ts = t_star(gamma, alpha, L, k)
            # bracket the vanishing time to 1e-12 relative: just before it the
            # schedule is still positive, just after it the clamp engages
            sched = make_schedule(gamma, alpha, L, k)
            assert sched.xi_at(ts * (1 - 2e-12)) > 0.0
            assert sched.xi_at(ts * (1 + 2e-12)) == 0.0
            assert sched.xi_at(ts * 0.5) > 0.0

    def test_non_increasing(self):
        ts = np.linspace(0, 1.2, 49)
        sched = make_schedule(0.7, 0.6, 2.0)
        vals = [sched.xi_at(float(t)) for t in ts]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_schedule_object_consistency(self):
        sched = make_schedule(0.5, 0.5, 1.0)
        assert sched.xi0 == 0.25
        assert sched.t_star == 0.5
        assert sched.M == 4.0 * 1.0 / 0.25**0.5
        for t in (0.0, 0.2, 0.499, 0.5, 0.7):
            assert sched.xi_at(t) == pytest.approx(max(0.5 - t, 0.0) ** 2, abs=1e-13)


class TestSobolevNorm:
    def test_single_mode_values(self):
        grid = TorusGrid(64)
        F = forward(RealField(grid, np.cos(grid.points)))
        for s in (0.0, 0.5, 1.5):
            assert sobolev_norm(F, s) == pytest.approx(SQRT_PI, rel=1e-12)
        F2 = forward(RealField(grid, np.cos(2 * grid.points)))
        assert sobolev_norm(F2, 1.5) == pytest.approx(2.0**1.5 * SQRT_PI, rel=1e-12)

    def test_constant_has_zero_seminorm(self):
        grid = TorusGrid(64)
        F = forward(RealField(grid, np.full(64, 3.0)))
        assert sobolev_norm(F, 1.0) == 0.0
        assert sobolev_norm(F, 0.0) == pytest.approx(3.0 * np.sqrt(2 * np.pi), rel=1e-12)

    def test_negative_s_rejected(self):
        grid = TorusGrid(64)
        F = forward(RealField(grid, np.cos(grid.points)))
        with pytest.raises(ValueError, match="s must be"):
            sobolev_norm(F, -0.5)


class TestHolderSeminorm:
    def test_constant_is_zero(self):
        grid = TorusGrid(64)
        assert holder_seminorm(RealField(grid, np.full(64, 2.0)), 0.5) == 0.0

    def test_cos_lipschitz_constant(self):
        grid = TorusGrid(512)
        f = RealField(grid, np.cos(grid.points))
        assert holder_seminorm(f, 1.0) == pytest.approx(1.0, abs=2e-2)

    def test_cos_half_exponent(self):
        grid = TorusGrid(512)
        f = RealField(grid, np.cos(grid.points))
        assert holder_seminorm(f, 0.5) == pytest.approx(1.204, abs=2e-2)

    def test_refinement_never_decreases(self):
        """Coarse-grid point pairs embed in the fine grid, so doubling n can
        only add candidates."""
        for alpha in (0.3, 0.7, 1.0):
            coarse = TorusGrid(128)
            fine = TorusGrid(256)
            sc = holder_seminorm(RealField(coarse, np.cos(coarse.points)), alpha)
            sf = holder_seminorm(RealField(fine, np.cos(fine.points)), alpha)
            assert sf >= sc - 1e-12

    def test_definitional_bounds(self):
        grid = TorusGrid(128)
        rng = np.random.default_rng(37)
        values = np.cos(grid.points) + 0.3 * np.sin(2 * grid.points)
        f = RealField(grid, values)
        alpha = 0.4
        est = holder_seminorm(f, alpha)
        assert est <= 2 * np.max(np.abs(values)) / grid.dx**alpha + 1e-12
        antipodal = abs(values[10] - values[10 + grid.n // 2]) / np.pi**alpha
        assert est >= antipodal - 1e-12

    def test_alpha_range_enforced(self):
        grid = TorusGrid(64)
        f = RealField(grid, np.cos(grid.points))
        with pytest.raises(ValueError, match="alpha"):
            holder_seminorm(f, 0.0)
        with pytest.raises(ValueError, match="alpha"):
            holder_seminorm(f, 1.2)


class TestVField:
    def test_constant_theta_gives_zero(self):
        grid = TorusGrid(64)
        sched = make_schedule(0.5, 0.5, 1.0)
        v = v_field(RealField(grid, np.full(64, 1.0)), 5, 0.0, sched)
        assert np.max(np.abs(v.values)) == 0.0

    def test_after_t_star_recovers_holder_seminorm(self):
        """With xi = 0 the modulation is pure |h|^alpha, so the sup over
        offsets of ||v||_inf is the grid Holder seminorm."""
        grid = TorusGrid(128)
        f = RealField(grid, np.cos(grid.points) + 0.2 * np.cos(3 * grid.points))
        sched = make_schedule(0.5, 0.5, 1.0)
        t_after = sched.t_star + 1.0
        best = max(
            float(np.max(np.abs(v_field(f, h, t_after, sched).values)))
            for h in range(1, grid.n // 2 + 1)
        )
        assert best == pytest.approx(holder_seminorm(f, sched.alpha), abs=1e-12)

    def test_direct_arithmetic_at_t_zero(self):
        grid = TorusGrid(64)
        f = RealField(grid, np.cos(grid.points))
        sched = make_schedule(0.5, 0.5, 1.0)
        h = grid.n // 2  # offset pi: delta_h cos = -2 cos
        v = v_field(f, h, 0.0, sched)
        expected = 2.0 * np.abs(np.cos(grid.points)) / (sched.xi0**2 + np.pi**2) ** (
            sched.alpha / 2
        )
        assert np.max(np.abs(np.abs(v.values) - expected)) < 1e-12


class TestTLocal:
    def test_exponents_at_half_are_exact_rationals(self):
        e1, e2 = t_local_exponents(0.5)
        assert e1 == 10 / 33
        assert e2 == 53 / 33

    def test_exponents_match_spelled_out_form(self):
        for gamma in (0.3, 0.6, 1.0):
            e1, e2 = t_local_exponents(gamma)
            assert e1 == pytest.approx(2 * gamma * (9 + 2 * gamma) / (3 * (9 + 4 * gamma)), rel=1e-15)
            assert e2 == pytest.approx(2 - 4 * gamma * (6 + gamma) / (3 * (9 + 4 * gamma)), rel=1e-14)

    def test_unit_norms_give_unit_time(self):
        assert t_local(0.5, 1.0, 1.0) == 1.0

    def test_cos_datum_closed_form(self):
        # both norms sqrt(pi): T1 = pi^{-(e1+e2)/2} = pi^{-21/22} at gamma = 1/2
        val = t_local(0.5, SQRT_PI, SQRT_PI)
        assert val == pytest.approx(np.pi ** (-21 / 22), rel=1e-13)

    def test_scaling_in_the_datum(self):
        gamma, l2, x32 = 0.8, 1.7, 4.2
        e1, e2 = t_local_exponents(gamma)
        lam = 3.1
        assert t_local(gamma, lam * l2, lam * x32) == pytest.approx(
            t_local(gamma, l2, x32) * lam ** (-(e1 + e2)), rel=1e-12
        )

    def test_zero_norms_rejected(self):
        with pytest.raises(ValueError, match="l2"):
            t_local(0.5, 0.0, 1.0)
        with pytest.raises(ValueError, match="hdot32"):
            t_local(0.5, 1.0, 0.0)


class TestGammaOne:
    def test_unit_r_returns_grid_minimum(self):
        grid = tuple(np.linspace(0.5, 0.99, 50))
        assert gamma_one(1.0, gamma_grid=grid) == grid[0]

    def test_non_decreasing_in_r(self):
        grid = tuple(np.linspace(0.5, 0.999, 500))
        found = [gamma_one(r, gamma_grid=grid) for r in (1.0, 10.0, 100.0)]
        assert all(v is not None for v in found)
        assert found[0] <= found[1] <= found[2]

    def test_bracketing(self):
        grid = tuple(np.linspace(0.5, 0.999, 500))
        k = RegularityConstants()
        for r in (10.0, 100.0):
            got = gamma_one(r, k, grid)
            idx = grid.index(got)
            assert gamma_one_condition(got, r, k)
            if idx > 0:
                assert not gamma_one_condition(grid[idx - 1], r, k)

    def test_findable_even_for_large_data_near_one(self):
        """The policy alpha vanishes as gamma -> 1 while the right side tends
        to 1/R > 0, so a fine enough grid always contains a passing gamma."""
        grid = tuple(np.linspace(0.5, 0.999, 500))
        assert gamma_one(100.0, gamma_grid=grid) is not None
        # larger data pushes gamma_1 closer to 1: R=1e4 needs 1-gamma ~ 5e-5
        fine = tuple(np.linspace(0.5, 0.999995, 4000))
        assert gamma_one(1e4, gamma_grid=fine) is not None

    def test_r_below_one_rejected(self):
        with pytest.raises(ValueError, match="R"):
            gamma_one(0.5)


@pytest.fixture(scope="module")
def smooth_run():
    """gamma=0.9 run on 1+cos used by the probe tests."""
    grid = TorusGrid(256)
    theta0 = RealField(grid, 1.0 + np.cos(grid.points))
    p = ModelParams(gamma=0.9, n=256)
    c = StepControl(t_end=1.0, snapshot_every=0.02)
    return run(theta0, p, c, plan=DiagnosticPlan(()))


class TestEnergyProbe:
    def test_fitted_constant_stable_across_resolutions(self, smooth_run):
        rep256 = energy_inequality_probe(smooth_run)
        grid = TorusGrid(128)
        theta0 = RealField(grid, 1.0 + np.cos(grid.points))
        rec128 = run(
            theta0, ModelParams(gamma=0.9, n=128), StepControl(t_end=1.0, snapshot_every=0.02)
        )
        rep128 = energy_inequality_probe(rec128)
        assert rep256.fitted_c != 0.0
        ratio = rep128.fitted_c / rep256.fitted_c
        assert 0.5 < ratio < 2.0

    def test_linear_only_run_fits_nonpositive_constant(self):
        """Pure dissipation: (X^2)'/2 = -D^2 exactly, so the fitted constant
        sits at -D^2/2 scaled, certainly <= 0 up to finite differences."""
        grid = TorusGrid(128)
        theta0 = RealField(grid, 1.0 + np.cos(grid.points))
        rec = run(
            theta0,
            ModelParams(gamma=0.9, n=128, linear_only=True),
            StepControl(t_end=1.0, snapshot_every=0.02),
        )
        rep = energy_inequality_probe(rec)
        assert rep.fitted_c < 1e-3

    def test_h32_series_stays_below_barrier(self, smooth_run):
        rep = energy_inequality_probe(smooth_run)
        x0 = smooth_run.samples[0].hdot_three_half
        l2_0 = smooth_run.samples[0].l2
        horizon = rep.t1_fitted if rep.t1_fitted is not None else np.inf
        for s in smooth_run.samples:
            if s.t <= horizon:
                assert s.hdot_three_half <= _h32_barrier(s.t, x0, l2_0, 0.9, rep.fitted_c) * (
                    1 + 1e-9
                )

    def test_probe_refuses_a_record_without_gamma(self, smooth_run):
        config = {key: value for key, value in smooth_run.config.items() if key != "model"}
        with pytest.raises(ValueError, match="probe refused: record config has no model gamma"):
            energy_inequality_probe(dataclasses.replace(smooth_run, config=config))

    def test_probe_refuses_underresolved_record(self):
        """An inviscid blow-up record must not be fed to the probe."""
        grid = TorusGrid(64)
        theta0 = RealField(grid, np.exp(5 * (np.cos(grid.points) - 1)))
        rec = run(
            theta0,
            ModelParams(gamma=1.0, n=64, dissipation_on=False, dealias_on=False),
            StepControl(t_end=10.0, snapshot_every=0.5),
        )
        assert rec.outcome.value != "Completed"
        with pytest.raises(ValueError, match="probe refused"):
            energy_inequality_probe(rec)
