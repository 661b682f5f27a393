"""Tests for the regularity calculators: norms, Holder machinery, the xi
schedule, T*, T1, gamma_1, and the energy-inequality probe."""

import dataclasses
import gc
import math
import warnings
import weakref
from decimal import Decimal, localcontext

import numpy as np
import pytest

from ccflab.regularity import (
    RegularityConstants,
    alpha_policy,
    energy_inequality_probe,
    energy_inequality_probes,
    gamma_one,
    gamma_one_condition,
    holder_alphas,
    holder_seminorm,
    make_schedule,
    schedule_alpha,
    sobolev_norm,
    t_local,
    t_local_exponents,
    t_star,
    t_star_alpha,
    tracked_schedule_alpha,
    validate_schedule_params,
)
from ccflab.records import SCALAR_FIELDS, Outcome, RunRecord, SampleTable
from ccflab.solver import DiagnosticPlan, ModelParams, StepControl, run
from ccflab.torus import TAIL_LIMIT, RealField, TorusGrid, forward

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

    def test_a_bool_constant_is_named(self):
        """True would pass the range check as 1; a record's constants block is outside input."""
        with pytest.raises(ValueError, match="k1 must be a number, got True"):
            RegularityConstants(k1=True)

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


class TestValidateScheduleParams:
    def test_explicit_alpha_is_checked_against_the_schedule(self):
        validate_schedule_params(0.9, 0.3)
        with pytest.raises(ValueError, match="alpha must be in"):
            validate_schedule_params(0.6, 0.3)
        with pytest.raises(ValueError, match="gamma must be in"):
            validate_schedule_params(1.2, 0.3)


class TestHolderAlphas:
    @pytest.mark.parametrize(
        "gamma, dissipation_on, tracked",
        [(0.6, True, (0.5,)), (0.9, True, (alpha_policy(0.9),)), (0.9, False, ()), (1.0, True, ()), (1.2, True, ())],
    )
    def test_policy_alpha_only_where_the_schedule_applies(self, gamma, dissipation_on, tracked):
        assert holder_alphas(gamma, dissipation_on) == tracked


class TestScheduleAlpha:
    @pytest.mark.parametrize(
        "gamma, tracked, alpha",
        [
            (0.9, (0.3,), 0.3),
            (0.3, (0.8,), 0.8),  # the policy 0.5 is below 1 - gamma, the tracked exponent is not
            (0.9, (), alpha_policy(0.9)),
            (0.9, (0.3, 0.5), alpha_policy(0.9)),
            (0.9, (0.05,), alpha_policy(0.9)),  # below 1 - gamma
            (0.9, (0.2,), alpha_policy(0.9)),  # within 1e-12 of 0.19999999999999996
            (0.9, (alpha_policy(0.9) + 2e-12,), alpha_policy(0.9) + 2e-12),
        ],
        ids=["own", "own_below_half", "none", "several", "off_schedule", "policy_within_1e-12", "beyond_1e-12"],
    )
    def test_the_one_tracked_exponent_on_the_schedule_else_the_policy(self, gamma, tracked, alpha):
        assert schedule_alpha(gamma, tracked) == alpha


class TestTrackedScheduleAlpha:
    @pytest.mark.parametrize(
        "gamma, tracked, alpha",
        [
            (0.9, (0.3,), 0.3),
            (0.9, (0.3, 0.2), 0.2),  # the policy alpha, within 1e-12
            (0.9, (0.2, alpha_policy(0.9)), alpha_policy(0.9)),  # the smaller of two within 1e-12
            (0.9, (0.3, 0.5), None),  # T* is at the policy alpha, which is not tracked
            (0.9, (0.05,), None),  # below 1 - gamma: T* is at the policy alpha
            (0.9, (), None),
            (0.3, (0.5, 0.1), 0.5),
            (1.2, (0.5, 0.2), None),  # no schedule at gamma >= 1
        ],
        ids=["own", "policy_within_1e-12", "two_within_1e-12", "several_off_policy", "off_schedule", "none",
             "policy_below_half", "gamma_above_one"],
    )
    def test_the_tracked_exponent_of_t_star_or_none(self, gamma, tracked, alpha):
        assert tracked_schedule_alpha(gamma, tracked) == alpha


class TestTStarAlpha:
    @pytest.mark.parametrize(
        "gamma, dissipation_on, tracked, linf0",
        [
            (0.9, False, (0.2,), 2.0),  # inviscid
            (1.2, True, (), 2.0),  # no schedule at gamma >= 1
            (0.9, True, (0.2,), 0.0),  # a zero datum
            (0.3, True, (), 2.0),  # the policy 0.5 is below 1 - gamma
        ],
        ids=["inviscid", "gamma_above_one", "zero_datum", "policy_below_half"],
    )
    def test_none_where_no_t_star_applies(self, gamma, dissipation_on, tracked, linf0):
        assert t_star_alpha(gamma, dissipation_on, tracked, linf0) is None

    def test_the_schedule_exponent(self):
        assert t_star_alpha(0.9, True, (0.3,), 2.0) == 0.3
        assert t_star_alpha(0.9, True, (0.05,), 2.0) == alpha_policy(0.9)

    def test_an_exponent_even_where_t_star_is_beyond_float64(self):
        assert t_star_alpha(0.99, True, (), 2e5) == alpha_policy(0.99)
        assert t_star(0.99, alpha_policy(0.99), 2e5) == math.inf


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

    @pytest.mark.parametrize("gamma", [0.2, 0.5, 0.75, 0.9, 0.97])
    @pytest.mark.parametrize("linf0", [1e-3, 0.7, 2.0, 150.0])
    def test_the_direct_formula_wherever_no_factor_overflows(self, gamma, linf0):
        k = RegularityConstants(k1=1.7, k2=1.3, C_star=0.6)
        alpha = max(alpha_policy(gamma), 1.0 - gamma)
        aggregate = k.C_star * k.k1 * k.k2 ** (gamma / (1.0 - gamma)) / gamma
        direct = aggregate * alpha ** (1.0 / (1.0 - gamma)) * linf0 ** (gamma / (1.0 - gamma))
        assert t_star(gamma, alpha, linf0, k) == direct

    def test_a_factor_beyond_float64_is_taken_in_logs(self):
        """At gamma = 0.99, linf0 = 2000 the factor 2000^99 overflows; T* ~ 8.1e156 does not."""
        gamma, alpha, linf0 = 0.99, alpha_policy(0.99), 2000.0
        with pytest.raises(OverflowError):
            linf0 ** (gamma / (1.0 - gamma))
        with localcontext() as ctx:
            ctx.prec = 40
            g = Decimal(gamma)
            exact = Decimal(alpha) ** (1 / (1 - g)) * Decimal(linf0) ** (g / (1 - g)) / g
        assert t_star(gamma, alpha, linf0) == pytest.approx(float(exact), rel=1e-12)

    @pytest.mark.parametrize("alpha, power", [(alpha_policy(0.995), 0.0), (0.025, 3.873e-321)])
    def test_an_underflowing_factor_is_taken_in_logs(self, alpha, power):
        """At gamma = 0.995, alpha^200 underflows: 0.01^200 to 0, which zeroes
        the direct product, and 0.025^200 to a subnormal float, which keeps 3
        digits and would put the direct product off by 3e-4. T* does not
        underflow: 0.01^200 * 10^199 / 0.995 ~ 1e-201."""
        gamma, linf0 = 0.995, 10.0
        assert alpha ** (1.0 / (1.0 - gamma)) == power
        with localcontext() as ctx:
            ctx.prec = 40
            g = Decimal(gamma)
            exact = Decimal(alpha) ** (1 / (1 - g)) * Decimal(linf0) ** (g / (1 - g)) / g
        assert t_star(gamma, alpha, linf0) == pytest.approx(float(exact), rel=1e-12, abs=0.0)

    def test_a_t_star_beyond_float64_is_inf(self):
        assert t_star(0.99, alpha_policy(0.99), 2e5) == math.inf
        assert t_star(0.99, alpha_policy(0.99), 2000.0, RegularityConstants(k2=1e10)) == math.inf


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
        for t in (0.0, 0.2, 0.499, 0.5, 0.7):
            assert sched.xi_at(t) == pytest.approx(max(0.5 - t, 0.0) ** 2, abs=1e-13)

    def test_schedule_fields_are_the_exponents_xi0_and_t_star(self):
        """The schedule carries what xi_at and criterion 6 read, and nothing else."""
        names = tuple(field.name for field in dataclasses.fields(make_schedule(0.5, 0.5, 1.0)))
        assert names == ("gamma", "alpha", "xi0", "t_star")


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
        for s in (-0.5, math.nan):
            with pytest.raises(ValueError, match="s must be"):
                sobolev_norm(F, s)


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


def _probe_record(t, x, d, l2_0=1.5, gamma=0.9, outcome=Outcome.COMPLETED, tail=1e-20):
    """A record holding the series the probe reads: times t, X = x, D = d."""
    size = len(t)
    columns = {name: np.ones(size) for name in SCALAR_FIELDS}
    columns.update(t=t, hdot_three_half=x, hdot_mid=d, l2=np.full(size, l2_0), tail_fraction=np.full(size, tail))
    model = {} if gamma is None else {"gamma": gamma}
    return RunRecord(config={"model": model}, samples=SampleTable({**columns, "holder": {}}), outcome=outcome)


def _per_record_fit(record):
    """The probe's fit as one record's own np.gradient call gives it."""
    samples, gamma = record.samples, record.config["model"]["gamma"]
    e1, e2 = t_local_exponents(gamma)
    t, x, d, l2_0 = samples.t, samples.hdot_three_half, samples.hdot_mid, float(samples.l2[0])
    numerator = 0.5 * np.gradient(x * x, t, edge_order=2) + 0.5 * d * d
    denominator = x ** (2.0 + e2) * l2_0**e1
    usable = denominator > 0.0
    fitted = float(np.max(numerator[usable] / denominator[usable])) if np.any(usable) else 0.0
    t1 = None
    if fitted > 0.0 and x[0] > 0.0:
        t1 = t_local(gamma, l2_0, float(x[0]), RegularityConstants(C1=fitted))
    return fitted, t1


@pytest.fixture(scope="module")
def mixed_records():
    """Records for the batched probe: 64 on one time grid and 128 on a second
    that differs from it in the last bits, two on a uniform grid, an all-zero X
    series, and one record for each refusal."""
    rng = np.random.default_rng(7)
    size = 41
    grid = np.concatenate(([0.0], np.cumsum(rng.uniform(0.01, 0.03, size - 1))))
    nudged = grid.copy()
    nudged[1::3] = np.nextafter(nudged[1::3], np.inf)
    uniform = 0.25 * np.arange(size)  # equal spacings: np.gradient's scalar-spacing path

    def series(t, gamma):
        x = rng.uniform(0.5, 2.0) * np.exp(rng.uniform(-3.0, 1.0) * t) + rng.uniform(0.0, 0.01, size)
        d = rng.choice([1e-3, 1.0]) * rng.uniform(0.0, 1.0, size)
        return _probe_record(t, x, d, rng.uniform(0.5, 3.0), gamma)

    on_grids = [series(grid, rng.uniform(0.2, 1.0)) for _ in range(64)]
    on_grids += [series(nudged, rng.uniform(0.2, 1.0)) for _ in range(128)]
    on_grids += [series(uniform, 0.5), series(uniform, 1.0)]
    base = on_grids[0].samples
    t, x, d = base.t, base.hdot_three_half, base.hdot_mid
    refused = {
        "gamma must be in (0, 1], got 1.2": _probe_record(t, x, d, gamma=1.2),
        "probe refused: record config has no model gamma": _probe_record(t, x, d, gamma=None),
        "probe refused: record outcome is BlowupSuspected": _probe_record(t, x, d, outcome=Outcome.BLOWUP_SUSPECTED),
        "probe needs at least 3 snapshots": _probe_record(t[:2], x[:2], d[:2]),
        f"probe refused: record tail fraction 2.000e-04 exceeds {TAIL_LIMIT}": _probe_record(t, x, d, tail=2 * TAIL_LIMIT),
        "probe needs strictly increasing snapshot times": _probe_record([0.0, 0.5, 0.5, 1.0], [1.0] * 4, [1.0] * 4),
    }
    zero = _probe_record(t, np.zeros(size), d)
    records = [*on_grids[:100], *refused.values(), zero, *on_grids[100:]]
    return records, refused, zero


class TestBatchedEnergyProbe:
    def test_the_grids_are_distinct_but_close(self, mixed_records):
        records, _, _ = mixed_records
        grids = {r.samples.t.tobytes() for r in records if len(r.samples) == 41}
        assert len(grids) == 3
        assert not np.array_equal(records[0].samples.t, records[-3].samples.t)
        assert np.allclose(records[0].samples.t, records[-3].samples.t, rtol=1e-15, atol=0.0)

    def test_each_fit_equals_the_one_record_probe_and_its_own_gradient(self, mixed_records):
        records, refused, _ = mixed_records
        results = energy_inequality_probes(records)
        assert len(results) == len(records)
        fitted = [(r, p) for r, p in zip(records, results) if not isinstance(p, ValueError)]
        assert len(fitted) == len(records) - len(refused)
        for record, probe in fitted:
            one = energy_inequality_probe(record)
            assert (probe.fitted_c, probe.t1_fitted) == (one.fitted_c, one.t1_fitted)
            assert (probe.fitted_c, probe.t1_fitted) == _per_record_fit(record)
        assert sum(p.t1_fitted is not None for _, p in fitted) > 10
        assert sum(p.fitted_c < 0.0 for _, p in fitted) > 0

    def test_an_all_zero_series_fits_zero(self, mixed_records):
        records, _, zero = mixed_records
        (probe,) = (p for r, p in zip(records, energy_inequality_probes(records)) if r is zero)
        assert probe.fitted_c == 0.0 and probe.t1_fitted is None

    def test_each_refusal_gives_the_one_record_probes_message(self, mixed_records):
        records, refused, _ = mixed_records
        by_record = dict(zip(map(id, records), energy_inequality_probes(records)))
        for message, record in refused.items():
            with pytest.raises(ValueError) as one:
                energy_inequality_probe(record)
            assert str(one.value) == str(by_record[id(record)]) == message

    def test_repeated_times_are_refused_without_a_warning(self, mixed_records):
        _, refused, _ = mixed_records
        record = refused["probe needs strictly increasing snapshot times"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (result,) = energy_inequality_probes([record])
        assert str(result) == "probe needs strictly increasing snapshot times"

    @pytest.mark.parametrize(
        "x, d",
        [(1e-92, 1e3), (1e100, 1.0), (1e160, 1.0)],
        ids=["ratio_overflows", "denominator_overflows", "x_squared_overflows"],
    )
    def test_a_fit_beyond_float64_is_refused_without_a_warning(self, x, d):
        """Constant series of a foreign record whose fit leaves float64: its own
        refusal, not a RuntimeWarning or a complaint about a constant C1."""
        size = 64
        record = _probe_record(np.linspace(0.0, 1.0, size), np.full(size, x), np.full(size, d))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (result,) = energy_inequality_probes([record])
            with pytest.raises(ValueError) as one:
                energy_inequality_probe(record)
        assert str(result) == str(one.value) == "probe refused: the fit leaves float64"

    def test_no_records_give_no_probes(self):
        assert energy_inequality_probes([]) == []

    def test_a_refusal_keeps_no_record_alive(self):
        """A refusal is returned without its traceback, whose frames would hold
        the records until the cyclic collector ran."""
        record = _probe_record([0.0, 1.0], [1.0, 1.0], [1.0, 1.0])
        alive = weakref.ref(record)
        gc.disable()
        try:
            (result,) = energy_inequality_probes([record])
            del record
            assert alive() is None
        finally:
            gc.enable()
        assert str(result) == "probe needs at least 3 snapshots"
