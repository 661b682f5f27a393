"""Tests for the singular-integral route: kernel calibration, the pointwise
dissipation functional, and the cross-route product-rule identity."""

import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.special import zeta

from ccflab import operators
from ccflab.operators import (
    CalibrationError,
    CgammaCalibration,
    _apply_quadrature,
    _hurwitz_zeta,
    _kernel_spectrum,
    _kernel_weights,
    calibrate_cgamma,
    cordoba_identity_residual,
    dgamma,
    frac_laplacian_quadrature,
)
from ccflab.torus import RealField, TorusGrid
from ccflab.verify import random_band_limited, verify_suite


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(256)


class TestCalibration:
    def test_residual_below_tolerance(self, grid):
        for gamma in (0.3, 0.5, 0.9, 1.0, 1.5):
            cal = calibrate_cgamma(gamma, grid)
            assert cal.residual < 1e-3
            assert cal.c_gamma > 0

    def test_gamma_one_recovers_one_over_pi(self, grid):
        """At gamma=1 the periodized kernel sums in closed form and the true
        normalization is 1/pi."""
        cal = calibrate_cgamma(1.0, grid)
        assert cal.c_gamma == pytest.approx(1.0 / np.pi, rel=1e-12)

    def test_mode_two_cross_validation(self, grid):
        x = grid.points
        for gamma in (0.5, 0.7, 0.9):
            cal = calibrate_cgamma(gamma, grid)
            f2 = RealField(grid, np.cos(2 * x))
            got = frac_laplacian_quadrature(f2, cal).values
            want = 2.0**gamma * np.cos(2 * x)
            rel = np.sqrt(np.mean((got - want) ** 2) / np.mean(want**2))
            assert rel < 1e-2


class TestDgamma:
    def test_closed_form_on_cos(self, grid):
        """D_gamma(cos) = 1 + (1 - 2^{gamma-1}) cos 2x for every gamma."""
        x = grid.points
        f = RealField(grid, np.cos(x))
        for gamma in (0.5, 1.0):
            cal = calibrate_cgamma(gamma, grid)
            got = dgamma(f, cal).values
            want = 1.0 + (1.0 - 2.0 ** (gamma - 1.0)) * np.cos(2 * x)
            assert np.max(np.abs(got - want)) < 1e-2

    def test_nonnegative_up_to_roundoff(self, grid):
        rng = np.random.default_rng(41)
        coeffs = rng.standard_normal(6)
        x = grid.points
        values = sum(c * np.cos((k + 1) * x) for k, c in enumerate(coeffs))
        cal = calibrate_cgamma(0.8, grid)
        out = dgamma(RealField(grid, values), cal).values
        assert np.min(out) > -1e-10 * max(1.0, np.max(np.abs(out)))

    def test_shifted_difference_variant(self, grid):
        """D_gamma of the difference f(x+h)-f(x); for cos x with h = pi the
        difference is -2cos x, so D_gamma picks up a factor 4."""
        x = grid.points
        f = RealField(grid, np.cos(x))
        cal = calibrate_cgamma(0.5, grid)
        base = dgamma(f, cal).values
        difference = RealField(grid, np.roll(f.values, -(grid.n // 2)) - f.values)
        shifted = dgamma(difference, cal).values
        # delta_h cos = -2 cos, and D_gamma is quadratic in its argument
        assert np.max(np.abs(shifted - 4.0 * base)) < 5e-2

    def test_constant_field_maps_to_zero(self, grid):
        cal = calibrate_cgamma(0.5, grid)
        out = dgamma(RealField(grid, np.full(grid.n, 2.5)), cal).values
        assert np.max(np.abs(out)) < 1e-12


class TestCordobaIdentity:
    def test_residual_small_for_smooth_fields(self, grid):
        x = grid.points
        fields = [np.cos(x), 1.0 + np.cos(x) + 0.3 * np.cos(3 * x)]
        for gamma in (0.5, 0.7, 0.9):
            cal = calibrate_cgamma(gamma, grid)
            for values in fields:
                res = cordoba_identity_residual(RealField(grid, values), cal)
                assert res < 5e-2

    def test_rough_field_is_refused(self, grid):
        """A field with most energy at grid scale cannot be trusted in the
        quadrature; the guard must name the problem."""
        cal = calibrate_cgamma(0.5, grid)
        rough = RealField(grid, np.cos((grid.n // 2 - 1) * grid.points))
        with pytest.raises(ValueError, match="tail"):
            dgamma(rough, cal)

    @pytest.mark.parametrize("route", [frac_laplacian_quadrature, dgamma], ids=lambda r: r.__name__)
    def test_the_guard_raises_a_plain_value_error(self, grid, route):
        """Both quadrature routes refuse a rough field with a ValueError itself,
        not a subclass, which the CLI maps to exit 1."""
        cal = calibrate_cgamma(0.5, grid)
        rough = RealField(grid, np.cos((grid.n // 2 - 1) * grid.points))
        with pytest.raises(ValueError, match="refine the grid") as excinfo:
            route(rough, cal)
        assert type(excinfo.value) is ValueError


class TestCalibrationFailure:
    def test_calibration_object_enforces_residual_bound(self):
        """The calibration container itself refuses a residual above the
        tolerance, so a bad fit can never circulate."""
        with pytest.raises(ValueError, match="residual"):
            CgammaCalibration(gamma=0.5, c_gamma=1.0, residual=0.5)

    def test_kernel_tail_absorbs_the_truncated_images(self):
        """The analytic Hurwitz-zeta tail carries every image but the one at
        y, so the kernel matches one that sums 20 images on each side
        explicitly to roundoff (the CalibrationError path guards a failure no
        reachable input produces)."""
        for n, gamma in itertools.product((64, 256), (0.3, 0.5, 0.9, 1.5)):
            got = _kernel_weights(n, gamma)
            want = _image_sum_kernel(n, gamma, 20)
            assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13
        assert isinstance(CalibrationError("x", 1.0), RuntimeError)


def _image_sum_kernel(n: int, gamma: float, images: int) -> np.ndarray:
    """The periodized kernel at the cell midpoints with the images |k| <= images
    summed explicitly and the Hurwitz-zeta sum of the rest."""
    s = 1.0 + gamma
    y = -np.pi + (np.arange(n) + 0.5) * (2.0 * np.pi / n)
    kern = sum(np.abs(y - 2.0 * np.pi * k) ** (-s) for k in range(-images, images + 1))
    q = y / (2.0 * np.pi)
    return kern + (2.0 * np.pi) ** (-s) * (zeta(s, images + 1 - q) + zeta(s, images + 1 + q))


class TestHurwitzZeta:
    """The in-house zeta against scipy's, which serves as the oracle. Both
    round differently, so they agree to a few ulps, not bit for bit."""

    @pytest.mark.parametrize("n", [32, 34, 4096, 65536])
    @pytest.mark.parametrize("gamma", [1e-9, 1e-6, 0.3, 0.9, 1.0, 1.5, 1.999999])
    def test_matches_scipy_at_the_kernel_arguments(self, n, gamma):
        s = 1.0 + gamma
        q = (-np.pi + (np.arange(n) + 0.5) * (2.0 * np.pi / n)) / (2.0 * np.pi)
        for a in (1.0 - q, 1.0 + q):
            want = zeta(s, a)
            assert np.max(np.abs(_hurwitz_zeta(s, a) - want) / want) <= 1e-15

    @pytest.mark.parametrize("n", [64, 4096])
    @pytest.mark.parametrize("gamma", [0.5, 0.9, 1.0])
    def test_calibration_matches_a_scipy_kernel(self, monkeypatch, n, gamma):
        """The kernel spectrum cache is cleared around the swap, so the second
        calibration builds its kernel from scipy's zeta (the call count shows
        it did) and no later test reads a scipy-built kernel."""
        grid = TorusGrid(n)
        got = calibrate_cgamma(gamma, grid).c_gamma
        calls = []

        def scipy_zeta(s, a):
            calls.append(s)
            return zeta(s, a)

        _kernel_spectrum.cache_clear()
        monkeypatch.setattr(operators, "_hurwitz_zeta", scipy_zeta)
        try:
            want = calibrate_cgamma(gamma, grid).c_gamma
        finally:
            _kernel_spectrum.cache_clear()
        assert calls == [1.0 + gamma, 1.0 + gamma]
        assert abs(got - want) <= 1e-14 * want

    @pytest.mark.parametrize(
        "s, a",
        [(1.0, 1.0), (3.0, 1.0), (np.nan, 1.0), (2.0, 0.0), (2.0, 2.0), (2.0, np.nan)],
    )
    def test_rejects_arguments_outside_its_domain(self, s, a):
        with pytest.raises(ValueError, match="must"):
            _hurwitz_zeta(s, np.array([1.0, a]))


def _half_shift(values: np.ndarray, gamma: float = 0.5) -> np.ndarray:
    """Field values at x_j + dx/2 via the trig interpolant, with the phase the
    quadrature reads from its cache (the same for every gamma)."""
    n = values.size
    return np.fft.irfft(np.fft.rfft(values) * _kernel_spectrum(n, gamma)[2], n)


class TestHalfShift:
    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_trig_modes_move_half_a_cell(self, n):
        """cos(m x) and sin(m x) go to cos(m (x + dx/2)) and sin(m (x + dx/2))
        for 0 < m < n/2, and the Nyquist mode cos(n x / 2) to 0. The phases
        are reduced mod 2 pi in integers, in units of dx/2 = pi/n, so the
        reference carries no argument roundoff."""
        j = np.arange(n)
        for m in range(1, n // 2):
            phase = np.pi / n * ((2 * m * j) % (2 * n))
            shifted = np.pi / n * ((2 * m * j + m) % (2 * n))
            assert np.max(np.abs(_half_shift(np.cos(phase)) - np.cos(shifted))) < 1e-13
            assert np.max(np.abs(_half_shift(np.sin(phase)) - np.sin(shifted))) < 1e-13
        nyquist = np.cos(np.pi * j)
        assert np.max(np.abs(_half_shift(nyquist))) < 1e-13


def _dense_quadrature(f: RealField, gamma: float, squared: bool) -> np.ndarray:
    """The direct O(n^2) sum dx * sum_j kern_j * (f(x_i) - s(x_i + y_j))^p,
    with y_j = -pi + (j + 1/2) dx and s the half-shifted field."""
    n = f.grid.n
    kern = _kernel_weights(n, gamma)
    idx = (np.arange(n)[:, None] + np.arange(n)[None, :] - n // 2) % n
    diff = f.values[:, None] - _half_shift(f.values, gamma)[idx]
    if squared:
        diff = diff * diff
    return f.grid.dx * (diff @ kern)


def _oracle_fields(grid):
    x = grid.points
    bump = np.exp(np.cos(x))
    return {
        "cos": np.cos(x),
        "band_limited": random_band_limited(grid, np.random.default_rng(7)).values,
        "exp_cos": bump,
        "shifted_difference_3": np.roll(bump, -3) - bump,
    }


class TestCorrelationMatchesDenseSum:
    """The rfft correlation against the direct sum over every offset. The
    correlation's roundoff grows like eps * n^(1+gamma); the worst case here
    (n = 256, gamma = 1.9) is a few 1e-12."""

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.9, 1.0, 1.5, 1.9])
    def test_both_forms_agree(self, n, gamma):
        grid = TorusGrid(n)
        for name, values in _oracle_fields(grid).items():
            f = RealField(grid, values)
            for squared in (False, True):
                want = _dense_quadrature(f, gamma, squared)
                got = _apply_quadrature(f, gamma, 1.0, squared)
                rel = np.max(np.abs(got - want)) / np.max(np.abs(want))
                assert rel <= 1e-11, (name, squared, rel)


def _two_correlations(f: RealField, gamma: float, c: float) -> np.ndarray:
    """c * dx * sum_j kern_j (f - s_{i+j})^2 with every derived array rebuilt
    on the spot: the half-shift phase, the kernel's spectrum and sum, and one
    rfft/irfft pair for k * s and another for k * s^2."""
    n = f.grid.n
    kern = np.roll(_kernel_weights(n, gamma), -(n // 2))
    kern_hat = np.conj(np.fft.rfft(kern))
    v = f.values - f.values.mean()
    shift = np.exp(1j * np.pi * np.arange(n // 2 + 1) / n)
    shift[n // 2] = 0.0
    s = np.fft.irfft(np.fft.rfft(v) * shift, n)

    def corr(g):
        return np.fft.irfft(kern_hat * np.fft.rfft(g), n)

    return c * f.grid.dx * (v * v * kern.sum() - 2.0 * v * corr(s) + corr(s * s))


class TestCachedKernelIsBitEqual:
    """The cached kernel spectrum and the stacked (2, n) correlation give the
    same bits as building everything per call and correlating twice."""

    @pytest.mark.parametrize("n", [64, 98, 4096])
    @pytest.mark.parametrize("gamma", [0.5, 0.9, 1.5])
    def test_squared_form_equals_two_correlations(self, n, gamma):
        grid = TorusGrid(n)
        f = RealField(grid, 0.3 + random_band_limited(grid, np.random.default_rng(n)).values)
        cal = calibrate_cgamma(gamma, grid)
        assert np.array_equal(_apply_quadrature(f, gamma, 1.0, squared=True), _two_correlations(f, gamma, 1.0))
        assert np.array_equal(dgamma(f, cal).values, _two_correlations(f, gamma, cal.c_gamma))

    def test_the_cached_arrays_are_read_only(self):
        kern_hat, _, shift = _kernel_spectrum(64, 0.5)
        assert not kern_hat.flags.writeable
        assert not shift.flags.writeable


class TestTransformCount:
    """Each quadrature evaluation transforms its field once: one rfft that the
    tail-fraction guard and the half-cell shift both read, the shift's irfft,
    and one rfft/irfft pair for the correlation."""

    @pytest.fixture()
    def fft_calls(self, monkeypatch):
        calls = []
        for name in ("fft", "ifft", "rfft", "irfft"):
            transform = getattr(np.fft, name)

            def counted(*args, _name=name, _transform=transform, **kwargs):
                calls.append(_name)
                return _transform(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        return calls

    @pytest.mark.parametrize("route", [frac_laplacian_quadrature, dgamma], ids=lambda r: r.__name__)
    def test_a_route_makes_four_transforms(self, grid, route, fft_calls):
        cal = calibrate_cgamma(0.5, grid)
        f = RealField(grid, np.exp(np.cos(grid.points)))
        fft_calls.clear()
        route(f, cal)
        assert fft_calls == ["rfft", "irfft", "rfft", "irfft"]

    def test_a_warm_verify_suite_makes_eighty(self, fft_calls):
        verify_suite(n=4096)
        fft_calls.clear()
        verify_suite(n=4096)
        assert len(fft_calls) == 80


class TestScaling:
    def test_calibration_memory_stays_linear_in_n(self):
        """An n x n array at n = 4096 is over 130 MB; the correlation needs a
        few length-n arrays."""
        grid = TorusGrid(4096)
        calibrate_cgamma(0.9, grid)
        tracemalloc.start()
        try:
            calibrate_cgamma(0.9, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_verify_suite_passes_at_n_16384(self):
        rows = verify_suite(n=16384)
        assert [r.name for r in rows if not r.passed] == []
