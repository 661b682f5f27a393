"""Tests for the grid, field containers, and basic spectral transforms."""

import numpy as np
import pytest

from ccflab.regularity import sobolev_norm
from ccflab.torus import (
    SYMMETRY_TOL,
    RealField,
    SpectralField,
    TorusGrid,
    derivative,
    forward,
    inverse,
    irfft,
    rfft,
    tail_fraction,
)


class TestTransformPair:
    """rfft and irfft call numpy's pocketfft gufuncs directly, and their bits
    are those of np.fft.rfft and np.fft.irfft under norm="forward": on a row,
    a stack and a stack of stacks, into a fresh array or into out."""

    @pytest.mark.parametrize("shape", [(), (5,), (3, 5)], ids=["1-D", "(B, m)", "(3, B, m)"])
    @pytest.mark.parametrize("n", [32, 34, 64, 1024, 4096])
    def test_bits_equal_the_public_forward_normalized_transforms(self, n, shape):
        rng = np.random.default_rng(n + len(shape))
        real = rng.standard_normal((*shape, n))
        want = np.fft.rfft(real, norm="forward")
        out = np.empty_like(want)
        assert rfft(real).shape == want.shape and rfft(real).tobytes() == want.tobytes()
        assert rfft(real, out=out) is out and out.tobytes() == want.tobytes()
        # Imaginary parts in the mean and Nyquist slots too, which irfft drops.
        half = want + 1j * rng.standard_normal(want.shape)
        back = np.fft.irfft(half, n, norm="forward")
        out = np.empty_like(back)
        assert irfft(half, n).shape == back.shape and irfft(half, n).tobytes() == back.tobytes()
        assert irfft(half, n, out=out) is out and out.tobytes() == back.tobytes()


class TestTorusGrid:
    def test_points_and_modes_layout(self):
        grid = TorusGrid(8)
        assert grid.dx == pytest.approx(2 * np.pi / 8)
        assert grid.points[0] == 0.0
        assert grid.points[4] == pytest.approx(np.pi)
        # rfft half spectrum: the mean, the positive modes, then Nyquist
        assert list(grid.abs_modes) == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_rejects_odd_or_tiny_n(self):
        with pytest.raises(ValueError, match="even"):
            TorusGrid(9)
        with pytest.raises(ValueError, match=">= 8"):
            TorusGrid(4)

    def test_arrays_are_read_only(self):
        grid = TorusGrid(16)
        with pytest.raises(ValueError):
            grid.points[0] = 1.0
        with pytest.raises(ValueError):
            grid.abs_modes[0] = 5.0


class TestGridMultipliers:
    @pytest.mark.parametrize(
        "name", ["abs_modes", "weights", "derivative_mult", "hilbert_mult", "dealias_mask"]
    )
    def test_read_only_and_built_once(self, name):
        grid = TorusGrid(16)
        mult = getattr(grid, name)
        assert getattr(grid, name) is mult
        with pytest.raises(ValueError):
            mult[1] = 0

    def test_symbols(self):
        grid = TorusGrid(16)
        assert grid.abs_modes.dtype == np.float64
        assert list(grid.abs_modes) == list(range(9))
        for name in ("derivative_mult", "hilbert_mult", "dealias_mask"):
            assert getattr(grid, name).shape == (9,)
        assert list(grid.weights) == [1.0] + [2.0] * 7 + [1.0]
        assert grid.derivative_mult[3] == 3j
        assert grid.hilbert_mult[3] == -1j and grid.hilbert_mult[1] == -1j

    def test_odd_symbols_kill_nyquist_and_hilbert_kills_mean(self):
        grid = TorusGrid(16)
        assert grid.derivative_mult[8] == 0.0
        assert grid.hilbert_mult[8] == 0.0
        assert grid.hilbert_mult[0] == 0.0

    def test_dealias_cut_at_n_over_3(self):
        grid = TorusGrid(96)  # n//3 = 32
        kept = grid.abs_modes[grid.dealias_mask]
        dropped = grid.abs_modes[~grid.dealias_mask]
        assert kept.max() == 32 and dropped.min() == 33
        assert grid.dealias_mask.sum() == 33  # modes 0..32, i.e. 65 of the full layout


class TestFieldContainers:
    def test_real_field_rejects_bad_values(self):
        grid = TorusGrid(16)
        with pytest.raises(ValueError, match="shape"):
            RealField(grid, np.zeros(8))
        with pytest.raises(ValueError, match="finite"):
            RealField(grid, np.full(16, np.nan))

    def test_real_field_copies_and_freezes(self):
        grid = TorusGrid(16)
        values = np.ones(16)
        f = RealField(grid, values)
        values[0] = 7.0  # caller mutation must not leak in
        assert f.values[0] == 1.0
        with pytest.raises(ValueError):
            f.values[0] = 2.0

    def test_spectral_field_requires_hermitian_symmetry(self):
        """The mean must be real up to SYMMETRY_TOL scaled by the largest
        coefficient; interior modes may be complex (a sine)."""
        grid = TorusGrid(16)
        coeffs = np.zeros(9, dtype=complex)
        coeffs[1] = 1e3j
        coeffs[0] = 0.4 * SYMMETRY_TOL * 1e3j  # defect 0.8 * tolerance
        SpectralField(grid, coeffs)
        coeffs[0] = 0.6 * SYMMETRY_TOL * 1e3j  # defect 1.2 * tolerance
        with pytest.raises(ValueError, match="Hermitian"):
            SpectralField(grid, coeffs)

    @pytest.mark.parametrize("slot", [0, 8])
    def test_spectral_field_rejects_imaginary_mean_or_nyquist(self, slot):
        grid = TorusGrid(16)
        coeffs = np.zeros(9, dtype=complex)
        coeffs[slot] = 0.5j
        with pytest.raises(ValueError, match="Hermitian"):
            SpectralField(grid, coeffs)

    def test_spectral_field_rejects_the_full_layout(self):
        grid = TorusGrid(16)
        full = np.fft.fft(np.cos(grid.points), norm="forward")
        with pytest.raises(ValueError, match=r"shape \(9,\)"):
            SpectralField(grid, full)

    def test_half_spectrum_holds_the_positive_modes(self):
        """Slot m holds mode m; mode -m is its conjugate and is not stored."""
        grid = TorusGrid(16)
        F = forward(RealField(grid, np.cos(grid.points)))
        assert F.coeffs[1] == pytest.approx(0.5, abs=1e-14)
        assert F.coeffs[3] == pytest.approx(0.0, abs=1e-14)
        S = forward(RealField(grid, np.sin(grid.points)))
        assert S.coeffs[1] == pytest.approx(-0.5j, abs=1e-14)


class TestTransforms:
    def test_cos_has_half_coefficients(self):
        """The 1/n-normalized transform puts cos x at exactly +-1/2."""
        grid = TorusGrid(64)
        F = forward(RealField(grid, np.cos(grid.points)))
        assert F.coeffs.shape == (33,)
        assert abs(F.coeffs[1] - 0.5) < 1e-15

    def test_round_trip_on_random_fields(self):
        grid = TorusGrid(128)
        rng = np.random.default_rng(11)
        for _ in range(20):
            f = RealField(grid, rng.standard_normal(grid.n))
            back = inverse(forward(f))
            assert np.max(np.abs(back.values - f.values)) < 1e-12

    def test_parseval(self):
        grid = TorusGrid(128)
        rng = np.random.default_rng(3)
        f = RealField(grid, rng.standard_normal(grid.n))
        F = forward(f)
        # ||f||^2_{L2} = 2*pi*sum_m w_m |c_m|^2 = 2*pi*mean(f^2)
        lhs = 2 * np.pi * np.sum(grid.weights * np.abs(F.coeffs) ** 2)
        rhs = 2 * np.pi * np.mean(f.values**2)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestDerivative:
    def test_trig_exactness(self):
        grid = TorusGrid(64)
        f = RealField(grid, np.sin(3 * grid.points))
        df = inverse(derivative(forward(f)))
        assert np.max(np.abs(df.values - 3 * np.cos(3 * grid.points))) < 1e-11

    def test_nyquist_mode_is_killed(self):
        """The n/2 mode has no well-defined odd multiplier; it must map to 0."""
        grid = TorusGrid(16)
        f = RealField(grid, np.cos(8 * grid.points))
        df = inverse(derivative(forward(f)))
        assert np.max(np.abs(df.values)) < 1e-12

    def test_constant_derivative_is_zero(self):
        grid = TorusGrid(32)
        df = inverse(derivative(forward(RealField(grid, np.ones(32)))))
        assert np.max(np.abs(df.values)) == 0.0


class TestTailFraction:
    def test_band_limited_field_has_zero_tail(self):
        grid = TorusGrid(128)
        F = forward(RealField(grid, np.cos(5 * grid.points)))
        assert tail_fraction(grid, F.coeffs) < 1e-28

    def test_single_high_mode_is_all_tail(self):
        grid = TorusGrid(128)
        f = RealField(grid, np.cos(63 * grid.points))
        assert tail_fraction(grid, forward(f).coeffs) == pytest.approx(1.0, abs=1e-12)

    def test_mean_is_excluded_and_zero_field_is_zero(self):
        grid = TorusGrid(64)
        assert tail_fraction(grid, forward(RealField(grid, np.zeros(64))).coeffs) == 0.0
        # pure constant: no fluctuation energy at all, still 0 by convention
        assert tail_fraction(grid, forward(RealField(grid, np.ones(64))).coeffs) == 0.0

    def test_von_mises_bump_resolves_at_256(self):
        grid = TorusGrid(256)
        f = RealField(grid, np.exp(5 * (np.cos(grid.points) - 1)))
        assert tail_fraction(grid, forward(f).coeffs) < 1e-10


def _oracle_field(name: str, grid: TorusGrid) -> np.ndarray:
    x = grid.points
    if name == "cosine":
        return 1.0 + 0.8 * np.cos(x)
    if name == "von_mises":
        return np.exp(5.0 * (np.cos(x) - 1.0))
    return np.random.default_rng(grid.n).standard_normal(grid.n)


class TestParsevalWeights:
    """Half-spectrum diagnostics against sums over all n modes of a full
    complex FFT, with |m| taken from the signed wavenumbers."""

    @pytest.mark.parametrize("field", ["cosine", "von_mises", "white_noise"])
    # 66 and 98 are 2 mod 4, where n/4 falls between two modes.
    @pytest.mark.parametrize("n", [64, 66, 96, 98, 4096])
    def test_sobolev_norm_and_tail_fraction_match_a_full_fft_oracle(self, n, field):
        grid = TorusGrid(n)
        values = _oracle_field(field, grid)
        F = forward(RealField(grid, values))
        full = np.fft.fft(values, norm="forward")
        m = np.abs(np.fft.fftfreq(n, d=1.0 / n))
        for s in (0.0, 0.5, 1.5, 1.95):
            want = np.sqrt(2 * np.pi * np.sum(m ** (2 * s) * np.abs(full) ** 2))
            assert sobolev_norm(F, s) == pytest.approx(want, rel=1e-14)

        def oracle_tail(c):
            energy = np.abs(c) ** 2
            energy[0] = 0.0
            return energy[m > n / 4].sum() / energy.sum()

        # A band-limited field's tail is roundoff (~1e-32) that two different
        # FFTs do not reproduce, so against np.fft.fft the fraction is compared
        # on its own scale, the total energy ...
        assert tail_fraction(grid, F.coeffs) == pytest.approx(oracle_tail(full), rel=1e-14, abs=1e-14)
        # ... and against the Hermitian completion of the same coefficients,
        # which isolates the weights, relatively.
        completed = np.concatenate([F.coeffs, np.conj(F.coeffs[-2:0:-1])])
        assert tail_fraction(grid, F.coeffs) == pytest.approx(oracle_tail(completed), rel=1e-14, abs=0.0)
