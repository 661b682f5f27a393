"""Tests for the spectral-route operators: Hilbert transform, the fractional
Laplacian multiplier, and the commutator bracket built from them."""

import numpy as np
import pytest

from ccflab.operators import frac_laplacian_spectral, hilbert
from ccflab.regularity import sobolev_norm
from ccflab.torus import RealField, SpectralField, TorusGrid, derivative, forward, inverse
from ccflab.verify import random_band_limited


def _apply(op, f, *args):
    return inverse(op(forward(f), *args)).values


def _bracket(f, g, s):
    """[Lambda^s, f] g = Lambda^s(f*g) - f*Lambda^s(g), each product cut by the
    grid's 2/3 dealias mask before transforming back."""
    mask = f.grid.dealias_mask
    lsg = inverse(frac_laplacian_spectral(forward(g), s))
    first = frac_laplacian_spectral(forward(RealField(f.grid, f.values * g.values)), s)
    second = forward(RealField(f.grid, f.values * lsg.values))
    return inverse(SpectralField(f.grid, (first.coeffs - second.coeffs) * mask))


class TestHilbert:
    def test_cos_maps_to_sin(self):
        grid = TorusGrid(64)
        x = grid.points
        assert np.max(np.abs(_apply(hilbert, RealField(grid, np.cos(x))) - np.sin(x))) < 1e-13
        assert np.max(np.abs(_apply(hilbert, RealField(grid, np.sin(x))) + np.cos(x))) < 1e-13

    def test_kills_mean_and_nyquist(self):
        grid = TorusGrid(32)
        f = RealField(grid, 2.0 + np.cos(16 * grid.points))
        assert np.max(np.abs(_apply(hilbert, f))) < 1e-13

    def test_involution_on_mean_free_fields(self):
        """H^2 = -I away from the kernel (mean and Nyquist modes)."""
        grid = TorusGrid(256)
        rng = np.random.default_rng(7)
        for _ in range(20):
            f = random_band_limited(grid, rng)
            twice = _apply(hilbert, inverse(hilbert(forward(f))))
            assert np.max(np.abs(twice + f.values)) < 1e-10

    def test_skew_adjointness(self):
        grid = TorusGrid(128)
        rng = np.random.default_rng(13)
        for _ in range(10):
            f = random_band_limited(grid, rng)
            g = random_band_limited(grid, rng)
            hf = _apply(hilbert, f)
            hg = _apply(hilbert, g)
            pairing = np.mean(hf * g.values) + np.mean(f.values * hg)
            assert abs(pairing) < 1e-12


class TestFracLaplacianSpectral:
    def test_single_mode_multiplier(self):
        grid = TorusGrid(64)
        x = grid.points
        for gamma in (0.5, 1.0, 1.7):
            out = _apply(frac_laplacian_spectral, RealField(grid, np.cos(3 * x)), gamma)
            assert np.max(np.abs(out - 3.0**gamma * np.cos(3 * x))) < 1e-12

    def test_gamma_range_enforced(self):
        grid = TorusGrid(64)
        F = forward(RealField(grid, np.cos(grid.points)))
        with pytest.raises(ValueError, match="gamma"):
            frac_laplacian_spectral(F, 0.0)
        with pytest.raises(ValueError, match="gamma"):
            frac_laplacian_spectral(F, 2.5)

    def test_matches_hilbert_derivative_at_gamma_one(self):
        grid = TorusGrid(256)
        rng = np.random.default_rng(29)
        for _ in range(10):
            f = random_band_limited(grid, rng)
            lam = _apply(frac_laplacian_spectral, f, 1.0)
            hdx = inverse(hilbert(derivative(forward(f)))).values
            scale = np.max(np.abs(lam))
            assert np.max(np.abs(lam - hdx)) < 1e-10 * max(scale, 1.0)

    def test_semigroup_property(self):
        grid = TorusGrid(128)
        rng = np.random.default_rng(31)
        f = random_band_limited(grid, rng)
        once = frac_laplacian_spectral(frac_laplacian_spectral(forward(f), 0.4), 0.8)
        direct = frac_laplacian_spectral(forward(f), 1.2)
        assert np.max(np.abs(once.coeffs - direct.coeffs)) < 1e-13


class TestCommutator:
    @pytest.mark.parametrize("seed", range(40))
    def test_constant_f_commutes_to_roundoff(self, seed):
        """A constant commutes with Lambda^s and with the dealias mask, so the
        bracket is the roundoff of one irfft/rfft round trip, measured against
        the size of the f*Lambda^s(g) term it cancels."""
        grid = TorusGrid(128)
        rng = np.random.default_rng(seed)
        f = RealField(grid, np.full(grid.n, 3.0))
        g = random_band_limited(grid, rng)
        out = _bracket(f, g, 1.5)
        scale = np.max(np.abs(3.0 * _apply(frac_laplacian_spectral, g, 1.5)))
        assert np.max(np.abs(out.values)) < 1e-14 * scale

    def test_bound_fit_is_stable_across_random_fields(self):
        """The bracket norm over f_x/Lambda^s f terms: fit the constant on the
        first pair, then demand every later ratio stays within a factor 3."""
        grid = TorusGrid(256)
        rng = np.random.default_rng(23)
        s = 1.5
        ratios = []
        for _ in range(20):
            f = random_band_limited(grid, rng)
            g = random_band_limited(grid, rng)
            bracket = sobolev_norm(forward(_bracket(f, g, s)), 0.0)
            fx = np.max(np.abs(inverse(derivative(forward(f))).values))
            lsf = np.max(np.abs(_apply(frac_laplacian_spectral, f, s)))
            bound = fx * sobolev_norm(forward(g), s - 1.0) + lsf * sobolev_norm(forward(g), 0.0)
            ratios.append(bracket / bound)
        fitted = ratios[0]
        for r in ratios[1:]:
            assert r < 3.0 * fitted
            assert r > fitted / 3.0
