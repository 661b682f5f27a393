"""Uniform grids on the 2*pi torus and the discrete Fourier layer.

Conventions used across the package:

* Grid points are x_j = 2*pi*j/n for j = 0..n-1, n even.
* Spectral coefficients follow theta_hat[m] = (1/n) * sum_j theta(x_j) e^{-i m x_j},
  stored in FFT layout (m = 0, 1, ..., n/2-1, -n/2, ..., -1), so that cos(x)
  maps to coefficients +-1/2 on modes +-1. This is numpy's norm="forward" and the
  only normalization: every field transform states it in the call, no coefficient
  array is rescaled by n, and chained solver.step() reproduces solver.run() bit
  for bit at every even n.
* The slot at index n/2 is the Nyquist mode. It is zeroed by odd multipliers
  (derivative, Hilbert) because an odd symbol has no real-valued counterpart
  there on an even grid.
* TorusGrid is the one place the spectral symbols are built: |m|, the
  derivative i*m, the Hilbert symbol -i*sign(m) and the 2/3-rule dealias mask.
  Every spectral operator reads them from there. The quadrature route in
  `operators` deliberately builds nothing from them.
* Parseval under this normalization: ||theta||_{L^2}^2 = 2*pi * sum_m |theta_hat[m]|^2.
* The public layout is the full FFT layout above; every SpectralField holds
  all n coefficients. The solver's hot loop carries the rfft half spectrum
  instead, which is the first n//2+1 entries of that layout (m = 0..n/2): the
  negative modes are the conjugates of the positive ones. `half_spectrum` and
  `full_spectrum` convert between the two, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * np.pi

# Hermitian symmetry tolerance for SpectralField construction, scaled by the
# coefficient magnitude so large-amplitude states are not rejected for roundoff.
SYMMETRY_TOL = 1e-12


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class TorusGrid:
    """Uniform collocation grid with n points on [0, 2*pi)."""

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"n must be even and >= 8, got {self.n}")

    @cached_property
    def points(self) -> np.ndarray:
        """Grid points x_j = 2*pi*j/n, strictly increasing in [0, 2*pi)."""
        return _read_only(TWO_PI * np.arange(self.n) / self.n)

    @cached_property
    def modes(self) -> np.ndarray:
        """Signed integer wavenumbers in FFT layout (index n/2 holds -n/2)."""
        return _read_only(np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.int64))

    @cached_property
    def abs_modes(self) -> np.ndarray:
        """|m| as float64, the base of every |m|^s multiplier."""
        return _read_only(np.abs(self.modes).astype(np.float64))

    @cached_property
    def derivative_mult(self) -> np.ndarray:
        """Derivative symbol i*m, Nyquist slot zeroed."""
        mult = 1j * self.modes.astype(np.float64)
        mult[self.n // 2] = 0.0
        return _read_only(mult)

    @cached_property
    def hilbert_mult(self) -> np.ndarray:
        """Hilbert symbol -i*sign(m): mean slot 0, Nyquist slot zeroed."""
        mult = -1j * np.sign(self.modes).astype(np.float64)
        mult[self.n // 2] = 0.0
        return _read_only(mult)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """True on the modes |m| <= floor(n/3) kept by the 2/3 rule."""
        return _read_only(self.abs_modes <= self.n // 3)

    @property
    def dx(self) -> float:
        return TWO_PI / self.n


@dataclass(frozen=True, eq=False)
class RealField:
    """Real samples theta(x_j) on a TorusGrid."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (self.grid.n,):
            raise ValueError(
                f"values must have shape ({self.grid.n},), got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Fourier coefficients theta_hat[m] in FFT layout, Hermitian symmetric.

    Construction rejects coefficient arrays that are not (up to SYMMETRY_TOL,
    scaled by the coefficient magnitude) the transform of a real field.
    """

    grid: TorusGrid
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        n = self.grid.n
        if coeffs.shape != (n,):
            raise ValueError(f"coeffs must have shape ({n},), got {coeffs.shape}")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coeffs must be finite")
        # conjugate partner of index m is (-m) mod n; the Nyquist slot pairs
        # with itself, which forces it (and the mean) to be real.
        partner = np.conj(coeffs[(-np.arange(n)) % n])
        scale = max(1.0, float(np.max(np.abs(coeffs))))
        defect = float(np.max(np.abs(coeffs - partner)))
        if defect > SYMMETRY_TOL * scale:
            raise ValueError(
                f"coeffs violate Hermitian symmetry (defect {defect:.3e}, "
                f"tolerance {SYMMETRY_TOL * scale:.3e})"
            )
        coeffs = coeffs.copy()
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    def coeff(self, m: int) -> complex:
        """Coefficient of mode m for |m| <= n/2 (the +-n/2 slots coincide)."""
        n = self.grid.n
        if abs(m) > n // 2:
            raise ValueError(f"mode {m} outside resolved range |m| <= {n // 2}")
        return complex(self.coeffs[m % n])


def half_spectrum(coeffs: np.ndarray) -> np.ndarray:
    """The rfft half spectrum (m = 0..n/2) of an FFT-layout array: a view of
    its first n//2+1 entries. Slices symbols and Hermitian coefficients alike."""
    return coeffs[: len(coeffs) // 2 + 1]


def full_spectrum(half: np.ndarray) -> np.ndarray:
    """The FFT-layout array whose half spectrum is `half`, completed by
    Hermitian symmetry; its first n//2+1 entries are `half` bit for bit."""
    return np.concatenate([half, np.conj(half[-2:0:-1])])


def forward(f: RealField) -> SpectralField:
    """DFT of a real field under the 1/n normalization (norm="forward")."""
    return SpectralField(f.grid, np.fft.fft(f.values, norm="forward"))


def inverse(F: SpectralField) -> RealField:
    """Inverse DFT back to real samples.

    Symmetry was enforced at construction, so the imaginary residue of the
    inverse transform is roundoff and is discarded.
    """
    return RealField(F.grid, np.fft.ifft(F.coeffs, norm="forward").real)


def derivative(F: SpectralField) -> SpectralField:
    """Spectral derivative: multiply by i*m, Nyquist mode zeroed."""
    return SpectralField(F.grid, F.coeffs * F.grid.derivative_mult)


def dealias(F: SpectralField) -> SpectralField:
    """Zero all modes with |m| > floor(n/3) (2/3 rule for quadratic terms)."""
    return SpectralField(F.grid, np.where(F.grid.dealias_mask, F.coeffs, 0.0))


def tail_fraction(F: SpectralField) -> float:
    """Energy fraction carried by modes |m| > n/4, mean mode excluded.

    Returns 0 for an (almost) zero field by convention.
    """
    energy = np.abs(F.coeffs) ** 2
    energy[0] = 0.0
    total = float(energy.sum())
    if total == 0.0:
        return 0.0
    high = float(energy[F.grid.abs_modes > F.grid.n / 4].sum())
    return high / total
