"""Uniform grids on the 2*pi torus and the discrete Fourier layer.

Conventions used across the package:

* Grid points are x_j = 2*pi*j/n for j = 0..n-1, n even.
* Spectral coefficients follow theta_hat[m] = (1/n) * sum_j theta(x_j) e^{-i m x_j},
  so that cos(x) maps to coefficient 1/2 on mode 1. This is numpy's
  norm="forward" and the only normalization: every field transform states it
  in the call, no coefficient array is rescaled by n, and chained solver.step()
  reproduces solver.run() bit for bit at every even n.
* Fields are real, so the negative modes are the conjugates of the positive
  ones and carry nothing new. Every coefficient array, the solver state
  included, is the rfft half spectrum m = 0, 1, ..., n/2 (n//2+1 entries).
* The slot at index n/2 is the Nyquist mode. It is zeroed by odd multipliers
  (derivative, Hilbert) because an odd symbol has no real-valued counterpart
  there on an even grid.
* TorusGrid is the one place the spectral symbols are built: |m|, the
  derivative i*m, the Hilbert symbol -i*sign(m), the 2/3-rule dealias mask and
  the Parseval weights. Every spectral operator reads them from there. The
  quadrature route in `operators` deliberately builds nothing from them.
* Parseval under this normalization: ||theta||_{L^2}^2 = 2*pi * sum_m w_m |theta_hat[m]|^2,
  where the weight w_m counts the modes +-m a half-spectrum slot stands for:
  1 at m = 0 and m = n/2, 2 elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * np.pi

# Tolerance on the imaginary parts of the mean and Nyquist coefficients at
# SpectralField construction, scaled by the coefficient magnitude so
# large-amplitude states are not rejected for roundoff.
SYMMETRY_TOL = 1e-12


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _frozen(values, dtype, size: int, name: str) -> np.ndarray:
    """A read-only private copy of values as a finite (size,) array of dtype,
    or a ValueError naming the field."""
    a = np.array(values, dtype=dtype)
    if a.shape != (size,):
        raise ValueError(f"{name} must have shape ({size},), got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return _read_only(a)


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
    def abs_modes(self) -> np.ndarray:
        """|m| = 0..n/2, the half spectrum's wavenumbers as float64: the base of every |m|^s."""
        return _read_only(np.arange(self.n // 2 + 1, dtype=np.float64))

    @cached_property
    def weights(self) -> np.ndarray:
        """Parseval multiplicity of each slot: 1 at m = 0 and m = n/2, else 2."""
        w = np.full(self.n // 2 + 1, 2.0)
        w[[0, -1]] = 1.0
        return _read_only(w)

    @cached_property
    def derivative_mult(self) -> np.ndarray:
        """Derivative symbol i*m, Nyquist slot zeroed."""
        mult = 1j * self.abs_modes
        mult[-1] = 0.0
        return _read_only(mult)

    @cached_property
    def hilbert_mult(self) -> np.ndarray:
        """Hilbert symbol -i*sign(m): mean slot 0, Nyquist slot zeroed."""
        mult = -1j * np.sign(self.abs_modes)
        mult[-1] = 0.0
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
        object.__setattr__(self, "values", _frozen(self.values, np.float64, self.grid.n, "values"))


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Fourier coefficients theta_hat[m] of a real field, m = 0..n/2.

    The half spectrum can still fail to be the transform of a real field in
    one way: a mean or Nyquist coefficient with an imaginary part. Construction
    rejects that beyond SYMMETRY_TOL, scaled by the coefficient magnitude.
    """

    grid: TorusGrid
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        coeffs = _frozen(self.coeffs, np.complex128, self.grid.n // 2 + 1, "coeffs")
        # The mean and Nyquist modes are their own conjugate partners, so
        # their defect |c - conj(c)| is twice the imaginary part. The scale is
        # at least 1, so a defect within SYMMETRY_TOL passes without it.
        defect = 2.0 * max(abs(coeffs[0].imag), abs(coeffs[-1].imag))
        if defect > SYMMETRY_TOL:
            scale = max(1.0, float(np.max(np.abs(coeffs))))
            if defect > SYMMETRY_TOL * scale:
                raise ValueError(
                    f"coeffs violate Hermitian symmetry (defect {defect:.3e}, "
                    f"tolerance {SYMMETRY_TOL * scale:.3e})"
                )
        object.__setattr__(self, "coeffs", coeffs)


def forward(f: RealField) -> SpectralField:
    """Half-spectrum DFT of a real field under the 1/n normalization."""
    return SpectralField(f.grid, np.fft.rfft(f.values, norm="forward"))


def inverse(F: SpectralField) -> RealField:
    """Inverse DFT of the half spectrum back to real samples."""
    return RealField(F.grid, np.fft.irfft(F.coeffs, F.grid.n, norm="forward"))


def derivative(F: SpectralField) -> SpectralField:
    """Spectral derivative: multiply by i*m, Nyquist mode zeroed."""
    return SpectralField(F.grid, F.coeffs * F.grid.derivative_mult)


# A spectrum is resolved while its tail fraction stays at or below this. The
# solver's detectors and the energy probe's refusal test that one fact.
TAIL_LIMIT = 1e-4


def tail_fraction(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Energy fraction carried by modes |m| > n/4 (slots n//4+1..n/2), mean
    mode excluded, of a half spectrum or of each row of a stack of them; 0 for
    a field with no energy outside its mean."""
    energy = grid.weights * np.abs(coeffs) ** 2
    energy[..., 0] = 0.0
    total, high = energy.sum(axis=-1), energy[..., grid.n // 4 + 1:].sum(axis=-1)
    return high / np.where(total == 0.0, 1.0, total)  # a zero total has a zero high part
