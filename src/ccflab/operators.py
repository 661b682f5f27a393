"""Nonlocal operators: Hilbert transform, fractional Laplacian, and the
pointwise dissipation functional D_gamma.

The fractional Laplacian is implemented twice on purpose:

* spectrally, as the multiplier |m|^gamma (`frac_laplacian_spectral`), and
* as a periodized singular integral evaluated by quadrature
  (`frac_laplacian_quadrature`), with its normalization constant c_gamma
  obtained by calibration against the spectral route on mode 1. Every
  quadrature call takes that calibration and reads gamma from it.

The two routes stay arithmetically independent so identities that couple them
(notably the pointwise identity 2*phi*L^g(phi) = L^g(phi^2) + D_gamma(phi))
are genuine cross-checks rather than tautologies: the spectral operators read
their symbols from TorusGrid, and the quadrature (_kernel_weights,
_kernel_spectrum, _apply_quadrature) reads none of them.

Quadrature scheme.  Every quadrature call, calibration included, is one
_apply_quadrature evaluation.  It removes the field's mean, which no difference
sees, to keep |f| small, and takes one rfft of the rest.  The guard judges the
tail fraction on that spectrum (a ValueError at QUADRATURE_TAIL_LIMIT), and
the half-cell shift multiplies it by the phase e^{i m dx/2}.  The singular
integral over y in [-pi, pi) is split into n cells of width dx and evaluated
with the midpoint rule: the cell midpoints are offset half a cell from the
grid, so no evaluation point hits the y=0 singularity, and the shift gives the
field there (exact for the trigonometric interpolant).  The periodized kernel
is the image at y plus the closed-form Hurwitz-zeta sum of every other image
|y - 2*pi*k|^{-(1+gamma)}, so the only discretization error left is the
midpoint rule itself: the scheme converges at order 2 - gamma.  (Measured on
verify_suite, seed 0, at n = 64, 128, ..., 16384: the mode-2 transfer and
product-rule residuals fall by 2^1.50 per doubling at gamma = 0.5 and 2^1.10
at gamma = 0.9, the same to three digits at every doubling.)  The zeta sums
are evaluated in numpy alone by Euler-Maclaurin summation (_hurwitz_zeta: nine
direct terms, eight correction terms), within 7.4e-16 relative of
scipy.special.zeta wherever measured.

The sum over the n offsets is a circular correlation, evaluated with rfft in
O(n log n) time and O(n) memory.  With s the half-shifted field (s_j the value
at x_j + dx/2), k the kernel weights rolled by n//2 so that k_j weights the
offset y = (j + 1/2)*dx, and the correlation (k * g)_i = sum_j k_j g_{i+j}:

    sum_j k_j (f - s_{i+j})   = f * sum(k) - (k * s)
    sum_j k_j (f - s_{i+j})^2 = f^2 * sum(k) - 2 f (k * s) + (k * s^2)

Both forms subtract terms of size sum(k)*|f| ~ n^{1+gamma}*|f|, so their
roundoff relative to the result grows like eps * n^{1+gamma}: within 1e-11 of
the direct sum for n <= 256 at every gamma, and about 1e-12 at n = 4096 for
gamma = 0.9.

The quadrature's one cache, _kernel_spectrum (64 entries), holds per (n, gamma)
the kernel's spectrum (the conjugated rfft of k), its sum and the half-cell
phase, so a call transforms only the field: the one rfft that the guard and
the shift read, the shift's irfft, and one rfft/irfft pair for the
correlation, whose squared form carries s and s^2 as the two rows of a pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .torus import (
    TWO_PI,
    RealField,
    SpectralField,
    TorusGrid,
    forward,
    inverse,
    tail_fraction,
)

# Relative L2 mismatch allowed when fitting c_gamma on mode 1.
CALIBRATION_TOL = 1e-3
# Fields feeding the quadrature must be spectrally resolved at the grid scale.
QUADRATURE_TAIL_LIMIT = 0.1


class CalibrationError(RuntimeError):
    """Raised when c_gamma calibration cannot meet CALIBRATION_TOL."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class CgammaCalibration:
    """Fitted normalization for the singular-integral fractional Laplacian."""

    gamma: float
    c_gamma: float
    residual: float

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < 2.0:
            raise ValueError(f"gamma must be in (0, 2), got {self.gamma}")
        if not self.c_gamma > 0.0:
            raise ValueError(f"c_gamma must be positive, got {self.c_gamma}")
        if not self.residual < CALIBRATION_TOL:
            raise ValueError(
                f"calibration residual {self.residual:.3e} not below {CALIBRATION_TOL:.0e}"
            )


def hilbert(F: SpectralField) -> SpectralField:
    """Periodic Hilbert transform: multiplier -i*sign(m), mean mode killed.

    The Nyquist slot is zeroed like in the spectral derivative: an odd
    multiplier has no real-valued action there on an even grid.
    """
    return SpectralField(F.grid, F.coeffs * F.grid.hilbert_mult)


def frac_laplacian_spectral(F: SpectralField, gamma: float) -> SpectralField:
    """Fractional Laplacian as the Fourier multiplier |m|^gamma."""
    if not 0.0 < gamma <= 2.0:
        raise ValueError(f"gamma must be in (0, 2], got {gamma}")
    return SpectralField(F.grid, F.coeffs * F.grid.abs_modes**gamma)


# B_{2j} / (2j)! for j = 1..8: the Euler-Maclaurin coefficients.
_EULER_MACLAURIN = (
    1 / 12,
    -1 / 720,
    1 / 30240,
    -1 / 1209600,
    1 / 47900160,
    -691 / 1307674368000,
    1 / 74724249600,
    -3617 / 10670622842880000,
)
# Terms (a+k)^{-s} summed directly before the Euler-Maclaurin tail takes over.
_DIRECT_TERMS = 9


def _hurwitz_zeta(s: float, a: np.ndarray) -> np.ndarray:
    """Hurwitz zeta(s, a) = sum_{k>=0} (a+k)^{-s} for 1 < s < 3 and 0 < a < 2.

    Nine direct terms, then, with w = a + 9, the Euler-Maclaurin tail
    w^{1-s}/(s-1) + w^{-s}/2 + sum_{j=1..8} B_{2j}/(2j)! * s(s+1)...(s+2j-2)
    * w^{-s-2j+1}, whose truncation error is below 1e-17 relative on this
    domain, so rounding sets the error (Johansson, Numer. Algorithms 69, 2015).
    """
    if not 1.0 < s < 3.0:
        raise ValueError(f"s must be in (1, 3), got {s}")
    if not np.all((a > 0.0) & (a < 2.0)):
        raise ValueError("a must lie in (0, 2)")
    total = a**-s
    for k in range(1, _DIRECT_TERMS):
        total += (a + k) ** -s
    w = a + _DIRECT_TERMS
    b = w**-s
    total += b * w / (s - 1.0) + 0.5 * b
    # Term j (from 0) adds coeff * s(s+1)...(s+2j) * w^{-s-2j-1}.
    rising = 1.0
    for j, coeff in enumerate(_EULER_MACLAURIN):
        rising *= s + 2 * j
        b = b / w
        total += rising * b * coeff
        rising *= s + 2 * j + 1
        b = b / w
    return total


def _kernel_weights(n: int, gamma: float) -> np.ndarray:
    """Periodized kernel sampled at the cell midpoints -pi + (j+1/2)*dx.

    With q = y/(2*pi) in (-1/2, 1/2), the images k >= 1 and k <= -1 sum to
    (2*pi)^{-(1+gamma)} * zeta(1+gamma, 1-q) and zeta(1+gamma, 1+q). No
    midpoint lies on an image of the y=0 singularity. _hurwitz_zeta sums 9
    terms directly and 8 Euler-Maclaurin terms; at these arguments it is within
    7.4e-16 relative of scipy.special.zeta for 203 gammas from 1e-9 to
    1.999999 and n from 32 to 65536 (tests pin 1e-15).
    """
    s = 1.0 + gamma
    y = -np.pi + (np.arange(n) + 0.5) * (TWO_PI / n)
    q = y / TWO_PI
    return np.abs(y) ** (-s) + TWO_PI ** (-s) * (
        _hurwitz_zeta(s, 1.0 - q) + _hurwitz_zeta(s, 1.0 + q)
    )


@lru_cache(maxsize=64)
def _kernel_spectrum(n: int, gamma: float) -> tuple[np.ndarray, float, np.ndarray]:
    """The quadrature's arrays for one (n, gamma), read only: the correlation's
    kernel, the conjugated rfft of the weights rolled by n//2 (so entry j
    weights y = (j + 1/2)*dx); the rolled weights' sum; and the half-cell
    phase e^{i m dx/2} on modes m = 0..n/2, whose Nyquist entry is taken as
    cos(m*dx/2) = cos(pi/2) = 0, the symmetric real-valued convention."""
    kern = np.roll(_kernel_weights(n, gamma), -(n // 2))
    kern_hat = np.conj(np.fft.rfft(kern))
    kern_hat.flags.writeable = False
    shift = np.exp(1j * np.pi * np.arange(n // 2 + 1) / n)
    shift[n // 2] = 0.0
    shift.flags.writeable = False
    return kern_hat, kern.sum(), shift


def _apply_quadrature(f: RealField, gamma: float, c: float, squared: bool) -> np.ndarray:
    """Evaluate c * dx * sum_j kern_j * (f(x) - f(x+y_j))^(1 or 2) as an rfft
    correlation (see "Quadrature scheme" above). A field whose tail fraction
    reaches QUADRATURE_TAIL_LIMIT is refused with a ValueError."""
    n = f.grid.n
    # The differences ignore the mean; removing it shrinks the cancellation.
    v = f.values - f.values.mean()
    # Unnormalized: the tail fraction is a ratio, and the shift needs these bits.
    v_hat = np.fft.rfft(v)
    tf = tail_fraction(f.grid, v_hat)
    if tf >= QUADRATURE_TAIL_LIMIT:
        raise ValueError(
            f"field spectral tail fraction {tf:.3e} >= {QUADRATURE_TAIL_LIMIT}; "
            "refine the grid before applying the quadrature"
        )
    kern_hat, total, shift = _kernel_spectrum(n, float(gamma))
    s = np.fft.irfft(v_hat * shift, n)
    if squared:
        # k * s and k * s^2 as one (2, n) transform pair; each row is bit-equal
        # to its own transform.
        ks, kss = np.fft.irfft(kern_hat * np.fft.rfft(np.stack((s, s * s))), n)
        out = v * v * total - 2.0 * v * ks + kss
    else:
        out = v * total - np.fft.irfft(kern_hat * np.fft.rfft(s), n)
    return c * f.grid.dx * out


def calibrate_cgamma(gamma: float, grid: TorusGrid) -> CgammaCalibration:
    """Fit c_gamma so the quadrature reproduces the spectral answer on mode 1.

    Least squares against the target cos(x) (for which the multiplier answer
    is cos(x) at every gamma); the relative L2 mismatch after rescaling is
    reported as the residual.
    """
    if not 0.0 < gamma < 2.0:
        raise ValueError(f"gamma must be in (0, 2), got {gamma}")
    probe = RealField(grid, np.cos(grid.points))
    raw = _apply_quadrature(probe, gamma, 1.0, squared=False)
    target = probe.values
    denom = float(raw @ raw)
    if not np.isfinite(denom) or denom == 0.0:
        raise CalibrationError(
            f"degenerate quadrature for gamma={gamma} (n={grid.n})",
            residual=float("inf"),
        )
    c = float(raw @ target) / denom
    residual = float(np.linalg.norm(c * raw - target) / np.linalg.norm(target))
    if not (c > 0.0 and residual < CALIBRATION_TOL):
        raise CalibrationError(
            f"calibration failed for gamma={gamma}: residual {residual:.3e} (n={grid.n})",
            residual=residual,
        )
    return CgammaCalibration(gamma=float(gamma), c_gamma=c, residual=residual)


def frac_laplacian_quadrature(f: RealField, cal: CgammaCalibration) -> RealField:
    """Fractional Laplacian of order cal.gamma via the periodized singular integral."""
    return RealField(f.grid, _apply_quadrature(f, cal.gamma, cal.c_gamma, squared=False))


def dgamma(f: RealField, cal: CgammaCalibration) -> RealField:
    """Pointwise dissipation functional D_gamma of f, at gamma = cal.gamma.

    The integrand is a square, so the output is nonnegative up to roundoff.
    """
    return RealField(f.grid, _apply_quadrature(f, cal.gamma, cal.c_gamma, squared=True))


def cordoba_identity_residual(f: RealField, cal: CgammaCalibration) -> float:
    """Max-norm residual of 2*f*L^g(f) - L^g(f^2) - D_gamma(f), at g = cal.gamma.

    L^g terms use the spectral route, D_gamma the quadrature route, so this is
    the cross-implementation consistency check between the two.
    """
    F = forward(f)
    lhs = 2.0 * f.values * inverse(frac_laplacian_spectral(F, cal.gamma)).values
    square = RealField(f.grid, f.values * f.values)
    rhs = inverse(frac_laplacian_spectral(forward(square), cal.gamma)).values
    rhs = rhs + dgamma(f, cal).values
    return float(np.max(np.abs(lhs - rhs)))


__all__ = [
    "CALIBRATION_TOL",
    "QUADRATURE_TAIL_LIMIT",
    "CalibrationError",
    "CgammaCalibration",
    "hilbert",
    "frac_laplacian_spectral",
    "calibrate_cgamma",
    "frac_laplacian_quadrature",
    "dgamma",
    "cordoba_identity_residual",
]
