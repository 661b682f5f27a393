"""Operator verification suite: named residuals with documented tolerances.

Two kinds of rows. Exact identities (Hilbert involution, skew-symmetry,
Lambda = H d/dx, multiplier semigroup) hold to roundoff on band-limited
fields and get a 1e-10 budget. Cross-route checks compare the spectral
multiplier against the singular-integral quadrature (calibration transfer
across modes, the pointwise dissipation closed form on cos, the product-rule
identity on cos x + 0.05 sin 2x) and get the quadrature budget of 1e-2.

Random test fields are seeded and band-limited to |m| <= n//8 with zero mean,
the regime where the Hilbert involution is exact. Each field is transformed
once: its spectrum forward(f) and its Hilbert transform inverse(hilbert(F))
are computed up front and shared by the exact rows.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .operators import (
    CALIBRATION_TOL,
    CgammaCalibration,
    calibrate_cgamma,
    cordoba_identity_residual,
    dgamma,
    frac_laplacian_quadrature,
    frac_laplacian_spectral,
    hilbert,
)
from .torus import RealField, SpectralField, TorusGrid, derivative, forward, inverse

EXACT_TOL = 1e-10
QUADRATURE_TOL = 1e-2


@dataclass(frozen=True)
class VerifyRow:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual < self.tolerance


def random_band_limited(grid: TorusGrid, rng: np.random.Generator) -> RealField:
    """Zero-mean real field with Gaussian coefficients on modes 1..n//8.

    Each mode m gets a*cos(m x) + b*sin(m x), drawn as (a, b) pairs in mode
    order.
    """
    cutoff = grid.n // 8
    ab = rng.standard_normal((cutoff, 2))
    coeffs = np.zeros(grid.n // 2 + 1, dtype=complex)
    coeffs[1 : cutoff + 1] = (ab[:, 0] - 1j * ab[:, 1]) / 2
    return inverse(SpectralField(grid, coeffs))


def _rel(err: float, scale: float) -> float:
    return err / max(scale, 1e-300)


def _worst(check, *columns) -> float:
    """Largest err/scale of check(*case) over the cases zipped from columns.
    A NaN is read as inf: max would keep its running value past it."""
    residuals = [_rel(*check(*case)) for case in zip(*columns)]
    return max(math.inf if math.isnan(r) else r for r in residuals)


def _hilbert_involution(f: RealField, F: SpectralField) -> tuple[float, float]:
    twice = inverse(hilbert(hilbert(F)))
    return float(np.max(np.abs(twice.values + f.values))), float(np.max(np.abs(f.values)))


def _hilbert_skewness(f: RealField, hf: np.ndarray, g: RealField, hg: np.ndarray) -> tuple[float, float]:
    pairing = float(np.mean(hf * g.values) + np.mean(f.values * hg))
    return abs(pairing), float(np.mean(np.abs(f.values * g.values)))


def _lambda_is_h_dx(F: SpectralField) -> tuple[float, float]:
    lam = inverse(frac_laplacian_spectral(F, 1.0)).values
    hdx = inverse(hilbert(derivative(F))).values
    return float(np.max(np.abs(lam - hdx))), float(np.max(np.abs(lam)))


def _semigroup(F: SpectralField) -> tuple[float, float]:
    once = frac_laplacian_spectral(frac_laplacian_spectral(F, 0.3), 0.7)
    direct = frac_laplacian_spectral(F, 0.3 + 0.7)
    return float(np.max(np.abs(once.coeffs - direct.coeffs))), float(np.max(np.abs(direct.coeffs)))


def _calibration_cross_mode(grid: TorusGrid, cal: CgammaCalibration) -> float:
    """A mode-1 calibration tested on mode 2 against the exact multiplier 2^gamma."""
    f2 = RealField(grid, np.cos(2.0 * grid.points))
    quad = frac_laplacian_quadrature(f2, cal).values
    exact = 2.0**cal.gamma * np.cos(2.0 * grid.points)
    err = float(np.sqrt(np.mean((quad - exact) ** 2)))
    return _rel(err, float(np.sqrt(np.mean(exact**2))))


def _dgamma_closed_form(grid: TorusGrid, cal: CgammaCalibration) -> float:
    """D_gamma(cos) against 1 + (1 - 2^(gamma-1)) cos(2x), exact for all gamma."""
    f = RealField(grid, np.cos(grid.points))
    got = dgamma(f, cal).values
    expected = 1.0 + (1.0 - 2.0 ** (cal.gamma - 1.0)) * np.cos(2.0 * grid.points)
    return float(np.max(np.abs(got - expected)))


def _exact_rows(grid: TorusGrid, seed: int) -> list[VerifyRow]:
    """The exact rows on six random fields, each transformed once; the fields
    and their transforms are dropped on return."""
    rng = np.random.default_rng(seed)
    fields = [random_band_limited(grid, rng) for _ in range(6)]
    spectra = [forward(f) for f in fields]
    hilberts = [inverse(hilbert(F)).values for F in spectra]
    return [
        VerifyRow("hilbert_involution_H2_eq_minus_I", _worst(_hilbert_involution, fields, spectra), EXACT_TOL),
        VerifyRow(
            "hilbert_skew_symmetry",
            _worst(_hilbert_skewness, fields, hilberts, fields[1:], hilberts[1:]),
            EXACT_TOL,
        ),
        VerifyRow("lambda_equals_H_dx", _worst(_lambda_is_h_dx, spectra), EXACT_TOL),
        VerifyRow("multiplier_semigroup_0.3_0.7", _worst(_semigroup, spectra), EXACT_TOL),
    ]


def verify_suite(n: int = 256, seed: int = 0) -> list[VerifyRow]:
    """Residual table of every check on six random fields, deterministic per seed."""
    grid = TorusGrid(n)
    rows = _exact_rows(grid, seed)
    cals = {gamma: calibrate_cgamma(gamma, grid) for gamma in (0.5, 0.9, 1.0)}
    # Not cos alone: on cos the product rule reduces to the closed form of D_gamma(cos).
    f = RealField(grid, np.cos(grid.points) + 0.05 * np.sin(2.0 * grid.points))
    for gamma in (0.5, 0.9):
        cal = cals[gamma]
        cross = _calibration_cross_mode(grid, cal)
        rows.append(
            VerifyRow(f"calibration_residual_gamma_{gamma:g}", cal.residual, CALIBRATION_TOL)
        )
        rows.append(VerifyRow(f"quadrature_mode2_transfer_gamma_{gamma:g}", cross, QUADRATURE_TOL))
        rows.append(
            VerifyRow(
                f"product_rule_identity_gamma_{gamma:g}",
                cordoba_identity_residual(f, cal),
                QUADRATURE_TOL,
            )
        )
    for gamma in (0.5, 1.0):
        rows.append(
            VerifyRow(
                f"dissipation_closed_form_gamma_{gamma:g}",
                _dgamma_closed_form(grid, cals[gamma]),
                QUADRATURE_TOL,
            )
        )
    return rows


def format_table(rows: list[VerifyRow]) -> str:
    width = max(len(r.name) for r in rows)
    lines = [f"{'check'.ljust(width)}  {'residual':>12}  {'tol':>8}  status"]
    for r in rows:
        status = "ok" if r.passed else "FAIL"
        lines.append(f"{r.name.ljust(width)}  {r.residual:12.3e}  {r.tolerance:8.0e}  {status}")
    return "\n".join(lines)


def format_json(rows: list[VerifyRow]) -> str:
    """The rows as a strict JSON array of {name, residual, tolerance, passed}.
    A non-finite residual is null, since JSON has no token for it; such a row
    never passes."""
    return json.dumps(
        [{**asdict(r), "residual": r.residual if math.isfinite(r.residual) else None, "passed": r.passed}
         for r in rows],
        allow_nan=False,
    )
