"""Tests for the verify suite: its random test fields, its rows and their JSON form."""

import json
from pathlib import Path

import numpy as np
import pytest

from ccflab import verify
from ccflab.operators import frac_laplacian_spectral, hilbert
from ccflab.torus import TorusGrid, derivative, forward, inverse
from ccflab.verify import random_band_limited, verify_suite


def _per_mode_sum(grid, rng, cutoff):
    """The field summed mode by mode, one (a, b) draw per mode."""
    x = grid.points
    values = np.zeros(grid.n)
    for m in range(1, cutoff + 1):
        a, b = rng.standard_normal(2)
        values += a * np.cos(m * x) + b * np.sin(m * x)
    return values


class TestRandomBandLimited:
    @pytest.mark.parametrize("n", [4096, 64])
    def test_matches_the_per_mode_sum_and_leaves_the_stream_in_step(self, n):
        grid = TorusGrid(n)
        rng_sum, rng_field = np.random.default_rng(5), np.random.default_rng(5)
        want = _per_mode_sum(grid, rng_sum, n // 8)
        got = random_band_limited(grid, rng_field).values
        scale = max(np.max(np.abs(want)), 1.0)
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
        assert rng_field.standard_normal() == rng_sum.standard_normal()

    def test_zero_mean_and_band_limited(self):
        grid = TorusGrid(64)
        f = random_band_limited(grid, np.random.default_rng(2))
        coeffs = np.fft.rfft(f.values)
        assert abs(coeffs[0]) < 1e-12
        assert np.max(np.abs(coeffs[9:])) < 1e-12


def _exact_rows_one_transform_per_call(n, seed):
    """The four exact rows with every helper transforming its own field
    afresh, as the suite did before it shared one spectrum per field."""
    grid = TorusGrid(n)
    rng = np.random.default_rng(seed)
    fields = [random_band_limited(grid, rng) for _ in range(6)]

    def involution(f):
        twice = inverse(hilbert(hilbert(forward(f))))
        return np.max(np.abs(twice.values + f.values)) / np.max(np.abs(f.values))

    def skewness(f, g):
        hf = inverse(hilbert(forward(f))).values
        hg = inverse(hilbert(forward(g))).values
        pairing = float(np.mean(hf * g.values) + np.mean(f.values * hg))
        return abs(pairing) / float(np.mean(np.abs(f.values * g.values)))

    def lambda_is_h_dx(f):
        lam = inverse(frac_laplacian_spectral(forward(f), 1.0)).values
        hdx = inverse(hilbert(derivative(forward(f)))).values
        return np.max(np.abs(lam - hdx)) / np.max(np.abs(lam))

    def semigroup(f):
        once = frac_laplacian_spectral(frac_laplacian_spectral(forward(f), 0.3), 0.7)
        direct = frac_laplacian_spectral(forward(f), 0.3 + 0.7)
        return np.max(np.abs(once.coeffs - direct.coeffs)) / np.max(np.abs(direct.coeffs))

    return [
        max(float(involution(f)) for f in fields),
        max(skewness(f, g) for f, g in zip(fields, fields[1:])),
        max(float(lambda_is_h_dx(f)) for f in fields),
        max(float(semigroup(f)) for f in fields),
    ]


@pytest.mark.parametrize("n", [64, 4096])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shared_transforms_give_the_per_call_residuals(n, seed):
    rows = verify_suite(n=n, seed=seed)
    assert [r.residual for r in rows[:4]] == _exact_rows_one_transform_per_call(n, seed)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_row_passes_at_n_12(seed):
    """n = 12 is the smallest grid on which every row passes: at n = 10 the
    gamma = 0.5 mode-2 transfer fails, and at n = 8 all three gamma = 0.5
    cross-route rows do."""
    rows = verify_suite(n=12, seed=seed)
    assert [r.name for r in rows if not r.passed] == []


def test_suite_calibrates_each_gamma_once(monkeypatch):
    calibrated = []
    calibrate = verify.calibrate_cgamma
    monkeypatch.setattr(verify, "calibrate_cgamma", lambda gamma, grid: calibrated.append(gamma) or calibrate(gamma, grid))
    assert all(row.passed for row in verify_suite(n=64))
    assert sorted(calibrated) == [0.5, 0.9, 1.0]


def test_verify_rows_and_calibrations_are_the_benchmark_references(monkeypatch):
    """The quadrature benchmark checks verify's rows against its reference
    file: the same row names in the same order, and one c_gamma per calibrated gamma."""
    reference = json.loads((Path(__file__).parents[1] / "perfbench" / "reference.json").read_text())["quadrature"]
    calibrated = []
    calibrate = verify.calibrate_cgamma
    monkeypatch.setattr(verify, "calibrate_cgamma", lambda gamma, grid: calibrated.append(gamma) or calibrate(gamma, grid))
    assert [r.name for r in verify_suite(n=reference["n"])] == reference["rows"]
    assert {repr(gamma) for gamma in calibrated} == set(reference["c_gamma"])


@pytest.mark.parametrize("n", [12, 256, 4096])
def test_the_gamma_half_product_rule_row_is_not_the_closed_form_row(n):
    """On cos alone the product rule reduces to D_gamma(cos)'s closed form, so
    the two gamma = 0.5 rows read the same error; the product rule's field differs."""
    rows = {r.name: r.residual for r in verify_suite(n=n)}
    product, closed = rows["product_rule_identity_gamma_0.5"], rows["dissipation_closed_form_gamma_0.5"]
    assert abs(product - closed) > 0.1 * closed


def test_a_nan_residual_after_the_first_field_fails_the_row(monkeypatch):
    involution = verify._hilbert_involution
    calls = []

    def third_is_nan(f, F):
        calls.append(f)
        err, scale = involution(f, F)
        return (float("nan"), scale) if len(calls) == 3 else (err, scale)

    monkeypatch.setattr(verify, "_hilbert_involution", third_is_nan)
    row = verify_suite(n=64)[0]
    assert row.name == "hilbert_involution_H2_eq_minus_I"
    assert len(calls) == 6
    assert row.residual == float("inf")
    assert not row.passed


def test_json_rows_match_the_table_rows():
    rows = verify_suite(n=64)
    assert json.loads(verify.format_json(rows)) == [
        {"name": r.name, "residual": r.residual, "tolerance": r.tolerance, "passed": r.passed} for r in rows
    ]


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


@pytest.mark.parametrize("residual", [float("inf"), float("nan")])
def test_a_non_finite_residual_is_strict_json_null(residual):
    rows = [verify.VerifyRow("finite", 1e-12, 1e-10), verify.VerifyRow("broken", residual, 1e-10)]
    assert json.loads(verify.format_json(rows), parse_constant=_reject_constant) == [
        {"name": "finite", "residual": 1e-12, "tolerance": 1e-10, "passed": True},
        {"name": "broken", "residual": None, "tolerance": 1e-10, "passed": False},
    ]
