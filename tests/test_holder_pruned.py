"""The pruned Holder scan against the scan over every shift.

holder_seminorm evaluates only the shifts whose subadditivity bound can still
set the maximum. These tests pin its result bit for bit (==) to a loop over
all n/2 shifts, and cap how many shifts it evaluates, so a later edit can
neither lose exactness nor quietly bring back the full scan.
"""

import numpy as np
import pytest
from test_holder_kernel import ALPHAS

from ccflab import regularity
from ccflab.experiments import make_datum, von_mises_bump
from ccflab.regularity import holder_seminorm
from ccflab.solver import ModelParams, SolverState, StepControl, run, step
from ccflab.torus import TWO_PI, RealField, TorusGrid, forward, inverse


def _increments(values):
    """A(h) for h = 1..n/2, each from its own shifted difference."""
    n = values.size
    doubled = np.concatenate((values, values))
    delta = np.empty(n)
    increments = []
    for h in range(1, n // 2 + 1):
        np.abs(np.subtract(doubled[h : h + n], values, out=delta), out=delta)
        increments.append(float(delta.max()))
    return increments


def _full_scan(increments, dx, alpha):
    best = 0.0
    for h, a in enumerate(increments, 1):
        d = min(h * dx, TWO_PI - h * dx)
        best = max(best, a / d**alpha)
    return best


def _fields(grid):
    x = grid.points
    rng = np.random.default_rng(grid.n)
    return {
        "cosine": np.cos(x),
        "noise": rng.standard_normal(grid.n),
        "cusp": np.abs(np.sin(x)) ** 0.3,
        "constant": np.full(grid.n, 2.5),
        "von_mises": np.exp(5.0 * (np.cos(x) - 1.0)),
        # a large mean under tiny increments: the case the relative pad is for
        "offset": 1e6 + 1e-8 * np.cos(x),
    }


def _steepened():
    """theta0 and the field of the inviscid, undealiased von Mises kappa = 5 run
    at n = 256 (acceptance criterion 10) at its last snapshot before the
    detector fires; snapshots every 0.05 put that at t = 0.6, just under the
    tail flag."""
    grid = TorusGrid(256)
    theta0 = make_datum(von_mises_bump(5.0), grid)
    p = ModelParams(gamma=1.0, n=256, dissipation_on=False, dealias_on=False)
    c = StepControl(t_end=10.0, snapshot_every=0.05)
    last_quiet = run(theta0, p, c).samples[-2].t
    s = SolverState(t=0.0, theta_hat=forward(theta0))
    while s.t < last_quiet - 1e-12:
        s = step(s, p, c, t_limit=last_quiet)
    return theta0, inverse(s.theta_hat)


# n <= 256 evaluates every shift in one block. n = 1000: k = isqrt(500) = 22
# does not divide n/2. n = 34 and 1002: n/2 is odd. n = 16384: a block holds
# two windows, and the second level's stride is isqrt(isqrt(8192)) = 9.
@pytest.mark.parametrize("n", [32, 34, 64, 96, 1000, 1002, 4096, 16384])
def test_pruned_scan_equals_the_full_scan(n):
    grid = TorusGrid(n)
    for name, values in _fields(grid).items():
        f = RealField(grid, values)
        increments = _increments(f.values)
        for alpha in ALPHAS:
            assert holder_seminorm(f, alpha) == _full_scan(increments, grid.dx, alpha), (name, alpha)


def test_pruned_scan_equals_the_full_scan_on_a_steepened_field():
    theta0, f = _steepened()
    assert np.max(np.abs(np.diff(f.values))) > 2.0 * np.max(np.abs(np.diff(theta0.values)))
    for alpha in ALPHAS:
        assert holder_seminorm(f, alpha) == _full_scan(_increments(f.values), f.grid.dx, alpha), alpha


# The cosine is the benchmark's datum (261 shifts); the von Mises bump takes
# 293. One level of base shifts alone evaluated about 405 and 477.
@pytest.mark.parametrize(
    "datum",
    [lambda x: 1.0 + 0.8 * np.cos(x), lambda x: np.exp(5.0 * (np.cos(x) - 1.0))],
    ids=["cosine", "von_mises"],
)
def test_pruned_scan_evaluates_few_shifts(monkeypatch, datum):
    n = 4096
    grid = TorusGrid(n)
    f = RealField(grid, datum(grid.points))
    calls = []
    kernel = regularity._sup_increments

    def spy(windows, shifts, sup, buf):
        calls.extend(range(sup.size)[shifts])
        return kernel(windows, shifts, sup, buf)

    monkeypatch.setattr(regularity, "_sup_increments", spy)
    assert holder_seminorm(f, 0.2) == _full_scan(_increments(f.values), grid.dx, 0.2)
    assert len(calls) == len(set(calls)) <= 320
