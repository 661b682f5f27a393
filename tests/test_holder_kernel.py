"""The Holder estimator against an np.roll oracle.

The estimator reads increments through one slice kernel and prunes shifts;
these tests pin it bit for bit to the textbook scan over shifted differences,
so a change of the kernel or the pruning cannot move a recorded seminorm.
The kernel is also pinned alone at every offset, including the ones the
pruned scan skips.
"""

import numpy as np
import pytest

from ccflab.regularity import _increment, holder_seminorm
from ccflab.torus import TWO_PI, RealField, TorusGrid

ALPHAS = (0.1, 0.3, 0.5, 1.0, 2 * (1 - 0.9))


def _fields(grid):
    x = grid.points
    rng = np.random.default_rng(grid.n)
    return {
        "cosine": np.cos(x) + 0.2 * np.sin(3 * x),
        "noise": rng.standard_normal(grid.n),
        "cusp": np.abs(np.sin(x)) ** 0.3,
    }


def _roll_holder(values, dx, alpha):
    n = values.size
    best = 0.0
    for h in range(1, n // 2 + 1):
        d = min(h * dx, TWO_PI - h * dx)
        best = max(best, float(np.max(np.abs(np.roll(values, -h) - values))) / d**alpha)
    return best


@pytest.mark.parametrize("n", [64, 96, 1024, 4096])
def test_holder_seminorm_equals_the_roll_loop(n):
    grid = TorusGrid(n)
    for name, values in _fields(grid).items():
        f = RealField(grid, values)
        for alpha in ALPHAS:
            assert holder_seminorm(f, alpha) == _roll_holder(values, grid.dx, alpha), (name, alpha)



@pytest.mark.parametrize("n", [64, 96])
def test_increment_equals_the_roll_difference(n):
    grid = TorusGrid(n)
    for name, values in _fields(grid).items():
        doubled = np.concatenate((values, values))
        for h in range(n):
            delta, d = _increment(doubled, h, grid.dx)
            assert np.array_equal(delta, np.roll(values, -h) - values), (name, h)
            assert d == min(h * grid.dx, TWO_PI - h * grid.dx), (name, h)


def test_increment_at_half_the_circle_is_minus_twice_the_cosine():
    """Offset pi: delta cos = -2 cos, at geodesic distance pi."""
    grid = TorusGrid(64)
    values = np.cos(grid.points)
    delta, d = _increment(np.concatenate((values, values)), grid.n // 2, grid.dx)
    assert np.max(np.abs(delta + 2.0 * values)) < 1e-15
    assert d == pytest.approx(np.pi, abs=1e-15)
