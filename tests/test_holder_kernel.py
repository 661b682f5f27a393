"""The Holder estimator against an np.roll oracle.

The estimator reads sup increments through one block kernel and prunes
shifts; these tests pin it bit for bit to the textbook scan over shifted
differences, so a change of the kernel or the pruning cannot move a recorded
seminorm. The kernel is also pinned alone at every offset, including the ones
the pruned scan skips.
"""

import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from ccflab.regularity import _sup_increments, holder_seminorm
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


# Strides 1, s = isqrt(k) and k = isqrt(n/2), the pruned scan's three slice
# steps; blocks of 1 row, of 3 rows (a ragged last block) and of all rows.
@pytest.mark.parametrize("n", [64, 66, 96])
def test_sup_increments_equal_the_roll_difference(n):
    grid = TorusGrid(n)
    k = math.isqrt(n // 2)
    for name, values in _fields(grid).items():
        roll = [np.max(np.abs(np.roll(values, -h) - values)) for h in range(n)]
        windows = sliding_window_view(np.concatenate((values, values)), n)
        for step in (1, math.isqrt(k), k):
            for rows in (1, 3, n):
                sup = np.full(n, np.nan)
                for start in range(step):
                    _sup_increments(windows, slice(start, n, step), sup, np.empty((rows, n)))
                assert np.array_equal(sup, roll), (name, step, rows)
