"""The Holder estimator and the v-field against np.roll oracles.

Both read increments through one slice kernel; these tests pin that kernel
bit for bit to the textbook shifted difference, so a change of the kernel
cannot move a recorded seminorm.
"""

import numpy as np
import pytest

from ccflab.regularity import holder_seminorm, make_schedule, v_field
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
def test_v_field_equals_the_roll_formula(n):
    grid = TorusGrid(n)
    sched = make_schedule(0.8, 0.4, 1.0)
    for values in _fields(grid).values():
        f = RealField(grid, values)
        for h_index in (1, 5, n // 2, n // 2 + 1, n - 1, -3, n + 7):
            h = h_index % n
            d = min(h * grid.dx, TWO_PI - h * grid.dx)
            for t in (0.0, 0.5 * sched.t_star, 2.0 * sched.t_star):
                xi = sched.xi_at(t)
                expected = (np.roll(values, -h) - values) / (xi * xi + d * d) ** (sched.alpha / 2.0)
                assert np.array_equal(v_field(f, h_index, t, sched).values, expected)


@pytest.mark.parametrize("h_index", [0, 64, -64, 192])
def test_v_field_of_a_zero_offset_is_zero(h_index):
    grid = TorusGrid(64)
    sched = make_schedule(0.8, 0.4, 1.0)
    f = RealField(grid, np.cos(grid.points))
    for t in (0.0, 2.0 * sched.t_star):  # xi = 0 past T*: no 0/0 either
        v = v_field(f, h_index, t, sched)
        assert np.array_equal(v.values, np.zeros(64))
