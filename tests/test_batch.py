"""Batched stepping: a stack of rows advances and is sampled as one, and each
row's record is the one run() gives for it alone.

The first tests pin the numpy facts the batch rests on: a transform, an exp
or a sum taken over a stack equals (==) the same call on each row. They run
under whichever numpy is installed, so CI's floor-dependency job checks them
under numpy 1.24 too.
"""

import time

import numpy as np
import pytest

from ccflab import solver
from ccflab.experiments import cosine_positive, li_rodrigo_type, make_datum, von_mises_bump
from ccflab.records import DiagnosticsSample, Outcome, record_to_dict
from ccflab.regularity import holder_alphas, sobolev_weights
from ccflab.solver import DiagnosticPlan, ModelParams, StepControl, run, run_batch
from ccflab.torus import RealField, SpectralField, TorusGrid, tail_fraction

SIZES = [32, 64, 96, 128, 1024, 4096]
ROWS = [1, 2, 3, 8]


def _stack(n: int, rows: int, *shape: int) -> np.ndarray:
    rng = np.random.default_rng(n * 100 + rows)
    return rng.standard_normal((rows, *shape, n // 2 + 1)) + 1j * rng.standard_normal((rows, *shape, n // 2 + 1))


class TestPreconditions:
    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("n", SIZES)
    def test_transforms_of_a_stack_equal_the_row_calls(self, n, rows):
        real = np.random.default_rng(n + rows).standard_normal((rows, n))
        half = np.fft.rfft(real, norm="forward")
        assert all(np.array_equal(half[i], np.fft.rfft(real[i], norm="forward")) for i in range(rows))
        for stack in (_stack(n, rows), _stack(n, rows, 2)):
            back = np.fft.irfft(stack, n, norm="forward")
            assert all(np.array_equal(back[i], np.fft.irfft(stack[i], n, norm="forward")) for i in range(rows))

    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("n", SIZES)
    def test_exp_of_a_stack_equals_the_row_calls(self, n, rows):
        rng = np.random.default_rng(n + rows)
        lam = np.arange(n // 2 + 1, dtype=np.float64) ** rng.uniform(0.2, 2.0, (rows, 1))
        dt = rng.uniform(1e-4, 1e-2, rows)
        factors = np.exp(-lam * dt[:, None] / 2.0)
        assert all(np.array_equal(factors[i], np.exp(-lam[i] * float(dt[i]) / 2.0)) for i in range(rows))

    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("n", SIZES)
    def test_sums_of_a_stack_equal_the_row_sums(self, n, rows):
        """The snapshot's Sobolev sums over the last axis of a (B, 4, m) stack,
        and its tail fraction of the stack, a slice sum over the last axis,
        equal the one-row forms; a zero row among others has tail fraction 0."""
        grid = TorusGrid(n)
        stack = np.fft.rfft(np.random.default_rng(n + rows).standard_normal((rows, n)), norm="forward")
        power = np.abs(stack) ** 2
        weights = np.array([sobolev_weights(grid, s) for s in (0.0, 0.5, 1.5, 1.95)])
        sums = np.sum(weights * power[:, None], axis=-1)
        assert sums.tolist() == [[np.sum(w * p) for w in weights] for p in power]
        stack[rows // 2] = 0.0
        tails = tail_fraction(grid, stack)
        assert tails.tolist() == [tail_fraction(grid, row) for row in stack]
        assert tails[rows // 2] == 0.0 and (tails > 0.0).sum() == rows - 1


N = 256
GRID = TorusGrid(N)
CONTROL = StepControl(t_end=0.2, snapshot_every=0.02)


def _row(datum, gamma, dissipation_on=True):
    """A batch row of a named datum tracking its policy Holder exponents, as a
    sweep with holder_alphas=None builds it."""
    params = ModelParams(gamma=gamma, n=N, dissipation_on=dissipation_on)
    theta0 = make_datum(datum, GRID)
    return theta0, params, DiagnosticPlan(holder_alphas(gamma, dissipation_on)), datum.to_config()


MIXED = [
    _row(cosine_positive(1.0, 1.0), 0.6),
    _row(cosine_positive(1.0, 1.0), 0.9, dissipation_on=False),
    _row(cosine_positive(5.0, 5.0), 1.2),  # speed > 1: its own, shorter dt
    _row(li_rodrigo_type(100.0), 0.2),  # stops BlowupSuspected
    _row(cosine_positive(5e307, 5e307), 0.9),  # its transform leaves float64
    _row(von_mises_bump(5.0), 2.0),
]


def _comparable(record) -> dict:
    d = record_to_dict(record)
    d.pop("wall_time")
    return d


class TestRunBatch:
    def test_each_row_is_its_own_run(self):
        records = run_batch(MIXED, CONTROL)
        alone = [run(theta0, p, CONTROL, plan, datum=datum) for theta0, p, plan, datum in MIXED]
        assert [_comparable(r) for r in records] == [_comparable(r) for r in alone]
        outcomes = [r.outcome for r in records]
        assert outcomes == [Outcome.COMPLETED] * 3 + [Outcome.BLOWUP_SUSPECTED] * 2 + [Outcome.COMPLETED]
        assert records[2].dt_max < records[0].dt_max  # the fast row took shorter steps
        assert [list(r.samples.holder) for r in records] == [[0.5], [], [], [0.5], [], []]

    def test_a_row_stopped_inside_a_step_leaves_the_others(self, monkeypatch):
        """A row whose step leaves float64, and one whose first dt collapses,
        stop as they do alone; the rows beside them run on."""
        nonlinear = solver._nonlinear_raw

        def poisoned(h, kernel):
            out = nonlinear(h, kernel)
            out[h[:, 0].real > 2.5] = np.inf  # rows with mean above 2.5
            return out

        monkeypatch.setattr(solver, "_nonlinear_raw", poisoned)
        huge = RealField(GRID, 1e12 * np.cos(GRID.points))
        rows = [MIXED[0], _row(cosine_positive(3.0, 1.0), 0.7), (huge, ModelParams(gamma=0.9, n=N), DiagnosticPlan(), None)]
        records = run_batch(rows, CONTROL)
        alone = [run(theta0, p, CONTROL, plan, datum=datum) for theta0, p, plan, datum in rows]
        assert [_comparable(r) for r in records] == [_comparable(r) for r in alone]
        assert [(r.outcome, r.outcome_detail) for r in records] == [
            (Outcome.COMPLETED, "reached t_end=0.2"),
            (Outcome.BLOWUP_SUSPECTED, "non-finite state at t=0.00981748"),
            (Outcome.STEP_COLLAPSE, "step size collapsed to 9.817e-15 at t=0"),
        ]

    def test_snapshots_reach_the_records_as_columns(self, monkeypatch):
        """No DiagnosticsSample and no SpectralField is built while a batch
        that tracks Holder exponents is sampled; reading a row builds one."""
        built = []

        def counted(cls, method):
            def wrapper(self, *args, **kwargs):
                built.append(cls.__name__)
                return method(self, *args, **kwargs)
            monkeypatch.setattr(cls, method.__name__, wrapper)

        counted(SpectralField, SpectralField.__post_init__)
        counted(DiagnosticsSample, DiagnosticsSample.__init__)
        records = run_batch(MIXED, CONTROL)
        assert built == [] and sum(len(r.samples) for r in records) > 20
        assert list(records[0].samples.holder) == [0.5]
        assert records[0].samples[0] == records[0].samples[:1][0]
        SpectralField(GRID, np.zeros(N // 2 + 1))
        assert built == ["DiagnosticsSample", "DiagnosticsSample", "SpectralField"]

    def test_wall_times_sum_to_no_more_than_the_batch(self):
        started = time.perf_counter()
        records = run_batch(MIXED, CONTROL)
        elapsed = time.perf_counter() - started
        assert sum(r.wall_time for r in records) <= elapsed
        assert len({r.wall_time for r in records}) == 1

    def test_only_one_row_kernels_are_cached(self):
        """A chain of steps reuses its one-row kernel; a batch's kernel, which
        no later call repeats, is not kept."""
        solver._kernel.cache_clear()
        run_batch(MIXED[:2], CONTROL)
        run_batch(MIXED[:1], CONTROL)
        assert solver._kernel.cache_info().currsize == 1

    def test_rows_share_one_grid(self):
        other = TorusGrid(128)
        row = (make_datum(cosine_positive(1.0, 1.0), other), ModelParams(gamma=0.9, n=128), DiagnosticPlan(), None)
        with pytest.raises(ValueError, match="share one grid"):
            run_batch([MIXED[0], row], CONTROL)
        with pytest.raises(ValueError, match="n mismatch"):
            run_batch([(MIXED[0][0], ModelParams(gamma=0.9, n=128), DiagnosticPlan(), None)], CONTROL)
