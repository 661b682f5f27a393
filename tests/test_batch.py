"""Batched stepping: a stack of rows advances and is sampled as one, and each
row's record is the one run() gives for it alone.

The first tests pin the numpy facts the batch rests on: a transform, an exp
or a sum taken over a stack equals (==) the same call on each row. They run
under whichever numpy is installed, so CI's floor-dependency job checks them
under numpy 2.0 too.
"""

import time

import numpy as np
import pytest

from ccflab import solver
from ccflab.experiments import BATCH_COEFFICIENTS, cosine_positive, li_rodrigo_type, make_datum, von_mises_bump
from ccflab.records import DiagnosticsSample, Outcome, record_to_dict
from ccflab.regularity import holder_alphas, sobolev_weights
from ccflab.solver import DiagnosticPlan, ModelParams, SolverState, StepControl, run, run_batch, step
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


def _row(datum, gamma, dissipation_on=True, grid=GRID):
    """A batch row of a named datum tracking its policy Holder exponents, as a
    sweep with holder_alphas=None builds it."""
    params = ModelParams(gamma=gamma, n=grid.n, dissipation_on=dissipation_on)
    theta0 = make_datum(datum, grid)
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

        def poisoned(h, kernel, work, stage):
            out = nonlinear(h, kernel, work, stage)
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

    def test_a_full_batch_is_its_rows_runs(self):
        """A batch as large as a sweep makes at n = 64 gives each row's run().
        Its rows take different step counts and stop at different snapshots,
        so later bursts and samples take subsets of its rows."""
        grid = TorusGrid(64)
        rows = [_row(cosine_positive(k / 2, k / 2), gamma, grid=grid) for k in range(1, 63) for gamma in (0.6, 1.3)]
        assert len(rows) == BATCH_COEFFICIENTS // (64 // 2 + 1)
        control = StepControl(t_end=0.1, snapshot_every=0.02)
        records = run_batch(rows, control)
        alone = [run(theta0, p, control, plan, datum=datum) for theta0, p, plan, datum in rows]
        assert [_comparable(r) for r in records] == [_comparable(r) for r in alone]
        assert {r.outcome for r in records} == {Outcome.COMPLETED, Outcome.BLOWUP_SUSPECTED}
        assert len({r.step_count for r in records}) > 1 and len({len(r.samples) for r in records}) > 1

    def test_a_batch_leaves_the_kernel_cache_empty(self):
        """run_batch builds the kernel of its rows for that batch alone, one row
        included; the cache serves the chained step() and nonlinear_term()."""
        solver._kernel.cache_clear()
        run_batch(MIXED[:2], CONTROL)
        run_batch(MIXED[:1], CONTROL)
        assert solver._kernel.cache_info().currsize == 0

    def test_rows_share_one_grid(self):
        other = TorusGrid(128)
        row = (make_datum(cosine_positive(1.0, 1.0), other), ModelParams(gamma=0.9, n=128), DiagnosticPlan(), None)
        with pytest.raises(ValueError, match="share one grid"):
            run_batch([MIXED[0], row], CONTROL)
        with pytest.raises(ValueError, match="n mismatch"):
            run_batch([(MIXED[0][0], ModelParams(gamma=0.9, n=128), DiagnosticPlan(), None)], CONTROL)

    def test_an_empty_batch_is_a_value_error(self):
        with pytest.raises(ValueError, match="empty batch"):
            run_batch([], CONTROL)


def _stack_of(rows):
    """The (B, n//2+1) state stack of batch rows at t = 0, and their kernel."""
    stack = np.fft.rfft(np.stack([theta0.values for theta0, *_ in rows]), norm="forward")
    return stack, solver._Kernel(rows[0][0].grid, tuple(p for _, p, _, _ in rows))


def _expression_step(h, t, kernel):
    """One IF-RK4 step of the stack h to at most t = 0.2 under CONTROL,
    written as expressions: the new states and the row dts."""

    def nonlinear(v):
        velocity, gradient = np.fft.irfft(kernel.velocity_gradient * v, N, norm="forward")
        return np.fft.rfft(velocity * gradient, norm="forward") * kernel.mask

    speeds = np.abs(np.fft.irfft(GRID.hilbert_mult * h, N, norm="forward")).max(axis=1)
    c = CONTROL
    dt = np.array([min(c.dt_max, c.cfl * GRID.dx / max(1.0, s), 0.2 - ti) for s, ti in zip(speeds.tolist(), t.tolist())])
    tau = dt[:, None]
    half = np.exp(-kernel.lam * tau / 2.0)
    full = half * half
    k1 = nonlinear(h)
    k2 = nonlinear(half * (h + tau / 2.0 * k1))
    k3 = nonlinear(half * h + tau / 2.0 * k2)
    k4 = nonlinear(full * h + tau * half * k3)
    return full * h + tau / 6.0 * (full * k1 + 2.0 * half * (k2 + k3) + k4), dt


class TestOneStep:
    """One IF-RK4 step of a stack: its transforms, its CFL speeds and the
    buffers its stages write."""

    def test_a_step_makes_eight_transforms_and_a_snapshot_one(self, monkeypatch):
        calls = []

        def counted(fn):
            def call(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return call

        stack, kernel = _stack_of(MIXED[:3])
        for name in ("rfft", "irfft"):
            monkeypatch.setattr(solver, name, counted(getattr(solver, name)))
        solver._step_raw(stack, np.zeros(3), CONTROL, kernel, 0.2, solver._Work(3, N))
        assert calls == ["irfft", "rfft"] * 4
        calls.clear()
        solver._take_sample(stack, np.zeros(3), kernel, [DiagnosticPlan()] * 3)
        assert calls == ["irfft"]

    def test_stage_one_carries_each_rows_cfl_speed(self, monkeypatch):
        """The speeds a step's dts read, from stage one's transform, are those
        of each row's undealiased H theta, whatever its gamma and switches."""
        rows = MIXED[:3] + [MIXED[5], _row(von_mises_bump(2.0), 0.7)]
        rows.append((rows[0][0], ModelParams(gamma=0.5, n=N, dealias_on=False), DiagnosticPlan(), None))
        rows.append((rows[2][0], ModelParams(gamma=1.5, n=N, linear_only=True), DiagnosticPlan(), None))
        stack, kernel = _stack_of(rows)
        seen, choose = [], solver._choose_dt

        def spy(velocity, *args):
            seen.append(np.abs(velocity).max(axis=1))
            return choose(velocity, *args)

        monkeypatch.setattr(solver, "_choose_dt", spy)
        solver._step_raw(stack, np.zeros(len(rows)), CONTROL, kernel, 0.2, solver._Work(len(rows), N))
        want = np.abs(np.fft.irfft(GRID.hilbert_mult * stack, N, norm="forward")).max(axis=1)
        assert len(seen) == 1 and seen[0].tolist() == want.tolist()
        assert want.min() < 1.0 < want.max()  # the speeds below 1 set no dt, but are read

    def test_a_step_equals_its_expressions_bit_for_bit(self):
        """Ten steps of a mixed stack equal (==) the step written as the
        expressions it evaluates, with a temporary for each and a CFL
        transform of its own: the buffers change no rounding."""
        rows = MIXED[:3] + [MIXED[5], (MIXED[0][0], ModelParams(gamma=0.5, n=N, dealias_on=False), DiagnosticPlan(), None)]
        h, kernel = _stack_of(rows)
        t, want_h, want_t = np.zeros(len(rows)), h, np.zeros(len(rows))
        work = solver._Work(len(rows), N)
        for _ in range(10):
            h, t, dt, stops = solver._step_raw(h, t, CONTROL, kernel, 0.2, work)
            want_h, want_dt = _expression_step(want_h, want_t, kernel)
            want_t = want_t + want_dt
            assert stops == {} and dt.tolist() == want_dt.tolist() and t.tolist() == want_t.tolist()
            assert h.tobytes() == want_h.tobytes()

    def test_the_new_state_is_a_fresh_array(self):
        stack, kernel = _stack_of(MIXED[:3])
        work = solver._Work(3, N)
        before = stack.copy()
        out, *_ = solver._step_raw(stack, np.zeros(3), CONTROL, kernel, 0.2, work)
        buffers = (work.spectra, work.real, work.k, work.stage, work.full_h)
        assert not any(np.shares_memory(out, b) for b in (stack, *buffers))
        assert np.array_equal(stack, before)

    def test_kept_states_equal_a_fresh_rerun(self):
        """Each state of a 20-step step() chain, of two chains stepped in turn
        on one cached kernel, and each record of two run()s on one grid, kept
        while later steps ran, equals what a fresh rerun gives."""
        p, c = ModelParams(gamma=0.9, n=N), StepControl(t_end=1.0)
        data = [make_datum(cosine_positive(a, a), GRID) for a in (1.0, 3.0)]

        def chain(theta0):
            states = [SolverState(t=0.0, theta_hat=SpectralField(GRID, np.fft.rfft(theta0.values, norm="forward")))]
            for _ in range(20):
                states.append(step(states[-1], p, c))
            return states

        def key(state):
            return state.t, state.theta_hat.coeffs.tobytes()

        kept = chain(data[0])
        together = [chain(data[0])[:1], chain(data[1])[:1]]
        for _ in range(20):
            for states in together:
                states.append(step(states[-1], p, c))
        solver._kernel.cache_clear()
        fresh = [chain(theta0) for theta0 in data]
        assert list(map(key, kept)) == list(map(key, fresh[0]))
        assert [list(map(key, s)) for s in together] == [list(map(key, s)) for s in fresh]
        assert len({key(s) for s in kept}) == 21
        records = [run(theta0, p, CONTROL) for theta0 in data]
        assert [_comparable(r) for r in records] == [_comparable(run(theta0, p, CONTROL)) for theta0 in data]
