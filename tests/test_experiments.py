"""Tests for the initial-data library and the resumable sweep harness."""

import json
import re
import warnings
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import ccflab.report as report_module
from ccflab import experiments, records, solver
from ccflab.experiments import (
    InitialDatum,
    SweepPlan,
    cosine_positive,
    custom_datum,
    datum_forms,
    datum_label,
    li_rodrigo_type,
    make_datum,
    parse_datum,
    sweep,
    von_mises_bump,
)
from ccflab.records import Outcome, load_records, record_to_dict
from ccflab.solver import StepControl
from ccflab.torus import TorusGrid


class TestDatumValidation:
    def test_cosine_requires_ordered_positive_parameters(self):
        with pytest.raises(ValueError, match="a >= b > 0"):
            cosine_positive(1.0, 2.0)
        with pytest.raises(ValueError, match="a >= b > 0"):
            cosine_positive(1.0, 0.0)

    def test_von_mises_requires_positive_kappa(self):
        with pytest.raises(ValueError, match="kappa"):
            von_mises_bump(0.0)

    def test_li_rodrigo_requires_positive_scale(self):
        with pytest.raises(ValueError, match="scale"):
            li_rodrigo_type(-1.0)

    def test_custom_requires_samples(self):
        with pytest.raises(ValueError, match="samples"):
            InitialDatum("custom", {})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown datum kind"):
            InitialDatum("gaussian", {})

    @pytest.mark.parametrize(
        "kind, params, key",
        [
            ("cosine_positive", {"a": float("inf"), "b": 1.0}, "a"),
            ("cosine_positive", {"a": 1.0, "b": float("nan")}, "b"),
            ("von_mises_bump", {"kappa": float("inf")}, "kappa"),
            ("li_rodrigo_type", {"scale": float("inf")}, "scale"),
        ],
        ids=["cosine.a", "cosine.b", "von_mises.kappa", "li_rodrigo.scale"],
    )
    def test_non_finite_parameter_is_named(self, kind, params, key):
        with pytest.raises(ValueError, match=rf"{kind} parameter {key} must be finite"):
            InitialDatum(kind, params)

    @pytest.mark.parametrize(
        "kind, params, key",
        [
            ("von_mises_bump", {"kappa": 1.0, "kapa": 2.0}, "kapa"),
            ("cosine_positive", {"a": 2.0, "b": 1.0, "c": 1.0}, "c"),
            ("custom", {"samples": (1.0,), "n": 1.0}, "n"),
        ],
        ids=["von_mises.kapa", "cosine.c", "custom.n"],
    )
    def test_a_parameter_the_family_does_not_name_is_rejected(self, kind, params, key):
        """Such a key would enter the config and its resume hash while the
        label leaves it out: one run under two hashes."""
        with pytest.raises(ValueError, match=rf"{kind} takes parameters .*, not '{key}'"):
            InitialDatum(kind, params)

    def test_non_finite_custom_samples_rejected(self):
        with pytest.raises(ValueError, match="custom datum samples must be finite"):
            custom_datum([0.0, float("nan"), 1.0])


class TestMakeDatum:
    def test_cosine_bounds(self):
        grid = TorusGrid(128)
        f = make_datum(cosine_positive(1.0, 1.0), grid)
        assert float(np.min(f.values)) >= 0.0
        assert float(np.max(f.values)) == pytest.approx(2.0, abs=1e-14)

    def test_von_mises_even_positive_peak_at_zero(self):
        grid = TorusGrid(128)
        f = make_datum(von_mises_bump(5.0), grid)
        assert np.all(f.values > 0.0)
        assert f.values[0] == pytest.approx(1.0, abs=1e-15)
        mirrored = f.values[(-np.arange(grid.n)) % grid.n]
        assert np.max(np.abs(f.values - mirrored)) < 1e-12

    def test_li_rodrigo_sign_and_root(self):
        grid = TorusGrid(64)
        f = make_datum(li_rodrigo_type(1.0), grid)
        assert f.values[0] == 0.0
        assert np.max(f.values) <= 0.0
        # matches -sin^2(x/2) = (cos x - 1)/2
        assert np.max(np.abs(f.values - (np.cos(grid.points) - 1.0) / 2.0)) < 1e-15

    @pytest.mark.parametrize("n", [32, 598, 1024, 65536])
    def test_parameter_checks_alone_give_each_family_its_sign(self, n):
        """make_datum re-checks no sign or symmetry: InitialDatum's parameter
        checks give them, even at extreme amplitudes and the largest kappa
        that does not underflow."""
        grid = TorusGrid(n)
        for a, b in [(1.0, 1.0), (1.0 + 1e-12, 1.0), (1e300, 1e300), (1e-300, 1e-300)]:
            assert np.min(make_datum(cosine_positive(a, b), grid).values) >= 0.0
        for kappa in (1e-300, 5.0, 372.5):
            values = make_datum(von_mises_bump(kappa), grid).values
            assert np.max(np.abs(values - values[(-np.arange(n)) % n])) <= 1e-12
        for scale in (1e-300, 1.0, 1e300):
            values = make_datum(li_rodrigo_type(scale), grid).values
            assert np.max(values) <= 0.0 and values[0] == 0.0

    @pytest.mark.parametrize("scale", [1.0, 20.0, 100.0])
    def test_li_rodrigo_is_a_shifted_cosine(self, scale):
        """-s*sin^2(x/2) = (s/2)*cos x - s/2: one cosine mode and a constant."""
        grid = TorusGrid(64)
        values = make_datum(li_rodrigo_type(scale), grid).values
        shifted = make_datum(cosine_positive(scale / 2.0, scale / 2.0), grid).values - scale
        np.testing.assert_allclose(values, shifted, rtol=0.0, atol=4.0 * np.spacing(scale))

    def test_custom_length_must_match_grid(self):
        with pytest.raises(ValueError, match="length"):
            make_datum(custom_datum(np.zeros(64)), TorusGrid(128))


class TestParseDatum:
    def test_forms(self):
        assert parse_datum("cosine:1,1").kind == "cosine_positive"
        assert parse_datum("von_mises:5").params["kappa"] == 5.0
        assert parse_datum("li_rodrigo:2").params["scale"] == 2.0

    def test_custom_reads_samples_file(self, tmp_path):
        path = tmp_path / "samples.txt"
        values = np.cos(TorusGrid(64).points)
        np.savetxt(path, values)
        d = parse_datum(f"custom:{path}")
        f = make_datum(d, TorusGrid(64))
        assert np.max(np.abs(f.values - values)) < 1e-12

    def test_bad_inputs_name_the_problem(self):
        with pytest.raises(ValueError, match="unknown datum"):
            parse_datum("gaussian:1")
        with pytest.raises(ValueError, match="parameters"):
            parse_datum("cosine")
        with pytest.raises(ValueError, match="a,b"):
            parse_datum("cosine:1")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("cosine:1,1,1", "cosine datum expects a,b, got '1,1,1'"),
            ("von_mises:1,2", "von_mises datum expects kappa, got '1,2'"),
            ("li_rodrigo:1,2", "li_rodrigo datum expects scale, got '1,2'"),
        ],
        ids=["cosine", "von_mises", "li_rodrigo"],
    )
    def test_every_family_checks_its_arity(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_datum(text)


class TestDatumLabel:
    @pytest.mark.parametrize(
        "cfg, label",
        [
            (cosine_positive(1.0, 0.5).to_config(), "cosine_positive(1,0.5)"),
            (von_mises_bump(3.0).to_config(), "von_mises_bump(3)"),
            (li_rodrigo_type(0.25).to_config(), "li_rodrigo_type(0.25)"),
            (custom_datum(np.zeros(64)).to_config(), "custom(n=64)"),
            ({"kind": "custom"}, "custom"),
            ({}, "custom"),
            ({"kind": "cosine_positive", "a": 1.0}, "cosine_positive"),
            ({"kind": "gaussian", "a": 1.0}, "gaussian"),
        ],
    )
    def test_labels(self, cfg, label):
        assert datum_label(cfg) == label


class TestDatumFamilies:
    def test_a_new_family_needs_only_its_entry(self, monkeypatch):
        """A two-parameter family added to the table alone is validated, sampled,
        parsed and labelled like the built-in ones."""
        formula = lambda x, k, w: w * np.exp(k * (np.cos(x) - 1.0))  # noqa: E731
        monkeypatch.setitem(experiments.DATUM_FAMILIES, "scaled_bump", ("bump", ("k", "w"), formula))
        datum = InitialDatum("scaled_bump", {"k": 2.0, "w": 3.0})
        grid = TorusGrid(64)
        assert np.array_equal(make_datum(datum, grid).values, 3.0 * np.exp(2.0 * (np.cos(grid.points) - 1.0)))
        with pytest.raises(ValueError, match=re.escape("scaled_bump requires k > 0, got -1.0")):
            InitialDatum("scaled_bump", {"k": -1.0, "w": 3.0})
        with pytest.raises(ValueError, match=re.escape("scaled_bump requires w > 0, got 0.0")):
            InitialDatum("scaled_bump", {"k": 2.0})
        with pytest.raises(ValueError, match=re.escape("scaled_bump parameter w must be finite, got inf")):
            InitialDatum("scaled_bump", {"k": 2.0, "w": float("inf")})
        assert parse_datum("bump:2,3") == datum
        with pytest.raises(ValueError, match=re.escape("bump datum expects k,w, got '2'")):
            parse_datum("bump:2")
        assert datum_label(datum.to_config()) == "scaled_bump(2,3)"
        assert "bump:k,w" in datum_forms().split(" | ")

    def test_forms_list_every_family_in_table_order(self):
        assert datum_forms() == "cosine:a,b | von_mises:kappa | li_rodrigo:scale | custom:path"


class TestSweepPlan:
    def test_axes_must_be_non_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            SweepPlan(gamma_values=(), data=(cosine_positive(1, 1),), resolutions=(64,))

    def test_bad_axis_values_rejected_up_front(self):
        with pytest.raises(ValueError, match="gamma"):
            SweepPlan(gamma_values=(2.5,), data=(cosine_positive(1, 1),), resolutions=(64,))
        with pytest.raises(ValueError, match="n must be"):
            SweepPlan(gamma_values=(0.9,), data=(cosine_positive(1, 1),), resolutions=(48, 31))

    @pytest.mark.parametrize(
        "axis, values",
        [
            ("gamma_values", (0.6, 0.9, 0.6)),
            ("data", (cosine_positive(1, 1), von_mises_bump(2.0), cosine_positive(1.0, 1.0))),
            ("resolutions", (64, 128, 64)),
        ],
        ids=["gamma_values", "data", "resolutions"],
    )
    def test_repeated_axis_value_is_rejected(self, axis, values):
        """A repeated value would run one cell twice and append two records
        with one config hash."""
        axes = {"gamma_values": (0.9,), "data": (cosine_positive(1, 1),), "resolutions": (64,), axis: values}
        with pytest.raises(ValueError, match=rf"sweep axis {axis} lists one value twice \(entries 0 and 2\)"):
            SweepPlan(**axes)

    @pytest.mark.parametrize("parallelism", [0, -1, 1.5, 2.0, True], ids=["zero", "negative", "fraction", "float", "bool"])
    def test_parallelism_must_be_a_whole_count(self, parallelism):
        """A fraction would reach ProcessPoolExecutor as max_workers and fail
        there; True, a Python int, would pass as one worker."""
        with pytest.raises(ValueError, match=re.escape(f"parallelism must be an int >= 1, got {parallelism!r}")):
            SweepPlan(gamma_values=(0.9,), data=(cosine_positive(1, 1),), resolutions=(64,), parallelism=parallelism)

    @pytest.mark.parametrize(
        "datum, message",
        [
            (custom_datum(np.ones(64)), "datum custom(n=64) at n=128: custom samples have length 64"),
            (von_mises_bump(800.0), "datum von_mises_bump(800) at n=64: von_mises_bump underflowed"),
        ],
        ids=["custom_length", "von_mises_underflow"],
    )
    def test_datum_that_cannot_be_sampled_is_rejected_up_front(self, datum, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SweepPlan(gamma_values=(0.9,), data=(cosine_positive(1, 1), datum), resolutions=(64, 128))

    def test_enumeration_is_datum_major(self):
        plan = SweepPlan(
            gamma_values=(0.6, 0.9),
            data=(cosine_positive(1, 1), von_mises_bump(2.0)),
            resolutions=(32, 64),
        )
        cells = [(datum, params.gamma, params.n) for datum, params, _ in plan.cells()]
        assert len(cells) == 8
        assert cells[0] == (cosine_positive(1, 1), 0.6, 32)
        assert cells[1] == (cosine_positive(1, 1), 0.6, 64)
        assert cells[4][0] == von_mises_bump(2.0)

    @pytest.mark.parametrize(
        "holder_alphas, dissipation_on, tracked",
        [
            ((), True, [(), (), ()]),
            ((0.3,), True, [(0.3,), (0.3,), (0.3,)]),
            (None, True, [(0.5,), (0.19999999999999996,), ()]),
            (None, False, [(), (), ()]),
        ],
        ids=["none", "explicit", "per_cell_policy", "per_cell_inviscid"],
    )
    def test_each_cell_tracks_its_own_alphas_when_none_are_given(self, holder_alphas, dissipation_on, tracked, tmp_path):
        plan = SweepPlan(
            gamma_values=(0.6, 0.9, 1.2),
            data=(cosine_positive(1, 1),),
            resolutions=(32,),
            dissipation_on=dissipation_on,
            holder_alphas=holder_alphas,
        )
        assert [diagnostics.holder_alphas for _, _, diagnostics in plan.cells()] == tracked
        sweep(plan, tmp_path / "sweep.jsonl")
        records = load_records(tmp_path / "sweep.jsonl")
        assert [r.config["holder_alphas"] for r in records] == [list(t) for t in tracked]


@pytest.fixture()
def small_plan():
    return SweepPlan(
        gamma_values=(0.6, 0.9),
        data=(cosine_positive(1.0, 1.0),),
        resolutions=(64,),
        control=StepControl(t_end=0.2, snapshot_every=0.05),
    )


class TestSweep:
    def test_two_cells_complete(self, small_plan, tmp_path):
        out = tmp_path / "sweep.jsonl"
        records = sweep(small_plan, out)
        assert len(records) == 2
        assert all(r.outcome is Outcome.COMPLETED for r in records)
        assert len(load_records(out)) == 2

    def test_a_missing_directory_is_made_before_any_cell_runs(self, small_plan, tmp_path):
        out = tmp_path / "new" / "sweep.jsonl"
        records = sweep(small_plan, out)
        assert len(records) == 2
        assert [r.config_hash for r in load_records(out)] == [r.config_hash for r in records]

    def test_rerun_is_idempotent_and_skips_simulation(self, small_plan, tmp_path):
        out = tmp_path / "sweep.jsonl"
        first = sweep(small_plan, out)
        payload = out.read_bytes()
        second = sweep(small_plan, out)
        # zero new simulations: file untouched and wall_times reused verbatim
        assert out.read_bytes() == payload
        assert [r.wall_time for r in second] == [r.wall_time for r in first]

    def test_partial_file_resumes_missing_cells_only(self, small_plan, tmp_path):
        out = tmp_path / "sweep.jsonl"
        sweep(small_plan, out)
        lines = out.read_text().splitlines()
        out.write_text(lines[0] + "\n")  # drop the second cell
        records = sweep(small_plan, out)
        assert len(records) == 2
        assert len(load_records(out)) == 2

    def test_a_resumed_sweep_and_its_report_hash_each_config_once(self, small_plan, tmp_path, monkeypatch):
        plan = replace(small_plan, gamma_values=(0.6, 0.9, 1.2))
        out = tmp_path / "sweep.jsonl"
        sweep(plan, out)
        out.write_text("".join(out.read_text().splitlines(keepends=True)[:-1]))  # drop the last cell
        hashed = []

        def spy(config, config_hash=records.config_hash):
            hashed.append(config_hash(config))
            return hashed[-1]

        monkeypatch.setattr(records, "config_hash", spy)
        monkeypatch.setattr(experiments, "config_hash", spy)
        swept = sweep(plan, out)
        report_module.report(swept, tmp_path)
        # Each config twice: once when sweep plans its cell, and once as a
        # record, when sweep loads it or, for the cell sweep ran, in report.
        assert sorted(hashed) == sorted([r.config_hash for r in swept] * 2)

    def test_a_numpy_integer_resolution_sweeps_with_the_int_hash(self, small_plan, tmp_path):
        numpy_n = replace(small_plan, resolutions=(np.int64(64),))
        records = sweep(numpy_n, tmp_path / "numpy.jsonl")
        assert [type(r.config["model"]["n"]) for r in records] == [int, int]
        assert [r.config_hash for r in records] == [r.config_hash for r in sweep(small_plan, tmp_path / "int.jsonl")]

    def test_parallel_matches_serial_modulo_wall_time(self, small_plan, tmp_path, real_pools):
        from dataclasses import replace

        from ccflab.records import record_to_dict

        serial = sweep(small_plan, tmp_path / "serial.jsonl")
        parallel = sweep(replace(small_plan, parallelism=2), tmp_path / "parallel.jsonl")
        assert [(type(pool), workers) for pool, workers in real_pools] == [(ProcessPoolExecutor, 2)]
        for a, b in zip(serial, parallel):
            da, db = record_to_dict(a), record_to_dict(b)
            da.pop("wall_time")
            db.pop("wall_time")
            assert da == db

    def test_inviscid_bump_cell_reports_detector_outcome(self, tmp_path):
        plan = SweepPlan(
            gamma_values=(1.0,),
            data=(von_mises_bump(5.0),),
            resolutions=(64,),
            control=StepControl(t_end=10.0, snapshot_every=0.5),
            dissipation_on=False,
            dealias_on=False,
        )
        (record,) = sweep(plan, tmp_path / "inviscid.jsonl")
        assert record.outcome in (Outcome.BLOWUP_SUSPECTED, Outcome.UNDER_RESOLVED)

    def test_a_datum_whose_transform_overflows_is_a_cell_outcome(self, small_plan, tmp_path):
        """5e307*(1 + cos x) is finite, its transform is not: that cell stops at
        t = 0 with no snapshot, and the other cell still runs."""
        plan = replace(small_plan, gamma_values=(0.9,), data=(cosine_positive(1.0, 1.0), cosine_positive(5e307, 5e307)))
        path = tmp_path / "overflow.jsonl"
        kept, stopped = sweep(plan, path)
        assert kept.outcome is Outcome.COMPLETED
        assert (stopped.outcome, stopped.outcome_detail, len(stopped.samples)) == (
            Outcome.BLOWUP_SUSPECTED, "non-finite state at t=0", 0)
        assert load_records(path) == [kept, stopped]

    def test_a_datum_whose_diagnostics_overflow_is_a_cell_outcome(self, small_plan, tmp_path):
        """1e300*(1 + cos x) has a finite transform whose squared coefficients
        overflow: that cell stops at its t = 0 snapshot, unrecorded and without
        a warning, and the other cell still runs."""
        plan = replace(small_plan, gamma_values=(0.9,), data=(cosine_positive(1.0, 1.0), cosine_positive(1e300, 1e300)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kept, stopped = sweep(plan, tmp_path / "overflow.jsonl")
        assert kept.outcome is Outcome.COMPLETED
        assert (stopped.outcome, stopped.outcome_detail, len(stopped.samples)) == (
            Outcome.BLOWUP_SUSPECTED, "non-finite diagnostics at t=0", 0)

    def test_cells_past_the_direct_t_star_formula_both_finish(self, tmp_path):
        """At gamma = 0.99 the T* of linf0 = 2000 fits in float64 only past an
        overflowing factor, and that of linf0 = 2e5 does not fit at all."""
        plan = SweepPlan(
            gamma_values=(0.99,),
            data=(cosine_positive(1000.0, 1000.0), cosine_positive(1e5, 1e5)),
            resolutions=(64,),
            control=StepControl(t_end=2e-6, snapshot_every=1e-6),
            holder_alphas=None,
        )
        path = tmp_path / "near_one.jsonl"
        finite, beyond = sweep(plan, path)
        assert 8e156 < finite.t_star_predicted < 8.2e156
        assert beyond.t_star_predicted is None
        assert load_records(path) == [finite, beyond]


def _two_n_plan() -> SweepPlan:
    """Cells 0, 2, 4, 6 at n = 64 and 1, 3, 5, 7 at n = 128."""
    return SweepPlan(
        gamma_values=(0.6, 1.2),
        data=(cosine_positive(1.0, 1.0), cosine_positive(5.0, 5.0)),
        resolutions=(64, 128),
        control=StepControl(t_end=0.05, snapshot_every=0.025),
        holder_alphas=None,
    )


class TestBatches:
    def test_pending_cells_are_batched_by_n_in_plan_order(self):
        plan = _two_n_plan()
        pending = dict(enumerate(plan.cells()))
        assert experiments._batches(pending, plan.control, 1) == [[0, 2, 4, 6], [1, 3, 5, 7]]
        del pending[2], pending[7]
        assert experiments._batches(pending, plan.control, 2) == [[0, 4, 6], [1, 3, 5]]

    def test_the_costliest_batch_is_halved_while_workers_outnumber_batches(self):
        plan = _two_n_plan()
        pending = dict(enumerate(plan.cells()))
        assert experiments._batches(pending, plan.control, 3) == [[0, 2, 4, 6], [1, 3], [5, 7]]  # n = 128 costs more
        assert experiments._batches(pending, plan.control, 8) == [[0], [1], [2], [3], [4], [5], [6], [7]]

    def test_the_batch_halved_is_the_one_estimated_to_take_longest(self):
        """Batches [0, 2, 4, 6] at n = 64 with every cell tracking an exponent
        and [1, 3, 5, 7] at n = 66 with none: the Holder scans make the n = 64
        batch the costlier, though it has fewer coefficients (a cost of
        rows * (n//2+1) * n would rank the two the other way)."""
        plan = replace(_two_n_plan(), holder_alphas=(0.2,), resolutions=(64, 66))
        cells = plan.cells()
        pending = {i: cell if i % 2 == 0 else (cell[0], cell[1], solver.DiagnosticPlan()) for i, cell in enumerate(cells)}
        assert experiments._batches(pending, plan.control, 3) == [[0, 2], [1, 3, 5, 7], [4, 6]]

    def test_a_batch_holds_at_most_a_fixed_number_of_coefficients(self, monkeypatch):
        monkeypatch.setattr(experiments, "BATCH_COEFFICIENTS", 3 * 33)  # three rows at n = 64, one at 128
        plan = _two_n_plan()
        pending = dict(enumerate(plan.cells()))
        assert experiments._batches(pending, plan.control, 1) == [[0, 2, 4], [1], [3], [5], [6], [7]]
        # A costlier batch of one cell is not halved; the batch of several is.
        assert experiments._batches(pending, plan.control, 7) == [[0], [1], [2, 4], [3], [5], [6], [7]]

    def test_large_grids_run_one_cell_per_batch(self):
        """At n = 4096 a batch of two rows ran no faster than two runs, so a
        sweep over n = 64 and 4096 gives each n = 4096 cell its own batch,
        which any free worker takes."""
        plan = replace(_two_n_plan(), resolutions=(64, 4096))
        assert experiments._batches(dict(enumerate(plan.cells())), plan.control, 2) == [[0, 2, 4, 6], [1], [3], [5], [7]]

    def test_a_kill_loses_only_the_batches_not_yet_returned(self, tmp_path, monkeypatch):
        """With batches [0, 2], [1], [3], [4, 6], [5], [7], a kill in the fourth
        leaves the records of the first three on file, in batch order; the
        rerun returns every record in plan order."""
        monkeypatch.setattr(experiments, "BATCH_COEFFICIENTS", 2 * 33)
        started = []
        run_batch = experiments._run_batch

        def killed_in_the_fourth(batch):
            started.append(batch)
            if len(started) == 4:
                raise KeyboardInterrupt
            return run_batch(batch)

        monkeypatch.setattr(experiments, "_run_batch", killed_in_the_fourth)
        plan = _two_n_plan()
        with pytest.raises(KeyboardInterrupt):
            sweep(plan, tmp_path / "sweep.jsonl")
        cells = list(plan.cells())
        key = lambda r: (r.config["model"]["gamma"], r.config["model"]["n"])  # noqa: E731
        assert [key(r) for r in load_records(tmp_path / "sweep.jsonl")] == [
            (cells[i][1].gamma, cells[i][1].n) for i in (0, 2, 1, 3)
        ]
        records = sweep(plan, tmp_path / "sweep.jsonl")
        assert [key(r) for r in records] == [(params.gamma, params.n) for _, params, _ in cells]

    def test_a_sweep_runs_one_batch_per_n_and_writes_in_batch_order(self, tmp_path, monkeypatch):
        batches = []
        run_batch = experiments._run_batch
        monkeypatch.setattr(experiments, "_run_batch", lambda batch: batches.append(len(batch[2])) or run_batch(batch))
        plan = _two_n_plan()
        records = sweep(plan, tmp_path / "sweep.jsonl")
        assert batches == [4, 4]
        assert load_records(tmp_path / "sweep.jsonl") == [records[i] for i in (0, 2, 4, 6, 1, 3, 5, 7)]
        assert [r.config["model"]["n"] for r in records] == [64, 128] * 4

    @pytest.mark.parametrize("parallelism", [1, 2], ids=["in-process", "pool"])
    def test_a_kill_in_the_second_batch_keeps_the_first_on_file(self, tmp_path, monkeypatch, pools, parallelism):
        """Batches [0, 2, 4, 6] and [1, 3, 5, 7]: a kill in the second keeps
        the first batch's four records, and the rerun runs only the second's."""
        plan = replace(_two_n_plan(), parallelism=parallelism)
        cells = list(plan.cells())
        ran = []
        run_batch = experiments._run_batch

        def killed_in_the_second(batch):
            ran.append([cells.index(cell) for cell in batch[2]])
            if len(ran) == 2:
                raise KeyboardInterrupt
            return run_batch(batch)

        monkeypatch.setattr(experiments, "_run_batch", killed_in_the_second)
        path = tmp_path / "sweep.jsonl"
        with pytest.raises(KeyboardInterrupt):
            sweep(plan, path)
        assert ran == [[0, 2, 4, 6], [1, 3, 5, 7]]
        kept = [record.config_hash for record in load_records(path)]
        ran.clear()
        monkeypatch.setattr(experiments, "_run_batch", lambda batch: ran.append([cells.index(cell) for cell in batch[2]]) or run_batch(batch))
        records = sweep(plan, path)
        assert sorted(i for batch in ran for i in batch) == [1, 3, 5, 7]
        assert kept == [records[i].config_hash for i in (0, 2, 4, 6)]
        on_file = [record.config_hash for record in load_records(path)]
        assert sorted(on_file) == sorted(set(on_file)) == sorted(record.config_hash for record in records)
        assert pools == ([2, 2] if parallelism > 1 else [])

    def test_each_batched_record_is_its_cells_own_run(self, tmp_path):
        plan = _two_n_plan()
        records = sweep(plan, tmp_path / "sweep.jsonl")
        for record, (datum, params, diagnostics) in zip(records, plan.cells()):
            theta0 = make_datum(datum, TorusGrid(params.n))
            alone = solver.run(theta0, params, plan.control, diagnostics, plan.constants, datum.to_config())
            assert replace(record, wall_time=0.0) == replace(alone, wall_time=0.0)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in-process,
    so no test starts a worker process."""

    def __init__(self, max_workers, built):
        built.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


@pytest.fixture()
def gated_pools(monkeypatch):
    """Pool sizes sweep() asks for, in a process that may run on 3 of the host's 8 CPUs."""
    built = []
    monkeypatch.setattr(experiments.concurrent.futures, "ProcessPoolExecutor", lambda max_workers: _RecordingPool(max_workers, built))
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 8)
    return built


@pytest.fixture()
def pools(gated_pools, monkeypatch):
    """gated_pools with a pool that costs nothing, so sweep() asks for the
    bound min(parallelism, pending cells, usable CPUs) however small the plan."""
    monkeypatch.setattr(experiments, "POOL_COST_S", 0.0)
    return gated_pools


class TestWorkerClamp:
    def test_pool_is_no_larger_than_the_pending_cells(self, small_plan, tmp_path, pools):
        records = sweep(replace(small_plan, parallelism=10000), tmp_path / "sweep.jsonl")
        assert pools == [2]
        assert len(records) == 2

    def test_pool_is_no_larger_than_the_cpu_count(self, tmp_path, pools):
        plan = SweepPlan(
            gamma_values=(0.6, 0.7, 0.8, 0.9),
            data=(cosine_positive(1.0, 1.0),),
            resolutions=(32,),
            control=StepControl(t_end=0.05, snapshot_every=0.025),
            parallelism=10000,
        )
        assert len(sweep(plan, tmp_path / "sweep.jsonl")) == 4
        assert pools == [3]

    def test_one_pending_cell_builds_no_pool(self, small_plan, tmp_path, pools):
        out = tmp_path / "sweep.jsonl"
        sweep(small_plan, out)
        out.write_text(out.read_text().splitlines()[0] + "\n")
        assert len(sweep(replace(small_plan, parallelism=10000), out)) == 2
        assert pools == []

    def test_one_cpu_builds_no_pool(self, small_plan, tmp_path, pools, monkeypatch):
        monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0})
        assert len(sweep(replace(small_plan, parallelism=4), tmp_path / "sweep.jsonl")) == 2
        assert pools == []

    def test_without_an_affinity_set_an_unknown_cpu_count_builds_no_pool(self, small_plan, tmp_path, pools, monkeypatch):
        monkeypatch.delattr(experiments.os, "sched_getaffinity")
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
        assert len(sweep(replace(small_plan, parallelism=4), tmp_path / "sweep.jsonl")) == 2
        assert pools == []


def _cosines(count: int) -> tuple:
    return tuple(cosine_positive(1.0, 0.3 + 0.7 * k / (count - 1)) for k in range(count))


class TestPoolGate:
    def test_a_plan_below_the_gate_builds_no_pool(self, tmp_path, gated_pools):
        """Four cells at n = 32 to t = 0.05, one batch, are estimated at a few
        ms, far below the 2*POOL_COST_S a second worker must save, so
        parallelism=4 on 3 CPUs runs them in-process."""
        plan = SweepPlan(
            gamma_values=(0.6, 0.7, 0.8, 0.9),
            data=(cosine_positive(1.0, 1.0),),
            resolutions=(32,),
            control=StepControl(t_end=0.05, snapshot_every=0.025),
            parallelism=4,
        )
        assert experiments._batch_seconds(plan.control, plan.cells()) < 2 * experiments.POOL_COST_S
        assert all(r.outcome is Outcome.COMPLETED for r in sweep(plan, tmp_path / "sweep.jsonl"))
        assert gated_pools == []

    def test_a_plan_where_a_pool_breaks_even_runs_in_process(self, tmp_path, gated_pools):
        """8 cosines x gamma 0.6/0.9/1.2 x n 64/128, each gamma < 1 cell
        tracking its policy exponent: estimated at 0.089 s, just below the
        gate, where a pool about breaks even (0.12 s on 1 worker, 0.10-0.14 s
        on 2)."""
        plan = SweepPlan((0.6, 0.9, 1.2), _cosines(8), (64, 128), holder_alphas=None,
                         control=StepControl(t_end=1.0, dt_max=0.025, snapshot_every=0.025), parallelism=2)
        assert len(sweep(plan, tmp_path / "sweep.jsonl")) == len(plan.cells())
        assert gated_pools == []

    @pytest.mark.parametrize(
        "plan",
        [
            # 24 cells at n = 1024: 0.16-0.24 s on 1 worker, 0.11 s on 2.
            SweepPlan((0.6, 0.9, 1.2), _cosines(8), (1024,),
                      control=StepControl(t_end=0.2, dt_max=0.01, snapshot_every=0.02), parallelism=2),
        ],
        ids=["24-cell-n1024"],
    )
    def test_plans_the_pool_pays_for_build_two_workers(self, plan, tmp_path, gated_pools):
        assert len(sweep(plan, tmp_path / "sweep.jsonl")) == len(plan.cells())
        assert gated_pools == [2]

    def test_the_estimate_grows_with_rows_n_t_end_and_exponents(self):
        control = StepControl(t_end=0.2, snapshot_every=0.02)
        cells = lambda count, n, alphas=(): [  # noqa: E731
            (cosine_positive(1.0, 1.0), solver.ModelParams(gamma=0.9, n=n), solver.DiagnosticPlan(alphas))
        ] * count
        base = experiments._batch_seconds(control, cells(4, 64))
        assert 0.0 < base < experiments._batch_seconds(control, cells(5, 64))
        assert base < experiments._batch_seconds(control, cells(4, 128))
        assert base < experiments._batch_seconds(replace(control, t_end=0.4), cells(4, 64))
        assert base < experiments._batch_seconds(control, cells(4, 64, (0.2,)))
        assert experiments._batch_seconds(control, cells(4, 64, (0.2,))) < experiments._batch_seconds(control, cells(4, 64, (0.2, 0.5)))

    def test_the_batches_a_dead_worker_left_rerun_in_process(self, tmp_path, pools, monkeypatch):
        """A pool whose map raises BrokenProcessPool after its first batch: the
        other batch reruns in-process, so each cell is on file once, and each
        record is the one-worker sweep's apart from wall_time."""

        class DyingPool(_RecordingPool):
            def map(self, fn, jobs):
                yield fn(jobs[0])
                raise BrokenProcessPool("a worker died")

        monkeypatch.setattr(experiments.concurrent.futures, "ProcessPoolExecutor", lambda max_workers: DyingPool(max_workers, pools))
        plan = replace(_two_n_plan(), parallelism=2)
        with pytest.warns(UserWarning, match="the 1 of 2 batches not returned rerun in-process"):
            swept = sweep(plan, tmp_path / "dying.jsonl")
        assert pools == [2]
        serial = sweep(replace(plan, parallelism=1), tmp_path / "serial.jsonl")
        on_file = load_records(tmp_path / "dying.jsonl")
        assert sorted(r.config_hash for r in on_file) == sorted({r.config_hash for r in serial})
        strip = lambda r: {k: v for k, v in record_to_dict(r).items() if k != "wall_time"}  # noqa: E731
        assert [strip(r) for r in swept] == [strip(r) for r in serial]
        by_hash = {r.config_hash: strip(r) for r in serial}
        assert all(strip(r) == by_hash[r.config_hash] for r in on_file)


class TestTornTail:
    @pytest.fixture()
    def swept(self, small_plan, tmp_path):
        out = tmp_path / "sweep.jsonl"
        sweep(small_plan, out)
        first, second = out.read_bytes().splitlines(keepends=True)
        return out, first, second

    def test_torn_last_line_is_dropped_and_only_its_cell_reruns(self, small_plan, swept, monkeypatch):
        out, first, second = swept
        torn = second[: len(second) // 2]
        out.write_bytes(first + torn)
        with pytest.raises(ValueError, match=r"sweep\.jsonl:2"):
            load_records(out)  # the loader itself stays strict
        ran = []
        run_batch = experiments._run_batch
        monkeypatch.setattr(experiments, "_run_batch",
                            lambda batch: ran.extend(params.gamma for _, params, _ in batch[2]) or run_batch(batch))
        with pytest.warns(UserWarning, match=re.escape(f"{out}: dropped a torn last line of {len(torn)} bytes")):
            records = sweep(small_plan, out)
        assert ran == [0.9]
        assert len(records) == 2
        lines = out.read_bytes().splitlines()
        assert len(lines) == 2 and all(json.loads(line) for line in lines)
        assert out.read_bytes().startswith(first)

    def test_complete_last_line_missing_its_newline_is_kept(self, small_plan, swept):
        out, first, second = swept
        out.write_bytes(first + second.rstrip(b"\n"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sweep(small_plan, out)
        assert out.read_bytes() == first + second

    def test_corruption_before_the_last_line_still_raises(self, small_plan, swept):
        out, first, second = swept
        out.write_bytes(first[: len(first) // 2] + b"\n" + second)
        with pytest.raises(ValueError, match=r"sweep\.jsonl:1"):
            sweep(small_plan, out)
