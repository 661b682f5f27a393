"""Tests for record serialization: JSONL schema, hashing, and the loader."""

import base64
import json
import math
import pickle
import re
from concurrent.futures.process import ProcessPoolExecutor
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from ccflab import solver
from ccflab.records import (
    SCALAR_FIELDS,
    SCHEMA_VERSION,
    DiagnosticsSample,
    Outcome,
    RunRecord,
    SampleTable,
    append_record,
    config_hash,
    load_records,
    record_from_dict,
    record_to_dict,
    record_to_json,
)
from ccflab.experiments import SweepPlan, cosine_positive, make_datum, sweep
from ccflab.regularity import RegularityConstants
from ccflab.solver import DiagnosticPlan, ModelParams, StepControl, build_config, run
from ccflab.torus import TorusGrid

# Two records written in schema 1 by an earlier build (ccflab sweep --gamma
# 0.6,1.2 --n 64 --t-end 0.1), checked in unchanged, and the same sweep as the
# last schema 2 build wrote it: 51 samples a record, the first tracking 0.5.
SCHEMA_1_FILE = Path(__file__).with_name("data") / "sweep_v1.jsonl"
SCHEMA_2_FILE = Path(__file__).with_name("data") / "sweep_v2.jsonl"
TELEMETRY = ("step_count", "dt_min", "dt_max")
SCALARS = tuple(f.name for f in fields(DiagnosticsSample) if f.name != "holder")


def _sample(t, l2=1.0):
    return DiagnosticsSample(
        t=t,
        l2=l2,
        linf=2.0,
        mean=0.1,
        hdot_half=0.5,
        hdot_three_half=1.5,
        hdot_mid=1.7,
        holder={0.2: 1.6048121798571024},
        tail_fraction=1e-30,
        min_value=0.0,
        grad_linf=1.0,
    )


def _record(wall_time=0.25, gamma=0.9):
    return RunRecord(
        config={"model": {"gamma": gamma, "n": 64}, "control": {"t_end": 1.0}},
        samples=[_sample(0.0), _sample(0.5), _sample(1.0)],
        outcome=Outcome.COMPLETED,
        outcome_detail="reached t_end=1",
        t_star_predicted=5.8254222222222e-05,
        t_local_predicted=None,
        wall_time=wall_time,
        step_count=41,
        dt_min=0.004999999999999893,
        dt_max=0.025,
    )


def _encoded(values) -> str:
    """Values as a schema 3 column: base64 of their little-endian float64 bytes."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def _decoded(column: str) -> list:
    """A schema 3 column's values."""
    return np.frombuffer(base64.b64decode(column), "<f8").tolist()


def _schema_2(d: dict) -> dict:
    """A schema 3 record dict in the schema 2 form: each column a JSON array."""
    samples = {name: _decoded(column) for name, column in d["samples"].items() if name != "holder"}
    samples["holder"] = {alpha: _decoded(column) for alpha, column in d["samples"]["holder"].items()}
    return {**d, "schema_version": 2, "samples": samples}


def _schema_1(d: dict) -> dict:
    """A schema 3 record dict in the schema 1 form: one object per sample and
    no telemetry keys."""
    columns = dict(_schema_2(d)["samples"])
    holder = columns.pop("holder")
    rows = [dict(zip(columns, values)) for values in zip(*columns.values())]
    for i, row in enumerate(rows):
        row["holder"] = {alpha: series[i] for alpha, series in holder.items()}
    out = {key: value for key, value in d.items() if key not in TELEMETRY}
    return {**out, "schema_version": 1, "samples": rows}


class TestOutcome:
    def test_values_are_the_wire_strings(self):
        assert Outcome.COMPLETED.value == "Completed"
        assert Outcome.BLOWUP_SUSPECTED.value == "BlowupSuspected"
        assert Outcome.UNDER_RESOLVED.value == "UnderResolved"
        assert Outcome.STEP_COLLAPSE.value == "StepCollapse"


class TestRunRecord:
    def test_samples_must_be_time_sorted(self):
        with pytest.raises(ValueError, match="time-sorted"):
            RunRecord(
                config={},
                samples=[_sample(1.0), _sample(0.0)],
                outcome=Outcome.COMPLETED,
            )

    def test_config_hash_is_twelve_hex_chars(self):
        rec = _record()
        assert len(rec.config_hash) == 12
        int(rec.config_hash, 16)  # must parse as hexadecimal

    def test_hash_ignores_wall_time_but_not_config(self):
        assert _record(wall_time=0.1).config_hash == _record(wall_time=9.9).config_hash
        assert _record(gamma=0.9).config_hash != _record(gamma=0.6).config_hash

    def test_config_hash_function_matches_property(self):
        rec = _record()
        assert config_hash(rec.config) == rec.config_hash

    @pytest.mark.parametrize(
        "config, expected",
        [
            (
                build_config(
                    ModelParams(gamma=0.9, n=128),
                    StepControl(t_end=1.0),
                    RegularityConstants(),
                    cosine_positive(1.0, 0.5).to_config(),
                    DiagnosticPlan((0.2,)),
                ),
                "decd31bfc78e",
            ),
            (
                build_config(
                    ModelParams(gamma=1.5, n=64, dissipation_on=False, dealias_on=False),
                    StepControl(t_end=0.5, dt_max=0.02, cfl=0.3, snapshot_every=0.05),
                    RegularityConstants(C_star=2.0, k2=3.0),
                    {"kind": "custom"},
                    DiagnosticPlan(),
                ),
                "bb56de2b972b",
            ),
        ],
        ids=["defaults", "every-field-set"],
    )
    def test_golden_hash_keeps_existing_sweep_files_resumable(self, config, expected):
        # Hashes written by earlier builds: a schema edit that changes them
        # would make every existing sweep file rerun from scratch.
        assert config_hash(config) == expected


class TestSampleTable:
    def test_each_field_is_a_float64_column(self):
        samples = _record().samples
        assert isinstance(samples, SampleTable) and len(samples) == 3
        assert samples.t.dtype == np.float64 and samples.t.tolist() == [0.0, 0.5, 1.0]
        assert samples.l2.tolist() == [1.0] * 3
        assert list(samples.holder) == [0.2]
        assert samples.holder[0.2].tolist() == [1.6048121798571024] * 3

    def test_a_row_is_the_sample_run_took(self, monkeypatch):
        """Each row of the record is the snapshot's table row and Holder values."""
        taken = []

        def take(*args, take=solver._take_sample):
            table, holders, stops = take(*args)
            taken.append(DiagnosticsSample(**dict(zip(SCALAR_FIELDS, table[0])), holder={0.2: holders[0][0]}))
            return table, holders, stops

        monkeypatch.setattr(solver, "_take_sample", take)
        grid = TorusGrid(64)
        rec = run(make_datum(cosine_positive(1.0, 1.0), grid), ModelParams(gamma=0.9, n=64),
                  StepControl(t_end=0.1, snapshot_every=0.05), DiagnosticPlan((0.2,)))
        assert len(taken) == 3 and rec.samples[-1] == taken[-1]
        assert isinstance(rec.samples[0], DiagnosticsSample)
        assert list(rec.samples) == taken
        row = vars(rec.samples[-1])
        assert all(type(value) is float for value in [*row.pop("holder").values(), *row.values()])

    def test_a_slice_is_a_table(self):
        samples = _record().samples
        head = samples[:2]
        assert isinstance(head, SampleTable)
        assert head.t.tolist() == [0.0, 0.5] and head.holder[0.2].tolist() == [1.6048121798571024] * 2
        assert list(head) == [samples[0], samples[1]]
        assert replace(_record(), samples=head).samples == head

    def test_equality_treats_nan_as_equal_to_nan(self):
        nan = replace(_record(), samples=[_sample(0.0, l2=math.nan), _sample(1.0)])
        assert nan == replace(_record(), samples=[_sample(0.0, l2=float("nan")), _sample(1.0)])
        assert nan.samples != replace(_record(), samples=[_sample(0.0), _sample(1.0)]).samples
        assert record_from_dict(record_to_dict(nan)) == nan

    def test_tables_differ_in_their_exponents(self):
        other = replace(_record(), samples=[replace(s, holder={0.3: 1.0}) for s in _record().samples])
        assert other.samples != _record().samples

    def test_columns_are_read_only(self):
        samples = _record().samples
        with pytest.raises(ValueError, match="read-only"):
            samples.l2[0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            samples.holder[0.2][0] = 2.0
        with pytest.raises(AttributeError):
            samples.l2 = np.zeros(3)
        with pytest.raises(TypeError):
            samples.holder[0.3] = np.zeros(3)

    def test_columns_stay_read_only_through_pickle(self):
        back = pickle.loads(pickle.dumps(_record()))
        assert back == _record()
        assert not back.samples.l2.flags.writeable
        assert not back.samples.holder[0.2].flags.writeable

    def test_records_from_a_parallel_sweep_hold_read_only_columns(self, tmp_path, real_pools):
        plan = SweepPlan(
            gamma_values=(0.6, 0.9),
            data=(cosine_positive(1.0, 1.0),),
            resolutions=(32,),
            control=StepControl(t_end=0.05, snapshot_every=0.025),
            parallelism=2,
        )
        records = sweep(plan, tmp_path / "sweep.jsonl")
        assert [(type(pool), workers) for pool, workers in real_pools] == [(ProcessPoolExecutor, 2)]
        assert records == load_records(tmp_path / "sweep.jsonl")
        for record in records:
            assert not any(getattr(record.samples, name).flags.writeable for name in ("t", "l2", "grad_linf"))
            assert not any(column.flags.writeable for column in record.samples.holder.values())


class TestSerialization:
    def test_round_trip_preserves_floats_exactly(self):
        rec = _record()
        back = record_from_dict(record_to_dict(rec))
        assert back == rec
        assert back.config == rec.config
        assert back.outcome is Outcome.COMPLETED
        assert back.t_star_predicted == rec.t_star_predicted
        assert back.t_local_predicted is None
        for a, b in zip(back.samples, rec.samples):
            assert a == b  # dataclass equality covers every field
        # holder keys are floats on both sides, bit-identical
        assert list(back.samples[0].holder) == [0.2]

    def test_json_line_is_deterministic(self):
        assert record_to_json(_record()) == record_to_json(_record())
        assert "\n" not in record_to_json(_record())

    def test_samples_are_stored_as_base64_float64_columns(self):
        d = record_to_dict(_record())
        assert d["schema_version"] == SCHEMA_VERSION == 3
        # 0.0, 0.5 and 1.0 as little-endian float64 bytes.
        assert d["samples"]["t"] == "AAAAAAAAAAAAAAAAAADgPwAAAAAAAPA/" == _encoded([0.0, 0.5, 1.0])
        assert d["samples"]["holder"] == {"0.2": _encoded([1.6048121798571024] * 3)}
        assert {key: d[key] for key in TELEMETRY} == {"step_count": 41, "dt_min": 0.004999999999999893, "dt_max": 0.025}

    def test_keys_are_the_run_record_fields_and_the_schema_version(self):
        assert set(record_to_dict(_record())) == {f.name for f in fields(RunRecord)} | {"schema_version"}

    def test_a_record_without_samples_round_trips(self):
        rec = replace(_record(), samples=[])
        assert record_from_dict(record_to_dict(rec)) == rec

    def test_samples_tracking_different_exponents_cannot_be_written(self):
        """One column per exponent cannot hold them, so the record is refused
        when it is built, before anything could write it."""
        odd = replace(_sample(0.5), holder={0.3: 1.0})
        with pytest.raises(ValueError, match="same Holder exponents"):
            replace(_record(), samples=[_sample(0.0), odd])

    def test_schema_1_dict_loads_equal_with_no_telemetry(self):
        back = record_from_dict(_schema_1(record_to_dict(_record())))
        assert back == replace(_record(), step_count=None, dt_min=None, dt_max=None)

    def test_unknown_keys_are_ignored_and_outcome_detail_defaults_blank(self):
        d = _schema_1(record_to_dict(_record()))
        d["future_field"] = 1
        d["samples"][0]["future_metric"] = 2.0
        del d["outcome_detail"]
        back = record_from_dict(d)
        assert back.outcome_detail == ""
        assert back.samples == _record().samples

    @pytest.mark.parametrize("schema", [1, 2, 3])
    def test_outcome_detail_must_be_a_string(self, schema):
        d = record_to_dict(_record())
        d = {1: _schema_1, 2: _schema_2, 3: dict}[schema](d)
        d["outcome_detail"] = 5
        with pytest.raises(ValueError, match="record 'outcome_detail' must be a JSON string, got int"):
            record_from_dict(d)

    def test_unknown_columns_are_ignored(self):
        d = record_to_dict(_record())
        d["future_field"] = 1
        d["samples"]["future_metric"] = [2.0, 2.0, 2.0]
        assert record_from_dict(d) == _record()

    @pytest.mark.parametrize("level", ["record", "sample", "telemetry", "column"])
    def test_missing_key_is_a_value_error_naming_it(self, level):
        d = record_to_dict(_record())
        if level == "record":
            del d["t_star_predicted"]
            key = "t_star_predicted"
        elif level == "sample":
            d = _schema_1(d)
            del d["samples"][2]["holder"]
            key = "holder"
        elif level == "telemetry":
            del d["dt_min"]
            level, key = "record", "dt_min"
        else:
            del d["samples"]["tail_fraction"]
            level, key = "sample", "tail_fraction"
        with pytest.raises(ValueError, match=f"{level} is missing key '{key}'"):
            record_from_dict(d)

    def test_columns_round_trip_bit_for_bit(self):
        """Signed zero, NaN (with a payload), infinities and subnormals come
        back with the bytes they went in with, and the line is strict JSON."""
        odd_nan = np.frombuffer(bytes.fromhex("0100000000f8ff7f"), "<f8")[0]
        values = [-0.0, math.nan, odd_nan, math.inf, -math.inf, 5e-324, -1e-310]
        columns = {name: [*values[i:], *values[:i]] for i, name in enumerate(SCALARS)}
        columns["t"] = [-0.0, 0.0, 5e-324, 1e-310, 1.0, 2.0, math.inf]
        columns["holder"] = {0.2: values[::-1], 0.5: values}
        rec = replace(_record(), samples=SampleTable(columns))
        line = record_to_json(rec)
        json.loads(line, parse_constant=lambda token: pytest.fail(f"non-standard JSON token {token}"))
        back = record_from_dict(json.loads(line))
        for name in SCALARS:
            assert getattr(back.samples, name).tobytes() == np.asarray(columns[name], "<f8").tobytes(), name
        for alpha, series in columns["holder"].items():
            assert back.samples.holder[alpha].tobytes() == np.asarray(series, "<f8").tobytes(), alpha
        assert record_to_json(back) == line

    def test_unknown_schema_version_rejected(self):
        d = record_to_dict(_record())
        d["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema"):
            record_from_dict(d)


class TestFileFormat:
    def test_append_and_load_round_trip(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        append_record(path, _record(gamma=0.9))
        append_record(path, _record(gamma=0.6))
        records = load_records(path)
        assert len(records) == 2
        assert records[0].config["model"]["gamma"] == 0.9
        assert records[1].config["model"]["gamma"] == 0.6

    def test_loader_names_the_bad_line(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text(record_to_json(_record()) + "\nnot json\n")
        with pytest.raises(ValueError, match=r"runs\.jsonl:2"):
            load_records(path)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda s: s["t"].__setitem__(1, "0.5"), "sample 't' must hold only JSON numbers"),
            (lambda s: s["l2"].__setitem__(1, True), "sample 'l2' must hold only JSON numbers"),
            (lambda s: s["linf"].pop(), "sample 'linf' holds 50 values, sample 't' holds 51"),
            (lambda s: s.__delitem__("grad_linf"), "sample is missing key 'grad_linf'"),
            (lambda s: s.__setitem__("holder", None), "sample 'holder' must be a JSON object, got NoneType"),
            (lambda s: s.__setitem__("mean", 0.1), "sample 'mean' must be a JSON array, got float"),
            (lambda s: s["holder"]["0.5"].__setitem__(2, False), "sample 'holder' '0.5' must hold only JSON numbers"),
            (lambda s: s["holder"]["0.5"].append(1.0), "sample 'holder' '0.5' holds 52 values, sample 't' holds 51"),
            (lambda s: s["l2"].__setitem__(1, 10**400), "sample 'l2' holds an integer too large for a float64"),
            (lambda s: s["holder"]["0.5"].__setitem__(1, -(10**400)),
             "sample 'holder' '0.5' holds an integer too large for a float64"),
        ],
        ids=["string", "bool", "length", "missing_column", "null_holder", "not_an_array",
             "bool_holder_value", "holder_length", "huge_int", "huge_int_holder"],
    )
    def test_loader_names_the_line_and_the_bad_column(self, tmp_path, mutate, message):
        first = SCHEMA_2_FILE.read_text().splitlines()[0]
        d = json.loads(first)
        mutate(d["samples"])
        path = tmp_path / "runs.jsonl"
        path.write_text(first + "\n" + json.dumps(d) + "\n")
        with pytest.raises(ValueError, match=f"runs\\.jsonl:2: {re.escape(message)}"):
            load_records(path)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda s: s.__setitem__("t", [0.0, 0.5, 1.0]), "sample 't' must be a JSON string, got list"),
            (lambda s: s.__setitem__("l2", None), "sample 'l2' must be a JSON string, got NoneType"),
            (lambda s: s["holder"].__setitem__("0.2", 1.6), "sample 'holder' '0.2' must be a JSON string, got float"),
            # A decoder that skips characters outside the alphabet would read the column unchanged.
            (lambda s: s.__setitem__("mean", s["mean"][:4] + "!" + s["mean"][4:]), "sample 'mean' is not valid base64"),
            (lambda s: s.__setitem__("mean", s["mean"][:-2]), "sample 'mean' is not valid base64"),
            (lambda s: s.__setitem__("mean", "é" + s["mean"][1:]), "sample 'mean' is not valid base64"),
            (lambda s: s.__setitem__("linf", _encoded([2.0, 2.0])),
             "sample 'linf' holds 16 bytes, not 24 (8 per value of sample 't')"),
            (lambda s: s["holder"].__setitem__("0.2", _encoded([1.0] * 4)),
             "sample 'holder' '0.2' holds 32 bytes, not 24 (8 per value of sample 't')"),
            (lambda s: s.__setitem__("t", base64.b64encode(bytes(12)).decode()),
             "sample 't' holds 12 bytes, not a whole number of float64 values"),
        ],
        ids=["list", "null", "holder_number", "bad_character", "bad_padding", "not_ascii",
             "byte_length", "holder_byte_length", "t_not_whole_values"],
    )
    def test_loader_names_the_line_and_the_bad_schema_3_column(self, tmp_path, mutate, message):
        path = tmp_path / "runs.jsonl"
        d = record_to_dict(_record())
        mutate(d["samples"])
        path.write_text(record_to_json(_record()) + "\n" + json.dumps(d) + "\n")
        with pytest.raises(ValueError, match=f"runs\\.jsonl:2: {re.escape(message)}"):
            load_records(path)

    @pytest.mark.parametrize("schema", [_schema_1, _schema_2, dict], ids=["schema_1", "schema_2", "schema_3"])
    @pytest.mark.parametrize(
        "keys, message",
        [
            (("0.3", "0.30"), "sample 'holder' keys '0.3' and '0.30' name one exponent 0.3"),
            (("nan",), "sample 'holder' key 'nan' is not a number in (0, 1]"),
            (("abc",), "sample 'holder' key 'abc' is not a number in (0, 1]"),
            (("1.5",), "sample 'holder' key '1.5' is not a number in (0, 1]"),
            (("0",), "sample 'holder' key '0' is not a number in (0, 1]"),
        ],
        ids=["same_exponent_twice", "nan", "not_a_number", "above_one", "zero"],
    )
    def test_loader_names_the_line_and_a_bad_holder_key(self, tmp_path, schema, keys, message):
        """A key that two spellings share would drop one column, and one that is
        no exponent would load, or fail without its name."""
        d = record_to_dict(_record())
        column = d["samples"]["holder"]["0.2"]
        d["samples"]["holder"] = dict.fromkeys(keys, column)
        path = tmp_path / "runs.jsonl"
        path.write_text(record_to_json(_record()) + "\n" + json.dumps(schema(d)) + "\n")
        with pytest.raises(ValueError, match=f"runs\\.jsonl:2: {re.escape(message)}"):
            load_records(path)

    def test_loader_rejects_foreign_schema_loudly(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        d = record_to_dict(_record())
        d["schema_version"] = 99
        path.write_text(json.dumps(d) + "\n")
        with pytest.raises(ValueError, match=re.escape("schema_version 99; this build reads versions [1, 2, 3]")):
            load_records(path)

    def test_a_written_schema_3_line_reserializes_byte_equal(self, tmp_path):
        grid = TorusGrid(64)
        rec = run(make_datum(cosine_positive(1.0, 1.0), grid), ModelParams(gamma=0.9, n=64),
                  StepControl(t_end=0.1, snapshot_every=0.02), DiagnosticPlan((0.2, 0.5)))
        path = tmp_path / "runs.jsonl"
        append_record(path, rec)
        line = path.read_text().rstrip("\n")
        assert json.loads(line)["schema_version"] == 3
        assert record_to_json(record_from_dict(json.loads(line))) == line


def _as_written(payload: dict) -> dict:
    """A schema 1 or 2 line's sample columns as float64 arrays, read straight
    from its JSON numbers, the way every build before schema 3 read them."""
    samples = payload["samples"]
    if payload["schema_version"] == 1:
        samples = {name: [row[name] for row in samples] for name in samples[0]}
        samples["holder"] = {a: [h[a] for h in samples["holder"]] for a in samples["holder"][0]}
    columns = {name: np.array(v, dtype=np.float64) for name, v in samples.items() if name != "holder"}
    return {**columns, "holder": {float(a): np.array(v, dtype=np.float64) for a, v in samples["holder"].items()}}


class TestOlderSchemaFiles:
    @pytest.mark.parametrize("path", [SCHEMA_1_FILE, SCHEMA_2_FILE], ids=["schema_1", "schema_2"])
    def test_a_file_loads_the_values_it_holds_bit_for_bit(self, path):
        payloads = [json.loads(line) for line in path.read_text().splitlines()]
        records = load_records(path)
        assert [r.config_hash for r in records] == ["766337153669", "4ae00d24a92d"]
        for record, payload in zip(records, payloads):
            columns = _as_written(payload)
            for name in SCALARS:
                assert getattr(record.samples, name).tobytes() == columns[name].tobytes(), name
            assert record.samples.holder.keys() == columns["holder"].keys()
            for alpha, series in columns["holder"].items():
                assert record.samples.holder[alpha].tobytes() == series.tobytes()
            assert record.config == payload["config"] and record.outcome.value == payload["outcome"]
            for key in ("outcome_detail", "t_star_predicted", "t_local_predicted", "wall_time", *TELEMETRY):
                assert getattr(record, key) == payload.get(key), key

    @pytest.mark.parametrize("path", [SCHEMA_1_FILE, SCHEMA_2_FILE], ids=["schema_1", "schema_2"])
    def test_records_rewritten_in_schema_3_load_equal(self, tmp_path, path):
        records = load_records(path)
        rewritten = tmp_path / "runs.jsonl"
        for record in records:
            append_record(rewritten, record)
        assert [json.loads(line)["schema_version"] for line in rewritten.read_text().splitlines()] == [3, 3]
        assert load_records(rewritten) == records

    def test_a_schema_1_file_loads_with_no_telemetry(self):
        records = load_records(SCHEMA_1_FILE)
        assert [r.config["model"]["gamma"] for r in records] == [0.6, 1.2]
        assert [r.config_hash for r in records] == ["766337153669", "4ae00d24a92d"]
        assert all(r.step_count is r.dt_min is r.dt_max is None for r in records)
        assert list(records[0].samples[0].holder) == [0.5]

    def test_a_sample_tracking_other_exponents_fails_naming_the_line(self, tmp_path):
        first, second = SCHEMA_1_FILE.read_text().splitlines()
        payload = json.loads(first)
        payload["samples"][10]["holder"] = {"0.3": 1.0}
        path = tmp_path / "runs.jsonl"
        path.write_text(second + "\n" + json.dumps(payload) + "\n")
        message = "runs.jsonl:2: every sample of a record must track the same Holder exponents"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_records(path)

    def test_a_huge_integer_in_a_sample_fails_naming_the_line_and_the_key(self, tmp_path):
        first, second = SCHEMA_1_FILE.read_text().splitlines()
        payload = json.loads(first)
        payload["samples"][1]["l2"] = 10**400
        path = tmp_path / "runs.jsonl"
        path.write_text(second + "\n" + json.dumps(payload) + "\n")
        message = "runs.jsonl:2: sample 'l2' holds an integer too large for a float64"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_records(path)

    def test_a_file_may_mix_schema_versions(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text(SCHEMA_1_FILE.read_text() + SCHEMA_2_FILE.read_text())
        append_record(path, _record())
        *old, new = load_records(path)
        assert old == load_records(SCHEMA_1_FILE) + load_records(SCHEMA_2_FILE)
        assert new == _record()
