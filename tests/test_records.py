"""Tests for record serialization: JSONL schema, hashing, and the loader."""

import json

import pytest

from ccflab.records import (
    SCHEMA_VERSION,
    DiagnosticsSample,
    Outcome,
    RunRecord,
    append_record,
    config_hash,
    load_records,
    record_from_dict,
    record_to_dict,
    record_to_json,
)
from ccflab.experiments import cosine_positive
from ccflab.regularity import RegularityConstants
from ccflab.solver import DiagnosticPlan, ModelParams, StepControl, build_config


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
    )


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
                    None,
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


class TestSerialization:
    def test_round_trip_preserves_floats_exactly(self):
        rec = _record()
        back = record_from_dict(record_to_dict(rec))
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

    def test_unknown_keys_are_ignored_and_outcome_detail_defaults_blank(self):
        d = record_to_dict(_record())
        d["future_field"] = 1
        d["samples"][0]["future_metric"] = 2.0
        del d["outcome_detail"]
        back = record_from_dict(d)
        assert back.outcome_detail == ""
        assert back.samples == _record().samples

    @pytest.mark.parametrize("level", ["record", "sample"])
    def test_missing_key_is_a_value_error_naming_it(self, level):
        d = record_to_dict(_record())
        if level == "record":
            del d["t_star_predicted"]
            key = "t_star_predicted"
        else:
            del d["samples"][2]["holder"]
            key = "holder"
        with pytest.raises(ValueError, match=f"{level} is missing key '{key}'"):
            record_from_dict(d)

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

    def test_loader_rejects_foreign_schema_loudly(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        d = record_to_dict(_record())
        d["schema_version"] = 99
        path.write_text(json.dumps(d) + "\n")
        with pytest.raises(ValueError, match="schema"):
            load_records(path)
