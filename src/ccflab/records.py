"""Persistent run records: the diagnostics sample and run record types,
outcome classification, JSONL serialization with a versioned schema, and the
configuration hash used for sweep resumption. This module imports no other
ccflab module, so every layer can read records.

Serialization rules that keep sweeps byte-reproducible:

* JSON is emitted with sorted keys and compact separators; floats serialize
  via repr, which round-trips exactly in both directions.
* wall_time is stored on the record but excluded from the config hash, so a
  re-run of the same cell is recognized regardless of how long it took.

Schema 2, the one written, stores a record's samples as columns: one JSON
array per DiagnosticsSample field, and under "holder" one array per tracked
exponent. Schema 1 stored one object per sample; it is still read, converted
to the column layout first, so a file may hold lines of both versions. Every
sample of a record must track the same Holder exponents.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import dataclass, fields
from enum import Enum
from operator import itemgetter
from pathlib import Path

SCHEMA_VERSION = 2


class Outcome(str, Enum):
    """Terminal classification of a run; set exactly once."""

    COMPLETED = "Completed"
    BLOWUP_SUSPECTED = "BlowupSuspected"
    UNDER_RESOLVED = "UnderResolved"
    STEP_COLLAPSE = "StepCollapse"


@dataclass(frozen=True)
class DiagnosticsSample:
    """One snapshot of run diagnostics.

    holder maps each tracked Holder exponent to its seminorm estimate;
    grad_linf is ||theta_x||_inf, needed by the gradient-growth detector.
    """

    t: float
    l2: float
    linf: float
    mean: float
    hdot_half: float
    hdot_three_half: float
    hdot_mid: float
    holder: dict[float, float]
    tail_fraction: float
    min_value: float
    grad_linf: float


@dataclass(frozen=True)
class RunRecord:
    """One run: full configuration, diagnostics series, and classification.

    step_count, dt_min and dt_max say what the run did: how many time steps it
    took and the range of their sizes. They are not config, so the hash skips
    them; a schema 1 record, or a run that took no step, has None there.
    """

    config: dict
    samples: list[DiagnosticsSample]
    outcome: Outcome
    outcome_detail: str = ""
    t_star_predicted: float | None = None
    t_local_predicted: float | None = None
    wall_time: float = 0.0
    step_count: int | None = None
    dt_min: float | None = None
    dt_max: float | None = None

    def __post_init__(self) -> None:
        times = [s.t for s in self.samples]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("samples must be time-sorted")

    @property
    def config_hash(self) -> str:
        return config_hash(self.config)


def config_hash(config: dict) -> str:
    """Stable short hash of a config dict (full float precision, sorted keys)."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(canon.encode()).hexdigest()[:12]


# The persisted sample keys are DiagnosticsSample's own field names, in the
# order of its constructor's parameters.
_SAMPLE_FIELDS = tuple(f.name for f in fields(DiagnosticsSample))
_sample_values = itemgetter(*_SAMPLE_FIELDS)
_HOLDER = _SAMPLE_FIELDS.index("holder")
# The RunRecord keys schema 2 added: what a run did, not what it measured.
_TELEMETRY = ("step_count", "dt_min", "dt_max")
# The JSON name of each shape _expect checks.
_SHAPES = {dict: "object", list: "array", str: "string"}


def _expect(value, kind: type, what: str):
    """Return value if it has the JSON shape kind (dict, list or str), else
    raise a ValueError naming what."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a JSON {_SHAPES[kind]}, got {type(value).__name__}")
    return value


# The types json gives a number; true and false load as bool, which is not one.
_NUMBER_TYPES = frozenset((int, float))


def _expect_number(value, what: str, nullable: bool = False):
    """Return value if it is a JSON number (or null when nullable), else raise
    a ValueError naming what."""
    if type(value) in _NUMBER_TYPES or (nullable and value is None):
        return value
    shape = "number or null" if nullable else "number"
    raise ValueError(f"{what} must be a JSON {shape}, got {type(value).__name__}")


def _check_datum(datum: dict) -> None:
    """Raise a ValueError naming the key unless kind is a string, samples an
    array of numbers and every other value a number."""
    for key, value in datum.items():
        what = f"record 'config.datum.{key}'"
        if key == "kind":
            _expect(value, str, what)
        elif key == "samples":
            if any(type(v) not in _NUMBER_TYPES for v in _expect(value, list, what)):
                raise ValueError(f"{what} must hold only JSON numbers")
        else:
            _expect_number(value, what)


def _sample_columns(rows) -> dict:
    """Schema 2 samples from rows of DiagnosticsSample field values: one array
    per field, and under "holder" one per tracked exponent. The one place rows
    become columns, so the one check that every row tracks the same exponents."""
    rows = list(rows)
    columns = {name: [row[i] for row in rows] for i, name in enumerate(_SAMPLE_FIELDS)}
    holders = [_expect(h, dict, "sample 'holder'") for h in columns["holder"]]
    alphas = holders[0].keys() if holders else {}.keys()
    if any(h.keys() != alphas for h in holders):
        raise ValueError("every sample of a record must track the same Holder exponents")
    # String keys: json's own float-to-key conversion would sort some alphas
    # differently. str is repr for a float alpha and the key itself for a
    # schema 1 one.
    columns["holder"] = {str(a): [h[a] for h in holders] for a in alphas}
    return columns


def _columns_from_rows(rows) -> dict:
    """Schema 1 samples, one object each, in the schema 2 column layout."""
    rows = _expect(rows, list, "record 'samples'")
    try:
        return _sample_columns(_sample_values(_expect(s, dict, "sample")) for s in rows)
    except KeyError as exc:
        raise ValueError(f"sample is missing key {exc.args[0]!r}") from None


def _column(values, size: int, what: str) -> list:
    """values if it is an array of size JSON numbers, else a ValueError naming what."""
    if len(_expect(values, list, what)) != size:
        raise ValueError(f"{what} holds {len(values)} values, sample 't' holds {size}")
    if not _NUMBER_TYPES.issuperset(map(type, values)):
        raise ValueError(f"{what} must hold only JSON numbers")
    return values


def _sample_by_position(values) -> DiagnosticsSample:
    """DiagnosticsSample(*values) for values the loader has checked. Filling
    the frozen instance's __dict__ skips the frozen __init__'s per-field
    object.__setattr__, most of the cost of building a sample; the class has
    no __post_init__ that this would skip too."""
    sample = object.__new__(DiagnosticsSample)
    sample.__dict__.update(zip(_SAMPLE_FIELDS, values))
    return sample


def _samples_from_columns(d: dict) -> list[DiagnosticsSample]:
    """Schema 2 samples: each column checked once, each sample built by position."""
    try:
        columns = list(_sample_values(_expect(d, dict, "record 'samples'")))
    except KeyError as exc:
        raise ValueError(f"sample is missing key {exc.args[0]!r}") from None
    size = len(_expect(columns[0], list, "sample 't'"))
    for i, name in enumerate(_SAMPLE_FIELDS):
        if i != _HOLDER:
            _column(columns[i], size, f"sample {name!r}")
    holder = _expect(columns[_HOLDER], dict, "sample 'holder'")
    series = {float(a): _column(v, size, f"sample 'holder' {a!r}") for a, v in holder.items()}
    if series:
        columns[_HOLDER] = [dict(zip(series, values)) for values in zip(*series.values())]
    else:
        columns[_HOLDER] = [{} for _ in range(size)]
    return list(map(_sample_by_position, zip(*columns)))


def record_to_dict(record: RunRecord) -> dict:
    """The schema 2 form of a record, one key per RunRecord field; a
    ValueError if its samples track different Holder exponents, which one
    column per exponent cannot hold."""
    d = {f.name: getattr(record, f.name) for f in fields(RunRecord)}
    d.update(
        schema_version=SCHEMA_VERSION,
        samples=_sample_columns(map(_sample_values, map(vars, record.samples))),
        outcome=record.outcome.value,
    )
    return d


def record_from_dict(d: dict) -> RunRecord:
    """A record from its schema 1 or schema 2 form. A schema 1 dict is first
    converted to the schema 2 layout, with no telemetry, so both versions are
    checked and built by the one column reader."""
    version = _expect(d, dict, "record").get("schema_version")
    if type(version) is not int or version not in (1, SCHEMA_VERSION):
        raise ValueError(
            f"unknown record schema_version {version!r}; this build reads versions [1, {SCHEMA_VERSION}]"
        )
    try:
        if version == 1:
            d = {**d, "samples": _columns_from_rows(d["samples"]), **dict.fromkeys(_TELEMETRY)}
        config = _expect(d["config"], dict, "record 'config'")
        model = _expect(config.get("model", {}), dict, "record 'config.model'")
        _check_datum(_expect(config.get("datum", {}), dict, "record 'config.datum'"))
        for key in ("gamma", "n"):
            if key in model:
                _expect_number(model[key], f"record 'config.model.{key}'")
        return RunRecord(
            config=config,
            samples=_samples_from_columns(d["samples"]),
            outcome=Outcome(d["outcome"]),
            outcome_detail=_expect(d.get("outcome_detail", ""), str, "record 'outcome_detail'"),
            t_star_predicted=_expect_number(d["t_star_predicted"], "record 't_star_predicted'", True),
            t_local_predicted=_expect_number(d["t_local_predicted"], "record 't_local_predicted'", True),
            wall_time=_expect_number(d["wall_time"], "record 'wall_time'"),
            **{key: _expect_number(d[key], f"record {key!r}", True) for key in _TELEMETRY},
        )
    except KeyError as exc:
        raise ValueError(f"record is missing key {exc.args[0]!r}") from None


def record_to_json(record: RunRecord) -> str:
    """One JSONL line, deterministic up to the wall_time field."""
    return json.dumps(record_to_dict(record), sort_keys=True, separators=(",", ":"))


def append_record(path: Path, record: RunRecord) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(record_to_json(record) + "\n")


def drop_torn_tail(path: Path) -> None:
    """Cut an unterminated last line that is not valid JSON, the trace of a
    write killed mid-append, and warn with its byte count. A complete last
    line missing only its newline gets the newline. Anything else is left
    for load_records to judge."""
    with open(path, "rb") as fh:
        fh.seek(max(fh.seek(0, os.SEEK_END) - 1, 0))
        if fh.read(1) in (b"", b"\n"):
            return
        fh.seek(0)
        data = fh.read()
    start = data.rfind(b"\n") + 1
    try:
        json.loads(data[start:])
    except ValueError:
        with open(path, "r+b") as fh:
            fh.truncate(start)
        warnings.warn(f"{path}: dropped a torn last line of {len(data) - start} bytes", stacklevel=2)
    else:
        with open(path, "ab") as fh:
            fh.write(b"\n")


def load_records(path: Path) -> list[RunRecord]:
    """Read a JSONL record file; unknown schema versions, missing keys and
    lines of the wrong shape are rejected loudly, as a ValueError naming the
    file and line."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(record_from_dict(json.loads(line)))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return records
