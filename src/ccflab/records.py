"""Persistent run records: the diagnostics sample and run record types,
outcome classification, JSONL serialization with a versioned schema, and the
configuration hash used for sweep resumption. This module imports no other
ccflab module, so every layer can read records.

Serialization rules that keep sweeps byte-reproducible:

* JSON is emitted with sorted keys and compact separators. Scalar floats
  serialize via repr, and sample columns as the bytes of their float64 values;
  both round-trip exactly in both directions.
* wall_time is stored on the record but excluded from the config hash, so a
  re-run of the same cell is recognized regardless of how long it took.

Schema 3, the one written, stores a record's samples as columns, as a
SampleTable holds them: one string per DiagnosticsSample field, and under
"holder" one per tracked exponent, each the base64 of the column's
little-endian float64 bytes. Schema 2 had the same layout with a JSON array of
numbers per column; schema 1 stored one object per sample, and is converted to
the column layout first. All three are read, so a file may hold lines of every
version. Every sample of a record must track the same Holder exponents.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import sys
import warnings
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from pathlib import Path
from types import MappingProxyType

import numpy as np

SCHEMA_VERSION = 3


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


# A sample's fields in constructor order, and the float ones: the columns of a SampleTable and a snapshot.
_SAMPLE_FIELDS = tuple(f.name for f in fields(DiagnosticsSample))
SCALAR_FIELDS = tuple(name for name in _SAMPLE_FIELDS if name != "holder")


class SampleTable:
    """A record's samples as columns: one read-only float64 array per scalar
    DiagnosticsSample field, read as an attribute (table.l2), and in holder
    one per tracked exponent. table[i] is one sample, a DiagnosticsSample;
    table[a:b] is a table. Equal tables hold equal columns, NaN equal to NaN.
    """

    __slots__ = _SAMPLE_FIELDS

    def __init__(self, columns: dict):
        """columns: each float field's values, and under "holder" each exponent's."""
        holder = columns["holder"]
        data = np.array([*(columns[name] for name in SCALAR_FIELDS), *holder.values()], dtype=np.float64)
        data.flags.writeable = False
        for name, column in zip(SCALAR_FIELDS, data):
            object.__setattr__(self, name, column)
        holder = dict(zip(map(float, holder), data[len(SCALAR_FIELDS):]))
        object.__setattr__(self, "holder", MappingProxyType(holder))

    def __setattr__(self, name, value):
        raise AttributeError(f"SampleTable is read-only; cannot set {name!r}")

    def _map(self, fn) -> dict:  # the constructor's argument, fn applied to each column
        columns = {name: fn(getattr(self, name)) for name in SCALAR_FIELDS}
        return {**columns, "holder": {a: fn(v) for a, v in self.holder.items()}}

    def __reduce__(self):
        # Through __init__, so unpickled columns are read-only again.
        return SampleTable, (self._map(np.asarray),)

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return SampleTable(self._map(lambda v: v[key]))
        return DiagnosticsSample(**self._map(lambda v: float(v[key])))

    def __eq__(self, other):
        if not isinstance(other, SampleTable):
            return NotImplemented
        pairs = [(getattr(self, name), getattr(other, name)) for name in SCALAR_FIELDS]
        pairs += [(v, other.holder.get(a)) for a, v in self.holder.items()]
        same = self.holder.keys() == other.holder.keys()
        return same and all(np.array_equal(a, b, equal_nan=True) for a, b in pairs)

    def __repr__(self) -> str:
        return f"SampleTable({self._map(np.ndarray.tolist)!r})"


@dataclass(frozen=True)
class RunRecord:
    """One run: full configuration, diagnostics series, and classification.

    step_count, dt_min and dt_max say what the run did: how many time steps it
    took and the range of their sizes. They are not config, so the hash skips
    them; a schema 1 record, or a run that took no step, has None there.
    """

    config: dict
    samples: SampleTable  # or DiagnosticsSample rows, built by hand, which __post_init__ turns into one
    outcome: Outcome
    outcome_detail: str = ""
    t_star_predicted: float | None = None
    t_local_predicted: float | None = None
    wall_time: float = 0.0
    step_count: int | None = None
    dt_min: float | None = None
    dt_max: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.samples, SampleTable):
            object.__setattr__(self, "samples", SampleTable(_sample_columns([*map(vars, self.samples)])))
        if np.any(np.diff(self.samples.t) < 0):
            raise ValueError("samples must be time-sorted")

    @cached_property
    def config_hash(self) -> str:
        """Computed once per record: nothing mutates a record's config."""
        return config_hash(self.config)


def config_hash(config: dict) -> str:
    """Stable short hash of a config dict (full float precision, sorted keys)."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(canon.encode()).hexdigest()[:12]


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
    """Return value if it is a JSON number that a float64 holds (or null when
    nullable), else raise a ValueError naming what."""
    if type(value) is int and abs(value) > sys.float_info.max:
        raise ValueError(f"{what} is an integer too large for a float64")
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


def _sample_columns(rows: list) -> dict:
    """Rows, each a dict of DiagnosticsSample fields, in the schema 2 column
    layout: the rows of a schema 1 line or of a record built by hand, and the
    one check that every row tracks the same exponents."""
    rows = [_expect(row, dict, "sample") for row in _expect(rows, list, "record 'samples'")]
    try:
        columns = {name: [row[name] for row in rows] for name in _SAMPLE_FIELDS}
    except KeyError as exc:
        raise ValueError(f"sample is missing key {exc.args[0]!r}") from None
    holders = [_expect(h, dict, "sample 'holder'") for h in columns["holder"]]
    alphas = holders[0].keys() if holders else {}.keys()
    if any(h.keys() != alphas for h in holders):
        raise ValueError("every sample of a record must track the same Holder exponents")
    columns["holder"] = {a: [h[a] for h in holders] for a in alphas}
    return columns


def _number_column(values, size: int | None, what: str) -> np.ndarray:
    """A schema 1 or 2 column, an array of size JSON numbers (any number when
    size is None), as float64; else a ValueError naming what."""
    _expect(values, list, what)
    if size is not None and len(values) != size:
        raise ValueError(f"{what} holds {len(values)} values, sample 't' holds {size}")
    if not _NUMBER_TYPES.issuperset(map(type, values)):
        raise ValueError(f"{what} must hold only JSON numbers")
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        raise ValueError(f"{what} holds an integer too large for a float64") from None


def _base64_column(value, size: int | None, what: str) -> np.ndarray:
    """A schema 3 column, a base64 string of size little-endian float64 values
    (any number when size is None), as float64; else a ValueError naming what."""
    _expect(value, str, what)
    try:
        data = base64.b64decode(value, validate=True)
    except ValueError as exc:  # binascii.Error, or a character outside ASCII
        raise ValueError(f"{what} is not valid base64: {exc}") from None
    if size is None and len(data) % 8:
        raise ValueError(f"{what} holds {len(data)} bytes, not a whole number of float64 values")
    if size is not None and len(data) != 8 * size:
        raise ValueError(f"{what} holds {len(data)} bytes, not {8 * size} (8 per value of sample 't')")
    return np.frombuffer(data, "<f8")


# How each schema version stores one sample column.
_COLUMN_READERS = {1: _number_column, 2: _number_column, 3: _base64_column}


def _table_from_columns(d: dict, read_column) -> SampleTable:
    """Samples in the column layout, each column read and checked once by
    read_column: _number_column for schema 1 and 2, _base64_column for 3."""
    d = _expect(d, dict, "record 'samples'")
    try:
        columns = {name: d[name] for name in _SAMPLE_FIELDS}
    except KeyError as exc:
        raise ValueError(f"sample is missing key {exc.args[0]!r}") from None
    t = read_column(columns["t"], None, "sample 't'")
    read = {name: read_column(columns[name], len(t), f"sample {name!r}") for name in SCALAR_FIELDS if name != "t"}
    keys: dict[float, str] = {}  # each exponent read so far, and the key that named it
    read["holder"] = {}
    for key, values in _expect(columns["holder"], dict, "sample 'holder'").items():
        alpha = _exponent(key)
        if alpha in keys:
            raise ValueError(f"sample 'holder' keys {keys[alpha]!r} and {key!r} name one exponent {alpha!r}")
        keys[alpha] = key
        read["holder"][alpha] = read_column(values, len(t), f"sample 'holder' {key!r}")
    return SampleTable({"t": t, **read})


def _exponent(key: str) -> float:
    """A holder key's exponent, in (0, 1] as DiagnosticPlan takes; else a ValueError naming the key."""
    try:
        alpha = float(key)
    except ValueError:
        alpha = None
    if alpha is None or not 0.0 < alpha <= 1.0:  # NaN fails the range test too
        raise ValueError(f"sample 'holder' key {key!r} is not a number in (0, 1]")
    return alpha


def _base64(column: np.ndarray) -> str:
    """A float64 column as schema 3 stores it."""
    return base64.b64encode(column.astype("<f8", copy=False).tobytes()).decode("ascii")


def record_to_dict(record: RunRecord) -> dict:
    """The schema 3 form of a record, one key per RunRecord field."""
    d = {f.name: getattr(record, f.name) for f in fields(RunRecord)}
    samples = record.samples._map(_base64)
    # String keys: json's own float-to-key conversion would sort some alphas
    # differently. str is repr for a float.
    samples["holder"] = {str(a): values for a, values in samples["holder"].items()}
    d.update(schema_version=SCHEMA_VERSION, samples=samples, outcome=record.outcome.value)
    return d


def record_from_dict(d: dict) -> RunRecord:
    """A record from its schema 1, 2 or 3 form. A schema 1 dict is first
    converted to the column layout of schema 2, with no telemetry, so every
    version is checked and built by the one table reader."""
    version = _expect(d, dict, "record").get("schema_version")
    if type(version) is not int or version not in _COLUMN_READERS:
        raise ValueError(
            f"unknown record schema_version {version!r}; this build reads versions {list(_COLUMN_READERS)}"
        )
    try:
        if version == 1:
            d = {**d, "samples": _sample_columns(d["samples"]), **dict.fromkeys(_TELEMETRY)}
        config = _expect(d["config"], dict, "record 'config'")
        model = _expect(config.get("model", {}), dict, "record 'config.model'")
        _check_datum(_expect(config.get("datum", {}), dict, "record 'config.datum'"))
        for key in ("gamma", "n"):
            if key in model:
                _expect_number(model[key], f"record 'config.model.{key}'")
        for alpha in _expect(config.get("holder_alphas", []), list, "record 'config.holder_alphas'"):
            _expect_number(alpha, "record 'config.holder_alphas' entry")
        return RunRecord(
            config=config,
            samples=_table_from_columns(d["samples"], _COLUMN_READERS[version]),
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
