"""Summaries of persisted runs: a CSV table and per-run SVG norm charts.

The CSV round-trips exactly: floats are emitted with repr and parsed with
float, empty cells mean "not applicable". Charts are self-contained SVG with
one polyline per tracked norm history.

A chart index, charts.json in the output directory, maps each chart's file
name to [digest of the chart's inputs, file size, st_mtime_ns] as they were
after the chart was last written. report() draws a chart again only when its
entry no longer matches; deleting the index costs one full redraw.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from . import regularity
from .experiments import datum_label
from .records import RunRecord


def _optional_float(cell: str) -> float | None:
    return float(cell) if cell else None


# Summary columns in CSV order, each with the parser that inverts its cell.
_CSV_COLUMNS = {
    "gamma": float,
    "n": int,
    "datum": str,
    "outcome": str,
    "holder_alpha": _optional_float,
    "max_holder_after_tstar": _optional_float,
    "fitted_c": _optional_float,
    "t_star_predicted": _optional_float,
    "t_local_predicted": _optional_float,
}
CSV_HEADER = tuple(_CSV_COLUMNS)

CHART_SERIES = ("l2", "linf", "hdot_half", "hdot_three_half", "hdot_mid")
CHART_COLORS = ("#1f6f8b", "#c0392b", "#27ae60", "#8e44ad", "#d4880c")
CHART_INDEX = "charts.json"
# Part of every chart digest. Bump it whenever norm_chart_svg would draw
# different bytes from the same samples, so each indexed chart is redrawn.
_CHART_LAYOUT = 1


@dataclass(frozen=True)
class ReportBundle:
    csv_path: Path
    chart_paths: tuple[Path, ...]
    written: tuple[Path, ...]  # the files this report wrote; any other was already up to date


def build_summary(records: list[RunRecord]) -> list[dict]:
    """One summary row per record.

    holder_alpha is the tracked exponent T* is computed at
    (regularity.tracked_schedule_alpha), else the smallest tracked exponent.
    max_holder_after_tstar is its maximum over snapshots with t > T* for the
    former when T* applies (regularity.t_star_alpha), else over those with
    t > 0. T* is the record's own; a null there where T* applies stands for a
    T* beyond float64, after every snapshot, which leaves the cell blank.
    fitted_c comes from the energy probe (one regularity.energy_inequality_probes
    call), blank when it refuses.
    """
    rows = []
    for record, probe in zip(records, regularity.energy_inequality_probes(records)):
        model = record.config.get("model", {})
        gamma = float(model.get("gamma", 0.0))
        holder = record.samples.holder if record.samples else {}
        tracked = tuple(record.config.get("holder_alphas", ()))
        alpha = regularity.tracked_schedule_alpha(gamma, tracked)
        cutoff = record.t_star_predicted
        if alpha not in holder:
            alpha, cutoff = min(holder, default=None), None
        elif cutoff is None:
            dissipative, linf0 = bool(model.get("dissipation_on", True)), float(record.samples.linf[0])
            if regularity.t_star_alpha(gamma, dissipative, tracked, linf0) is not None:
                cutoff = math.inf
        max_holder = None
        if alpha is not None:
            tail = holder[alpha][record.samples.t > (cutoff or 0.0)]
            max_holder = max(tail.tolist(), default=None)
        rows.append(
            {
                "gamma": gamma,
                "n": int(model.get("n", 0)),
                "datum": datum_label(record.config.get("datum", {})),
                "outcome": record.outcome.value,
                "holder_alpha": alpha,
                "max_holder_after_tstar": max_holder,
                "fitted_c": None if isinstance(probe, ValueError) else probe.fitted_c,
                "t_star_predicted": record.t_star_predicted,
                "t_local_predicted": record.t_local_predicted,
            }
        )
    return rows


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow([_cell(row[key]) for key in CSV_HEADER])
    return buf.getvalue()


def parse_csv(text: str) -> list[dict]:
    """Inverse of emit_csv; parse(emit(rows)) reproduces rows exactly."""
    reader = csv.reader(io.StringIO(text))
    header = tuple(next(reader))
    if header != CSV_HEADER:
        raise ValueError(f"unexpected CSV header {header!r}")
    rows = []
    for raw in reader:
        if not raw:
            continue
        if len(raw) != len(CSV_HEADER):
            raise ValueError(f"CSV row has {len(raw)} cells, expected {len(CSV_HEADER)}: {raw!r}")
        rows.append({name: parse(cell) for (name, parse), cell in zip(_CSV_COLUMNS.items(), raw)})
    return rows


def _scale(
    values: tuple[float, ...], lo: float, hi: float, out_lo: float, out_hi: float
) -> tuple[float, ...]:
    span = hi - lo if hi > lo else 1.0
    out_span = out_hi - out_lo
    return tuple([out_lo + (v - lo) / span * out_span for v in values])


def norm_chart_svg(record: RunRecord) -> str:
    """Line chart of the five tracked norm histories, one polyline each; a
    record with no samples gets the axes alone.

    Self-contained SVG: no scripts, no external references.
    """
    width, height, margin = 640, 400, 50.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
    ]
    if not record.samples:
        return "\n".join([*parts, "</svg>"])
    times, *series = (getattr(record.samples, name).tolist() for name in ("t", *CHART_SERIES))
    all_values = list(chain.from_iterable(series))
    t_lo, t_hi = min(times), max(times)
    v_lo, v_hi = min(all_values), max(all_values)
    parts += [
        f'<text x="{margin}" y="{height - margin + 20}" font-size="11">t={t_lo:.4g}</text>',
        f'<text x="{width - margin - 40}" y="{height - margin + 20}" font-size="11">'
        f"t={t_hi:.4g}</text>",
        f'<text x="4" y="{height - margin}" font-size="11">{v_lo:.4g}</text>',
        f'<text x="4" y="{margin}" font-size="11">{v_hi:.4g}</text>',
    ]
    # Each x is formatted once, into a template that every series fills with its ys.
    xs = _scale(times, t_lo, t_hi, margin, width - margin)
    template = " ".join(["%.2f,%%.2f" % x for x in xs])
    for i, (name, values) in enumerate(zip(CHART_SERIES, series)):
        points = template % _scale(values, v_lo, v_hi, height - margin, margin)
        color = CHART_COLORS[i]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 14 * i + 10}" font-size="11" '
            f'fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def _chart_digest(record: RunRecord) -> str:
    """blake2b of _CHART_LAYOUT and every value norm_chart_svg reads, as float64, row by row."""
    digest = hashlib.blake2b(b"%d" % _CHART_LAYOUT, digest_size=16)
    digest.update(np.stack([getattr(record.samples, name) for name in ("t", *CHART_SERIES)], axis=1))
    return digest.hexdigest()


def _stamp(path: Path) -> tuple[int, ...]:
    """(size, st_mtime_ns) of path, or () when there is no such file."""
    try:
        stat = path.stat()
    except FileNotFoundError:
        return ()
    return stat.st_size, stat.st_mtime_ns


def _read_chart_index(path: Path) -> dict:
    """The chart index at path; an unreadable file, or one that does not hold
    a JSON object, reads as empty."""
    try:
        index = json.loads(path.read_bytes())
    except (OSError, ValueError, RecursionError):
        return {}
    return index if isinstance(index, dict) else {}


def _write_if_changed(path: Path, text: str) -> bool:
    """Write text to path unless the file already holds exactly these bytes; True if it wrote."""
    data = text.encode("utf-8")
    try:
        if path.read_bytes() == data:
            return False
    except FileNotFoundError:
        pass
    path.write_bytes(data)
    return True


def report(records: list[RunRecord], out_dir: Path | str) -> ReportBundle:
    """Write summary.csv plus one norms_<hash>.svg per record into out_dir.

    A file whose bytes would not change is left untouched, so rerunning a
    report over a resumed sweep rewrites only what the new records changed.
    A chart whose digest, size and st_mtime_ns still match its entry in the
    chart index is not drawn at all; any other is drawn and written as above,
    so a deleted, edited or stale chart is repaired.
    """
    if not records:
        raise ValueError("report needs at least one record")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "summary.csv"
    written = [csv_path] if _write_if_changed(csv_path, emit_csv(build_summary(records))) else []
    index_path = out_dir / CHART_INDEX
    old_index = _read_chart_index(index_path)
    index = dict(old_index)
    chart_paths = []
    for record in records:
        path = out_dir / f"norms_{record.config_hash}.svg"
        digest = _chart_digest(record)
        if index.get(path.name) != [digest, *_stamp(path)]:
            if _write_if_changed(path, norm_chart_svg(record)):
                written.append(path)
            index[path.name] = [digest, *_stamp(path)]
        chart_paths.append(path)
    if index != old_index:
        tmp = index_path.with_name(index_path.name + ".tmp")
        tmp.write_text(json.dumps(index, sort_keys=True, separators=(",", ":")), encoding="utf-8")
        os.replace(tmp, index_path)
    return ReportBundle(csv_path=csv_path, chart_paths=tuple(chart_paths), written=tuple(written))
