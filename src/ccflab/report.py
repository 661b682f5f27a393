"""Summaries of persisted runs: a CSV table and per-run SVG norm charts.

The CSV round-trips exactly: floats are emitted with repr and parsed with
float, empty cells mean "not applicable". Charts are self-contained SVG with
one polyline per tracked norm history.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

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


@dataclass(frozen=True)
class ReportBundle:
    csv_path: Path
    chart_paths: tuple[Path, ...]


def _pick_holder_alpha(record: RunRecord, gamma: float) -> float | None:
    """The alpha reported in the summary row: the schedule policy value when
    tracked, otherwise the first tracked exponent."""
    tracked = sorted(record.samples[0].holder) if record.samples else []
    if not tracked:
        return None
    if 0.0 < gamma < 1.0:
        policy = regularity.alpha_policy(gamma)
        for alpha in tracked:
            if abs(alpha - policy) <= 1e-12:
                return alpha
    return tracked[0]


def build_summary(records: list[RunRecord]) -> list[dict]:
    """One summary row per record.

    max_holder_after_tstar is the maximum tracked Holder seminorm over
    snapshots with t > T*; when no T* was predicted the maximum runs over the
    whole series. fitted_c comes from the energy probe and is blank when the
    probe refuses the record.
    """
    rows = []
    for record in records:
        model = record.config.get("model", {})
        gamma = float(model.get("gamma", 0.0))
        alpha = _pick_holder_alpha(record, gamma)
        max_holder = None
        if alpha is not None:
            cutoff = record.t_star_predicted if record.t_star_predicted is not None else 0.0
            tail = [s.holder[alpha] for s in record.samples if s.t > cutoff]
            if tail:
                max_holder = max(tail)
        try:
            fitted_c = regularity.energy_inequality_probe(record).fitted_c
        except ValueError:
            fitted_c = None
        rows.append(
            {
                "gamma": gamma,
                "n": int(model.get("n", 0)),
                "datum": datum_label(record.config.get("datum", {})),
                "outcome": record.outcome.value,
                "holder_alpha": alpha,
                "max_holder_after_tstar": max_holder,
                "fitted_c": fitted_c,
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


def _scale(values: list[float], lo: float, hi: float, out_lo: float, out_hi: float) -> list[float]:
    span = hi - lo if hi > lo else 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in values]


def norm_chart_svg(record: RunRecord) -> str:
    """Line chart of the five tracked norm histories, one polyline each.

    Self-contained SVG: no scripts, no external references.
    """
    width, height, margin = 640, 400, 50.0
    times = [s.t for s in record.samples]
    series = {name: [getattr(s, name) for s in record.samples] for name in CHART_SERIES}
    all_values = [v for vs in series.values() for v in vs]
    t_lo, t_hi = min(times), max(times)
    v_lo, v_hi = min(all_values), max(all_values)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{margin}" y="{height - margin + 20}" font-size="11">t={t_lo:.4g}</text>',
        f'<text x="{width - margin - 40}" y="{height - margin + 20}" font-size="11">'
        f"t={t_hi:.4g}</text>",
        f'<text x="4" y="{height - margin}" font-size="11">{v_lo:.4g}</text>',
        f'<text x="4" y="{margin}" font-size="11">{v_hi:.4g}</text>',
    ]
    xs = _scale(times, t_lo, t_hi, margin, width - margin)
    for i, name in enumerate(CHART_SERIES):
        ys = _scale(series[name], v_lo, v_hi, height - margin, margin)
        points = " ".join(["%.2f,%.2f" % pair for pair in zip(xs, ys)])
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


def _write_if_changed(path: Path, text: str) -> None:
    """Write text to path unless the file already holds exactly these bytes."""
    data = text.encode("utf-8")
    try:
        if path.read_bytes() == data:
            return
    except FileNotFoundError:
        pass
    path.write_bytes(data)


def report(records: list[RunRecord], out_dir: Path | str) -> ReportBundle:
    """Write summary.csv plus one norms_<hash>.svg per record into out_dir.

    A file whose bytes would not change is left untouched, so rerunning a
    report over a resumed sweep rewrites only what the new records changed.
    """
    if not records:
        raise ValueError("report needs at least one record")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "summary.csv"
    _write_if_changed(csv_path, emit_csv(build_summary(records)))
    chart_paths = []
    for record in records:
        path = out_dir / f"norms_{record.config_hash}.svg"
        _write_if_changed(path, norm_chart_svg(record))
        chart_paths.append(path)
    return ReportBundle(csv_path=csv_path, chart_paths=tuple(chart_paths))
