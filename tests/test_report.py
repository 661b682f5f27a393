"""Tests for the CSV summary and SVG chart emission."""

import dataclasses
import json
import os
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import ccflab.report as report_module
from ccflab import regularity
from ccflab.cli import main
from ccflab.experiments import SweepPlan, cosine_positive, make_datum, sweep
from ccflab.records import SCALAR_FIELDS, SampleTable, append_record, load_records
from ccflab.regularity import alpha_policy
from ccflab.report import (
    CHART_INDEX,
    CSV_HEADER,
    build_summary,
    emit_csv,
    norm_chart_svg,
    parse_csv,
    report,
)
from ccflab.solver import DiagnosticPlan, ModelParams, StepControl, run
from ccflab.torus import TorusGrid

DATA = Path(__file__).with_name("data")


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    plan = SweepPlan(
        gamma_values=(0.6, 0.9),
        data=(cosine_positive(1.0, 1.0),),
        resolutions=(64,),
        control=StepControl(t_end=0.2, snapshot_every=0.05),
        holder_alphas=(alpha_policy(0.6), alpha_policy(0.9)),
    )
    return sweep(plan, tmp_path_factory.mktemp("rep") / "sweep.jsonl")


class TestSummary:
    def test_row_content(self, records):
        rows = build_summary(records)
        assert len(rows) == 2
        assert rows[0]["gamma"] == 0.6
        assert rows[0]["n"] == 64
        assert rows[0]["datum"] == "cosine_positive(1,1)"
        assert rows[0]["outcome"] == "Completed"
        assert rows[1]["t_star_predicted"] == pytest.approx(5.8254222222222e-05, rel=1e-12)

    def test_policy_alpha_is_preferred(self, records):
        rows = build_summary(records)
        assert rows[0]["holder_alpha"] == alpha_policy(0.6)
        assert rows[1]["holder_alpha"] == alpha_policy(0.9)

    def test_max_holder_uses_post_t_star_window(self, records):
        rows = build_summary(records)
        # gamma=0.9: T* ~ 6e-5 < every positive snapshot time, column present
        assert rows[1]["max_holder_after_tstar"] is not None
        # gamma=0.6: T* ~ 0.83 > t_end=0.2, nothing after it, column blank
        assert rows[0]["max_holder_after_tstar"] is None

    @pytest.mark.parametrize(
        "gamma, dissipation_on, tracked, alpha, after_t_star",
        [
            (0.9, True, (0.3, 0.5), 0.3, False),  # T* is at the policy 0.2, which is not tracked
            (0.9, True, (0.05,), 0.05, False),  # below 1 - gamma, so T* is at the policy 0.2
            (0.9, True, (0.3,), 0.3, True),  # T* is at the one tracked exponent
            (0.9, True, (0.2, 0.3), 0.2, True),  # 0.2 is the policy alpha within 1e-12
            (0.9, False, (0.3, 0.2), 0.2, False),  # inviscid: no T*
            (0.3, True, (0.5, 0.1), 0.5, False),  # the policy 0.5 is below 1 - gamma: no T*
            (1.2, True, (0.5, 0.2), 0.2, False),  # no schedule at gamma >= 1
        ],
        ids=["untracked_policy", "off_schedule", "own", "policy", "inviscid", "policy_below_half", "gamma_above_one"],
    )
    def test_the_series_read_after_t_star_is_the_one_t_star_is_at(
        self, gamma, dissipation_on, tracked, alpha, after_t_star
    ):
        """Snapshots every 2.5e-5 put two of them before T*(0.2) ~ 5.8e-5 and
        many after T*(0.3) ~ 3.4e-3, so either cutoff shows in the maximum."""
        theta0 = make_datum(cosine_positive(1.0, 1.0), TorusGrid(64))
        record = run(
            theta0,
            ModelParams(gamma=gamma, n=64, dissipation_on=dissipation_on),
            StepControl(t_end=0.005, snapshot_every=2.5e-5),
            DiagnosticPlan(tracked),
        )
        (row,) = build_summary([record])
        cutoff = record.t_star_predicted if after_t_star else 0.0
        series = record.samples.holder[alpha][record.samples.t > cutoff]
        assert row["holder_alpha"] == alpha
        assert row["max_holder_after_tstar"] == series.max()

    def test_a_t_star_beyond_float64_leaves_the_cell_blank(self):
        """At gamma = 0.99, T* of linf0 = 2e5 (~1e355) is recorded as null and lies
        past every snapshot, so no Holder value is read after it."""
        theta0 = make_datum(cosine_positive(1e5, 1e5), TorusGrid(64))
        alpha = alpha_policy(0.99)
        record = run(theta0, ModelParams(gamma=0.99, n=64), StepControl(t_end=2e-6, snapshot_every=4e-8),
                     DiagnosticPlan((alpha,)))
        (row,) = build_summary([record])
        assert (record.t_star_predicted, row["t_star_predicted"]) == (None, None)
        assert len(record.samples.holder[alpha]) > 1
        assert (row["holder_alpha"], row["max_holder_after_tstar"]) == (alpha, None)
        for constants in ({"k1": 1.0, "k9": 2.0}, [1.0], {"k1": "1"}, {"k1": -1.0}, {"k1": True}):
            edited = dataclasses.replace(record, config={**record.config, "constants": constants})
            with pytest.raises(ValueError, match="bad config.constants"):
                build_summary([edited])


    def test_the_probe_runs_once_over_all_records(self, records, monkeypatch):
        calls = []
        probes = regularity.energy_inequality_probes
        monkeypatch.setattr(regularity, "energy_inequality_probes", lambda rs: calls.append(len(rs)) or probes(rs))
        rows = build_summary(records)
        assert calls == [2]
        assert [row["fitted_c"] for row in rows] == [p.fitted_c for p in probes(records)]

    def test_repeated_sample_times_leave_fitted_c_blank_without_a_warning(self, records):
        samples = records[0].samples
        t = samples.t.copy()
        t[2] = t[1]
        columns = {name: getattr(samples, name) for name in SCALAR_FIELDS}
        record = dataclasses.replace(records[0], samples=SampleTable({**columns, "t": t, "holder": samples.holder}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (row,) = build_summary([record])
        assert row["fitted_c"] is None
        assert emit_csv([row]).splitlines()[1].split(",")[6] == ""


class TestCsvRoundTrip:
    def test_exact_round_trip(self, records):
        rows = build_summary(records)
        text = emit_csv(rows)
        assert text.splitlines()[0] == ",".join(CSV_HEADER)
        back = parse_csv(text)
        assert back == rows

    def test_quoted_datum_labels_survive(self, records):
        # labels contain commas, so the csv layer must quote them
        text = emit_csv(build_summary(records))
        assert '"cosine_positive(1,1)"' in text

    def test_foreign_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            parse_csv("a,b,c\n1,2,3\n")

    def test_blank_required_cell_and_short_row_rejected(self, records):
        header, row = emit_csv(build_summary(records)).splitlines()[:2]
        blank_gamma = "," + row.split(",", 1)[1]
        with pytest.raises(ValueError):
            parse_csv(f"{header}\n{blank_gamma}\n")
        with pytest.raises(ValueError, match="cells"):
            parse_csv(f"{header}\n{row.rsplit(',', 1)[0]}\n")


class TestPinnedBytes:
    """What a report makes of the checked-in schema 1 file, pinned from an
    earlier build: how samples are held in memory must not change it."""

    def test_summary_matches_an_earlier_builds_summary(self):
        records = load_records(DATA / "sweep_v1.jsonl")
        assert emit_csv(build_summary(records)) == (DATA / "sweep_v1_summary.csv").read_text()

    def test_chart_digests_match_an_earlier_builds_digests(self):
        """A chart index written by an earlier build still matches, so no chart is redrawn."""
        records = load_records(DATA / "sweep_v1.jsonl")
        assert [report_module._chart_digest(r) for r in records] == [
            "2859559ee6e1a3832d342527de761b78",
            "e4ddfed0b6728391c810e70212deeec9",
        ]


class TestSvgChart:
    def test_parses_as_xml_with_five_polylines(self, records):
        svg = norm_chart_svg(records[0])
        root = ET.fromstring(svg)
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 5

    def test_no_external_references(self, records):
        svg = norm_chart_svg(records[0])
        assert "href" not in svg
        assert "<script" not in svg

    def test_points_are_finite(self, records):
        svg = norm_chart_svg(records[0])
        assert "nan" not in svg.lower().replace("xmlns", "")

    def test_chart_bytes_match_an_earlier_builds_chart(self, tmp_path):
        """The chart of a checked-in schema 1 record, byte for byte as the
        build that wrote the record drew it."""
        record = load_records(DATA / "sweep_v1.jsonl")[0]
        want = (DATA / f"sweep_v1_norms_{record.config_hash}.svg").read_bytes()
        assert norm_chart_svg(record).encode("utf-8") == want
        assert report([record], tmp_path).chart_paths[0].read_bytes() == want


class TestReportBundle:
    def test_writes_csv_and_one_chart_per_record(self, records, tmp_path):
        bundle = report(records, tmp_path / "out")
        assert bundle.csv_path.exists()
        assert len(bundle.chart_paths) == 2
        for path in bundle.chart_paths:
            ET.fromstring(path.read_text())
        parsed = parse_csv(bundle.csv_path.read_text())
        assert len(parsed) == 2

    def test_unchanged_files_are_not_rewritten(self, records, tmp_path):
        """A second report over the same records touches no file; a changed
        record rewrites its own chart and the summary, nothing else."""
        first = report(records, tmp_path)
        paths = (first.csv_path, *first.chart_paths)
        before = {p: p.stat().st_mtime_ns for p in paths}
        for p in paths:  # make any rewrite visible even on coarse clocks
            os.utime(p, ns=(before[p] - 10**9, before[p] - 10**9))
        before = {p: p.stat().st_mtime_ns for p in paths}
        report(records, tmp_path)
        assert {p: p.stat().st_mtime_ns for p in paths} == before
        changed = dataclasses.replace(records[1], samples=records[1].samples[:-1])
        report([records[0], changed], tmp_path)
        after = {p: p.stat().st_mtime_ns for p in paths}
        assert after[first.chart_paths[0]] == before[first.chart_paths[0]]
        assert after[first.chart_paths[1]] != before[first.chart_paths[1]]
        assert after[first.csv_path] != before[first.csv_path]

    def test_empty_input_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least one record"):
            report([], tmp_path)


def _outputs(bundle) -> dict:
    """File name -> bytes of the summary and every chart of a report."""
    return {p.name: p.read_bytes() for p in (bundle.csv_path, *bundle.chart_paths)}


def _refuse_to_draw(monkeypatch) -> None:
    def refuse(record):
        raise AssertionError(f"chart of {record.config_hash} drawn again")

    monkeypatch.setattr(report_module, "norm_chart_svg", refuse)


class TestChartIndex:
    def test_second_report_draws_no_chart(self, records, tmp_path, monkeypatch):
        fresh = _outputs(report(records, tmp_path / "fresh"))
        report(records, tmp_path / "warm")
        _refuse_to_draw(monkeypatch)
        assert _outputs(report(records, tmp_path / "warm")) == fresh

    def test_same_hash_with_changed_samples_is_redrawn(self, records, tmp_path):
        first = report(records, tmp_path)
        last = records[1].samples[-1]
        changed = dataclasses.replace(
            records[1], samples=[*records[1].samples[:-1], dataclasses.replace(last, l2=last.l2 * 0.5)]
        )
        assert changed.config_hash == records[1].config_hash
        second = report([records[0], changed], tmp_path)
        assert second.chart_paths == first.chart_paths
        assert second.chart_paths[1].read_text() == norm_chart_svg(changed)

    @pytest.mark.parametrize("damage", ["delete", "edit"])
    def test_a_deleted_or_edited_chart_is_rewritten(self, records, tmp_path, damage):
        bundle = report(records, tmp_path)
        want = _outputs(bundle)
        chart = bundle.chart_paths[0]
        if damage == "delete":
            chart.unlink()
        else:
            stamp = chart.stat().st_mtime_ns - 10**9  # a coarse clock could leave it unchanged
            chart.write_bytes(want[chart.name].replace(b"white", b"black"))
            os.utime(chart, ns=(stamp, stamp))
        assert _outputs(report(records, tmp_path)) == want

    @pytest.mark.parametrize(
        "index",
        [
            b"\xff\xfe not json",
            b'{"norms_',
            b"[1, 2, 3]",
            b"[" * 100_000,
            b"null",
            "wrong-typed entries",
        ],
    )
    def test_a_bad_index_is_ignored_and_rewritten(self, records, tmp_path, monkeypatch, index):
        bundle = report(records, tmp_path)
        want = _outputs(bundle)
        index_path = tmp_path / CHART_INDEX
        if index == "wrong-typed entries":
            names = [p.name for p in bundle.chart_paths]
            index = json.dumps({names[0]: {"digest": "x"}, names[1]: [None, "1", 2.5]}).encode()
        index_path.write_bytes(index)
        assert _outputs(report(records, tmp_path)) == want
        entries = json.loads(index_path.read_text())
        assert sorted(entries) == sorted(want.keys() - {"summary.csv"})
        _refuse_to_draw(monkeypatch)
        assert _outputs(report(records, tmp_path)) == want

    def test_an_unchanged_index_is_not_rewritten(self, records, tmp_path):
        report(records, tmp_path)
        index_path = tmp_path / CHART_INDEX
        stamp = index_path.stat().st_mtime_ns - 10**9
        os.utime(index_path, ns=(stamp, stamp))
        report(records, tmp_path)
        assert index_path.stat().st_mtime_ns == stamp

    def test_a_record_without_samples_gets_its_chart(self, records, tmp_path, capsys):
        empty = dataclasses.replace(records[0], samples=[])
        root = ET.fromstring(report([empty], tmp_path / "api").chart_paths[0].read_text())
        assert root.findall(".//{http://www.w3.org/2000/svg}polyline") == []
        assert len(root.findall(".//{http://www.w3.org/2000/svg}line")) == 2
        append_record(tmp_path / "empty.jsonl", empty)
        assert main(["report", str(tmp_path / "empty.jsonl"), "--out-dir", str(tmp_path / "cli")]) == 0
        assert (tmp_path / "cli" / f"norms_{empty.config_hash}.svg").read_text() == norm_chart_svg(empty)

    def test_bumping_the_layout_redraws_every_chart(self, records, tmp_path, monkeypatch):
        report(records, tmp_path)
        drawn = []

        def counting(record, draw=norm_chart_svg):
            drawn.append(record.config_hash)
            return draw(record)

        monkeypatch.setattr(report_module, "norm_chart_svg", counting)
        report(records, tmp_path)
        assert drawn == []
        monkeypatch.setattr(report_module, "_CHART_LAYOUT", report_module._CHART_LAYOUT + 1)
        report(records, tmp_path)
        assert drawn == [r.config_hash for r in records]
