"""Fast self-check of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ccflab  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder, covered_length, self_times, tail_percentile  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = workloads.Simulate("tiny", n=32, gamma=0.9, t_end=0.04, snapshot_every=0.02,
                          holder_alphas=(0.2,))


def ticking(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile(range(1, 101)) == (90, 90.0)
    pct, value = tail_percentile(range(57))
    assert pct == 82 and sum(v > value for v in range(57)) >= 10
    assert tail_percentile(range(20)) is None
    assert tail_percentile([1.0, 2.0]) is None


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert covered_length([(-1, 1), (9, 12)], 0, 10) == 2
    assert covered_length([], 0, 10) == 0


def test_self_time_is_duration_minus_children():
    rec = Recorder(clock=ticking(0.0, 1.0, 3.0, 4.0, 6.0, 10.0))
    leaf = rec.wrap("leaf", lambda: None)

    def body():
        leaf()
        leaf()

    rec.op = 7
    rec.wrap("root", body)()
    assert self_times(rec)[7] == {"root": 6.0, "leaf": 4.0}
    assert [s.parent for s in rec.spans] == [-1, 0, 0]


def test_stepping_is_run_minus_diagnostics():
    rec = Recorder(clock=ticking(0.0, 2.0, 5.0, 6.0, 7.0, 10.0))
    diagnostics = rec.wrap("solver.diagnostics", lambda: None)
    fft = rec.wrap("torus.fft", lambda: None)

    def body():
        diagnostics()
        fft()

    rec.op = 0
    rec.wrap("solver.run", body)()
    metrics = layers.op_layer_metrics(rec)[0]
    assert metrics["solver.run_s"] == 10.0
    assert metrics["solver.diagnostics_s"] == 3.0
    assert metrics["solver.stepping_s"] == 7.0
    assert metrics["torus.fft_calls"] == 1


def test_tracing_overhead_is_the_median_of_adjacent_pair_ratios():
    ops = [(False, 1.0), (True, 1.1), (False, 2.0), (True, 2.4), (False, 0.5), (True, 0.5), (False, 9.0)]
    overhead, ratios = run.tracing_overhead(ops)
    assert ratios == [1.1, 1.2, 1.0]
    assert abs(overhead - 0.1) < 1e-12


class Tampered(workloads.Simulate):
    """Returns a record whose last L2 norm grew, which the check must reject."""

    def op(self, inputs):
        record = super().op(inputs)
        last = record.samples[-1]
        grown = dataclasses.replace(last, l2=record.samples[0].l2 * 2)
        return dataclasses.replace(record, samples=[*record.samples[:-1], grown])


def test_error_rate_counts_a_failed_check_and_a_raising_op():
    tally = run.Tally()
    inputs, _ = TINY.prepare(5, ROOT, reuse=False)
    run.attempt(TINY, inputs, tally, "good")
    tampered = Tampered("tiny", n=32, gamma=0.9, t_end=0.04, snapshot_every=0.02, holder_alphas=(0.2,))
    run.attempt(tampered, inputs, tally, "tampered")

    def boom(_):
        raise RuntimeError("boom")

    run.attempt(TINY, inputs, tally, "raises", call=boom)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert "L2 norm increased" in tally.problems[0]
    assert "RuntimeError" in tally.problems[1]


def test_declared_metrics_match_what_the_harness_computes():
    rec = Recorder()
    missing: set[str] = set()
    original = workloads.solver.run
    inputs, _ = TINY.prepare(5, ROOT, reuse=False)
    rec.op = 0
    with layers.traced(rec, missing):
        TINY.op(inputs)
    assert workloads.solver.run is original
    assert missing == set()
    computed = set(layers.op_layer_metrics(rec)[0])
    computed |= set(workloads.solver_micro(32, 0.9, calls=2))
    computed |= {"bench.inputs_s", "bench.tracing_overhead"}
    assert computed == {m["name"] for m in SPEC["per_layer"]}
    assert {m["name"] for m in SPEC["end_to_end"]} == {"setup_s", "op_p50_s", "ops_per_s", "peak_rss_mb"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    metrics = layers.op_layer_metrics(rec)[0]
    assert metrics["regularity.holder_calls"] == 3 and metrics["operators.calibrate_calls"] == 0


def test_without_a_source_tree_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quadrature", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_ccflab_is_the_checkout_copy():
    assert Path(ccflab.__file__).resolve().is_relative_to(ROOT / "src")
