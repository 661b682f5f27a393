"""ccflab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a ccflab checkout; the package is imported from src/.
With --trace 0 the last line of stdout carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 it carries the per-layer metrics. The line
before it holds the environment stamp and the figures behind the metrics.

A run imports ccflab, makes its inputs from the seed, runs one untimed warm-up
op on the default-seed inputs (checked against the recorded reference), then
times ops one after another for --seconds and checks every output. Between
ops a helper process runs the calibration kernel of speed.py, and every time
reported is scaled to the reference machine's speed. Set-up is measured in
this process and in SETUP_PROBES fresh child processes, one at a time, and
reported as their median. Without a ccflab source tree the run prints no
result and exits 2.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: the quadrature's matrix-vector product is an OpenBLAS call,
# and OpenBLAS would otherwise start one thread per core.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import speed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 2
MIN_OPS = 3
PROBE_TIMEOUT_S = 150
WORKLOAD_NAMES = ("simulate-holder", "simulate-stepping", "quadrature", "sweep-resume")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class Tally:
    """Attempted and failed ops, with the first few problems kept for the report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {'; '.join(problems)}")


def attempt(workload, inputs, tally: Tally, label: str, call=None) -> float:
    """Reset, run one op through call (default workload.op), check it; return its wall time."""
    call = call or workload.op
    workload.reset(inputs)
    start = time.perf_counter()
    try:
        output = call(inputs)
    except Exception as exc:  # a failed op is counted, never fatal
        elapsed = time.perf_counter() - start
        tally.record(label, [f"raised {type(exc).__name__}: {exc}"])
        return elapsed
    elapsed = time.perf_counter() - start
    try:
        problems = workload.check(inputs, output)
    except Exception as exc:
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    tally.record(label, problems)
    return elapsed


def probe_setup(args, tally: Tally, setup: dict[str, list[float]], calibrator) -> None:
    """Add the raw and scaled set-up times of fresh processes, run one after another."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"]
    for i in range(SETUP_PROBES):
        try:
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                  timeout=PROBE_TIMEOUT_S, check=False)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            setup["raw"].append(result["setup_raw_s"])
            setup["scaled"].append(
                speed.scale(result["setup_raw_s"], [calibrator.kernel() for _ in range(3)]))
            tally.record(f"setup probe {i}", result["problems"])
        except (subprocess.TimeoutExpired, json.JSONDecodeError, IndexError, KeyError) as exc:
            tally.record(f"setup probe {i}", [f"{type(exc).__name__}: {exc}"])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tracing_overhead(raw_in_order: list[tuple[bool, float]]) -> tuple[float, list[float]]:
    """Median over adjacent (untraced, traced) op pairs of traced/untraced raw time, minus 1.

    Pairs are taken in op order, so slow stretches of the machine mostly hit
    both ops of a pair. Returns the overhead and the ratios behind it.
    """
    ratios = [traced_s / plain_s
              for (plain, plain_s), (traced, traced_s) in zip(raw_in_order[::2], raw_in_order[1::2])
              if not plain and traced]
    return statistics.median(ratios) - 1.0, ratios


def openblas_stamp() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    stamp = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    import ctypes

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                stamp["threads"] = getter()
                return stamp
    return stamp


def environment(workload) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_stamp(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "sweep_parallelism": getattr(getattr(workload, "plan", None), "parallelism", None),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ccflab" / "__init__.py").is_file():
        print(f"no ccflab source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    import layers
    import workloads
    from spans import Recorder, self_times, tail_percentile

    workload = workloads.WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / args.workload
    work.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    inputs, warmup_inputs = workload.prepare(args.seed, work, reuse=args.setup_probe)
    inputs_s = time.perf_counter() - start
    rss_after_inputs_mb = peak_rss_mb()

    tally = Tally()
    attempt(workload, warmup_inputs, tally, "warm-up")
    setup_raw = time.perf_counter() - PROCESS_START - inputs_s
    if args.setup_probe:
        print(json.dumps({"setup_raw_s": setup_raw, "problems": tally.problems}))
        return 0

    recorder = Recorder()
    missing: set[str] = set()
    raw_in_order: list[tuple[bool, float]] = []
    scaled: dict[bool, list[float]] = {False: [], True: []}
    traced_op = recorder.wrap("bench.op", workload.op)

    def run_traced(op_inputs):
        with layers.traced(recorder, missing):
            return traced_op(op_inputs)

    if args.trace:
        with layers.traced(recorder, missing):
            pass  # imports every wrapped module before the first timed op

    with speed.Calibrator() as calibrator:
        setup = {"raw": [setup_raw], "scaled": []}
        setup["scaled"].append(speed.scale(setup_raw, [calibrator.kernel() for _ in range(3)]))
        if not args.trace:
            probe_setup(args, tally, setup, calibrator)

        kernel = [calibrator.kernel()]
        window_start = time.perf_counter()
        op_id = 0
        while time.perf_counter() - window_start < args.seconds or op_id < MIN_OPS:
            traced = bool(args.trace) and op_id % 2 == 1
            recorder.op = op_id
            elapsed = attempt(workload, inputs, tally, f"op {op_id}", run_traced if traced else None)
            kernel.append(calibrator.kernel())
            raw_in_order.append((traced, elapsed))
            scaled[traced].append(speed.scale(elapsed, kernel[-2:]))
            op_id += 1

    untraced = scaled[False]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": len(untraced),
        "op_p50_s": statistics.median(untraced),
        "op_tail": tail_percentile(untraced),
        "op_p50_raw_s": statistics.median(t for traced, t in raw_in_order if not traced),
        "op_raw_s": [t for traced, t in raw_in_order if not traced],
        "kernel_s": kernel,
        "error_rate": tally.failed / tally.attempted,
        "problems": tally.problems,
        "setup_s": setup,
        "rss_after_inputs_mb": rss_after_inputs_mb,
        "env": environment(workload),
    }
    if args.trace:
        per_op = layers.op_layer_metrics(recorder)
        metrics = {name: statistics.median(ops[name] for ops in per_op.values())
                   for name in next(iter(per_op.values()))}
        metrics.update(workload.micro())
        metrics["bench.inputs_s"] = inputs_s
        metrics["bench.tracing_overhead"], info["tracing_pair_ratios"] = tracing_overhead(raw_in_order)
        self_by_op = self_times(recorder)
        names = {name for times in self_by_op.values() for name in times}
        self_median = {name: statistics.median(times.get(name, 0.0) for times in self_by_op.values())
                       for name in names}
        info["traced_ops"] = len(scaled[True])
        info["self_time_s"] = dict(sorted(self_median.items(), key=lambda kv: -kv[1]))
        info["unwrapped"] = sorted(missing)
        recorder.write(work / "spans.jsonl")
        declared = spec["per_layer"]
    else:
        metrics = {
            "setup_s": statistics.median(setup["scaled"]),
            "op_p50_s": info["op_p50_s"],
            "ops_per_s": len(untraced) / sum(untraced),
            "peak_rss_mb": peak_rss_mb(),
        }
        declared = spec["end_to_end"]

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    (work / f"result-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1), encoding="utf-8")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(untraced)} untraced ops, "
          f"op p50 {info['op_p50_s']:.4f} s, {tally.failed}/{tally.attempted} failed")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
