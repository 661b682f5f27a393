"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/trajectory.py [--seeds 10] [--first-seed 1] --out FILE

Run from the root of a ccflab checkout. Each run is the command of
BENCHMARK.json with run_seconds, one at a time, over every workload it names.
For every workload and end-to-end metric the summary holds the values, their
median, the quartiles of `statistics.quantiles(values, n=4)` and the spread
(q3 - q1) / median, the figure each bound in BENCHMARK.json is compared with.
The same summary of the unscaled median op time and set-up time of every run
sits under `raw`. One traced run per workload, with the first seed, adds the
per-layer metrics. The output is one BENCH_*.json point of the perf trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    command = [*spec["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900,
                          check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    summary = {"run_seconds": spec["run_seconds"], "seeds": list(seeds), "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds:
            started = time.perf_counter()
            info, result = run_once(spec, name, seed, 0)
            runs.append((info, result, time.perf_counter() - started))
            print(f"{name} seed {seed}: {json.dumps(result)}", file=sys.stderr, flush=True)
        entry = {
            "correct": all(r["correct"] for _, r, _ in runs),
            "attempted": sum(r["attempted"] for _, r, _ in runs),
            "failed": sum(r["failed"] for _, r, _ in runs),
            "run_wall_s": [round(wall, 2) for _, _, wall in runs],
            "raw": {
                "op_p50_s": summarize([info["op_p50_raw_s"] for info, _, _ in runs]),
                "setup_s": summarize([statistics.median(info["setup_s"]["raw"]) for info, _, _ in runs]),
            },
            "rss_after_inputs_mb": [info["rss_after_inputs_mb"] for info, _, _ in runs],
            "env": runs[0][0]["env"],
            "end_to_end": {
                m["name"]: {"unit": m["unit"], "bound": m["bound"],
                            **summarize([r["metrics"][m["name"]]["value"] for _, r, _ in runs])}
                for m in spec["end_to_end"]
            },
        }
        info, result = run_once(spec, name, seeds[0], 1)
        entry["per_layer"] = {m["name"]: result["metrics"][m["name"]]["value"] for m in spec["per_layer"]}
        entry["self_time_s"] = info["self_time_s"]
        entry["tracing_pair_ratios"] = info["tracing_pair_ratios"]
        summary["workloads"][name] = entry
        for metric, stats in entry["end_to_end"].items():
            print(f"{name} {metric}: median {stats['median']:.6g} spread {stats['spread']:.4f} "
                  f"(bound {stats['bound']})", file=sys.stderr, flush=True)
        for metric, stats in entry["raw"].items():
            print(f"{name} raw {metric}: median {stats['median']:.6g} spread {stats['spread']:.4f}",
                  file=sys.stderr, flush=True)
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
