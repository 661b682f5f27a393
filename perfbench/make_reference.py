"""Record the reference outputs the benchmark checks ops against.

    python3 perfbench/make_reference.py

Run from the root of a ccflab checkout. It overwrites perfbench/reference.json
with, for the default seed, the final diagnostics sample of both simulate
workloads and, for the quadrature workload, the verify row names and every
fitted c_gamma. Record it only from a commit whose outputs are trusted: the
checked-in file comes from the commit that introduced the benchmark.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

TOLERANCE = {
    "rtol": 1e-9,
    "atol": 1e-12,
    "why": "float64 results may move in the last digits with another FFT or BLAS "
           "build or a reordered sum; anything larger is a change of behaviour",
}


def main() -> None:
    out = {"tolerance": TOLERANCE}
    for name in ("simulate-holder", "simulate-stepping"):
        w = workloads.WORKLOADS[name]
        _, inputs = w.prepare(workloads.DEFAULT_SEED, ROOT, reuse=False)
        record = w.op(inputs)
        out[name] = {
            "seed": workloads.DEFAULT_SEED,
            "amplitude": inputs.amplitude,
            "final_sample": workloads.reference_sample(record.samples[-1]),
        }
    quad = workloads.WORKLOADS["quadrature"]
    _, inputs = quad.prepare(workloads.DEFAULT_SEED, ROOT, reuse=False)
    quad.reset(inputs)
    rows = quad.op(inputs)
    out["quadrature"] = {
        "n": quad.n,
        "rows": [r.name for r in rows],
        "c_gamma": {repr(c.gamma): c.c_gamma for c in quad.calibrations},
    }
    workloads.REFERENCE_PATH.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
