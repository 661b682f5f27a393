"""The four benchmark workloads: seeded inputs, one op each, and output checks.

Each workload makes one layer do most of the work and bypasses a layer that
another workload loads:

* simulate-holder   -- run() at n=4096 tracking the Holder seminorm; the
                       diagnostics layer dominates.
* simulate-stepping -- run() at n=1024, gamma=1.5, no Holder tracking; time
                       stepping and FFTs are nearly the whole op.
* quadrature        -- verify_suite(n=4096); only the O(n^2) quadrature route.
* sweep-resume      -- sweep() resuming a 300-cell file missing six records,
                       then report(); JSONL record I/O and config hashing.

The seed picks the datum amplitude, the verify_suite seed, or which cells the
resumed file lacks. The program sees only the generated inputs. Checks return
a list of problems; an empty list means the op's output is correct.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import ccflab
from ccflab import Outcome

solver = importlib.import_module("ccflab.solver")
verify = importlib.import_module("ccflab.verify")
experiments = importlib.import_module("ccflab.experiments")
records = importlib.import_module("ccflab.records")
report_module = importlib.import_module("ccflab.report")

DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Invariant tolerances of acceptance criterion 5.
LINF_SLACK = 1e-6
POSITIVITY_SLACK = 1e-6
L2_SLACK = 1e-8


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def _close(got: float, want: float, tol: dict) -> bool:
    return abs(got - want) <= tol["rtol"] * abs(want) + tol["atol"]


def _micro(fn, calls: int) -> float:
    """Median wall time of `calls` calls of fn, in microseconds."""
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def solver_micro(n: int, gamma: float, calls: int = 30) -> dict[str, float]:
    """Medians of public step() and nonlinear_term() at one resolution."""
    grid = ccflab.TorusGrid(n)
    theta_hat = ccflab.forward(ccflab.make_datum(ccflab.cosine_positive(1.0, 0.75), grid))
    state = ccflab.SolverState(t=0.0, theta_hat=theta_hat)
    params = ccflab.ModelParams(gamma=gamma, n=n)
    control = ccflab.StepControl(t_end=1.0)
    return {
        "solver.step_us": _micro(lambda: solver.step(state, params, control), calls),
        "solver.nonlinear_us": _micro(lambda: solver.nonlinear_term(theta_hat, params), calls),
    }


@dataclass(frozen=True)
class SimInputs:
    seed: int
    amplitude: float
    theta0: ccflab.RealField


class Simulate:
    """One op: run() on the datum 1 + b cos x, b drawn from the seed in [0.5, 1].

    With b <= 1 the CFL speed max(1, |H theta|) is 1, so every seed takes the
    same number of steps and only the datum values change.
    """

    def __init__(self, name: str, n: int, gamma: float, t_end: float, snapshot_every: float,
                 holder_alphas: tuple[float, ...]):
        self.name = name
        self.n = n
        self.gamma = gamma
        self.params = ccflab.ModelParams(gamma=gamma, n=n)
        self.control = ccflab.StepControl(t_end=t_end, snapshot_every=snapshot_every)
        self.plan = ccflab.DiagnosticPlan(holder_alphas)
        self.snapshots = round(t_end / snapshot_every) + 1

    def _inputs(self, seed: int) -> SimInputs:
        amplitude = float(np.random.default_rng(seed).uniform(0.5, 1.0))
        theta0 = ccflab.make_datum(ccflab.cosine_positive(1.0, amplitude), ccflab.TorusGrid(self.n))
        return SimInputs(seed, amplitude, theta0)

    def prepare(self, seed: int, work: Path, reuse: bool) -> tuple[SimInputs, SimInputs]:
        """Inputs for the timed ops, and the default-seed inputs for the warm-up."""
        return self._inputs(seed), self._inputs(DEFAULT_SEED)

    def reset(self, inputs: SimInputs) -> None:
        pass

    def op(self, inputs: SimInputs):
        return solver.run(
            inputs.theta0,
            self.params,
            self.control,
            plan=self.plan,
            datum=ccflab.cosine_positive(1.0, inputs.amplitude).to_config(),
        )

    def check(self, inputs: SimInputs, record) -> list[str]:
        problems = []
        if record.outcome is not Outcome.COMPLETED:
            problems.append(f"outcome {record.outcome.value}: {record.outcome_detail}")
        samples = record.samples
        if len(samples) != self.snapshots:
            problems.append(f"{len(samples)} snapshots, expected {self.snapshots}")
        linf0 = samples[0].linf
        if any(s.linf > linf0 * (1 + LINF_SLACK) for s in samples):
            problems.append("max principle violated")
        if any(s.min_value < -POSITIVITY_SLACK * linf0 for s in samples):
            problems.append("positivity violated")
        if any(b.l2 > a.l2 * (1 + L2_SLACK) for a, b in zip(samples, samples[1:])):
            problems.append("L2 norm increased")
        if inputs.seed == DEFAULT_SEED:
            problems += self._against_reference(samples[-1])
        return problems

    def _against_reference(self, final) -> list[str]:
        ref = load_reference()
        want = ref[self.name]["final_sample"]
        got = reference_sample(final)
        bad = [
            f"{key}={got[key]!r} (reference {want[key]!r})"
            for key in want
            if not _close(got[key], want[key], ref["tolerance"])
        ]
        return [f"final sample differs from reference: {', '.join(bad)}"] if bad else []

    def micro(self) -> dict[str, float]:
        return solver_micro(self.n, self.gamma)


def reference_sample(sample) -> dict[str, float]:
    """The scalar fields of a DiagnosticsSample, Holder seminorms keyed holder_<alpha>."""
    out = {
        key: getattr(sample, key)
        for key in ("t", "l2", "linf", "mean", "hdot_half", "hdot_three_half", "hdot_mid",
                    "tail_fraction", "min_value", "grad_linf")
    }
    out.update({f"holder_{alpha!r}": value for alpha, value in sample.holder.items()})
    return out


@dataclass(frozen=True)
class QuadInputs:
    seed: int


class Quadrature:
    """One op: verify_suite(n=4096, seed).

    The calibrations the suite makes are captured on their way out of
    calibrate_cgamma, so each fitted c_gamma can be checked against its
    reference without repeating the O(n^2) work.
    """

    name = "quadrature"
    n = 4096

    def __init__(self):
        self.calibrations: list = []

    def prepare(self, seed: int, work: Path, reuse: bool) -> tuple[QuadInputs, QuadInputs]:
        if not getattr(verify.calibrate_cgamma, "_perfbench_capture", False):
            original = verify.calibrate_cgamma

            def capture(*args, **kwargs):
                cal = original(*args, **kwargs)
                self.calibrations.append(cal)
                return cal

            capture._perfbench_capture = True
            verify.calibrate_cgamma = capture
        return QuadInputs(seed), QuadInputs(DEFAULT_SEED)

    def reset(self, inputs: QuadInputs) -> None:
        self.calibrations.clear()

    def op(self, inputs: QuadInputs):
        return verify.verify_suite(n=self.n, seed=inputs.seed)

    def check(self, inputs: QuadInputs, rows) -> list[str]:
        ref = load_reference()
        want = ref[self.name]
        problems = [f"{r.name} failed: residual {r.residual:.3e} >= {r.tolerance:g}"
                    for r in rows if not r.passed]
        absent = sorted(set(want["rows"]) - {r.name for r in rows})
        if absent:
            problems.append(f"reference rows missing: {absent}")
        fitted = [(repr(c.gamma), c.c_gamma) for c in self.calibrations]
        if {g for g, _ in fitted} != set(want["c_gamma"]):
            problems.append(f"calibrated gammas {sorted({g for g, _ in fitted})}, "
                            f"expected {sorted(want['c_gamma'])}")
        problems += [
            f"c_gamma({g})={c!r} differs from reference {want['c_gamma'][g]!r}"
            for g, c in fitted
            if g in want["c_gamma"] and not _close(c, want["c_gamma"][g], ref["tolerance"])
        ]
        return problems

    def micro(self) -> dict[str, float]:
        return solver_micro(self.n, 0.9)


@dataclass(frozen=True)
class SweepInputs:
    target: Path
    out_dir: Path
    prefilled: Path
    prefilled_count: int
    missing: dict  # config hash -> record dict without wall_time
    hashes: frozenset


def _comparable(payload: dict) -> dict:
    return {key: value for key, value in payload.items() if key != "wall_time"}


class SweepResume:
    """One op: sweep() resumes a 300-cell plan whose file lacks six records,
    then report() summarizes all 300.

    The full file is made by sweep() itself, and the seed drops one cell from
    each (gamma, n) class, so every seed reruns the same mix of cell sizes.
    Both happen in a child process (make_inputs), so the measuring process's
    peak memory is the op's, not that of 300 records built for its inputs.
    """

    name = "sweep-resume"
    data_count = 50
    gammas = (0.6, 0.9, 1.2)
    resolutions = (64, 128)
    inputs_timeout_s = 300

    def __init__(self):
        self.plan = ccflab.SweepPlan(
            gamma_values=self.gammas,
            data=tuple(ccflab.cosine_positive(1.0, 0.3 + 0.7 * k / (self.data_count - 1))
                       for k in range(self.data_count)),
            resolutions=self.resolutions,
            control=ccflab.StepControl(t_end=1.0, dt_max=0.025, snapshot_every=0.025),
            parallelism=min(2, usable_cpus()),
        )

    def prepare(self, seed: int, work: Path, reuse: bool) -> tuple[SweepInputs, SweepInputs]:
        """Run make_inputs in a child process and read back what it wrote."""
        command = [sys.executable, __file__, "--seed", str(seed), "--work", str(work)]
        if reuse:
            command.append("--reuse")
        src = str(Path(ccflab.__file__).resolve().parent.parent)
        subprocess.run(command, env={**os.environ, "PYTHONPATH": src}, check=True,
                       timeout=self.inputs_timeout_s)
        meta = json.loads((work / "inputs.json").read_text(encoding="utf-8"))
        inputs = SweepInputs(
            target=work / "resume.jsonl",
            out_dir=work / "report",
            prefilled=work / "prefilled.jsonl",
            prefilled_count=meta["prefilled_count"],
            missing=meta["missing"],
            hashes=frozenset(meta["hashes"]),
        )
        return inputs, inputs

    def make_inputs(self, seed: int, work: Path, reuse: bool) -> None:
        """Write the full record file (unless reuse and it exists), the file
        without the seed's cells, and inputs.json describing the dropped ones."""
        full = work / "full.jsonl"
        if not (reuse and full.exists()):
            full.unlink(missing_ok=True)
            experiments.sweep(self.plan, full)
        lines = full.read_bytes().splitlines(keepends=True)
        payloads = [json.loads(line) for line in lines]
        classes: dict[tuple, list[int]] = {}
        for i, payload in enumerate(payloads):
            model = payload["config"]["model"]
            classes.setdefault((model["gamma"], model["n"]), []).append(i)
        rng = np.random.default_rng(seed)
        dropped = {members[int(rng.integers(len(members)))] for _, members in sorted(classes.items())}
        (work / "prefilled.jsonl").write_bytes(
            b"".join(line for i, line in enumerate(lines) if i not in dropped))
        meta = {
            "prefilled_count": len(lines) - len(dropped),
            "missing": {records.config_hash(payloads[i]["config"]): _comparable(payloads[i])
                        for i in sorted(dropped)},
            "hashes": sorted(records.config_hash(p["config"]) for p in payloads),
        }
        (work / "inputs.json").write_text(json.dumps(meta), encoding="utf-8")

    def reset(self, inputs: SweepInputs) -> None:
        shutil.copyfile(inputs.prefilled, inputs.target)

    def op(self, inputs: SweepInputs):
        swept = experiments.sweep(self.plan, inputs.target)
        return swept, report_module.report(swept, inputs.out_dir)

    def check(self, inputs: SweepInputs, result) -> list[str]:
        swept, bundle = result
        cells = len(self.plan.cells())
        problems = []
        if len(swept) != cells:
            problems.append(f"sweep returned {len(swept)} records for {cells} cells")
        lines = inputs.target.read_bytes().splitlines()
        if len(lines) != cells:
            problems.append(f"file holds {len(lines)} records for {cells} cells")
        appended = len(lines) - inputs.prefilled_count
        if appended != len(inputs.missing):
            problems.append(f"{appended} records appended, expected {len(inputs.missing)}")
        if len(swept) - appended != inputs.prefilled_count:
            problems.append(f"{len(swept) - appended} cells cached, expected {inputs.prefilled_count}")
        seen = set()
        for lineno, line in enumerate(lines, start=1):
            try:
                payload = json.loads(line)
                record = records.record_from_dict(payload)
            except (ValueError, KeyError) as exc:
                problems.append(f"line {lineno} does not reload: {exc}")
                continue
            key = record.config_hash
            seen.add(key)
            if lineno > inputs.prefilled_count and _comparable(payload) != inputs.missing.get(key):
                problems.append(f"line {lineno} ({key}) differs from the record first computed for it")
        if seen != inputs.hashes:
            problems.append(f"file covers {len(seen)} of the plan's {len(inputs.hashes)} cells")
        csv_rows = ccflab.parse_csv(bundle.csv_path.read_text(encoding="utf-8"))
        if len(csv_rows) != cells or len(bundle.chart_paths) != cells:
            problems.append(f"report has {len(csv_rows)} rows and {len(bundle.chart_paths)} charts "
                            f"for {cells} records")
        return problems

    def micro(self) -> dict[str, float]:
        return solver_micro(max(self.resolutions), 0.9)


WORKLOADS = {
    w.name: w
    for w in (
        Simulate("simulate-holder", n=4096, gamma=0.9, t_end=0.2, snapshot_every=0.02,
                 holder_alphas=(0.2,)),
        Simulate("simulate-stepping", n=1024, gamma=1.5, t_end=1.0, snapshot_every=0.2,
                 holder_alphas=()),
        Quadrature(),
        SweepResume(),
    )
}


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="Make the sweep-resume inputs in --work.")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--reuse", action="store_true")
    cli = parser.parse_args()
    WORKLOADS["sweep-resume"].make_inputs(cli.seed, cli.work, cli.reuse)
