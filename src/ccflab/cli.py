"""Command-line entry point: run, sweep, verify, calibrate, report.

Exit codes are a stable contract: 0 success, 1 validation error (the message
names the offending parameter), 2 runtime failure (calibration miss, failed
verification, I/O trouble). Values resolve as flag > config file > default,
and the full effective configuration is echoed into every persisted record.
`run` is a one-cell sweep: both commands read the model and control keys
through one table and build their cells through SweepPlan.cells.
--seed only affects the randomized test fields in verify; simulations are
deterministic regardless.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import regularity
from .experiments import SweepPlan, _run_batch, datum_forms, parse_datum, sweep
from .operators import calibrate_cgamma
from .records import append_record, drop_torn_tail, load_records
from .regularity import RegularityConstants
from .report import report
from .solver import StepControl
from .torus import TorusGrid
from .verify import format_json, format_table, verify_suite


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here reserves 2 for
    runtime failures, so remap usage problems to exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _pick(*candidates):
    for value in candidates:
        if value is not None:
            return value
    return None


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"config file {path} must contain a JSON object")
    return cfg


def _constants_from(cfg) -> RegularityConstants:
    if not isinstance(cfg, dict):
        raise ValueError(f"constants must be an object, got {cfg!r}")
    known = {f.name for f in fields(RegularityConstants)}
    unknown = set(cfg) - known
    if unknown:
        raise ValueError(f"unknown constants keys {sorted(unknown)}, expected among {sorted(known)}")
    return RegularityConstants(**{k: _number(v, f"constants.{k}") for k, v in cfg.items()})


def _out_dir(args) -> Path:
    out_dir = Path(_pick(args.out_dir, os.environ.get("CCF_OUT_DIR"), "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _number(value, name: str, whole: bool = False):
    """A flag or config value as a float (an int when whole), or a ValueError naming the key.
    JSON true and false are not numbers, though Python reads them as 1 and 0."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name}: {exc}") from None
    if whole and not number.is_integer():
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(number) if whole else number


def _switch(value, name: str) -> bool:
    """A config on/off value; only JSON true or false, so "false" cannot read as true."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


def _datum(value, name: str):
    """A datum spec string such as cosine:1,1, or a ValueError naming the key."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a datum spec string such as cosine:1,1, got {value!r}")
    try:
        return parse_datum(value)
    except (OSError, ValueError) as exc:  # a missing custom: file is a bad spec too
        raise ValueError(f"{name}: {exc}") from None


# The model and control keys that run and sweep share: key -> (reader, default,
# flag, flag options). Each resolves as flag > config block > default. An unset
# snapshot_every is t_end / 50, and an unset alpha leaves each cell its own rule.
_SHARED_KEYS = {
    "t_end": (_number, 1.0, "--t-end", {"type": float, "help": "final time"}),
    "dt_max": (_number, StepControl.dt_max, "--dt-max", {"type": float, "help": "step ceiling"}),
    "cfl": (_number, StepControl.cfl, "--cfl", {"type": float, "help": "CFL number in (0, 1]"}),
    "snapshot_every": (_number, None, "--snapshot-every", {"type": float, "help": "diagnostics cadence"}),
    "inviscid": (_switch, False, "--inviscid", {"action": "store_true", "help": "disable dissipation"}),
    "dealias": (_switch, True, "--no-dealias", {"action": "store_false", "help": "disable the 2/3-rule filter"}),
    "alpha": (_number, None, "--alpha", {"type": float, "help": "Holder exponent to track; needs gamma in (0,1)"}),
}


def _plan(args, cfg: dict, block: dict, prefix: str, **axes) -> SweepPlan:
    """The SweepPlan of these axes, with the shared keys read from the flags, then
    from block, the config object that holds them; errors name prefix + key."""
    values = {}
    for key, (read, default, _, _) in _SHARED_KEYS.items():
        value = _pick(getattr(args, key), block.get(key))
        values[key] = default if value is None else read(value, prefix + key)
    alpha, dissipation_on, dealias_on = values.pop("alpha"), not values.pop("inviscid"), values.pop("dealias")
    if alpha is not None:
        for gamma in axes["gamma_values"]:
            regularity.validate_schedule_params(gamma, alpha)  # rejects an alpha off a cell's schedule
    values["snapshot_every"] = _pick(values["snapshot_every"], values["t_end"] / 50.0)
    return SweepPlan(
        **axes,
        constants=_constants_from(cfg.get("constants", {})),
        control=StepControl(**values),
        dissipation_on=dissipation_on,
        dealias_on=dealias_on,
        holder_alphas=None if alpha is None else (alpha,),
    )


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    plan = _plan(
        args, cfg, cfg, "",
        gamma_values=(_number(_pick(args.gamma, cfg.get("gamma"), 0.9), "gamma"),),
        resolutions=(_number(_pick(args.n, cfg.get("n"), 256), "n", whole=True),),
        data=(_datum(_pick(args.datum, cfg.get("datum"), "cosine:1,1"), "datum"),),
    )
    (record,) = _run_batch((plan, tuple(plan.cells())))
    path = _out_dir(args) / "runs.jsonl"
    if path.exists():
        drop_torn_tail(path)
    append_record(path, record)
    print(f"{record.outcome.value}: {record.outcome_detail}")
    print(f"record {record.config_hash} appended to {path}")
    return 0


def _parse_list(values, name: str, whole: bool = False):
    """A sweep axis from a flag or config value: None (unset), a
    comma-separated string, a JSON array, or a bare number (one value)."""
    if values is None:
        return None
    if isinstance(values, str):
        values = [part for part in values.split(",") if part.strip()]
    elif isinstance(values, (int, float)) and not isinstance(values, bool):
        values = [values]
    elif not isinstance(values, list):
        raise ValueError(f"{name} must be a list, a comma-separated string or a number, got {values!r}")
    return tuple(_number(v, name, whole) for v in values)


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    block = cfg.get("sweep", {})
    if not isinstance(block, dict):
        raise ValueError(f"sweep must be an object, got {block!r}")
    datum_texts = args.datum or block.get("data", ["cosine:1,1"])
    if not isinstance(datum_texts, list):
        raise ValueError(f"sweep.data must be an array of datum specs, got {datum_texts!r}")
    plan = _plan(
        args, cfg, block, "sweep.",
        gamma_values=_pick(_parse_list(args.gamma, "--gamma"),
                           _parse_list(block.get("gamma_values"), "sweep.gamma_values"), (0.6, 0.9)),
        resolutions=_pick(_parse_list(args.n, "--n", whole=True),
                          _parse_list(block.get("resolutions"), "sweep.resolutions", whole=True), (128, 256)),
        data=tuple(_datum(t, "sweep.data") for t in datum_texts),
        parallelism=_number(_pick(args.jobs, block.get("parallelism"), 1), "sweep.parallelism", whole=True),
    )
    path = _out_dir(args) / "sweep.jsonl"
    records = sweep(plan, path)
    for record in records:
        model, kind = record.config["model"], record.config["datum"].get("kind")
        print(f"gamma={model['gamma']:g} n={model['n']} datum={kind} -> {record.outcome.value}")
    print(f"{len(records)} records in {path}")
    return 0


def _cmd_verify(args) -> int:
    seed = _number(_pick(args.seed, 0), "seed", whole=True)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    rows = verify_suite(n=_number(_pick(args.n, 256), "n", whole=True), seed=seed)
    print(format_json(rows) if args.json else format_table(rows))
    if all(row.passed for row in rows):
        return 0
    print("verification failed: residual above tolerance", file=sys.stderr)
    return 2


def _cmd_calibrate(args) -> int:
    grid = TorusGrid(_number(_pick(args.n, 256), "n", whole=True))
    cal = calibrate_cgamma(float(args.gamma), grid)
    print(
        f"gamma={cal.gamma:g} n={grid.n} c_gamma={cal.c_gamma!r} "
        f"relative_residual={cal.residual:.3e}"
    )
    return 0


def _cmd_report(args) -> int:
    records_path = Path(args.records)
    if not records_path.exists():
        raise ValueError(f"records file not found: {records_path}")
    records = load_records(records_path)
    if not records:
        raise ValueError(f"records file {records_path} holds no records")
    for path in report(records, _out_dir(args)).written:
        print(f"wrote {path}")
    return 0


_OUT_DIR_HELP = "output directory (fallback: env CCF_OUT_DIR, then .)"


def _add_cell_flags(sub, handler) -> None:
    """The flags run and sweep share: one per _SHARED_KEYS key, --config and --out-dir."""
    for key, (_, _, flag, options) in _SHARED_KEYS.items():
        sub.add_argument(flag, dest=key, default=None, **options)
    sub.add_argument("--config", help="path to a JSON config file (flags override it)")
    sub.add_argument("--out-dir", help=_OUT_DIR_HELP)
    sub.set_defaults(handler=handler)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ccflab",
        description="Pseudospectral laboratory for 1D nonlocal transport with fractional dissipation.",
    )
    subs = parser.add_subparsers(dest="subcommand", metavar="{run,sweep,verify,calibrate,report}")

    p_run = subs.add_parser("run", help="integrate one configuration and append its record")
    p_run.add_argument("--gamma", type=float, help="dissipation exponent in (0, 2]")
    p_run.add_argument("--n", type=int, help="grid size (even, >= 32)")
    p_run.add_argument("--datum", help=datum_forms())
    _add_cell_flags(p_run, _cmd_run)

    p_sweep = subs.add_parser("sweep", help="run a (datum, gamma, n) grid, resumable")
    p_sweep.add_argument("--gamma", help="comma-separated gamma values")
    p_sweep.add_argument("--n", help="comma-separated grid sizes")
    p_sweep.add_argument("--datum", action="append", help=f"datum spec ({datum_forms()}); repeat for several")
    p_sweep.add_argument(
        "--jobs", type=int,
        help="max worker processes, each running batches of cells of one n (default 1); fewer, or none, "
             "when the pending cells' estimated time would not repay a pool's 0.04 s",
    )
    _add_cell_flags(p_sweep, _cmd_sweep)

    p_verify = subs.add_parser("verify", help="operator residual table")
    p_verify.add_argument("--n", type=int, help="grid size (default 256)")
    p_verify.add_argument("--seed", type=int, help="seed for random test fields (default 0)")
    p_verify.add_argument("--json", action="store_true", help="print the rows as a JSON array")
    p_verify.set_defaults(handler=_cmd_verify)

    p_cal = subs.add_parser("calibrate", help="fit the quadrature normalization c_gamma")
    p_cal.add_argument("--gamma", type=float, required=True, help="dissipation exponent in (0, 2)")
    p_cal.add_argument("--n", type=int, help="grid size (default 256)")
    p_cal.set_defaults(handler=_cmd_calibrate)

    p_rep = subs.add_parser("report", help="CSV summary and SVG charts from a record file")
    p_rep.add_argument("records", help="path to a JSONL record file")
    p_rep.add_argument("--out-dir", help=_OUT_DIR_HELP)
    p_rep.set_defaults(handler=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    if getattr(args, "subcommand", None) is None:
        parser.print_help()
        return 1
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, RuntimeError) as exc:  # CalibrationError is a RuntimeError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
