"""Command-line interface: `dpopt run` runs a sweep, and `dpopt fit` fits a
scaling slope to its CSV. A config that fails at load exits 2 before any
output exists; the library's own checks are the test suite's."""
from __future__ import annotations

import argparse
import json
import sys

from .config import ExperimentConfig
from .experiment import ALGORITHMS, read_csv_rows, run_experiment
from .fitting import median_by_x, scaling_fit


def _parse_override(kv: str):
    if "=" not in kv:
        raise argparse.ArgumentTypeError(f"override must be KEY=VALUE, got {kv!r}")
    key, val = kv.split("=", 1)
    for cast in (int, float):
        try:
            return key, cast(val)
        except ValueError:
            continue
    if val.lower() in ("true", "false"):
        return key, val.lower() == "true"
    return key, val


def _parse_filter(kv: str) -> tuple[str, str]:
    col, sep, val = kv.partition("=")
    if not (sep and col):
        raise argparse.ArgumentTypeError(f"filter must be COL=VALUE, got {kv!r}")
    return col, val


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v]


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v]


def _merge(raw: dict, block: str, given: dict) -> None:
    """Set the given keys in raw's block; a block that is not an object is
    left for config load to reject."""
    if given and isinstance(raw.get(block, {}), dict):
        raw[block] = {**raw.get(block, {}), **given}


def cmd_run(args) -> int:
    raw = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    if args.algorithm:
        raw["algorithm"] = args.algorithm
    _merge(raw, "grid", {key: parse(text) for key, parse, text in (
        ("n", _int_list, args.n), ("d", _int_list, args.d), ("eps", _float_list, args.eps))
        if text})
    if args.delta is not None:
        raw["delta"] = args.delta
    if args.seed:
        raw["seeds"] = _int_list(args.seed)
    if args.out:
        raw["out"] = args.out
    if args.master_seed is not None:
        raw["master_seed"] = args.master_seed
    if args.workers is not None:
        raw["workers"] = args.workers
    if args.timing:
        raw["timing"] = True
    _merge(raw, "overrides", dict(map(_parse_override, args.override or [])))
    config = ExperimentConfig.from_dict(raw)
    csv_path = run_experiment(config)
    rows = read_csv_rows(csv_path)
    bad = [r for r in rows if r["status"] != "ok"]
    print(f"wrote {csv_path} ({len(rows)} rows, {len(bad)} failed)")
    for r in bad:
        print(f"  n={r['n']} d={r['d']} eps={r['eps']} seed={r['seed']}: {r['status']}")
    return 1 if bad else 0


def cmd_fit(args) -> int:
    where = args.where or []
    with open(args.csv, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    for col in (args.x, args.y, *(c for c, _ in where)):
        if col not in header:
            print(f"error: {args.csv} has no column {col!r}", file=sys.stderr)
            return 2
    pairs = [(float(r[args.x]), float(r[args.y])) for r in read_csv_rows(args.csv)
             if r.get("status", "ok") == "ok" and all(r.get(c) == v for c, v in where)]
    if args.median:
        pairs = median_by_x(pairs)
    try:
        fit = scaling_fit(pairs)
    except ValueError as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return 1
    print(f"slope={fit.slope:.6g} intercept={fit.intercept:.6g} "
          f"r2={fit.r2:.6g} points={len(fit.points)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dpopt",
        description="Differentially private stationary-point optimizers: "
                    "experiment runner and scaling fits.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("--config", help="JSON config file")
    p_run.add_argument("--algorithm", choices=ALGORITHMS)
    p_run.add_argument("--n", help="comma-separated n grid")
    p_run.add_argument("--d", help="comma-separated d grid")
    p_run.add_argument("--eps", help="comma-separated eps grid")
    p_run.add_argument("--delta", type=float)
    p_run.add_argument("--seed", help="comma-separated seed list")
    p_run.add_argument("--out", help="output directory")
    p_run.add_argument("--master-seed", type=int, default=None)
    p_run.add_argument("--workers", type=int, default=None)
    p_run.add_argument("--timing", action="store_true",
                       help="record wall times (breaks byte-identical reruns)")
    p_run.add_argument("--override", action="append", metavar="KEY=VALUE",
                       help="parameter override (repeatable)")
    p_run.set_defaults(fn=cmd_run)

    p_fit = sub.add_parser("fit", help="log-log scaling fit on CSV columns")
    p_fit.add_argument("--csv", required=True)
    p_fit.add_argument("--x", default="n")
    p_fit.add_argument("--y", default="grad_norm")
    p_fit.add_argument("--median", action="store_true",
                       help="aggregate y by median at each x before fitting")
    p_fit.add_argument("--where", action="append", metavar="COL=VALUE",
                       type=_parse_filter, help="row filter (repeatable)")
    p_fit.set_defaults(fn=cmd_fit)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
