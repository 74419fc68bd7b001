"""Command-line interface: run sweeps, fit scaling slopes and self-check."""
from __future__ import annotations

import argparse
import json
import sys
import numpy as np

from ..core.gradcheck import fd_check
from ..core.loss import (erm_grad, huber_mean_loss, glm_loss,
                         synthetic_nonconvex_loss, tanh_link)
from ..privacy import PrivacyBudget, accountant_sigma, gaussian_sigma
from ..recursive_reg import project_ball, selector_weighted_avg
from ..spiderboost import run_spiderboost, spider_oracle_count
from ..tree_spider import dfs_order
from .config import ExperimentConfig
from .experiment import ALGORITHMS, read_csv_rows, run_experiment
from .fitting import median_by_x, scaling_fit
from .synthetic import gen_synthetic


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


def _check(name: str, fn) -> bool:
    try:
        fn()
        print(f"PASS {name}")
        return True
    except Exception as exc:
        print(f"FAIL {name}: {exc}")
        return False


def cmd_check(_args) -> int:
    rng = np.random.default_rng(0)
    ok = True

    def gradients():
        for loss in (huber_mean_loss(1.0, 1.0, dim=4),
                     glm_loss(tanh_link(), 1.0, 1.0, 1.0, 4),
                     synthetic_nonconvex_loss(4)):
            rep = fd_check(loss, probes=50)
            assert rep.max_rel_err <= 1e-5, f"{loss.name}: {rep.max_rel_err}"
    ok &= _check("finite-difference gradients", gradients)

    def calibration():
        g = np.random.default_rng(7)
        for _ in range(100):
            sens = float(g.uniform(0, 3))
            eps = float(g.uniform(0.1, 2))
            delta = float(g.uniform(1e-8, 0.4))
            expect = sens * np.sqrt(2 * np.log(1.25 / delta)) / eps
            assert abs(gaussian_sigma(sens, eps, delta) - expect) <= 1e-12 * max(expect, 1)
            n = int(g.integers(10, 10000))
            b = int(g.integers(1, n + 1))
            T = int(g.integers(1, 500))
            c = float(g.uniform(0.5, 2))
            lam = float(g.uniform(0, 5))
            got = accountant_sigma(lam / n, b, T, n, PrivacyBudget(eps, delta, c))
            expect = c * lam * np.sqrt(np.log(1 / delta)) / eps * max(1 / b, np.sqrt(T) / n)
            assert abs(got - expect) <= 1e-12 * max(expect, 1e-300)
    ok &= _check("noise calibration closed forms", calibration)

    def dfs():
        assert dfs_order(2) == ["0", "00", "01", "1", "10", "11"]
        for D in range(1, 7):
            assert len(dfs_order(D)) == 2 ** (D + 1) - 2
    ok &= _check("tree DFS structure", dfs)

    def degeneration():
        loss = huber_mean_loss(1.0, 1.0, dim=3)
        S = gen_synthetic("huber_cluster", 32, 3, seed=5)
        from ..spiderboost import SpiderParams
        params = SpiderParams(eta=0.5, q=1, b1=32, b2=32, T=20,
                              sigma1=0.0, sigma2=0.0, sigma2_hat=0.0)
        rep = run_spiderboost(loss, S, params, np.random.default_rng(1))
        w = np.zeros(3)
        for _ in range(rep.selected_index):
            w = w - 0.5 * erm_grad(loss, w, S)
        assert np.allclose(w, rep.w_out, atol=1e-12)
        assert rep.oracle_calls == spider_oracle_count(params)
    ok &= _check("noiseless full-batch degeneration", degeneration)

    def selector():
        w1, w2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        got = selector_weighted_avg([w1, w2], 1.0, 0.5)
        assert np.allclose(got, (w1 + 2 * w2) / 3, atol=1e-12)
        g = np.random.default_rng(3)
        for _ in range(200):
            a, b = g.standard_normal(4), g.standard_normal(4)
            pa, pb = project_ball(a, 1.0), project_ball(b, 1.0)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12
    ok &= _check("selector weights and projection", selector)

    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dpopt",
        description="Differentially private stationary-point optimizers: "
                    "experiment runner and validation tools.")
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

    p_check = sub.add_parser("check", help="run the invariant/validation suite")
    p_check.set_defaults(fn=cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
