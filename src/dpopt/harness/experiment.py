"""Grid sweeps: derive parameters, run, measure exact stationarity, emit CSV.

Every row carries the exact (noise-free) gradient norm at the returned
point, never the algorithm's internal estimate: the empirical-risk gradient
for finite-sum algorithms, and the enumerated population gradient for
population algorithms. Reruns with the same config are byte-identical by
default; wall-clock timing is recorded only when `timing` is enabled, since
measured times would break reproducibility of the output bytes.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from ..core.data import Dataset, DatasetCursor
from ..core.loss import erm_grad
from ..glm_jl import JLParams, choose_k, run_jl
from ..privacy import PrivacyBudget
from ..recursive_reg import derive_rr_params, run_recursive_regularization
from ..spiderboost import derive_spider_params, run_spiderboost
from ..tree_spider import derive_tree_params, run_tree_spider
from .config import ExperimentConfig, build_loss
from .rng import stream, stream_seed
from .synthetic import FiniteSupportDistribution, gen_support, gen_synthetic

CSV_COLUMNS = ("algorithm", "n", "d", "eps", "delta", "seed", "grad_norm",
               "oracle_calls", "wall_ms", "param_hash", "status")

DEFAULT_SUPPORT_SIZE = 256


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def param_hash(params) -> str:
    """Stable digest of derived parameters, for artifact-level regression
    detection."""
    d = dataclasses.asdict(params) if dataclasses.is_dataclass(params) else dict(params)
    canon = json.dumps({k: _fmt(v) for k, v in sorted(d.items())}, sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def _gen_dataset(config: ExperimentConfig, n: int, d: int,
                 grid_index: int, seed_index: int) -> Dataset:
    data = config.data
    seed = stream_seed(config.master_seed, "data", grid_index, seed_index)
    return gen_synthetic(data.get("kind", "glm_fullrank"), n, d,
                         rank=data.get("rank"), seed=seed,
                         B=float(data.get("B", 1.0)),
                         label_scale=float(data.get("label_scale", 0.0)),
                         spectrum_decay=float(data.get("spectrum_decay", 1.0)))


def _gen_population(config: ExperimentConfig, d: int) -> FiniteSupportDistribution:
    # the population is shared across n and seeds: keyed by d only
    data = config.data
    seed = stream_seed(config.master_seed, "support", d)
    m = int(data.get("support_size") or DEFAULT_SUPPORT_SIZE)
    return gen_support(data.get("kind", "glm_fullrank"), m, d,
                       rank=data.get("rank"), seed=seed,
                       B=float(data.get("B", 1.0)),
                       label_scale=float(data.get("label_scale", 0.0)),
                       spectrum_decay=float(data.get("spectrum_decay", 1.0)))


def run_single(config: ExperimentConfig, grid_index: int, n: int, d: int,
               eps: float, seed_index: int, seed: int) -> tuple[dict, dict | None]:
    """One grid point x seed; derivation failures become tagged rows, and a
    returned point or exact gradient norm that is not finite is `diverged`."""
    row = {"algorithm": config.algorithm, "n": n, "d": d, "eps": eps,
           "delta": config.delta, "seed": seed, "grad_norm": float("nan"),
           "oracle_calls": 0, "wall_ms": 0.0, "param_hash": "", "status": "ok"}
    budget = PrivacyBudget(eps, config.delta, config.accountant_c)
    loss = build_loss(config.loss, d)
    run_rng = stream(config.master_seed, "run", grid_index, seed_index)
    t0 = time.perf_counter()
    report_doc = None
    try:
        if config.algorithm == "spiderboost":
            S = _gen_dataset(config, n, d, grid_index, seed_index)
            params = derive_spider_params(n, d, loss.L0, loss.L1, loss.F0_hint,
                                          budget, config.overrides)
            row["param_hash"] = param_hash(params)
            rep = run_spiderboost(loss, S, params, run_rng)
            row["grad_norm"] = float(np.linalg.norm(erm_grad(loss, rep.w_out, S)))
            row["oracle_calls"] = rep.oracle_calls
            ledger = rep.noise_ledger
            extras = {"selected_index": rep.selected_index,
                      "trace_steps": rep.trace_steps,
                      "grad_norm_trace": rep.grad_norm_trace}
        elif config.algorithm == "tree_spider":
            dist = _gen_population(config, d)
            sample_rng = stream(config.master_seed, "sample", grid_index, seed_index)
            S = dist.sample(n, sample_rng)
            params = derive_tree_params(n, d, loss.L0, loss.L1, loss.F0_hint,
                                        budget, float(config.overrides.get("p", 0.1)),
                                        {k: v for k, v in config.overrides.items()
                                         if k != "p"})
            row["param_hash"] = param_hash(params)
            rep = run_tree_spider(loss, DatasetCursor(S), params, run_rng)
            g = dist.population_grad(loss, rep.w_out)
            row["grad_norm"] = float(np.linalg.norm(g))
            row["oracle_calls"] = rep.oracle_calls
            ledger = rep.noise_ledger
            extras = {"stopped_early": rep.stopped_early,
                      "stop_address": (None if rep.stop_address is None else
                                       [rep.stop_address.t, rep.stop_address.s]),
                      "samples_consumed": rep.samples_consumed,
                      "leaf_count_visited": rep.leaf_count_visited,
                      "leaves_per_round": rep.leaves_per_round,
                      "rounds_completed": rep.rounds_completed}
        elif config.algorithm == "recursive_reg":
            dist = _gen_population(config, d)
            sample_rng = stream(config.master_seed, "sample", grid_index, seed_index)
            S = dist.sample(n, sample_rng)
            rr = config.rr
            params = derive_rr_params(rr.get("mode", "linear_time"), n, d,
                                      loss.L0, loss.L1,
                                      float(rr.get("R_bar", 1.0)), budget,
                                      config.overrides)
            row["param_hash"] = param_hash(params)
            rep = run_recursive_regularization(S, loss, params,
                                               rr.get("subroutine", "phased_sgd"),
                                               run_rng)
            g = dist.population_grad(loss, rep.w_out)
            row["grad_norm"] = float(np.linalg.norm(g))
            row["oracle_calls"] = n  # single pass over disjoint slices
            ledger = rep.noise_ledger
            extras = {"rounds": rep.rounds, "t1_edge": rep.t1_edge,
                      "kt_capped": rep.kt_capped}
        elif config.algorithm == "jl_spiderboost":
            S = _gen_dataset(config, n, d, grid_index, seed_index)
            rank = config.data.get("rank") or d
            k = int(config.overrides.get(
                "k", choose_k("spiderboost", n, rank, d, loss.L0_phi, loss.L1_phi,
                              loss.normX, budget)))
            jl_params = JLParams(k=k, rank=rank, normX=loss.normX,
                                 base_kind="spiderboost",
                                 force_identity=bool(config.overrides.get(
                                     "force_identity", False)))

            def base(S_proj, loss_proj, L0b, L1b, sub_budget, rng):
                sp = derive_spider_params(S_proj.n, S_proj.dim, L0b, L1b,
                                          loss.F0_hint, sub_budget,
                                          {kk: vv for kk, vv in config.overrides.items()
                                           if kk in ("eta", "q", "b1", "b2", "T")})
                return run_spiderboost(loss_proj, S_proj, sp, rng)

            rep = run_jl(base, loss, S, jl_params, budget, run_rng)
            row["param_hash"] = param_hash({"k": k, "rank": rank,
                                            "normX": loss.normX})
            row["grad_norm"] = float(np.linalg.norm(erm_grad(loss, rep.w_out, S)))
            row["oracle_calls"] = rep.base_report.oracle_calls
            ledger = rep.base_report.noise_ledger
            extras = {"k": rep.k, "rank": rep.rank,
                      "matrix_seed": rep.matrix_seed,
                      "max_feature_norm_ratio": rep.max_feature_norm_ratio,
                      "clamped": rep.clamped,
                      "base_eps": rep.base_eps, "base_delta": rep.base_delta,
                      "base_selected_index": rep.base_report.selected_index}
        else:
            raise ValueError(f"unknown algorithm {config.algorithm!r}")
        if not (math.isfinite(row["grad_norm"]) and np.isfinite(rep.w_out).all()):
            row["status"] = "diverged"
        if config.write_reports:
            report_doc = {
                "algorithm": config.algorithm, "n": n, "d": d, "eps": eps,
                "delta": config.delta, "seed": seed,
                "grad_norm": row["grad_norm"],
                "oracle_calls": row["oracle_calls"],
                "param_hash": row["param_hash"],
                **extras,
                "noise_ledger": [
                    {"site": s, "sigma": sig, "dim": dd, "count": c}
                    for (s, sig, dd, c) in ledger.rows()],
            }
    except ValueError as exc:
        row["status"] = f"precondition: {exc}"
    except Exception as exc:  # pragma: no cover - defensive
        row["status"] = f"error: {type(exc).__name__}: {exc}"
    if config.timing:
        row["wall_ms"] = (time.perf_counter() - t0) * 1000.0
    return row, report_doc


def run_experiment(config: ExperimentConfig) -> Path:
    """Execute the sweep; returns the path of the written CSV.

    Rows are written in canonical order (grid index, then seed index)
    regardless of worker completion order.
    """
    config.validate()
    out_dir = Path(config.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write_probe"
        probe.write_text("ok")
        probe.unlink()
    except OSError as exc:
        raise RuntimeError(f"output directory {out_dir} is not writable: {exc}")

    jobs = []
    for grid_index, n, d, eps in config.grid_points():
        for seed_index, seed in enumerate(config.seeds):
            jobs.append((grid_index, n, d, eps, seed_index, seed))

    results: dict[tuple[int, int], tuple[dict, dict | None]] = {}
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            futs = {pool.submit(run_single, config, *job): job for job in jobs}
            for fut, job in futs.items():
                results[(job[0], job[4])] = fut.result()
    else:
        for job in jobs:
            results[(job[0], job[4])] = run_single(config, *job)

    csv_path = out_dir / "runs.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for key in sorted(results):
            row, _ = results[key]
            fh.write(",".join(_csv_cell(row[c]) for c in CSV_COLUMNS) + "\n")

    if config.write_reports:
        rep_dir = out_dir / "reports"
        rep_dir.mkdir(exist_ok=True)
        for (g, s), (_, doc) in sorted(results.items()):
            if doc is not None:
                with open(rep_dir / f"run_g{g}_s{s}.json", "w", encoding="utf-8") as fh:
                    fh.write(report_json(doc))
    return csv_path


_LEDGER_ENTRY = ('\n  {\n   "site": %s,\n   "sigma": %s,\n   "dim": %d,'
                 '\n   "count": %d\n  }')


def _json_number(v) -> str:
    # json.dumps builds a whole encoder even for one float, several times the
    # cost of repr; a finite float encodes as its repr, anything else as before
    return repr(v) if type(v) is float and math.isfinite(v) else json.dumps(v)


def report_json(doc: dict) -> str:
    """`json.dumps(doc, indent=1)`, byte for byte, for a run report.

    The noise ledger, which must be the report's last key, can hold 10^4
    entries per run; they are filled into a fixed template instead of going
    through the pure-Python indenting encoder.
    """
    keys = list(doc)
    if len(keys) < 2 or keys[-1] != "noise_ledger":
        raise ValueError("a report needs other keys before a last 'noise_ledger'")
    head = json.dumps({k: doc[k] for k in keys[:-1]}, indent=1)
    entries = ",".join(_LEDGER_ENTRY % (json.dumps(e["site"]), _json_number(e["sigma"]),
                                        e["dim"], e["count"])
                       for e in doc["noise_ledger"])
    ledger = f"[{entries}\n ]" if entries else "[]"
    return f'{head[:-2]},\n "noise_ledger": {ledger}\n}}'


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    s = str(v)
    if "," in s:
        s = s.replace(",", ";")
    return s


def read_csv_rows(path: str | Path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = []
        for line in fh:
            parts = line.rstrip("\n").split(",")
            rows.append(dict(zip(header, parts)))
    return rows
