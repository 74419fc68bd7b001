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
from concurrent.futures import ProcessPoolExecutor, as_completed
from pathlib import Path

import numpy as np

from ..core.data import Dataset, DatasetCursor
from ..core.loss import erm_grad
from ..glm_jl import JLParams, choose_k, run_jl
from ..privacy import PrivacyBudget
from ..recursive_reg import derive_rr_params, run_recursive_regularization
from ..spiderboost import derive_spider_params, run_spiderboost
from ..tree_spider import derive_tree_params, run_tree_spider
from ..util import PreconditionError
from .config import ExperimentConfig, build_loss
from .rng import stream, stream_seed
from .synthetic import FiniteSupportDistribution, gen_support, gen_synthetic

CSV_COLUMNS = ("algorithm", "n", "d", "eps", "delta", "seed", "grad_norm",
               "oracle_calls", "wall_ms", "param_hash", "status")

DEFAULT_SUPPORT_SIZE = 256

# algorithms whose seeds at one grid point share n, d and the derived
# parameters, and so run in lockstep in one job
LOCKSTEP = ("spiderboost", "recursive_reg")


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


def _failed(exc: Exception) -> str:
    """The status of a row whose run raised exc."""
    if isinstance(exc, PreconditionError):
        return f"precondition: {exc}"
    return f"error: {type(exc).__name__}: {exc}"


def run_single(config: ExperimentConfig, grid_index: int, n: int, d: int,
               eps: float, seeds: list[tuple[int, int]]) -> list[tuple[dict, dict | None]]:
    """One grid point for the given (seed_index, seed) pairs: one (row,
    report) per seed, in order. SpiderBoost and recursive regularization
    (the algorithms in LOCKSTEP) run all of a grid point's seeds in lockstep,
    each seed on its own data or population sample and its own generator;
    the other algorithms take one seed per call.

    A failed sample-size hypothesis tags every row `precondition:`, any other
    exception `error:`; a returned point, exact gradient norm or entry of
    the exact gradient-norm trace that is not finite is `diverged`. A
    recursive-regularization seed whose population sample fails the loss's
    dataset check is tagged `error:` alone, and the other seeds run as a
    smaller group. Under `timing`, each row gets the call's wall time
    divided by the number of seeds.
    """
    if len(seeds) != 1 and config.algorithm not in LOCKSTEP:
        raise ValueError(f"{config.algorithm} takes one seed per call, got {len(seeds)}")
    rows = [{"algorithm": config.algorithm, "n": n, "d": d, "eps": eps,
             "delta": config.delta, "seed": seed, "grad_norm": float("nan"),
             "oracle_calls": 0, "wall_ms": 0.0, "param_hash": "", "status": "ok"}
            for _, seed in seeds]
    docs: list[dict | None] = [None] * len(seeds)
    budget = PrivacyBudget(eps, config.delta, config.accountant_c)
    loss = build_loss(config.loss, d)
    seed_index = seeds[0][0]
    run_rng = stream(config.master_seed, "run", grid_index, seed_index)
    t0 = time.perf_counter()

    def set_hash(params):
        for row in rows:
            row["param_hash"] = param_hash(params)

    try:
        # each branch gives outs: (w_out, exact gradient, oracle calls,
        # noise ledger, report extras) per seed, or None for a seed that
        # failed on its own and whose row already says so
        if config.algorithm == "spiderboost":
            params = derive_spider_params(n, d, loss.L0, loss.L1, loss.F0_hint,
                                          budget, config.overrides)
            set_hash(params)
            data = [_gen_dataset(config, n, d, grid_index, s) for s, _ in seeds]
            reps = run_spiderboost(loss, data, params,
                                   [stream(config.master_seed, "run", grid_index, s)
                                    for s, _ in seeds])
            outs = [(rep.w_out, erm_grad(loss, rep.w_out, S), rep.oracle_calls,
                     rep.noise_ledger, {"selected_index": rep.selected_index,
                                        "trace_steps": rep.trace_steps,
                                        "grad_norm_trace": rep.grad_norm_trace})
                    for rep, S in zip(reps, data)]
        elif config.algorithm == "tree_spider":
            dist = _gen_population(config, d)
            sample_rng = stream(config.master_seed, "sample", grid_index, seed_index)
            S = dist.sample(n, sample_rng)
            params = derive_tree_params(n, d, loss.L0, loss.L1, loss.F0_hint,
                                        budget, float(config.overrides.get("p", 0.1)),
                                        {k: v for k, v in config.overrides.items()
                                         if k != "p"})
            set_hash(params)
            rep = run_tree_spider(loss, DatasetCursor(S), params, run_rng)
            outs = [(rep.w_out, dist.population_grad(loss, rep.w_out), rep.oracle_calls,
                     rep.noise_ledger,
                     {"stopped_early": rep.stopped_early,
                      "stop_address": (None if rep.stop_address is None else
                                       [rep.stop_address.t, rep.stop_address.s]),
                      "samples_consumed": rep.samples_consumed,
                      "leaf_count_visited": rep.leaf_count_visited,
                      "leaves_per_round": rep.leaves_per_round,
                      "rounds_completed": rep.rounds_completed})]
        elif config.algorithm == "recursive_reg":
            dist = _gen_population(config, d)
            samples = [dist.sample(n, stream(config.master_seed, "sample", grid_index, s))
                       for s, _ in seeds]
            rr = config.rr
            params = derive_rr_params(rr.get("mode", "linear_time"), n, d,
                                      loss.L0, loss.L1,
                                      float(rr.get("R_bar", 1.0)), budget,
                                      config.overrides)
            set_hash(params)
            # each seed draws its own sample, so one sample holding a support
            # row above the norm bound fails only its own seed
            live = []
            for i, S in enumerate(samples):
                try:
                    loss.validate_dataset(S)
                    live.append(i)
                except ValueError as exc:
                    rows[i]["status"] = _failed(exc)
            reps = run_recursive_regularization(
                [samples[i] for i in live], loss, params,
                rr.get("subroutine", "phased_sgd"),
                [stream(config.master_seed, "run", grid_index, seeds[i][0]) for i in live]
            ) if live else []
            outs = [None] * len(seeds)
            for i, rep in zip(live, reps):
                # n oracle calls: a single pass over disjoint slices
                outs[i] = (rep.w_out, dist.population_grad(loss, rep.w_out), n,
                           rep.noise_ledger, {"rounds": rep.rounds, "t1_edge": rep.t1_edge,
                                              "kt_capped": rep.kt_capped})
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
            set_hash({"k": k, "rank": rank, "normX": loss.normX})
            outs = [(rep.w_out, erm_grad(loss, rep.w_out, S), rep.base_report.oracle_calls,
                     rep.base_report.noise_ledger,
                     {"k": rep.k, "rank": rep.rank,
                      "matrix_seed": rep.matrix_seed,
                      "max_feature_norm_ratio": rep.max_feature_norm_ratio,
                      "clamped": rep.clamped,
                      "base_eps": rep.base_eps, "base_delta": rep.base_delta,
                      "base_selected_index": rep.base_report.selected_index})]
        else:
            raise ValueError(f"unknown algorithm {config.algorithm!r}")
        for i, (row, out) in enumerate(zip(rows, outs)):
            if out is None:
                continue
            w_out, g, oracle_calls, ledger, extras = out
            row["grad_norm"] = float(np.linalg.norm(g))
            row["oracle_calls"] = oracle_calls
            if not (math.isfinite(row["grad_norm"]) and np.isfinite(w_out).all()
                    and np.isfinite(extras.get("grad_norm_trace", ())).all()):
                row["status"] = "diverged"
            if config.write_reports:
                docs[i] = {
                    "algorithm": config.algorithm, "n": n, "d": d, "eps": eps,
                    "delta": config.delta, "seed": row["seed"],
                    "grad_norm": row["grad_norm"],
                    "oracle_calls": row["oracle_calls"],
                    "param_hash": row["param_hash"],
                    **extras,
                    "noise_ledger": [
                        {"site": s, "sigma": sig, "dim": dd, "count": c}
                        for (s, sig, dd, c) in ledger.rows()],
                }
    except Exception as exc:
        for row in rows:
            row["status"] = _failed(exc)
    if config.timing:
        wall_ms = (time.perf_counter() - t0) * 1000.0 / len(rows)
        for row in rows:
            row["wall_ms"] = wall_ms
    return list(zip(rows, docs))


def run_experiment(config: ExperimentConfig) -> Path:
    """Execute the sweep; returns the path of the written CSV.

    Each report is written as soon as its row's job finishes, and only the
    row is kept. Rows are written in canonical order (grid index, then seed
    index) regardless of worker completion order.
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
    rep_dir = out_dir / "reports"
    if config.write_reports:
        rep_dir.mkdir(exist_ok=True)

    seeds = list(enumerate(config.seeds))
    groups = [seeds] if config.algorithm in LOCKSTEP else [[s] for s in seeds]
    jobs = [(grid_index, n, d, eps, group)
            for grid_index, n, d, eps in config.grid_points() for group in groups]

    rows: dict[tuple[int, int], dict] = {}

    def keep(job, results):
        for (seed_index, _), (row, doc) in zip(job[4], results):
            rows[(job[0], seed_index)] = row
            if doc is not None:
                with open(rep_dir / f"run_g{job[0]}_s{seed_index}.json", "w",
                          encoding="utf-8") as fh:
                    fh.write(report_json(doc))

    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            futs = {pool.submit(run_single, config, *job): job for job in jobs}
            for fut in as_completed(futs):
                keep(futs.pop(fut), fut.result())
    else:
        for job in jobs:
            keep(job, run_single(config, *job))

    csv_path = out_dir / "runs.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for key in sorted(rows):
            fh.write(",".join(_csv_cell(rows[key][c]) for c in CSV_COLUMNS) + "\n")
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
