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
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor, as_completed
from itertools import groupby, islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from ..core.data import Dataset, DatasetCursor, Runs
from ..core.loss import GLMLoss, LossSpec, erm_grad
from ..glm_jl import JLParams, choose_k, rebound_constants, run_jl
from ..privacy import PrivacyBudget
from ..recursive_reg import derive_rr_params, run_recursive_regularization
from ..spiderboost import OVERRIDES as SPIDER_OVERRIDES
from ..spiderboost import SpiderParams, derive_spider_params, run_spiderboost
from ..tree_spider import derive_tree_params, run_tree_spider
from ..util import PreconditionError, read_overrides
from .config import ExperimentConfig, build_loss
from .rng import stream, stream_seed
from .synthetic import FiniteSupportDistribution, gen_support, gen_synthetic

CSV_COLUMNS = ("algorithm", "n", "d", "eps", "delta", "seed", "grad_norm",
               "oracle_calls", "wall_ms", "param_hash", "status")


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def param_hash(params) -> str:
    """Stable digest of derived parameters, for artifact-level regression
    detection; a (JLParams, SpiderParams) pair as one dict, base fields `base_*`."""
    if isinstance(params, tuple):
        params = {**dataclasses.asdict(params[0]),
                  **{f"base_{f}": v for f, v in dataclasses.asdict(params[1]).items()}}
    d = dataclasses.asdict(params) if dataclasses.is_dataclass(params) else dict(params)
    canon = json.dumps({k: _fmt(v) for k, v in sorted(d.items())}, sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


@dataclasses.dataclass
class GridPoint:
    """One grid point, with its (seed_index, seed) pairs, as an entry sees it."""
    config: ExperimentConfig
    grid_index: int
    n: int
    d: int
    seeds: list[tuple[int, int]]
    loss: LossSpec
    budget: PrivacyBudget

    def rng(self, seed_index: int, purpose: str = "run") -> np.random.Generator:
        return stream(self.config.master_seed, purpose, self.grid_index, seed_index)


def grid_point(config: ExperimentConfig, grid_index: int, n: int, d: int, eps: float,
               seeds: list[tuple[int, int]]) -> GridPoint:
    """The GridPoint that run_single runs, and that config load derives."""
    return GridPoint(config, grid_index, n, d, seeds, build_loss(config.loss, d),
                     PrivacyBudget(eps, config.delta, config.accountant_c))


def _generator_args(data: dict) -> dict:
    """The data block's keyword arguments to gen_synthetic and gen_support."""
    return {key: data[key] for key in ("kind", "rank", "B", "label_scale", "spectrum_decay")}


def _gen_dataset(p: GridPoint, seed_index: int) -> Dataset:
    seed = stream_seed(p.config.master_seed, "data", p.grid_index, seed_index)
    return gen_synthetic(n=p.n, d=p.d, seed=seed, **_generator_args(p.config.data))


def _gen_population(config: ExperimentConfig, d: int) -> FiniteSupportDistribution:
    # the population is shared across n and seeds: keyed by d only
    seed = stream_seed(config.master_seed, "support", d)
    return gen_support(m=config.data["support_size"], d=d, seed=seed,
                       **_generator_args(config.data))


def _failed(exc: Exception) -> str:
    """The status of a row whose run raised exc."""
    if isinstance(exc, PreconditionError):
        return f"precondition: {exc}"
    return f"error: {type(exc).__name__}: {exc}"


# An entry of ALGORITHMS is a pair: derive(point) gives a GridPoint's parameters
# before any data exists, and run(point, params) runs all its seeds as one job,
# giving per seed (w_out, exact gradient, oracle calls, noise ledger, report
# extras), or the exception of a seed that failed alone. Both reach optimizers,
# derivations, data generators and erm_grad through this module's globals.
# Config load calls derive at every grid point: it raises PreconditionError
# for a failed sample-size hypothesis, and any other exception for a config
# that it rejects, checking the algorithm's own needs of the loss first.

def _spiderboost_derive(p: GridPoint):
    return derive_spider_params(p.n, p.d, p.loss.L0, p.loss.L1, p.loss.F0_hint, p.budget,
                                p.config.overrides)


def _spiderboost_run(p: GridPoint, params) -> list:
    # one seed's dataset at a time, into one block that the lockstep group
    # samples from
    data = Runs.pack(len(p.seeds), (_gen_dataset(p, s) for s, _ in p.seeds))
    reps = run_spiderboost(p.loss, data, params, [p.rng(s) for s, _ in p.seeds])
    return [(rep.w_out, erm_grad(p.loss, rep.w_out, S), rep.oracle_calls, rep.noise_ledger,
             {"selected_index": rep.selected_index, "trace_steps": rep.trace_steps,
              "grad_norm_trace": rep.grad_norm_trace})
            for rep, S in zip(reps, data)]


def _population(p: GridPoint, run) -> list:
    """A population algorithm's outputs: each seed draws its own sample, and
    one that fails the loss's dataset check (a support row above the norm
    bound) fails alone. `run(samples, rngs)` runs the others in lockstep and
    gives (w_out, oracle calls, noise ledger, report extras) per run. Each
    sample owns its fresh generator and draws its indices as they are read,
    so a run that stops early skips the rest."""
    dist = _gen_population(p.config, p.d)
    samples = [dist.sample_on_read(p.n, p.rng(s, "sample")) for s, _ in p.seeds]
    outs, live = [None] * len(p.seeds), []
    for i, S in enumerate(samples):
        try:
            p.loss.validate_dataset(S)
            live.append(i)
        except ValueError as exc:
            outs[i] = exc
    if live:
        runs = run([samples[i] for i in live], [p.rng(p.seeds[i][0]) for i in live])
        for i, (w_out, calls, ledger, extras) in zip(live, runs):
            outs[i] = (w_out, dist.population_grad(p.loss, w_out), calls, ledger, extras)
    return outs


def _tree_spider_derive(p: GridPoint):
    return derive_tree_params(p.n, p.d, p.loss.L0, p.loss.L1, p.loss.F0_hint, p.budget, 0.1,
                              p.config.overrides)


def _tree_spider_run(p: GridPoint, params) -> list:
    return _population(p, lambda samples, rngs: [
        (rep.w_out, rep.oracle_calls, rep.noise_ledger,
         {"stopped_early": rep.stopped_early,
          "stop_address": (None if rep.stop_address is None else
                           [rep.stop_address.t, rep.stop_address.s]),
          "samples_consumed": rep.samples_consumed,
          "leaf_count_visited": rep.leaf_count_visited,
          "leaves_per_round": rep.leaves_per_round,
          "rounds_completed": rep.rounds_completed})
        for rep in run_tree_spider(p.loss, list(map(DatasetCursor, samples)), params, rngs)])


def _recursive_reg_derive(p: GridPoint):
    if not p.loss.convex:
        raise ValueError(f"the loss must be convex, got {p.config.loss['kind']}")
    rr = p.config.rr
    return derive_rr_params(rr["mode"], p.n, p.d, p.loss.L0, p.loss.L1, rr["R_bar"],
                            p.budget, p.config.overrides)


def _recursive_reg_run(p: GridPoint, params) -> list:
    # n oracle calls: a single pass over disjoint slices
    return _population(p, lambda samples, rngs: [
        (rep.w_out, p.n, rep.noise_ledger,
         {"rounds": rep.rounds, "t1_edge": rep.t1_edge, "kt_capped": rep.kt_capped})
        for rep in run_recursive_regularization(samples, p.loss, params,
                                                p.config.rr["subroutine"], rngs)])


# JL's overrides: k, and those of its base run that SpiderBoost reads
JL_OVERRIDES = {"k": (int, 1), **{name: SPIDER_OVERRIDES[name]
                                  for name in ("eta", "q", "b1", "b2", "T")}}


def _jl_derive(p: GridPoint) -> tuple[JLParams, SpiderParams]:
    """k, and the base run's parameters at (n, k), rebound constants, delta/2."""
    ov, loss = read_overrides(p.config.overrides, JL_OVERRIDES, "jl"), p.loss
    if not isinstance(loss, GLMLoss):
        raise ValueError(f"the loss must be a GLM, got {p.config.loss['kind']}")
    base_ov = {name: value for name, value in ov.items() if name != "k"}
    rank = p.config.data["rank"] or p.d
    k = ov["k"] if "k" in ov else choose_k("spiderboost", p.n, rank, p.d, loss.L0_phi,
                                           loss.L1_phi, loss.normX, p.budget)
    params = JLParams(k=k, rank=rank, normX=loss.normX)
    params.validate(p.d)
    L0, L1 = rebound_constants(loss.L0_phi, loss.L1_phi, loss.normX)
    return params, derive_spider_params(p.n, k, L0, L1, loss.F0_hint, p.budget.halve_delta(),
                                        base_ov)


def _jl_seed(p: GridPoint, params: JLParams, base: SpiderParams, seed_index: int):
    """One JL seed; its dataset and report are dropped on return, before the
    next seed's data is generated. A seed whose run raises fails alone."""
    try:
        S = _gen_dataset(p, seed_index)
        rep = run_jl(lambda S_proj, loss_proj, rng: run_spiderboost(loss_proj, S_proj, base, rng),
                     p.loss, S, params, p.budget, p.rng(seed_index))
        base_rep = rep.base_report
        return (rep.w_out, erm_grad(p.loss, rep.w_out, S), base_rep.oracle_calls,
                base_rep.noise_ledger,
                {"k": rep.k, "rank": rep.rank, "matrix_seed": rep.matrix_seed,
                 "max_feature_norm_ratio": rep.max_feature_norm_ratio,
                 "clamped": rep.clamped, "base_eps": rep.base_eps,
                 "base_delta": rep.base_delta,
                 "base_selected_index": base_rep.selected_index,
                 "base_trace_steps": base_rep.trace_steps,
                 "base_grad_norm_trace": base_rep.grad_norm_trace})
    except Exception as exc:
        return exc


ALGORITHMS = {"spiderboost": (_spiderboost_derive, _spiderboost_run),
              "tree_spider": (_tree_spider_derive, _tree_spider_run),
              "recursive_reg": (_recursive_reg_derive, _recursive_reg_run),
              "jl_spiderboost": (_jl_derive, lambda p, params: [
                  _jl_seed(p, *params, s) for s, _ in p.seeds])}


def run_single(config: ExperimentConfig, grid_index: int, n: int, d: int,
               eps: float, seeds: list[tuple[int, int]]) -> list[tuple[dict, dict | None]]:
    """One grid point for the given (seed_index, seed) pairs, run as one job
    by the algorithm's entry in ALGORITHMS: one (row, report) per seed, in
    order, each seed on its own data or sample and its own generator.

    A failed sample-size hypothesis tags every row `precondition:`, any other
    exception `error:`, bar a seed that the run fails alone (a population
    sample that fails the loss's dataset check, a JL run that raises). A
    returned point, exact gradient norm or entry of the exact gradient-norm
    trace (for JL, its base run's) that is not finite is `diverged`. Under
    `timing`, each row gets the call's wall time over the number of seeds.
    """
    rows = [{"algorithm": config.algorithm, "n": n, "d": d, "eps": eps,
             "delta": config.delta, "seed": seed, "grad_norm": float("nan"),
             "oracle_calls": 0, "wall_ms": 0.0, "param_hash": "", "status": "ok"}
            for _, seed in seeds]
    docs: list[dict | None] = [None] * len(seeds)
    point = grid_point(config, grid_index, n, d, eps, seeds)
    derive, run = ALGORITHMS[config.algorithm]
    t0 = time.perf_counter()
    try:
        params = derive(point)
        for row in rows:
            row["param_hash"] = param_hash(params)
        for i, (row, out) in enumerate(zip(rows, run(point, params))):
            if isinstance(out, Exception):
                row["status"] = _failed(out)
                continue
            w_out, g, oracle_calls, ledger, extras = out
            row["grad_norm"] = float(np.linalg.norm(g))
            row["oracle_calls"] = oracle_calls
            traces = (extras.get(k, ()) for k in ("grad_norm_trace", "base_grad_norm_trace"))
            if not (math.isfinite(row["grad_norm"]) and np.isfinite(w_out).all()
                    and all(np.isfinite(t).all() for t in traces)):
                row["status"] = "diverged"
            if config.write_reports:
                docs[i] = {**{c: row[c] for c in CSV_COLUMNS if c not in ("wall_ms", "status")},
                           **extras, "noise_ledger": ledger}
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
    row is kept. A process pool takes the jobs largest n first; rows are
    written in canonical order (grid index, then seed index) regardless of
    submission or completion order. The config is read again as `from_dict`
    reads it, so one built by hand meets every rule before any output exists.
    """
    config = ExperimentConfig.from_dict(config.to_dict())
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

    jobs = [(*point, list(enumerate(config.seeds))) for point in config.grid_points()]

    rows: dict[tuple[int, int], dict] = {}

    def keep(job, results):
        for (seed_index, _), (row, doc) in zip(job[4], results):
            rows[(job[0], seed_index)] = row
            if doc is not None:
                with open(rep_dir / f"run_g{job[0]}_s{seed_index}.json", "w",
                          encoding="utf-8") as fh:
                    fh.writelines(report_chunks(doc))

    if config.workers > 1:
        # largest n first (a stable sort): the pool's last jobs are its
        # shortest, so the workers finish close together
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            futs = {pool.submit(run_single, config, *job): job
                    for job in sorted(jobs, key=lambda job: -job[1])}
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


# a ledger entry is written as _ENTRY_HEAD % site, its sigma, then
# _ENTRY_TAIL % (dim, count)
_ENTRY_HEAD = '\n  {\n   "site": %s,\n   "sigma": '
_ENTRY_TAIL = ',\n   "dim": %d,\n   "count": %d\n  }'

# ledger entries per chunk of a written report
REPORT_CHUNK_ENTRIES = 2 ** 12


def _json_number(v) -> str:
    # json.dumps builds a whole encoder even for one float, several times the
    # cost of repr; a finite float encodes as its repr, anything else as before
    return repr(v) if type(v) is float and math.isfinite(v) else json.dumps(v)


def report_chunks(doc: dict) -> Iterator[str]:
    """The pieces of `report_json(doc)`, in order, so a report can be
    written without building it as one string.

    The noise ledger, a `NoiseLedger` that must be the report's last key,
    can hold 10^4 entries per run; they are filled into a fixed template
    instead of going through the pure-Python indenting encoder, straight
    from the ledger's columns. Consecutive entries with one site, dim and count differ only in
    sigma, so each such stretch is the join of its sigma reprs, in chunks of
    at most REPORT_CHUNK_ENTRIES entries.
    """
    keys = list(doc)
    if len(keys) < 2 or keys[-1] != "noise_ledger":
        raise ValueError("a report needs other keys before a last 'noise_ledger'")
    head = json.dumps({k: doc[k] for k in keys[:-1]}, indent=1)
    yield f'{head[:-2]},\n "noise_ledger": ['
    # a ledger names a handful of sites: encode each one once
    sites: dict[str, str] = {}
    sep = ""
    for (s, dd, c), stretch in groupby(doc["noise_ledger"].iter_rows(),
                                       key=itemgetter(0, 2, 3)):
        first = _ENTRY_HEAD % (sites.get(s) or sites.setdefault(s, json.dumps(s)))
        last = _ENTRY_TAIL % (dd, c)
        sigmas = map(_json_number, map(itemgetter(1), stretch))
        while chunk := list(islice(sigmas, REPORT_CHUNK_ENTRIES)):
            yield sep + first + (last + "," + first).join(chunk) + last
            sep = ","
    yield "\n ]\n}" if sep else "]\n}"


def report_json(doc: dict) -> str:
    """`json.dumps(doc, indent=1)`, byte for byte, for a run report whose
    `NoiseLedger` is written as the list of its entries' dicts (site,
    sigma, dim, count). The join of `report_chunks(doc)`."""
    return "".join(report_chunks(doc))


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    s = str(v)
    if "," in s:
        s = s.replace(",", ";")
    return s


def read_csv_rows(path: str | Path) -> list[dict]:
    """The rows of a CSV under its header line, as dicts keyed by column; a
    row whose field count differs from the header's raises ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split(",")
            if len(parts) != len(header):
                raise ValueError(f"{path}: line {lineno} has {len(parts)} fields, "
                                 f"the header has {len(header)}")
            rows.append(dict(zip(header, parts)))
    return rows
