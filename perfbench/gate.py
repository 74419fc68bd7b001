"""Correctness gate for one sweep's outputs.

Every row must be `ok` with a finite exact gradient norm, and its JSON
report's noise ledger must hold only the algorithm's sites, at the noise
scales re-derived through dpopt's public `derive_*` functions. Returns one
list of problems per row, in CSV order.
"""
from __future__ import annotations

import json
import math
import re
from pathlib import Path

from dpopt.glm_jl import choose_k
from dpopt.harness.config import ExperimentConfig, build_loss
from dpopt.harness.experiment import param_hash, read_csv_rows
from dpopt.privacy import PrivacyBudget
from dpopt.recursive_reg import derive_rr_params
from dpopt.spiderboost import (SITE_GRAD, SITE_GV, derive_spider_params,
                               spider_oracle_count)
from dpopt.tree_spider import SITE_DELTA, SITE_ROOT, derive_tree_params

PHASED_SITE = re.compile(r"phased-t(\d+)-k(\d+)")


def jobs(config: ExperimentConfig) -> list[tuple[int, int, int, float, int]]:
    """(grid_index, n, d, eps, seed_index) in the CSV's row order."""
    return [(g, n, d, eps, s) for g, n, d, eps in config.grid_points()
            for s in range(len(config.seeds))]


def report_path(out_dir: Path, job) -> Path:
    return out_dir / "reports" / f"run_g{job[0]}_s{job[4]}.json"


def check_sweep(config: ExperimentConfig, out_dir: Path) -> list[list[str]]:
    rows = read_csv_rows(out_dir / "runs.csv")
    problems = []
    for job, row in zip(jobs(config), rows):
        path = report_path(out_dir, job)
        doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else None
        problems.append(_check_row(config, job, row, doc))
    problems += [["row missing from runs.csv"]] * (len(jobs(config)) - len(rows))
    return problems


def _check_row(config, job, row, doc) -> list[str]:
    _, n, d, eps, s = job
    if (int(row["n"]), int(row["seed"])) != (n, config.seeds[s]):
        return [f"row order: got n={row['n']} seed={row['seed']}"]
    if row["status"] != "ok":
        return [f"status {row['status']!r}"]
    grad_norm = float(row["grad_norm"])
    if not math.isfinite(grad_norm):
        return [f"grad_norm {row['grad_norm']}"]
    if doc is None:
        return ["no JSON report"]
    if doc["grad_norm"] != grad_norm or doc["oracle_calls"] != int(row["oracle_calls"]):
        return ["report disagrees with runs.csv"]
    loss = build_loss(config.loss, d)
    budget = PrivacyBudget(eps, config.delta, config.accountant_c)
    ledger = doc["noise_ledger"]
    out = []
    if config.algorithm == "spiderboost":
        p = derive_spider_params(n, d, loss.L0, loss.L1, loss.F0_hint, budget,
                                 config.overrides)
        out += _spider_ledger(ledger, p, d)
        if row["param_hash"] != param_hash(p):
            out.append("param_hash differs from the re-derived parameters")
        if doc["oracle_calls"] != spider_oracle_count(p):
            out.append(f"oracle_calls {doc['oracle_calls']} != {spider_oracle_count(p)}")
    elif config.algorithm == "jl_spiderboost":
        rank = config.data.get("rank") or d
        k = int(config.overrides.get("k", choose_k(
            "spiderboost", n, rank, d, loss.L0_phi, loss.L1_phi, loss.normX, budget)))
        if doc["k"] != k:
            return [f"k {doc['k']} != choose_k {k}"]
        base_ov = {key: v for key, v in config.overrides.items()
                   if key in ("eta", "q", "b1", "b2", "T")}
        p = derive_spider_params(n, k, 2.0 * loss.L0_phi * loss.normX,
                                 2.0 * loss.L1_phi * loss.normX ** 2, loss.F0_hint,
                                 budget.halve_delta(), base_ov)
        out += _spider_ledger(ledger, p, k)
        if doc["oracle_calls"] != spider_oracle_count(p):
            out.append(f"oracle_calls {doc['oracle_calls']} != {spider_oracle_count(p)}")
    elif config.algorithm == "tree_spider":
        ov = dict(config.overrides)
        p = derive_tree_params(n, d, loss.L0, loss.L1, loss.F0_hint, budget,
                               float(ov.pop("p", 0.1)), ov)
        want = {SITE_ROOT: p.sigma_root, SITE_DELTA: p.sigma_delta}
        out += [f"{e['site']} sigma {e['sigma']}" for e in ledger
                if want.get(e["site"]) != e["sigma"] or e["dim"] != d]
        if not doc["oracle_calls"] == doc["samples_consumed"] <= n:
            out.append(f"oracle_calls {doc['oracle_calls']} vs samples "
                       f"{doc['samples_consumed']} of n={n}")
    elif config.algorithm == "recursive_reg":
        rr = config.rr
        p = derive_rr_params(rr.get("mode", "linear_time"), n, d, loss.L0,
                             loss.L1, float(rr.get("R_bar", 1.0)), budget,
                             config.overrides)
        for e in ledger:
            m = PHASED_SITE.fullmatch(e["site"])
            t, k = (int(m[1]), int(m[2])) if m else (0, 0)
            if not (1 <= t < p.T and e["dim"] == d
                    and e["sigma"] == p.eta[t] * 4.0 ** (-k) * p.sigma[t]):
                out.append(f"{e['site']} sigma {e['sigma']}")
        if doc["oracle_calls"] != n:
            out.append(f"oracle_calls {doc['oracle_calls']} != n={n}")
    else:
        return [f"no gate for algorithm {config.algorithm!r}"]
    if not ledger:
        out.append("empty noise ledger")
    return list(dict.fromkeys(out))


def _spider_ledger(ledger, p, dim) -> list[str]:
    """spider-grad at sigma1, spider-gv within [0, sigma2_hat], one draw per step."""
    bad = [f"{e['site']} sigma {e['sigma']}" for e in ledger
           if e["dim"] != dim
           or not (e["site"] == SITE_GRAD and e["sigma"] == p.sigma1
                   or e["site"] == SITE_GV and 0.0 <= e["sigma"] <= p.sigma2_hat)]
    draws = sum(e["count"] for e in ledger)
    if draws != p.T:
        bad.append(f"{draws} noise draws for T={p.T} steps")
    return bad
