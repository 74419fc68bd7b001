"""The benchmark's workloads: dpopt sweep configs, built from a seed.

Each workload is one `dpopt run` sweep over an (n, seed) grid. The workload
seed becomes the config's `master_seed`, so one seed gives the same data,
noise and outputs on every run; the program sees only the generated config.
All workloads use eps = 1.0, delta = 1e-6 and sweep seeds 0-4.
"""
from __future__ import annotations

from dataclasses import dataclass

DATA = {"kind": "glm_fullrank", "label_scale": 0.7, "spectrum_decay": 0.5}


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    # span names that must be non-zero in a traced run: a refactor that
    # moves a call away from its wrapped boundary must fail loudly, not
    # silently zero the layer
    heavy: tuple[str, ...]

    def make_config(self, seed: int, out: str) -> dict:
        return {**self.config, "grid": dict(self.config["grid"]), "delta": 1e-6,
                "seeds": [0, 1, 2, 3, 4], "master_seed": int(seed), "out": out}


WORKLOADS = {w.name: w for w in (
    # The ROADMAP's headline sweep (configs/spiderboost_scaling.json as
    # checked in), one process: ~157k interpreter-bound steps (~31k per
    # seed) on small batches, one noise draw per step, 200 full-n trace
    # gradients per run and ~15 MB of JSON ledgers.
    Workload(
        "spiderboost_sweep",
        {"algorithm": "spiderboost",
         "grid": {"n": [1024, 2048, 4096, 8192, 16384], "d": [16], "eps": [1.0]},
         "loss": {"kind": "synthetic_nonconvex"}, "data": DATA, "workers": 1},
        heavy=("core.grad_mean", "core.erm_grad", "privacy.draw",
               "privacy.ledger", "spiderboost.run", "spiderboost.batch",
               "harness.derive", "harness.gen_data", "harness.row")),
    # The only workload reaching glm_jl (choose_k, jl_matrix, the n x 256 x k
    # projection, the lift); SpiderBoost runs at k = 92-95 instead of 16, with
    # d = 256 data generation and final erm_grad. Loss and data as in
    # acceptance criterion 12c.
    Workload(
        "jl_lowrank_sweep",
        {"algorithm": "jl_spiderboost",
         "grid": {"n": [4096, 8192], "d": [256], "eps": [1.0]},
         "loss": {"kind": "synthetic_nonconvex"},
         "data": {**DATA, "kind": "glm_lowrank", "rank": 4}, "workers": 1},
        heavy=("core.grad_mean", "core.erm_grad", "privacy.draw",
               "spiderboost.run", "spiderboost.batch", "glm_jl.run",
               "glm_jl.choose_k", "glm_jl.matrix", "harness.gen_data")),
    # recursive_reg on the default path (linear_time, phased_sgd): one
    # single-sample GLMLoss.grad per SGD step instead of batch means, plus
    # project_ball, the iterate-list selector and slice copies; almost no
    # noise draws.
    Workload(
        "convex_rr_sweep",
        {"algorithm": "recursive_reg",
         "grid": {"n": [4096, 16384, 65536], "d": [16], "eps": [1.0]},
         "loss": {"kind": "glm_tanh"},
         "data": {**DATA, "support_size": 256}, "workers": 1},
        heavy=("core.grad", "core.data", "recursive_reg.run",
               "recursive_reg.project", "recursive_reg.selector",
               "harness.gen_data", "harness.measure")),
    # configs/tree_scaling.json's setup at n = 2^16..2^20 on two workers:
    # large batches (up to ~1e4 rows per grad_mean), 2^20-row samples and
    # slices, and the only workload using the harness process pool.
    Workload(
        "tree_stream_sweep",
        {"algorithm": "tree_spider",
         "grid": {"n": [2 ** 16, 2 ** 17, 2 ** 18, 2 ** 19, 2 ** 20], "d": [16],
                  "eps": [1.0]},
         "loss": {"kind": "synthetic_nonconvex"},
         "data": {**DATA, "support_size": 256},
         "overrides": {"C_tilde": 2.0}, "workers": 2},
        heavy=("core.grad_mean", "core.data", "privacy.draw",
               "privacy.ledger", "tree_spider.run", "harness.gen_data",
               "harness.measure", "harness.row")),
)}
