"""Spans around dpopt's layer boundaries, recorded from outside the program.

`install` replaces the public functions and methods of each layer with
wrappers that open a span (name, start, end, parent) and bump counters.
Modules bind names with `from ... import`, so a function is wrapped at every
module that calls it, not only where it is defined. Spans stay in memory as
flat arrays and are reduced to per-name totals and self times after the
sweep; forked pool workers, which exit without running atexit handlers,
reduce and append their spans to a file after every row.
"""
from __future__ import annotations

import functools
import json
import os
import time
from array import array
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self, flush_dir: Path):
        self.flush_dir = Path(flush_dir)
        self.owner_pid = os.getpid()
        self.names: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.code = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}

    def name_code(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, code: int) -> int:
        i = len(self.start)
        self.code.append(code)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self.stack.pop()

    def count(self, key: str, value: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(value)

    def summary(self) -> dict:
        """Per-name calls, total and self nanoseconds, and the counters."""
        selfs = self_times(self.start, self.end, self.parent)
        layers: dict[str, dict[str, int]] = {}
        for i, c in enumerate(self.code):
            agg = layers.setdefault(self.names[c],
                                    {"calls": 0, "total_ns": 0, "self_ns": 0})
            agg["calls"] += 1
            agg["total_ns"] += self.end[i] - self.start[i]
            agg["self_ns"] += selfs[i]
        return {"layers": layers, "counters": dict(self.counters)}

    def flush_row(self) -> None:
        """In a pool worker: append this row's summary to the worker's file."""
        with open(self.flush_dir / f"worker_{os.getpid()}.jsonl", "a",
                  encoding="utf-8") as fh:
            fh.write(json.dumps(self.summary()) + "\n")
        self.reset()


def self_times(start, end, parent) -> list[int]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span; children may overlap one another."""
    out = [e - s for s, e in zip(start, end)]
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered, cur_s, cur_e = 0, None, None
        for s, e in sorted((max(start[k], lo), min(end[k], hi)) for k in kids):
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


def merge(summaries: list[dict]) -> dict:
    total = {"layers": {}, "counters": {}}
    for summ in summaries:
        for name, agg in summ["layers"].items():
            dst = total["layers"].setdefault(name, {"calls": 0, "total_ns": 0,
                                                    "self_ns": 0})
            for k, v in agg.items():
                dst[k] += v
        for k, v in summ["counters"].items():
            total["counters"][k] = total["counters"].get(k, 0) + v
    return total


def read_worker_summaries(flush_dir: Path) -> list[dict]:
    out = []
    for path in sorted(Path(flush_dir).glob("worker_*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            out.extend(json.loads(line) for line in fh if line.strip())
    return out


def wrap(tracer: Tracer, owner, attr: str, name: str, hook=None) -> None:
    """Replace owner.attr by a span-recording wrapper; a missing attribute
    raises, so a renamed boundary aborts the traced run."""
    orig = getattr(owner, attr)
    if not callable(orig):
        raise TypeError(f"{owner!r}.{attr} is not callable")
    code = tracer.name_code(name)

    @functools.wraps(orig)
    def traced(*args, **kwargs):
        i = tracer.open(code)
        try:
            result = orig(*args, **kwargs)
        finally:
            tracer.close(i)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    setattr(owner, attr, traced)


def _wrap_row(tracer: Tracer, experiment) -> None:
    """run_single: in a pool worker, drop the state inherited at fork, make
    the row a root span, and flush the row's summary when it ends."""
    orig = experiment.run_single
    code = tracer.name_code("harness.row")

    @functools.wraps(orig)
    def traced(*args, **kwargs):
        worker = os.getpid() != tracer.owner_pid
        if worker:
            tracer.reset()
        i = tracer.open(code)
        try:
            return orig(*args, **kwargs)
        finally:
            tracer.close(i)
            if worker:
                tracer.flush_row()

    experiment.run_single = traced


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _rows(tracer, args, kwargs, result):
    X = _arg(args, kwargs, 2, "X")
    tracer.count("core.grad_mean.rows", X.shape[0])
    tracer.count("core.grad_mean.bytes", X.nbytes)


def _copied(tracer, args, kwargs, result):
    # a basic slice is a view of the parent; fancy indexing copies
    if not np.may_share_memory(result.X, args[0].X):
        tracer.count("core.data.rows_copied", result.n)


def _ledger(tracer, args, kwargs, result):
    if args[0].entries[-1].count == 1:
        tracer.count("privacy.ledger.entries", 1)


def _spider_steps(tracer, args, kwargs, result):
    tracer.count("spiderboost.steps", _arg(args, kwargs, 2, "params").T)


def _tree(tracer, args, kwargs, result):
    tracer.count("tree_spider.leaves", result.leaf_count_visited)
    tracer.count("tree_spider.samples", result.samples_consumed)


def _inner_steps(tracer, args, kwargs, result):
    tracer.count("recursive_reg.inner_steps", _arg(args, kwargs, 1, "S").n - 1)


def _iterates(tracer, args, kwargs, result):
    tracer.count("recursive_reg.selector.iterates", len(args[0]))


def _projected(tracer, args, kwargs, result):
    S = _arg(args, kwargs, 2, "S")
    tracer.count("glm_jl.projected_bytes", S.n * result.k * 8)


def _output_bytes(tracer, args, kwargs, result):
    out_dir = Path(result).parent
    tracer.count("harness.output.bytes",
                 sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file()))


def install(tracer: Tracer):
    """Wrap every layer boundary; returns the traced run_experiment."""
    from dpopt import glm_jl, privacy, recursive_reg, spiderboost, tree_spider
    from dpopt.core import data, loss
    from dpopt.harness import experiment, synthetic

    w = functools.partial(wrap, tracer)
    w(loss.GLMLoss, "grad_mean", "core.grad_mean", _rows)
    w(loss.GLMLoss, "grad", "core.grad")
    for mod in (spiderboost, experiment):
        w(mod, "erm_grad", "core.erm_grad")
    w(data.Dataset, "subset", "core.data", _copied)
    w(data.Dataset, "slice", "core.data", _copied)
    w(data.DatasetCursor, "take", "core.data")
    for mod in (spiderboost, tree_spider, recursive_reg):
        w(mod, "draw_gaussian", "privacy.draw")
    w(privacy.NoiseLedger, "record", "privacy.ledger", _ledger)
    w(experiment, "run_spiderboost", "spiderboost.run", _spider_steps)
    w(spiderboost, "_batch", "spiderboost.batch")
    w(experiment, "run_tree_spider", "tree_spider.run", _tree)
    w(experiment, "run_recursive_regularization", "recursive_reg.run")
    w(recursive_reg, "phased_sgd", "recursive_reg.run")
    w(recursive_reg, "output_perturbed_sgd", "recursive_reg.run", _inner_steps)
    w(recursive_reg, "project_ball", "recursive_reg.project")
    w(recursive_reg, "selector_weighted_avg", "recursive_reg.selector", _iterates)
    w(experiment, "run_jl", "glm_jl.run", _projected)
    w(experiment, "choose_k", "glm_jl.choose_k")
    w(glm_jl, "jl_matrix", "glm_jl.matrix")
    for fn in ("gen_synthetic", "gen_support"):
        w(experiment, fn, "harness.gen_data")
    w(synthetic.FiniteSupportDistribution, "sample", "harness.gen_data")
    w(synthetic.FiniteSupportDistribution, "population_grad", "harness.measure")
    for fn in ("derive_spider_params", "derive_tree_params", "derive_rr_params"):
        w(experiment, fn, "harness.derive")
    _wrap_row(tracer, experiment)
    w(experiment, "run_experiment", "harness.output", _output_bytes)
    return experiment.run_experiment


def selftest() -> None:
    """Self time on a hand-built tree whose children overlap."""
    #   0 [0, 100]                    root
    #   1 [10, 40]   2 [30, 60]       overlapping children of 0
    #   3 [50, 120]                   child of 0 running past its parent
    #   4 [12, 20]   5 [15, 25]       overlapping children of 1
    start = [0, 10, 30, 50, 12, 15]
    end = [100, 40, 60, 120, 20, 25]
    parent = [-1, 0, 0, 0, 1, 1]
    got = self_times(start, end, parent)
    want = [100 - 90, 30 - 13, 30, 70, 8, 10]
    if got != want:
        raise AssertionError(f"span self-time arithmetic: got {got}, want {want}")
