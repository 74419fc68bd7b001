"""Alternating benchmark pairs of two source trees, written to a BENCH file.

    python3 scripts/bench_pairs.py --base TREE --change TREE --workload W \
        --seeds 301-310 [--seconds 20] --out BENCH_tag.json

For each seed, runs `perfbench/run.py --workload W --seed S --seconds N
--trace 0` once in each tree, in fresh processes, the base first on even
pair indices and the change first on odd ones, so drift on a shared host
falls on both sides. Each end-to-end metric of BENCHMARK.json gets both
sides' values, medians and quartiles, the median difference, the base's
interquartile range and the number of pairs the change won (strictly
better in the metric's direction). Two verdicts go with them: `claim_met`,
a gain may be claimed (the change won at least nine tenths of the pairs
and its median is better than the base's by more than the base's
interquartile range), and `within_bound`, the change's median is no worse
than the base's by more than the metric's relative bound in
BENCHMARK.json. Each workload's entry also records the
two trees' `git describe`, the command and the host's Python, numpy, BLAS
and CPU count, so an existing output file keeps its other workloads with
their own labels. The host entry also holds the caller's BLAS thread
variables (null when unset): they decide the last bits of some outputs,
though perfbench/run.py pins one thread in its own runs. At least two
seeds are needed for quartiles; fewer are rejected before any run, as is a
--base that resolves to the --change directory. Standard library only; numpy is queried in a child process.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NUMPY_PROBE = ("import json, numpy; c = numpy.show_config(mode='dicts'); "
               "b = c['Build Dependencies']['blas']; "
               "print(json.dumps([numpy.__version__, b.get('name'), b.get('version')]))")


def parse_seeds(text: str) -> list[int]:
    """'301-305,311' -> [301, 302, 303, 304, 305, 311]."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in `tree`; its metrics, or SystemExit on failure."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} in {tree} failed ({proc.returncode}):\n"
                 f"{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        sys.exit(f"{workload} seed {seed} in {tree}: the gate failed a row")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarise(base: list[float], change: list[float], better: str,
              bound: float) -> dict:
    def quartiles(v):
        q1, q2, q3 = statistics.quantiles(v, n=4, method="inclusive")
        return {"median": q2, "q1": q1, "q3": q3}
    sign = -1.0 if better == "lower" else 1.0
    b, c = quartiles(base), quartiles(change)
    gain = sign * (c["median"] - b["median"])  # > 0: the change is better
    base_iqr = b["q3"] - b["q1"]
    wins = sum(sign * (y - x) > 0 for x, y in zip(base, change))
    return {"base": base, "change": change,
            "base_quartiles": b, "change_quartiles": c,
            "median_diff": c["median"] - b["median"],
            "base_iqr": base_iqr,
            "wins": wins,
            "pairs": len(base),
            "claim_met": 10 * wins >= 9 * len(base) and gain > base_iqr,
            "within_bound": -gain <= bound * abs(b["median"])}


def host_info() -> dict:
    probe = subprocess.run([sys.executable, "-c", NUMPY_PROBE],
                           capture_output=True, text=True, check=True)
    numpy_version, blas, blas_version = json.loads(probe.stdout)
    return {"python": platform.python_version(), "numpy": numpy_version,
            "blas": f"{blas} {blas_version}",
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            **{var: os.environ.get(var) for var in THREAD_VARS}}


def describe(tree: Path) -> str:
    proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=tree,
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=parse_seeds, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    if len(args.seeds) < 2:
        ap.error(f"--seeds needs at least 2 values for quartiles, got {args.seeds}")
    if args.base.resolve() == args.change.resolve():
        ap.error(f"--base and --change are the same tree: {args.base.resolve()}")
    declared = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: (m["better"], m["bound"]) for m in declared["end_to_end"]}

    doc = (json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists()
           else {"workloads": {}})
    labels = {"base": describe(args.base), "change": describe(args.change),
              "host": host_info(), "command": "perfbench/run.py --trace 0",
              "seconds": args.seconds}
    for workload in args.workload:
        runs: dict[str, list[dict]] = {"base": [], "change": []}
        order = []
        for i, seed in enumerate(args.seeds):
            sides = ("base", "change") if i % 2 == 0 else ("change", "base")
            order.append(sides[0])
            for side in sides:
                t0 = time.monotonic()
                runs[side].append(run_bench(getattr(args, side), workload, seed,
                                            args.seconds))
                print(f"{workload} seed {seed} {side}: "
                      f"{json.dumps(runs[side][-1])} ({time.monotonic() - t0:.0f} s)",
                      flush=True)
        doc["workloads"][workload] = {
            **labels, "seeds": args.seeds, "first": order,
            "metrics": {name: summarise([r[name] for r in runs["base"]],
                                        [r[name] for r in runs["change"]], better, bound)
                        for name, (better, bound) in metrics.items()}}
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
