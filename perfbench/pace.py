"""Host-speed calibration: sweep times in reference seconds.

On a shared host the same sweep runs up to 40% slower, for tens of seconds at
a time, while neighbours load the cores; steal time stays near zero, so the
cores themselves run slower and CPU time drifts with wall time. No amount of
repetition inside one run steadies such a wall time. So while a sweep row
runs, an interval timer interrupts it every PERIOD_S and runs a fixed
calibration kernel, which calls nothing from dpopt and touches none of its
state. The kernels' own time is taken out of the sweep's wall time, and the
rest is rescaled by their mean duration:

    ref_s = (wall_s - kernels_s / workers) * REF_KERNEL_S / mean_kernel_s

Kernel samples are spread evenly in time over the rows, so their mean is the
host's slowdown averaged the way the sweep felt it. Over 60 repeats of a
SpiderBoost row at n = 16384 on a 2-vCPU Xeon VM, kernel and row times
correlated at 0.97, and rescaling took the rows' quartile spread from 30% of
their median to 6%. The mean, not the median, of the kernel times is used,
because the sweep's time is their sum too.

Each process that runs rows (the sweep's own, or a forked pool worker)
appends `[row_ns, [kernel_ns, ...]]` per row to `<log_dir>/<pid>.jsonl`.
"""
from __future__ import annotations

import functools
import json
import os
import signal
import statistics
import time
from pathlib import Path

import numpy as np

PERIOD_S = 0.1
# The kernel's duration on a quiet 2-vCPU Xeon VM (Python 3.11, numpy 2.4,
# OpenBLAS 0.3). Only a scale: reference seconds read about as wall seconds
# there.
REF_KERNEL_S = 0.005

_rng = np.random.default_rng(20220602)
_SMALL = _rng.standard_normal((96, 16))
_MEDIUM = _rng.standard_normal((1024, 16))
_W0 = _rng.standard_normal(16) / 4.0


def kernel() -> int:
    """A fixed amount of work in dpopt's mix (interpreter loops, small-batch
    numpy reductions, one larger array pass) on a cache-sized working set;
    returns its duration in nanoseconds."""
    t0 = time.perf_counter_ns()
    w = _W0.copy()
    for _ in range(150):
        z = _SMALL @ w
        w -= 1e-3 * (np.tanh(z)[:, None] * _SMALL).mean(axis=0)
        s = 0
        for j in range(60):
            s += j * j % 7
    for _ in range(4):
        z = np.tanh(_MEDIUM @ w)
        w -= 1e-6 * (z[:, None] * _MEDIUM).mean(axis=0)
    return time.perf_counter_ns() - t0


def kernel_s(repeats: int = 5) -> float:
    """Median kernel time in seconds, for timing outside the sampled rows."""
    return statistics.median(kernel() for _ in range(repeats)) / 1e9


def install(experiment, log_dir: Path) -> None:
    """Wrap `experiment.run_single` so that kernels sample the host's speed
    while rows run. The timer runs only inside rows, and each row resumes
    the countdown the last one left, so a tick falls every PERIOD_S of row
    time however short the rows are."""
    orig = experiment.run_single
    samples: list[int] = []
    state = {"pid": None, "left": PERIOD_S}

    def on_alarm(signum, frame):
        samples.append(kernel())

    @functools.wraps(orig)
    def paced(*args, **kwargs):
        if state["pid"] != os.getpid():
            # first row in this process (a forked pool worker included)
            state["pid"], state["left"] = os.getpid(), PERIOD_S
            signal.signal(signal.SIGALRM, on_alarm)
        samples.clear()
        t0 = time.perf_counter_ns()
        signal.setitimer(signal.ITIMER_REAL, state["left"], PERIOD_S)
        try:
            out = orig(*args, **kwargs)
        finally:
            left, _ = signal.setitimer(signal.ITIMER_REAL, 0.0)
            state["left"] = left or PERIOD_S
        row_ns = time.perf_counter_ns() - t0
        with open(Path(log_dir) / f"{os.getpid()}.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps([row_ns, list(samples)]) + "\n")
        return out

    # pool.submit pickles run_single by its qualified name, which the wrapper
    # keeps; forked workers inherit the wrapped module attribute
    experiment.run_single = paced


def summarise(log_dir: Path, wall_ns: int, workers: int) -> dict:
    """The sweep's wall time with the kernels taken out, and in reference
    seconds."""
    kernels = []
    for path in sorted(Path(log_dir).glob("*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            kernels += json.loads(line)[1]
    if not kernels:
        raise RuntimeError(f"no calibration samples in {log_dir}")
    mean_s = sum(kernels) / len(kernels) / 1e9
    sweep_s = (wall_ns - sum(kernels) / workers) / 1e9
    return {"sweep_s": sweep_s, "kernels": len(kernels), "kernel_s": mean_s,
            "ref_s": sweep_s * REF_KERNEL_S / mean_s}
