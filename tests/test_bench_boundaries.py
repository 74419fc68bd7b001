"""The benchmark's layer boundaries exist, so a rename fails here, not only
when the benchmark runs.

`perfbench/spans.py` wraps named functions and methods of dpopt and reads
fields of their results; `perfbench/gate.py` imports public names. A child
interpreter installs the spans (which patch dpopt in place), imports the
gate, runs every workload's sweep shrunk to one small n and two seeds, and
checks each sweep with the gate and its heavy layers for recorded spans.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = r"""
import json, sys
from pathlib import Path
root, tmp = Path(sys.argv[1]), Path(sys.argv[2])
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
import spans
tracer = spans.Tracer(tmp / "spans")
run_experiment = spans.install(tracer)
import gate
from workloads import WORKLOADS
from dpopt.harness.config import ExperimentConfig

SMALL_N = {"spiderboost_sweep": 512, "jl_lowrank_sweep": 1024,
           "convex_rr_sweep": 1024, "tree_stream_sweep": 4096}
out = {}
for name, w in WORKLOADS.items():
    raw = w.make_config(0, str(tmp / name))
    raw.update(grid={**raw["grid"], "n": [SMALL_N[name]]}, seeds=[0, 1], workers=1)
    config = ExperimentConfig.from_dict(raw)
    tracer.reset()
    run_experiment(config)
    summary = tracer.summary()
    out[name] = {"problems": gate.check_sweep(config, Path(config.out)),
                 "idle": [n for n in w.heavy
                          if not summary["layers"].get(n, {}).get("calls")],
                 "counters": summary["counters"]}
print(json.dumps(out))
"""


def test_spans_install_and_gate_on_every_workload(tmp_path):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", CHILD, str(ROOT), str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    for name, got in result.items():
        assert got["problems"] == [[], []], name
        assert got["idle"] == [], name
    tree = result["tree_stream_sweep"]["counters"]
    assert tree["tree_spider.leaves"] > 0 and tree["tree_spider.samples"] > 0
