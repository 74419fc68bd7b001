"""One sweep in a fresh interpreter: the unit that run.py times.

    python3 perfbench/child.py CONFIG RESULT [setup|sweep|trace]

Imports dpopt from the checkout's src/, loads the generated config, stamps
the monotonic clock on entry to run_experiment (the end of set-up), runs the
sweep and writes the timestamps, peak RSS and, when tracing, the span
summary to RESULT as JSON. `setup` stops at the entry stamp and times the
calibration kernel of pace.py; `sweep` samples the host's speed with it while
rows run and adds the sweep time in reference seconds.
"""
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import dpopt  # noqa: E402
from dpopt.harness import experiment  # noqa: E402
from dpopt.harness.config import ExperimentConfig  # noqa: E402

import pace  # noqa: E402


def main() -> None:
    config_path, result_path, mode = sys.argv[1], Path(sys.argv[2]), sys.argv[3]
    if Path(dpopt.__file__).resolve().parent != ROOT / "src" / "dpopt":
        sys.exit(f"imported dpopt from {dpopt.__file__}, not from {ROOT / 'src'}")
    config = ExperimentConfig.from_file(config_path)
    run_experiment = experiment.run_experiment
    tracer = pace_dir = None
    if mode == "sweep":
        pace_dir = result_path.with_name(result_path.name + ".pace")
        pace_dir.mkdir()
        pace.install(experiment, pace_dir)
    elif mode == "trace":
        import spans
        tracer = spans.Tracer(result_path.with_name(result_path.name + ".spans"))
        tracer.flush_dir.mkdir()
        run_experiment = spans.install(tracer)
    result = {"entry_ns": time.monotonic_ns()}
    if mode == "setup":
        # the host's speed on this process's core right after set-up; the
        # parent's core may run at another speed
        result["kernel_s"] = pace.kernel_s()
    else:
        run_experiment(config)
        result["exit_ns"] = time.monotonic_ns()
        result["maxrss_kb"] = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if pace_dir is not None:
        result["pace"] = pace.summarise(pace_dir, result["exit_ns"] - result["entry_ns"],
                                        config.workers)
    if tracer is not None:
        result["main"] = tracer.summary()
        result["workers"] = spans.merge(spans.read_worker_summaries(tracer.flush_dir))
    result_path.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
