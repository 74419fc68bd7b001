"""scripts/bench_pairs.py: its argument checks and the labels it writes."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_pairs.py"


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_seed_is_rejected_before_any_run(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run([sys.executable, str(SCRIPT), "--base", str(tmp_path),
                           "--change", str(ROOT), "--workload", "w",
                           "--seeds", "301", "--out", str(out)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "at least 2" in proc.stderr
    assert not out.exists()


def test_one_tree_on_both_sides_is_rejected_before_any_run(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run([sys.executable, str(SCRIPT), "--base", str(ROOT / "scripts" / ".."),
                           "--change", str(ROOT), "--workload", "w",
                           "--seeds", "301-302", "--out", str(out)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "same tree" in proc.stderr
    assert not out.exists()


def test_each_workload_keeps_its_own_labels(bench_pairs, tmp_path, monkeypatch):
    names = [m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]]
    runs = []

    def fake_run(tree, workload, seed, seconds):
        runs.append((tree.name, workload, seed))
        return {name: float(seed) + (tree.name == "change") for name in names}

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    monkeypatch.setattr(bench_pairs, "describe", lambda tree: f"{tree.name}@{len(runs)}")
    monkeypatch.setattr(bench_pairs, "host_info", lambda: {"nproc": len(runs)})
    out = tmp_path / "bench.json"
    for workload, seeds in (("a", "1-2"), ("b", "5,7,9")):
        (tmp_path / "change").mkdir(exist_ok=True)
        (tmp_path / "change" / "BENCHMARK.json").write_text(
            (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"), encoding="utf-8")
        monkeypatch.setattr(sys, "argv", [
            "bench_pairs.py", "--base", str(tmp_path / "base"),
            "--change", str(tmp_path / "change"), "--workload", workload,
            "--seeds", seeds, "--out", str(out)])
        assert bench_pairs.main() == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert set(doc) == {"workloads"}
    a, b = doc["workloads"]["a"], doc["workloads"]["b"]
    assert (a["base"], a["change"], a["host"]) == ("base@0", "change@0", {"nproc": 0})
    assert (b["base"], b["change"], b["host"]) == ("base@4", "change@4", {"nproc": 4})
    assert a["seeds"] == [1, 2] and a["first"] == ["base", "change"]
    assert b["metrics"]["sweep_s"]["pairs"] == 3
    assert runs[4:6] == [("base", "b", 5), ("change", "b", 5)]
    assert runs[6:8] == [("change", "b", 7), ("base", "b", 7)]
