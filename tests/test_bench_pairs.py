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
    # the change reads one more than the base in every pair: worse in
    # sweep_s by 67% of its base median, better in oracle_calls_per_s by
    # twice the base's interquartile range of 0.5
    sweep, calls = a["metrics"]["sweep_s"], a["metrics"]["oracle_calls_per_s"]
    assert (sweep["claim_met"], sweep["within_bound"]) == (False, False)
    assert (calls["wins"], calls["base_iqr"]) == (2, 0.5)
    assert (calls["claim_met"], calls["within_bound"]) == (True, True)
    assert runs[4:6] == [("base", "b", 5), ("change", "b", 5)]
    assert runs[6:8] == [("change", "b", 7), ("base", "b", 7)]


BASE = [10.0 + 0.1 * i for i in range(10)]  # median 10.45, quartiles 10.225 and 10.675


@pytest.mark.parametrize("ties,step,claim", [
    (0, 1.0, True),    # 10 of 10 pairs, 1.0 beyond an IQR of 0.45
    (1, 1.0, True),    # 9 of 10 pairs; the tie counts for neither side
    (2, 1.0, False),   # 8 of 10 pairs
    (0, 0.3, False),   # 10 of 10 pairs, but within the base's IQR
], ids=["all_pairs", "nine_pairs", "eight_pairs", "within_iqr"])
def test_claim_needs_nine_tenths_of_the_pairs_and_the_base_iqr(bench_pairs, ties, step,
                                                               claim):
    change = [x - step for x in BASE[:10 - ties]] + BASE[10 - ties:]
    got = bench_pairs.summarise(BASE, change, "lower", 0.25)
    assert got["wins"] == 10 - ties
    assert got["base_iqr"] == pytest.approx(0.45)
    assert got["claim_met"] is claim
    assert got["within_bound"] is True


@pytest.mark.parametrize("better,factor,within", [
    ("lower", 1.2, True), ("lower", 1.3, False),
    ("higher", 0.8, True), ("higher", 0.7, False), ("higher", 1.3, True),
])
def test_within_bound_compares_medians_to_the_relative_bound(bench_pairs, better, factor,
                                                             within):
    got = bench_pairs.summarise(BASE, [x * factor for x in BASE], better, 0.25)
    assert got["within_bound"] is within
    assert got["claim_met"] is (better == "higher" and factor > 1)


def test_existing_fields_keep_their_names(bench_pairs):
    got = bench_pairs.summarise(BASE, BASE, "lower", 0.1)
    assert set(got) == {"base", "change", "base_quartiles", "change_quartiles",
                        "median_diff", "base_iqr", "wins", "pairs", "claim_met",
                        "within_bound"}
    assert (got["wins"], got["median_diff"], got["claim_met"], got["within_bound"]) == (
        0, 0.0, False, True)


def test_host_info_records_the_blas_thread_variables(bench_pairs, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    host = bench_pairs.host_info()
    assert {var: host[var] for var in bench_pairs.THREAD_VARS} == {
        "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": None}
    assert {"python", "numpy", "blas", "nproc", "machine"} <= set(host)
    assert json.loads(json.dumps(host))["MKL_NUM_THREADS"] is None  # null in the file
