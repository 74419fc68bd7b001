"""scripts/compare_outputs.py: its argument checks and its report of a
difference between two output directories."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "compare_outputs.py"


@pytest.fixture
def compare_outputs():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_outputs(root: Path, sigma: str = "0.25") -> Path:
    (root / "reports").mkdir(parents=True)
    (root / "runs.csv").write_text("algorithm,n,grad_norm\nspiderboost,64,0.5\n",
                                   encoding="utf-8")
    report = ('{\n "seed": 3,\n "noise_ledger": [\n  {\n   "site": "spider-gv",\n'
              f'   "sigma": {sigma},\n   "count": 1\n  }}\n ]\n}}\n')
    json.loads(report)
    (root / "reports" / "run_g0_s0.json").write_text(report, encoding="utf-8")
    return root


def test_one_tree_on_both_sides_is_rejected_before_any_run():
    proc = subprocess.run([sys.executable, str(SCRIPT), "--base", str(ROOT / "scripts" / ".."),
                           "--change", str(ROOT), "--workload", "spiderboost_sweep",
                           "--seeds", "101"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "same tree" in proc.stderr
    assert proc.stdout == ""


def test_workload_configs_come_from_perfbench(compare_outputs, tmp_path):
    workloads = compare_outputs.load_workloads(ROOT)
    config = workloads["spiderboost_sweep"].make_config(101, "")
    assert config["master_seed"] == 101 and config["algorithm"] == "spiderboost"


def test_a_workload_list_gives_each_workload_at_each_seed(compare_outputs):
    workloads = compare_outputs.load_workloads(ROOT)
    cases = compare_outputs.workload_cases(
        workloads, ["jl_lowrank_sweep", "spiderboost_sweep"], [101, 107])
    assert list(cases) == ["jl_lowrank_sweep_101", "jl_lowrank_sweep_107",
                           "spiderboost_sweep_101", "spiderboost_sweep_107"]
    assert [(c["algorithm"], c["master_seed"]) for c in cases.values()] == [
        ("jl_spiderboost", 101), ("jl_spiderboost", 107),
        ("spiderboost", 101), ("spiderboost", 107)]


def test_an_unknown_name_in_a_list_is_rejected_before_any_run(tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPT), "--base", str(tmp_path),
                           "--change", str(ROOT), "--workload",
                           "spiderboost_sweep,jl_sweep", "--seeds", "101"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "unknown workload 'jl_sweep'" in proc.stderr
    assert proc.stdout == ""


def test_identical_directories_pass(compare_outputs, tmp_path):
    a, b = write_outputs(tmp_path / "a"), write_outputs(tmp_path / "b")
    assert compare_outputs.compare_dirs(a, b) == []


def test_one_byte_is_reported_with_its_key(compare_outputs, tmp_path):
    a = write_outputs(tmp_path / "a")
    b = write_outputs(tmp_path / "b", sigma="0.26")
    problems = compare_outputs.compare_dirs(a, b)
    assert len(problems) == 1
    assert problems[0].startswith("reports/run_g0_s0.json: ")
    assert "first difference at noise_ledger[0].sigma" in problems[0]
    assert "largest relative difference 0.0385" in problems[0]
    assert problems[0].endswith("keys whose values differ: noise_ledger[*].sigma")


def test_csv_cell_and_missing_file_are_reported(compare_outputs, tmp_path):
    a, b = write_outputs(tmp_path / "a"), write_outputs(tmp_path / "b")
    (b / "runs.csv").write_text("algorithm,n,grad_norm\nspiderboost,64,0.4\n",
                                encoding="utf-8")
    (a / "reports" / "run_g0_s1.json").write_text("{}\n", encoding="utf-8")
    problems = compare_outputs.compare_dirs(a, b)
    assert problems == [
        "reports/run_g0_s1.json: only in base",
        "runs.csv: first difference at [0].grad_norm; "
        "largest relative difference 0.2 at [0].grad_norm; "
        "keys whose values differ: [*].grad_norm"]


def test_a_config_list_gives_each_config_file(compare_outputs):
    paths = [ROOT / "configs" / "spiderboost_scaling.json",
             ROOT / "configs" / "tree_scaling.json"]
    cases = compare_outputs.config_cases(paths)
    assert list(cases) == ["spiderboost_scaling", "tree_scaling"]
    assert [c["algorithm"] for c in cases.values()] == ["spiderboost", "tree_spider"]


def test_config_files_with_one_name_are_rejected_before_any_run(tmp_path):
    config = str(ROOT / "configs" / "tree_scaling.json")
    proc = subprocess.run([sys.executable, str(SCRIPT), "--base", str(tmp_path),
                           "--change", str(ROOT), "--config", f"{config},{config}"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "distinct names" in proc.stderr
    assert proc.stdout == ""
