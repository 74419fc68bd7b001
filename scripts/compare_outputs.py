"""Check that two source trees write byte-identical sweep outputs.

    python3 scripts/compare_outputs.py --base TREE --change TREE \
        (--workload W[,W...] --seeds 101,107 | --config configs/X.json[,...])

Runs each sweep (each listed workload at each seed) once in each tree, in
a fresh interpreter that imports dpopt from that tree's src/, and compares
the two output directories: `runs.csv` and every report, byte for byte. An
unknown workload name is rejected before any run. A workload's config is
`make_config(seed, out)` of the change tree's perfbench/workloads.py, which
is only read; each --config file (a path from the current directory) is
run as it is in both trees, with only its `out` replaced. For each file that
differs, or exists on one side only, prints the file, the first differing
key (a JSON path, or a CSV row and column), the largest relative
difference among the numeric leaves at equal paths and every key whose
value differs (list indices shown as [*]), then exits 1. A --base
that resolves to the --change directory is rejected before any run. The
outputs go to a temporary directory, removed at the end. Standard library
only.
"""
from __future__ import annotations

import argparse
import csv
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

# the child refuses to run a dpopt imported from anywhere but its tree's src/
RUN = ("import sys, dpopt; from pathlib import Path; "
       "from dpopt.harness.config import ExperimentConfig; "
       "from dpopt.harness.experiment import run_experiment; "
       "Path(dpopt.__file__).is_relative_to(sys.argv[2]) or sys.exit("
       "f'imported dpopt from {dpopt.__file__}, not from {sys.argv[2]}'); "
       "run_experiment(ExperimentConfig.from_file(sys.argv[1]))")


def leaves(doc, path=""):
    """(path, value) for each scalar of a JSON document, in document order."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from leaves(value, f"{path}[{i}]")
    else:
        yield path, doc


def parse(name: str, data: bytes):
    """A report as its JSON document; runs.csv as one {column: cell} per row,
    each cell a float where it reads as one."""
    text = data.decode("utf-8")
    if not name.endswith(".csv"):
        return json.loads(text)
    rows = []
    for row in csv.DictReader(io.StringIO(text)):
        cells = {}
        for column, cell in row.items():
            try:
                cells[column] = float(cell)
            except (TypeError, ValueError):
                cells[column] = cell
        rows.append(cells)
    return rows


def relative(a, b) -> float:
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def describe_difference(name: str, base: bytes, change: bytes) -> str:
    """The first differing key and the largest relative numeric difference."""
    try:
        a, b = list(leaves(parse(name, base))), list(leaves(parse(name, change)))
    except (UnicodeDecodeError, ValueError) as exc:
        return f"{name}: differs and does not parse ({exc})"
    first = next((pa if pa == pb else f"{pa} / {pb}"
                  for (pa, va), (pb, vb) in zip(a, b)
                  if pa != pb or repr(va) != repr(vb)), None)
    if first is None:
        first = (f"{len(a)} vs {len(b)} leaves" if len(a) != len(b)
                 else "no key (formatting only)")
    worst, where = 0.0, None
    for (pa, va), (pb, vb) in zip(a, b):
        if (pa == pb and isinstance(va, (int, float)) and isinstance(vb, (int, float))
                and not isinstance(va, bool) and not isinstance(vb, bool)):
            rel = relative(va, vb)
            if rel > worst:
                worst, where = rel, pa
    at = f" at {where}" if where is not None else ""
    keys = dict.fromkeys(re.sub(r"\[\d+\]", "[*]", pa) for (pa, va), (pb, vb) in zip(a, b)
                         if pa == pb and repr(va) != repr(vb))
    return (f"{name}: first difference at {first}; "
            f"largest relative difference {worst:.3g}{at}; "
            f"keys whose values differ: {', '.join(keys) or 'none'}")


def compare_dirs(base: Path, change: Path) -> list[str]:
    """One message per file that differs between the two output directories
    (or exists in one only); empty when they are identical."""
    names = sorted({p.relative_to(root).as_posix()
                    for root in (base, change) for p in root.rglob("*") if p.is_file()})
    problems = []
    for name in names:
        a, b = base / name, change / name
        if not (a.exists() and b.exists()):
            problems.append(f"{name}: only in {'base' if a.exists() else 'change'}")
            continue
        data_a, data_b = a.read_bytes(), b.read_bytes()
        if data_a != data_b:
            problems.append(describe_difference(name, data_a, data_b))
    return problems


def load_workloads(tree: Path):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", tree / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module.WORKLOADS


def workload_cases(workloads: dict, names: list[str], seeds: list[int]) -> dict:
    """{label: config} for each named workload at each seed, in that order."""
    return {f"{name}_{seed}": workloads[name].make_config(seed, "")
            for name in names for seed in seeds}


def config_cases(paths: list[Path]) -> dict:
    """{file stem: config} for each config file, in that order."""
    return {path.stem: json.loads(path.read_text(encoding="utf-8")) for path in paths}


def run_sweep(tree: Path, config: dict, out: Path) -> None:
    """One sweep in a fresh interpreter on tree/src, writing to out."""
    out.mkdir(parents=True)
    path = out.with_name(out.name + ".json")
    path.write_text(json.dumps({**config, "out": str(out)}), encoding="utf-8")
    src = str(tree.resolve() / "src")
    proc = subprocess.run([sys.executable, "-c", RUN, str(path), src], cwd=tree,
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"the sweep in {tree} failed ({proc.returncode}):\n{proc.stderr}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    what = ap.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload")
    what.add_argument("--config")
    ap.add_argument("--seeds", type=lambda text: [int(s) for s in text.split(",")])
    args = ap.parse_args()
    if args.base.resolve() == args.change.resolve():
        ap.error(f"--base and --change are the same tree: {args.base.resolve()}")
    if args.workload is not None:
        if not args.seeds:
            ap.error("--workload needs --seeds")
        workloads = load_workloads(args.change)
        names = args.workload.split(",")
        unknown = [name for name in names if name not in workloads]
        if unknown:
            ap.error(f"unknown workload {unknown[0]!r}; one of {sorted(workloads)}")
        cases = workload_cases(workloads, names, args.seeds)
    else:
        if args.seeds:
            ap.error("--seeds goes with --workload, not --config")
        paths = [Path(path) for path in args.config.split(",")]
        if len({path.stem for path in paths}) != len(paths):
            ap.error("--config files need distinct names")
        cases = config_cases(paths)

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        failed = 0
        for label, config in cases.items():
            for side in ("base", "change"):
                run_sweep(getattr(args, side), config, work / side / label)
            problems = compare_dirs(work / "base" / label, work / "change" / label)
            files = sum(1 for p in (work / "base" / label).rglob("*") if p.is_file())
            print(f"{label}: " + ("identical" if not problems else "DIFFERS")
                  + f" ({files} files in base)")
            for problem in problems:
                print(f"  {problem}")
            failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
