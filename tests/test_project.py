import importlib
import json
import math
import tomllib
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_scripts_resolve_to_callables():
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name!r}: {target} is not callable"


ROOT = PYPROJECT.parent
ENTRY_KEYS = {"commit", "seed", "seconds", "correct", "attempted", "failed", "metrics"}


def test_bench_records_match_the_benchmark_declaration():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"]}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths, "no BENCH_<workload>.json in the repository root"
    for path in paths:
        workload = path.stem.removeprefix("BENCH_")
        assert workload in workloads, f"{path.name}: no workload {workload!r} in BENCHMARK.json"
        for i, entry in enumerate(json.loads(path.read_text())):
            where = f"{path.name}[{i}]"
            assert ENTRY_KEYS <= entry.keys(), f"{where}: missing {sorted(ENTRY_KEYS - entry.keys())}"
            assert entry["metrics"].keys() == metrics, f"{where}: metrics {sorted(entry['metrics'])}"
            for name, value in entry["metrics"].items():
                assert math.isfinite(value) and value > 0, f"{where}: {name} = {value!r}"
