import ast
import importlib
import inspect
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


PACKAGE = ROOT / "src" / "vlgraph"

# The package modules each module may import (type-only imports count too).
# Segmentation and the dataset readers sit below the model: `graph` and
# `synth` read no tensor, model, loss or training code.
ALLOWED_IMPORTS = {
    "__init__": set(),
    "errors": set(),
    "tensor": {"errors"},
    "graph": {"errors"},
    "synth": {"errors", "graph"},
    "model": {"errors", "graph", "tensor", "train"},
    "mi": {"errors", "model", "tensor"},
    "transport": {"errors", "graph", "model", "tensor", "train"},
    "train": {"errors", "graph", "mi", "model", "tensor", "transport"},
}


def package_imports(path: Path) -> set[str]:
    """The `vlgraph` modules that the source file at `path` imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("vlgraph.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "vlgraph" and not module.startswith("vlgraph."):
                    continue
                module = module.removeprefix("vlgraph").lstrip(".")
            if module:
                found.add(module.split(".")[0])
            else:                                  # `from . import tensor as tn`
                found |= {a.name for a in node.names}
    return found


def test_package_modules_import_only_what_the_layering_allows():
    modules = {path.stem: path for path in PACKAGE.glob("*.py")}
    assert modules.keys() == ALLOWED_IMPORTS.keys()
    for name, path in sorted(modules.items()):
        extra = package_imports(path) - ALLOWED_IMPORTS[name]
        assert not extra, f"{name} imports {sorted(extra)}, beyond {sorted(ALLOWED_IMPORTS[name])}"


# Block layouts are always passed: no parameter that names one has a default.
# `transport_loss` keeps its one-clip `sizes` default while the benchmark
# harness calls it as `transport_loss(segments, cfg)`.
LAYOUT_DEFAULT_ALLOWED = {"vlgraph.transport.transport_loss"}


def is_layout(name: str) -> bool:
    return name in ("sizes", "clips", "pairs") or name.endswith("_sizes")


def test_block_layouts_have_no_default():
    callables = {}
    for module_name in ("model", "mi", "transport", "train", "tensor", "graph"):
        module = importlib.import_module(f"vlgraph.{module_name}")
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) or inspect.isclass(obj):
                if obj.__module__ == module.__name__:
                    callables[f"{module.__name__}.{name}"] = obj
    assert {"vlgraph.tensor.SortedStructure", "vlgraph.model.SegmentTrace"} <= callables.keys()
    defaulted = sorted(
        f"{name}({param.name})" for name, obj in callables.items()
        for param in inspect.signature(obj).parameters.values()
        if is_layout(param.name) and param.default is not inspect.Parameter.empty
        and name not in LAYOUT_DEFAULT_ALLOWED)
    assert defaulted == [], f"layout parameters with a default: {defaulted}"


# Settings that `TrainConfig` declares reach these parameters at every call,
# so none of them restates the config's default.
CONFIG_SETTINGS = {
    "vlgraph.train.Adam": ("beta1", "beta2", "eps"),
    "vlgraph.mi.NegativeBuffer": ("capacity",),
    "vlgraph.transport.sinkhorn": ("tol",),
}


def test_config_settings_have_no_default():
    defaulted = []
    for target, names in sorted(CONFIG_SETTINGS.items()):
        module, _, attr = target.rpartition(".")
        params = inspect.signature(getattr(importlib.import_module(module), attr)).parameters
        defaulted += [f"{target}({name})" for name in names
                      if params[name].default is not inspect.Parameter.empty]
    assert defaulted == [], f"config settings with a default: {defaulted}"
