"""The package root: what it exports, that the names the benchmark reads or traces resolve,
that a few instances of every benchmark workload pass the benchmark's own output checks,
and that the package imports nothing outside the standard library."""

import ast
import importlib
import subprocess
import sys
from collections import Counter
from pathlib import Path

import strongarc

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"
SOURCES = ROOT / "src" / "strongarc"
WORKLOADS = BENCHMARKS / "workloads.py"
TRACING = BENCHMARKS / "tracing.py"


def _names_read_by_workloads() -> set[str]:
    """Names ``benchmarks/workloads.py`` reads as ``sa.<name>`` or through ``getattr(sa, ...)``.

    ``getattr`` takes the name from an ``Instance`` argument tuple or from ``_FAMILIES``.
    """
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "sa":
            names.add(node.attr)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Instance":
            args = node.args[1]
            if isinstance(args, ast.Tuple) and isinstance(args.elts[0], ast.Constant):
                names.add(args.elts[0].value)
        elif isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "_FAMILIES":
            names.update(row[0] for row in ast.literal_eval(node.value))
    return names


def test_benchmark_names_are_exported():
    names = _names_read_by_workloads()
    assert {"lift_certificates", "cycle_cycle_family", "lambda_2", "verify_cut"} <= names
    assert names <= set(strongarc.__all__)


def _traced_names() -> dict[str, tuple[str, ...]]:
    """``LAYERS`` of ``benchmarks/tracing.py``: function names per ``strongarc`` submodule."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "LAYERS":
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS in {TRACING}")


def test_traced_names_resolve():
    # ``--trace 1`` looks up every traced name in its layer's module
    layers = _traced_names()
    assert "constructions" in layers and "product_lambda_formula" in layers["constructions"]
    for layer, funcs in layers.items():
        module = importlib.import_module(f"strongarc.{layer}")
        for func in funcs:
            assert callable(getattr(module, func, None)), f"strongarc.{layer}.{func}"


def test_every_exported_name_resolves():
    assert len(set(strongarc.__all__)) == len(strongarc.__all__)
    for name in strongarc.__all__:
        assert getattr(strongarc, name) is not None


def _imports(path: Path) -> list[str]:
    """The absolute module names that the source file ``path`` imports."""
    modules = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules.append(node.module)
    return modules


def _package_imports() -> list[tuple[str, str]]:
    """``(file name, module)`` for every absolute import in the package's sources."""
    sources = sorted(SOURCES.glob("*.py"))
    assert SOURCES / "flow.py" in sources
    return [(path.name, module) for path in sources for module in _imports(path)]


def test_runtime_imports_are_stdlib_only():
    # every import in the package is relative or names a standard-library module
    outside = [(name, m) for name, m in _package_imports() if m.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_no_module_imports_dataclasses():
    # records are NamedTuples and Digraph a plain class: importing dataclasses,
    # and inspect with it, was most of the cost of importing the package
    assert [(name, m) for name, m in _package_imports() if m.partition(".")[0] == "dataclasses"] == []


def test_import_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter without site packages, so nothing but the package loads them
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import strongarc, strongarc.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, str(SOURCES.parent)], capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"


BENCHMARK_MODULES = ("run", "workloads", "tracing", "calibration")


def test_benchmark_workloads_pass_their_checks(monkeypatch):
    # the first three seed-1 instances of each workload, checked as the first benchmark
    # pass is: against the recorded reference values and by the independent checks
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    # the benchmark's modules have generic top-level names: load them fresh and
    # leave sys.modules as it was when the test ends
    for name in BENCHMARK_MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    try:
        bench = importlib.import_module("run")
    finally:
        for name in BENCHMARK_MODULES:
            sys.modules.pop(name, None)
    problems = {}
    for name, workload in bench.WORKLOADS.items():
        instances = workload.build(strongarc, 1)[:3]
        outputs = [workload.run(strongarc, bench.fresh_args(strongarc, inst.args)) for inst in instances]
        references = bench.load_references(name)
        problems[name] = bench.check_pass(strongarc, workload, instances, references, outputs, True, Counter())
    assert set(problems) == {"class-table", "random-products", "flow-products", "certify"}
    assert problems == {name: [] for name in problems}
