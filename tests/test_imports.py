"""Module layering: the runtime imports inside `prorl` form no cycle and
skip no layer the package keeps apart, the command line loads no heavier
dependency than it needs, and the package holds no code that only the
tests call."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import prorl
from conftest import INSTANCE_DIR

PACKAGE_DIR = Path(prorl.__file__).parent
TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _is_type_checking_block(node: ast.AST) -> bool:
    return isinstance(node, ast.If) and (
        (isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING")
        or (isinstance(node.test, ast.Attribute) and node.test.attr == "TYPE_CHECKING")
    )


def _runtime_imports(tree: ast.AST, modules: set[str]) -> set[str]:
    """Sibling modules a module imports when it runs, function bodies included;
    imports under `if TYPE_CHECKING:` never run and are left out."""
    found: set[str] = set()

    def visit(node: ast.AST) -> None:
        if _is_type_checking_block(node):
            for child in node.orelse:
                visit(child)
            return
        if isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if node.level == 0:  # absolute: only prorl.* counts
                parts = parts[1:] if parts[:1] == ["prorl"] else None
            if parts is not None:  # "from .x import y" -> x, "from . import x" -> x
                found.update(parts[:1] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1] for alias in node.names if alias.name.startswith("prorl.")
            )
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found & modules


def import_graph() -> dict[str, set[str]]:
    paths = {p.stem: p for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__"}
    modules = set(paths)
    return {
        name: _runtime_imports(ast.parse(path.read_text(encoding="utf-8")), modules) - {name}
        for name, path in paths.items()
    }


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """A cycle as a module path that returns to its start, or None."""
    state: dict[str, int] = {}  # 1 on the current path, 2 finished
    path: list[str] = []

    def visit(name: str) -> list[str] | None:
        state[name] = 1
        path.append(name)
        for dep in sorted(graph[name]):
            if state.get(dep) == 1:
                return path[path.index(dep):] + [dep]
            if dep not in state:
                cycle = visit(dep)
                if cycle:
                    return cycle
        path.pop()
        state[name] = 2
        return None

    for name in sorted(graph):
        if name not in state:
            cycle = visit(name)
            if cycle:
                return cycle
    return None


def test_find_cycle_sees_function_level_back_edges():
    source = "from .b import x\n"
    lazy = "def f():\n    from .a import y\n"
    guarded = "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from .a import y\n"
    modules = {"a", "b"}
    a = _runtime_imports(ast.parse(source), modules)
    assert find_cycle({"a": a, "b": _runtime_imports(ast.parse(lazy), modules)}) == ["a", "b", "a"]
    assert find_cycle({"a": a, "b": _runtime_imports(ast.parse(guarded), modules)}) is None


def test_runtime_import_graph_has_no_cycle():
    graph = import_graph()
    assert {"sim", "pdr", "concepts", "dsl"} <= set(graph)
    cycle = find_cycle(graph)
    assert cycle is None, f"import cycle: {' -> '.join(cycle)}"


# module -> siblings it must not import at run time: the inner loop tunes
# against the return function the search hands it, never the simulator, and
# a program names the rules it picks without knowing how they are simulated
FORBIDDEN_IMPORTS = {"bo": {"sim"}, "dsl": {"sim"}}


def test_runtime_import_graph_keeps_the_layering():
    graph = import_graph()
    for module, forbidden in FORBIDDEN_IMPORTS.items():
        assert not graph[module] & forbidden, f"{module} imports {sorted(graph[module] & forbidden)}"


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random is imported by the first tuning with parameters, whose
    # weights it draws; loading it here would raise peak memory after this
    # import from 28.9 to 34.5 MB in every process, training or not. The
    # bench process pool is imported when a sweep starts: at import time it
    # would add 25-35 ms to every command's start-up. The GP needs only
    # numpy's own linear algebra, so scipy is no dependency.
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    modules = ("numpy", "numpy.random", "multiprocessing", "concurrent.futures", "scipy")
    code = f"import sys, prorl.cli; print(*(m in sys.modules for m in {modules!r}))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["True", "False", "False", "False", "False"]


def test_inference_commands_leave_numpy_random_unloaded(tmp_path):
    # pdr and eval run no tuning, so they never pay numpy.random's memory;
    # the benchmark's inference workload runs exactly these commands
    policy = tmp_path / "policy.json"
    policy.write_text('{"kind": "if", "weights": [0.5, -1, 0, 0, 0, 0], '
                      '"then": {"kind": "action", "heuristic": "SPT"}, '
                      '"else": {"kind": "action", "heuristic": "MWR"}}', encoding="utf-8")
    instance = INSTANCE_DIR / "ft06.txt"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    code = (
        "import sys; from prorl.cli import main\n"
        f"assert main(['pdr', '--instance', {str(instance)!r}, '--rule', 'spt']) == 0\n"
        f"assert main(['eval', '--instance', {str(instance)!r}, '--policy', {str(policy)!r}]) == 0\n"
        "print('numpy.random' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split()[-1] == "False"


def _references(tree: ast.AST) -> Counter:
    """Names a tree refers to: bare names, attribute names and imported names."""
    found: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def _definitions(tree: ast.Module):
    """(qualified name, node) of the module's functions and classes, and of
    its classes' methods and properties other than dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield f"{node.name}.{member.name}", member


def unreferenced_definitions(package_dir: Path) -> list[str]:
    """Module-level functions and classes, and methods and properties of
    classes, that no code in the package refers to outside their own
    definition: code only the tests run."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in package_dir.glob("*.py")}
    total: Counter = Counter()
    for tree in trees.values():
        total += _references(tree)
    unused = []
    for module, tree in sorted(trees.items()):
        if module == "__init__":
            continue
        for qualified, node in _definitions(tree):
            if total[node.name] == _references(node)[node.name]:
                unused.append(f"{module}.{qualified}")
    return unused


def test_unreferenced_definitions_sees_self_reference(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    pass\n\ndef walk(n):\n    return walk(n - 1)\n\n"
        "class Box:\n    def __init__(self):\n        self.size = self.read()\n\n"
        "    def read(self):\n        return 1\n\n"
        "    @property\n    def spare(self):\n        return self.spare\n"
    )
    (tmp_path / "b.py").write_text("from .a import Box, used\n")
    assert unreferenced_definitions(tmp_path) == ["a.walk", "a.Box.spare"]


def test_package_holds_no_test_only_code():
    # a reference oracle belongs in tests/conftest.py, next to its tests
    assert unreferenced_definitions(PACKAGE_DIR) == []


# hooks perfbench/tracer.py still names, though the package dropped them
STALE_TRACER_HOOKS = {
    "prorl.pdr.run_episode", "prorl.bo.run_episode", "prorl.dsl.evaluate", "prorl.dsl.apply",
    "prorl.sim.verify_feasible",
}


def test_tracer_hooks_resolve_but_the_known_stale_ones():
    # the tracer wraps each layer through the module attributes it names and
    # skips one that is gone, so a refactor that renames or stops calling
    # through a hooked attribute would drop its layer from the benchmark
    # without a word; the tracer imports only the standard library
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = set()
    for _, attrs in tracer.LAYERS:
        for attr in attrs:
            module, _, name = attr.rpartition(".")
            if not callable(getattr(importlib.import_module(module), name, None)):
                missing.add(attr)
    assert missing == STALE_TRACER_HOOKS
