"""Static checks over the package source, with the standard library only."""

import ast
import importlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "selkd"


def unused_imports(source: str) -> list[str]:
    """``name (line N)`` for every name an import binds that the module
    never reads; ``from __future__`` imports bind nothing."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read]


def test_unused_imports_finds_only_unread_names():
    source = ("from __future__ import annotations\nimport os\nimport os.path as osp\n"
              "from enum import Enum\nfrom .corpus import Sentence as S\n"
              "def f(x: S) -> None:\n    return osp.join(x)\n")
    assert unused_imports(source) == ["os (line 2)", "Enum (line 4)"]


def test_package_has_no_unused_import():
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert len(found) >= 10
    assert {name: names for name, names in found.items() if names} == {}


def test_benchmark_traced_functions_exist():
    # perfbench/tracing.py skips a traced name that no longer exists, so a
    # rename would silently drop its per-layer metrics.
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    traced = next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                  and [target.id for target in node.targets if isinstance(target, ast.Name)] == ["TRACED"])
    assert "decode_positional" in traced["nat"]
    missing = [f"selkd.{module}.{name}" for module, names in traced.items() for name in names
               if not callable(getattr(importlib.import_module(f"selkd.{module}"), name, None))]
    assert missing == []
