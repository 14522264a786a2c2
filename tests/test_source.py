"""Checks over the package source and its wiring, with the standard library only."""

import argparse
import ast
import importlib
import pathlib

from selkd import cli

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


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def foreign_private_names(source: str) -> list[str]:
    """``name (line N)`` for every underscore name the module imports from
    a selkd module, or reads as an attribute of a name it imported from
    one; dunders such as ``__version__`` are exempt."""
    tree = ast.parse(source)
    found, imported = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.partition(".")[0] == "selkd"):
            for alias in node.names:
                if _private(alias.name):
                    found.append((node.lineno, node.col_offset, alias.name))
                imported.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names
                            if alias.name.partition(".")[0] == "selkd")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in imported:
                found.append((node.lineno, node.col_offset, ast.unparse(node)))
    return [f"{name} (line {line})" for line, _, name in sorted(found)]


def test_foreign_private_names_finds_only_other_modules_underscore_names():
    source = ("from __future__ import annotations\nimport numpy as np\nimport selkd.metrics\n"
              "from . import __version__, nat\nfrom .corpus import _read, Sentence\n"
              "from selkd.align import _prior as p\n"
              "def _own(x: Sentence):\n"
              "    return (nat._forward_packed(x), nat.forward(x), np._private, selkd.metrics._x,\n"
              "            _own, x._y, nat.__name__, Sentence._cache, p)\n")
    assert foreign_private_names(source) == [
        "_read (line 5)", "_prior (line 6)", "nat._forward_packed (line 8)",
        "selkd.metrics._x (line 8)", "Sentence._cache (line 9)"]


def test_no_module_reads_another_modules_private_names():
    found = {path.name: foreign_private_names(path.read_text(encoding="utf-8"))
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


def test_every_subcommand_has_its_runner():
    # ``main`` and ``full`` run a subcommand by the function named after it.
    subs = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    commands = set(subs.choices) | {row.command for row in cli.RUN_GRAPH}
    assert len(commands) == 8
    missing = [command for command in sorted(commands)
               if not callable(getattr(cli, "run_" + command.replace("-", "_"), None))]
    assert missing == []


def open_calls(source: str) -> list[tuple[str, int]]:
    """``(mode, line)`` of every ``open(...)`` call; the mode is ``"r"``
    when not given, and ``"?"`` when it is not a string literal."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), ast.Constant("r"))
            calls.append((mode.value if isinstance(mode, ast.Constant) else "?", node.lineno))
    return calls


def test_open_calls_reads_positional_keyword_and_default_modes():
    source = 'open(a, "rb")\nopen(a, mode="w")\nopen(a)\nopen(a, m)\nos.open(a)\n'
    assert open_calls(source) == [("rb", 1), ("w", 2), ("r", 3), ("?", 4)]


def test_only_corpus_knows_the_text_file_layout():
    # Text files are written and read through corpus.write_lines,
    # read_lines, read_rows and read_utf8; any other module may open a
    # file only in binary, to hash it.
    found = {path.name: [call for call in open_calls(path.read_text(encoding="utf-8")) if call[0] != "rb"]
             for path in sorted(SRC.glob("*.py")) if path.name != "corpus.py"}
    assert len(found) >= 10
    assert {name: calls for name, calls in found.items() if calls} == {}
