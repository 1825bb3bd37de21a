"""Tests for the package's public surface."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import texlab
import texlab.circuit

ROOT = Path(__file__).resolve().parents[1]

#: Exported names no artifact reads in code, each with the reason it stays.
#: CI's channel-audit step writes its input files with channel_to_json_dict.
UNREAD_BY_DESIGN = {"channel_to_json_dict"}


def _code_reads(path: Path) -> set[str]:
    """Names a file reads in code: loaded ``Name``s, loaded attributes and
    import aliases, not counting reads inside the def or class of the same
    name. Strings and docstrings are not code."""
    reads: set[str] = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.update({node.id} - enclosing)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.update({node.attr} - enclosing)
        elif isinstance(node, ast.alias):
            reads.add(node.name.rsplit(".", 1)[-1])
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return reads


def test_every_exported_name_has_a_reader_outside_its_unit_tests():
    # The library's own modules, the benchmark and the acceptance suite are
    # the artifacts; a name that only its own unit tests read is not public
    # surface anyone uses.
    readers = [
        path for path in sorted((ROOT / "src" / "texlab").glob("*.py"))
        if path.name != "__init__.py"
    ]
    readers += sorted((ROOT / "perfbench").glob("*.py"))
    readers.append(ROOT / "tests" / "test_acceptance.py")
    read = set().union(*map(_code_reads, readers))
    unread = sorted(set(texlab.__all__) - read - UNREAD_BY_DESIGN)
    assert unread == []


@pytest.mark.parametrize("module", [texlab, texlab.circuit], ids=lambda m: m.__name__)
def test_every_exported_name_resolves_once(module):
    names = module.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(module, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from texlab import *", namespace)
    assert set(texlab.__all__) <= set(namespace)


def test_readme_quick_start_runs():
    # The README's library quick start, run as written: the docs cannot rot
    # silently.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(code, namespace)
    assert namespace["report"].status == "full"
