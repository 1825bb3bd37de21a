"""Tests for the package's public surface."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import texlab
import texlab.circuit


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
