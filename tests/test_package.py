"""Tests for the package's public surface."""

from __future__ import annotations

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
