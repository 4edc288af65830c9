"""The public surface: each module's `__all__` and the package re-exports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import auction_lab

MODULES = sorted(m.name for m in pkgutil.iter_modules(auction_lab.__path__))


def _reexports():
    """(home module, name) for every `from .home import name` in __init__.py."""
    tree = ast.parse(Path(auction_lab.__file__).read_text())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    ]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"auction_lab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_reexports_are_public_in_their_home_module():
    pairs = _reexports()
    assert pairs
    stray = [
        f"{home}.{name}"
        for home, name in pairs
        if name not in importlib.import_module(f"auction_lab.{home}").__all__
    ]
    assert stray == []
    assert all(hasattr(auction_lab, name) for _, name in pairs)
