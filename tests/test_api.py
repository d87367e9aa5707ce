"""Smoke test of the public API: a stale export fails here, not in a caller."""

import importlib
import pkgutil

import pytest

import pairjump

MODULES = sorted(f"pairjump.{m.name}" for m in pkgutil.iter_modules(pairjump.__path__))


def test_modules_found():
    assert "pairjump.models" in MODULES and len(MODULES) >= 8


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_star_import():
    namespace = {}
    exec("from pairjump import *", namespace)
    assert {"simulate", "replay", "EventLog", "run_scenario"} <= set(namespace)
