"""Tests that the package's public names resolve and removed ones stay gone."""

import importlib
import pkgutil

import pytest

import gwharvest

# Deleted API: no __all__ may list these, nor any module define them.
REMOVED = (
    "GwBackground",
    "DetectorParams",
    "PairGeometry",
    "geodesic_interval",
    "separation_axis",
    "_axis_sign",
    "_PARAM_FLAGS",
    "erf_complex",
    "dawson",
    "_f_envelope_cosh",
    "concurrence",
    "correlation",
    "emit_warnings",
    "is_spacelike",
)


def _modules():
    return [gwharvest] + [
        importlib.import_module(f"gwharvest.{info.name}")
        for info in pkgutil.iter_modules(gwharvest.__path__)
    ]


@pytest.mark.parametrize("module", _modules(), ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    exported = getattr(module, "__all__", ())
    assert len(exported) == len(set(exported)), "duplicate __all__ entries"
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("module", _modules(), ids=lambda m: m.__name__)
def test_removed_names_are_gone(module):
    exported = set(getattr(module, "__all__", ()))
    assert exported.isdisjoint(REMOVED)
    assert [name for name in REMOVED if hasattr(module, name)] == []

