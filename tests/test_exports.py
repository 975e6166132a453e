"""Tests that the package's public names resolve and removed ones stay gone,
and that only the oracle names load the oracle layer."""

import importlib
import os
import pkgutil
import subprocess
import sys

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
    "GridPoint",
    "_as_result",
    "quad_adaptive",
    "RegulatorSchedule",
    "DEFAULT_SCHEDULE",
    "_gw_schedule",
    "_gather",
    "_advance",
    "_extrapolated",
    "SpacetimePoint",
    "NoConvergence",
    "oracle_delta_prime",
    "sinc_array",
    "oracle_P_full",
    "sinc",
    "_sinc_taylor",
    "_SINC_TAYLOR_CUTOFF",
    "_REPORT_SLOTS",
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


def test_removed_members_are_gone():
    assert not hasattr(gwharvest.GridSpec, "point_values")
    assert not hasattr(gwharvest.HarvestReport, "from_row")
    assert not hasattr(gwharvest.HarvestReport, "as_row")


def test_point_and_sweep_start_without_scipy_integrate(tmp_path):
    # A fresh interpreter: this process has long imported the oracle.
    code = (
        "import sys\n"
        "import gwharvest, gwharvest.cli\n"
        "assert gwharvest.cli.main(['point']) == 0\n"
        "argv = ['sweep', '--axis', 'D_sigma:0.5:2:3', '-o', sys.argv[1]]\n"
        "assert gwharvest.cli.main(argv) == 0\n"
        "assert gwharvest.cli.main(argv + ['--workers', '2']) == 0\n"
        "argv = ['figure', 'fig2', '-o', sys.argv[2], '--workers', '2']\n"
        "assert gwharvest.cli.main(argv) == 0\n"
        # Every grid is evaluated in this process: no pool is loaded.
        "assert 'multiprocessing' not in sys.modules\n"
        "assert 'concurrent.futures.process' not in sys.modules\n"
        "assert 'gwharvest.oracle' not in sys.modules\n"
        "assert 'scipy.integrate' not in sys.modules\n"
        # The submodule itself is one of the names that load it.
        "oracle = gwharvest.oracle\n"
        "assert 'gwharvest.oracle' in sys.modules\n"
        "assert gwharvest.verify_suite is oracle.verify_suite\n"
        # The oracle's quadrature is its own: verify never loads scipy's.
        "assert 'scipy.integrate' not in sys.modules\n"
        "assert gwharvest.cli.main(['verify', '--grid', 'minimal']) == 0\n"
        "assert 'scipy.integrate' not in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(gwharvest.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "scan.csv"), str(tmp_path)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "scan.csv").exists()
    assert (tmp_path / "fig2.svg").exists()


def test_oracle_names_resolve_through_the_package():
    assert gwharvest.verify_suite is gwharvest.oracle.verify_suite
    assert gwharvest.oracle is importlib.import_module("gwharvest.oracle")
    names = {}
    exec("from gwharvest import *", names)
    assert set(gwharvest.__all__) <= names.keys()


def test_unknown_package_attribute_raises():
    with pytest.raises(
        AttributeError, match="^module 'gwharvest' has no attribute 'no_such_name'$"
    ):
        gwharvest.no_such_name
