"""Tests that the package's public names resolve and removed ones stay gone,
that every public name src/ never calls is a validated entry point, and that
only the oracle names load the oracle layer."""

import ast
import dataclasses
import importlib
import os
import pathlib
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
    "faddeeva_w",
    "faddeeva_w_array",
    "scaled_erf_product",
    "scaled_erf_product_array",
    "_scaled_erf",
    "_guard",
    "_EXPONENT_LIMIT",
    "erf_real",
    "all_passed",
    "_wightman_legs",
    "_contour",
    "_KERNEL_TOL",
    "_wightman_kernel",
    "_any_leg",
    "_sinc",
    "_repr_column",
    "_gauss",
    "_e0",
    "_z",
    "_x_m",
    "_c_m",
    "_same_bits",
    "_FIELD_KEYS",
    "array_domain",
    "_EPSABS",
    "_EPSREL",
    "_LIMIT",
    "_MAX_ROWS",
    "_halvings",
    "_POLE_HALVINGS",
    "_REAL_HALVINGS",
    "_graded",
    "_scaled_epsabs",
    "_edges",
    "_T_EDGES",
    "_T_WINDOW",
    "_CAL_CACHE",
    "_i2_kernel",
    "_i4_kernel",
    "_I2",
    "_I4",
    "_c_window_kernel",
    "_C_WINDOW",
    "_gauss_sinh",
    "_s_width",
    "_t_edges",
)

# Public names nothing in src/ calls: each is an entry point for library
# users, and the named test checks its value against an independent one.
ENTRY_POINTS = {
    # tests/test_closedform.py::test_f_envelope_two_forms_agree
    "f_envelope",
    # tests/test_closedform.py::test_density_matrix_structure
    "density_matrix",
    # tests/test_closedform.py::test_evaluate_arrays_matches_evaluate
    "evaluate_arrays",
    # tests/test_closedform.py::test_p_matches_frozen_oracle
    "transition_probability",
    # tests/test_closedform.py::test_xm_matches_frozen_oracle
    "x_minkowski",
    # tests/test_closedform.py::test_cm_matches_frozen_oracle
    "c_minkowski",
    # tests/test_closedform.py::test_i1_matches_frozen_oracle
    "integral_I1",
    # tests/test_closedform.py::test_i2_matches_frozen_oracle
    "integral_I2",
    # tests/test_closedform.py::test_i3_matches_frozen_oracle
    "integral_I3",
    # tests/test_closedform.py::test_i4_matches_frozen_oracle
    "integral_I4",
    # tests/test_oracle.py::test_oracle_p_hits_exact_anchor
    "oracle_P",
    # tests/test_oracle.py::test_oracle_xm_methods_are_independent_and_agree
    "oracle_XM",
    # tests/test_oracle.py::test_oracle_cm_matches_closed_form
    "oracle_CM",
    # tests/test_oracle.py::test_oracle_i1_i3_agree_with_the_closed_forms_off_the_verify_grid
    "oracle_I1",
    # tests/test_oracle.py::test_oracle_i2_i4_machine_accurate
    "oracle_I2",
    # tests/test_oracle.py::test_oracle_i1_i3_agree_with_the_closed_forms_off_the_verify_grid
    "oracle_I3",
    # tests/test_oracle.py::test_oracle_i2_i4_machine_accurate
    "oracle_I4",
    # tests/test_closedform.py::test_x_gw_matches_end_to_end_oracle
    "oracle_x_gw",
    # tests/test_closedform.py::test_c_gw_matches_end_to_end_oracle
    "oracle_c_gw",
    # tests/test_closedform.py::test_x_gw_matches_end_to_end_oracle
    "x_gw",
    # tests/test_closedform.py::test_c_gw_matches_end_to_end_oracle
    "c_gw",
}


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


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _local_names(scope):
    """The arguments of a function or lambda and the names its body assigns.

    Nested functions and lambdas are scopes of their own: their names are
    not searched.
    """
    args = scope.args
    names = {
        a.arg
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg,
                  args.kwarg)
        if a is not None
    }
    todo = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))
    return names


def _calls(tree):
    """The names a module reads of the package: bare names bound in no
    enclosing function, and attributes of a module it imports with
    `from . import ...`."""
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        for alias in node.names
    }
    loaded = set()
    todo = [(tree, frozenset())]
    while todo:
        node, bound = todo.pop()
        if isinstance(node, _SCOPES):
            bound = bound | _local_names(node)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in bound:
                loaded.add(node.id)
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and isinstance(node.value, ast.Name) and node.value.id in modules):
            loaded.add(node.attr)
        todo.extend((child, bound) for child in ast.iter_child_nodes(node))
    return loaded


def test_every_public_name_src_never_calls_is_an_entry_point():
    # __all__ of each submodule against what src/ reads of the package
    # outside the re-exports in __init__.py.  A local variable or an
    # attribute of some object that shares a public name is no call.
    exported, loaded = set(), set()
    for path in pathlib.Path(gwharvest.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported.update(ast.literal_eval(node.value))
        loaded |= _calls(tree)
    assert exported - loaded == ENTRY_POINTS


def test_removed_members_are_gone():
    assert not hasattr(gwharvest.GridSpec, "point_values")
    assert not hasattr(gwharvest.HarvestReport, "from_row")
    assert not hasattr(gwharvest.HarvestReport, "as_row")
    # A grid's parameter columns have one fixed order, so no names ride along.
    assert "keys" not in {f.name for f in dataclasses.fields(gwharvest.GridResult)}


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
    # The end-to-end oracles and the error their calibration raises.
    for name in ("oracle_x_gw", "oracle_c_gw", "SignConventionMismatch"):
        assert name in gwharvest.__all__
        assert names[name] is getattr(gwharvest.oracle, name)


def test_unknown_package_attribute_raises():
    with pytest.raises(
        AttributeError, match="^module 'gwharvest' has no attribute 'no_such_name'$"
    ):
        gwharvest.no_such_name
