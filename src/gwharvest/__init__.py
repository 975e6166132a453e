"""Entanglement harvesting by Gaussian-switched detectors in a GW background.

Two pointlike two-level detectors with Gaussian switching couple to a
massless scalar field on a linearized gravitational-wave spacetime.  This
package evaluates, to leading order in the coupling and in the wave
amplitude, the closed forms for the transition probability, the matrix
elements that enter the reduced two-detector state, the concurrence, and
the correlation function — plus the GW-induced corrections to each — and
cross-checks every closed form against independent numerical quadrature.

All public APIs are dimensionless: times and lengths in units of the
switching width sigma, energies in units of 1/sigma, and outputs
normalized by the coupling squared (and by the wave amplitude for the
GW corrections).

The quadrature oracles (the `oracle` submodule and its names in __all__)
load on first use, since only verification needs them.  They bring their
own numpy quadrature; neither they nor points, sweeps and figures import
more of scipy than scipy.special.
"""

import importlib

from .closedform import (
    OBSERVABLES,
    HarvestReport,
    c_gw,
    c_minkowski,
    density_matrix,
    evaluate,
    evaluate_arrays,
    f_envelope,
    integral_I1,
    integral_I2,
    integral_I3,
    integral_I4,
    transition_probability,
    x_gw,
    x_minkowski,
)
from .model import (
    CONFIG_DEFAULTS,
    CONFIG_KEYS,
    ConfigError,
    DegenerateDirection,
    DimensionlessParams,
    IncompleteGrid,
    InvalidCoupling,
    InvalidGeometry,
    StateInvalid,
    ValidationWarning,
    params_from_mapping,
    parse_config,
    read_config,
    validate,
)
from .specfun import DomainTooLarge
from .sweep import (
    CSV_HEADER,
    PRESETS,
    AxisSpec,
    FigurePreset,
    GridResult,
    GridSpec,
    build_figure,
    emit_csv,
    emit_svg,
    run_grid,
    run_preset,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # PEP 562: called only for names this module does not bind.  Every
    # name of __all__ but the oracle's is bound above.
    if name == "oracle" or name in __all__:
        # import_module, not `from . import oracle`, whose fromlist
        # handling would call this hook again before importing.
        oracle = importlib.import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    # closedform
    "OBSERVABLES",
    "HarvestReport",
    "transition_probability",
    "x_minkowski",
    "c_minkowski",
    "f_envelope",
    "integral_I1",
    "integral_I2",
    "integral_I3",
    "integral_I4",
    "x_gw",
    "c_gw",
    "evaluate",
    "evaluate_arrays",
    "density_matrix",
    # model
    "DimensionlessParams",
    "validate",
    "ValidationWarning",
    "parse_config",
    "read_config",
    "params_from_mapping",
    "CONFIG_KEYS",
    "CONFIG_DEFAULTS",
    "ConfigError",
    "InvalidGeometry",
    "InvalidCoupling",
    "DegenerateDirection",
    "StateInvalid",
    "IncompleteGrid",
    # oracle
    "OracleEstimate",
    "CheckRecord",
    "SignConventionMismatch",
    "oracle_P",
    "oracle_XM",
    "oracle_CM",
    "oracle_I1",
    "oracle_I2",
    "oracle_I3",
    "oracle_I4",
    "oracle_x_gw",
    "oracle_c_gw",
    "verify_suite",
    # specfun
    "DomainTooLarge",
    # sweep
    "AxisSpec",
    "GridSpec",
    "GridResult",
    "FigurePreset",
    "PRESETS",
    "run_grid",
    "run_preset",
    "emit_csv",
    "emit_svg",
    "build_figure",
    "CSV_HEADER",
]
