"""Domain types, nondimensionalization, and validation.

All public interfaces work in units of the switching width sigma: energies
and frequencies enter as Omega*sigma and omega*sigma, lengths as D/sigma,
times as t0/sigma.  Outputs are reported normalized (P/lambda^2, X/lambda^2,
Theta_GW/(A lambda^2), ...), which removes the two redundant scales and
matches how the observables are naturally plotted.

Complex quantities are carried as Python's built-in complex, which provides
the real/imag accessor pair the interfaces require.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

__all__ = [
    "InvalidGeometry",
    "InvalidCoupling",
    "DegenerateDirection",
    "DomainTooLarge",
    "StateInvalid",
    "IncompleteGrid",
    "ConfigError",
    "ValidationWarning",
    "DimensionlessParams",
    "validate",
    "CONFIG_KEYS",
    "CONFIG_DEFAULTS",
    "parse_config",
    "read_config",
    "params_from_mapping",
]

# Soft validity limits.  The gravitational-wave results are first order in
# the strain amplitude A, and the first-order treatment of Theta_GW requires
# |X_M| to stay away from zero, which bounds the useful detector gap.
AMPLITUDE_SOFT_LIMIT = 0.1
GAP_SOFT_LIMIT = 2.0


class InvalidGeometry(ValueError):
    """Detector separation out of contract (D/sigma must be > 0)."""


class InvalidCoupling(ValueError):
    """Coupling strength out of contract (lambda must be > 0)."""


class DegenerateDirection(ValueError):
    """|X_M| is numerically zero; the first-order GW shift of |X| is undefined.

    The parameters alone decide this (a vast gap or separation), so it is
    an input error, as InvalidGeometry and InvalidCoupling are.
    """


class DomainTooLarge(ValueError):
    """A point whose observables are out of floating-point range:
    closedform.evaluate raises it where the arithmetic raises an
    ArithmeticError or the math library rejects an infinite argument, or
    where it overflows without raising, naming the observables that are
    not finite."""


class StateInvalid(ValueError):
    """Assembled detector state violates positivity beyond perturbative tolerance."""


class IncompleteGrid(ValueError):
    """A figure was requested from a row set with missing or failed points."""


class ConfigError(ValueError):
    """Malformed or unknown entry in a configuration file."""


@dataclass(frozen=True)
class ValidationWarning:
    """Structured soft-limit warning: a stable code plus a human message."""

    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


def _config_key(name: str) -> str:
    # The field name, except for the coupling: "lambda" is a Python keyword.
    return "lambda" if name == "coupling_lambda" else name


@dataclass(frozen=True)
class DimensionlessParams:
    """One evaluation point: two freely falling detectors a distance D apart
    along x, in the wave's transverse-traceless (TT) coordinates.

    Only separation along the wave's stretch axis (x) is modelled.  The
    closed forms and the oracles hold this coordinate separation fixed, so
    the proper separation oscillates with the strain.  The
    fields and their defaults are the parameter table: CONFIG_DEFAULTS is
    built from them.

    A                dimensionless strain, A >= 0 expected; all GW outputs
                     are first order in A.
    omega_sigma      wave frequency times switching width, omega*sigma >= 0
                     expected.
    Omega_sigma      detector gap Omega*sigma; may be negative (a detector
                     initialized in its excited state maps to Omega -> -Omega).
    D_sigma          D/sigma > 0.  Coincident detectors are out of contract:
                     the separation-dependent integrals have a (a^2 - D^2)^-2
                     structure whose closed forms require D > 0.
    t0_sigma         center of the Gaussian switching window, in sigma.
    coupling_lambda  interaction strength lambda > 0 (config key "lambda");
                     bookkeeping only, since every reported quantity is
                     normalized.
    A non-finite field raises ConfigError naming its config key.  Fields
    given as numpy scalars are stored as builtin floats.
    """

    A: float = 0.0
    omega_sigma: float = 2.0
    Omega_sigma: float = 1.0
    D_sigma: float = 1.0
    t0_sigma: float = 0.0
    coupling_lambda: float = 1.0

    def __post_init__(self) -> None:
        if not (
            type(self.A) is type(self.omega_sigma) is type(self.Omega_sigma)
            is type(self.D_sigma) is type(self.t0_sigma)
            is type(self.coupling_lambda) is float
        ):
            # Store builtin floats before any arithmetic: evaluate would
            # compute in a numpy scalar's type, and a sum of numpy scalars
            # warns where it overflows.
            vars(self).update({name: float(v) for name, v in vars(self).items()})
        # A non-finite field makes the sum non-finite; only then (or when
        # finite fields overflow the sum) are the fields checked one by one.
        total = (
            self.A + self.omega_sigma + self.Omega_sigma + self.D_sigma
            + self.t0_sigma + self.coupling_lambda
        )
        if not math.isfinite(total):
            for name, value in vars(self).items():
                if not math.isfinite(value):
                    key = _config_key(name)
                    raise ConfigError(
                        f"parameter {key!r} must be finite (got {value!r})"
                    )
        if not self.coupling_lambda > 0.0:
            raise InvalidCoupling(
                f"coupling lambda must be > 0, got {self.coupling_lambda!r}"
            )
        if not self.D_sigma > 0.0:
            raise InvalidGeometry(f"D/sigma must be > 0, got {self.D_sigma!r}")


def validate(p: DimensionlessParams) -> list[ValidationWarning]:
    """Evaluate all soft validity limits, returning structured warnings.

    Hard violations (non-finite values, D <= 0, lambda <= 0) raise at
    construction and so cannot reach here.  The returned list is empty iff
    A is within the linear-strain regime, |Omega*sigma| is inside the
    first-order validity window, and the wave frequency is non-negative.
    """
    out: list[ValidationWarning] = []
    if p.A < 0.0:
        out.append(
            ValidationWarning(
                "AmplitudeNegative",
                f"strain amplitude A = {p.A:g} is negative; "
                "results are first order in A and assume A >= 0",
            )
        )
    if p.A > AMPLITUDE_SOFT_LIMIT:
        out.append(
            ValidationWarning(
                "AmplitudeBeyondLinearRegime",
                f"strain amplitude A = {p.A:g} exceeds the "
                f"linear-regime soft limit {AMPLITUDE_SOFT_LIMIT:g}; "
                "first-order-in-A results degrade",
            )
        )
    if abs(p.Omega_sigma) >= GAP_SOFT_LIMIT:
        out.append(
            ValidationWarning(
                "GapBeyondFirstOrderValidity",
                f"|Omega*sigma| = {abs(p.Omega_sigma):g} is at or "
                f"beyond the soft limit {GAP_SOFT_LIMIT:g}; |X_M| decays like "
                "exp(-(Omega*sigma)^2) there and the neglected second-order "
                "strain contribution can dominate the GW shift",
            )
        )
    if p.omega_sigma < 0.0:
        out.append(
            ValidationWarning(
                "NegativeGwFrequency",
                f"omega*sigma = {p.omega_sigma:g} is negative; the "
                "background is defined for omega >= 0",
            )
        )
    return out


# --- configuration files -------------------------------------------------
#
# Plain "key = value" files; blank lines and #-comments allowed.  Exactly
# these keys are understood; anything else is an error so that typos fail
# loudly instead of silently falling back to defaults.

CONFIG_DEFAULTS: dict[str, float] = {
    _config_key(f.name): f.default for f in fields(DimensionlessParams)
}

CONFIG_KEYS = tuple(CONFIG_DEFAULTS)

# The fields and their defaults, in field order.
_FIELD_DEFAULTS = {f.name: f.default for f in fields(DimensionlessParams)}


def parse_config(text: str) -> dict[str, float]:
    """Parse key = value configuration text into a {key: float} mapping.

    ConfigError names the line of a malformed entry, an unknown key or a
    value that is not a number, and both lines of a key given twice.
    """
    out: dict[str, float] = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(
                f"line {lineno}: unknown key {key!r} "
                f"(known keys: {', '.join(CONFIG_KEYS)})"
            )
        if key in seen:
            raise ConfigError(
                f"line {lineno}: key {key!r} is already set on line {seen[key]}"
            )
        seen[key] = lineno
        try:
            out[key] = float(value)
        except ValueError as exc:
            raise ConfigError(
                f"line {lineno}: value for {key!r} is not a number: {value!r}"
            ) from exc
    return out


def read_config(path: str) -> dict[str, float]:
    """Read and parse a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    return parse_config(text)


def params_from_mapping(values: dict[str, float]) -> DimensionlessParams:
    """Build DimensionlessParams from a {config key: value} mapping.

    Missing keys take the documented defaults; the mapping is typically
    defaults, overlaid by a config file, overlaid by CLI flags.  An unknown
    key or a non-finite value (nan, inf) raises ConfigError naming the key.
    """
    if not values.keys() <= CONFIG_DEFAULTS.keys():
        unknown = next(key for key in values if key not in CONFIG_DEFAULTS)
        raise ConfigError(f"unknown parameter {unknown!r}")
    # What the generated __init__ does, at half its cost: the fields in
    # field order, then every check of __post_init__.
    params = object.__new__(DimensionlessParams)
    fields_of = params.__dict__
    fields_of.update(_FIELD_DEFAULTS)
    fields_of.update(values)
    if "lambda" in values:
        fields_of["coupling_lambda"] = fields_of.pop("lambda")
    params.__post_init__()
    return params
