"""Tests for domain types, validation warnings, and config parsing."""

import math

import numpy as np
import pytest

from gwharvest.closedform import evaluate
from gwharvest.model import (
    AMPLITUDE_SOFT_LIMIT,
    CONFIG_DEFAULTS,
    CONFIG_KEYS,
    ConfigError,
    DimensionlessParams,
    InvalidCoupling,
    InvalidGeometry,
    ValidationWarning,
    params_from_mapping,
    parse_config,
    read_config,
    validate,
)


def test_default_construction():
    p = DimensionlessParams()
    assert p.A == 0.0
    assert p.omega_sigma == 2.0
    assert p.Omega_sigma == 1.0
    assert p.t0_sigma == 0.0
    assert p.coupling_lambda == 1.0
    assert p.D_sigma == 1.0
    assert validate(p) == []


def test_coupling_must_be_positive():
    with pytest.raises(InvalidCoupling, match="coupling lambda must be > 0"):
        DimensionlessParams(coupling_lambda=0.0)
    with pytest.raises(InvalidCoupling):
        DimensionlessParams(coupling_lambda=-1.0)
    # The coupling is checked first: a point breaking both rules reports it.
    with pytest.raises(InvalidCoupling):
        DimensionlessParams(coupling_lambda=-1.0, D_sigma=-1.0)


def test_geometry_contract():
    with pytest.raises(InvalidGeometry, match=r"D/sigma must be > 0, got 0\.0"):
        DimensionlessParams(D_sigma=0.0)
    with pytest.raises(InvalidGeometry):
        DimensionlessParams(D_sigma=-2.0)


def _params(**kw):
    values = dict(CONFIG_DEFAULTS)
    values.update(kw)
    return params_from_mapping(values)


def test_validate_amplitude_warnings():
    codes = [w.code for w in validate(_params(A=-0.01))]
    assert codes == ["AmplitudeNegative"]
    codes = [w.code for w in validate(_params(A=AMPLITUDE_SOFT_LIMIT + 0.05))]
    assert codes == ["AmplitudeBeyondLinearRegime"]
    assert validate(_params(A=AMPLITUDE_SOFT_LIMIT)) == []


def test_validate_gap_warning():
    codes = [w.code for w in validate(_params(Omega_sigma=2.0))]
    assert codes == ["GapBeyondFirstOrderValidity"]
    codes = [w.code for w in validate(_params(Omega_sigma=-2.5))]
    assert codes == ["GapBeyondFirstOrderValidity"]
    assert validate(_params(Omega_sigma=1.9)) == []


def test_validate_negative_frequency_warning():
    codes = [w.code for w in validate(_params(omega_sigma=-1.0))]
    assert codes == ["NegativeGwFrequency"]


def test_validate_multiple_warnings_accumulate():
    ws = validate(_params(A=0.5, Omega_sigma=3.0, omega_sigma=-2.0))
    assert [w.code for w in ws] == [
        "AmplitudeBeyondLinearRegime",
        "GapBeyondFirstOrderValidity",
        "NegativeGwFrequency",
    ]


def test_validation_warning_str():
    w = ValidationWarning("SomeCode", "the message")
    assert str(w) == "SomeCode: the message"


def test_parse_config_roundtrip():
    text = """
    # reference point
    A = 0.05
    omega_sigma = 2.0   # resonance for Omega = 1
    Omega_sigma=1.0
    D_sigma = 2

    t0_sigma = 0.0
    lambda = 0.01
    """
    values = parse_config(text)
    assert values == {
        "A": 0.05,
        "omega_sigma": 2.0,
        "Omega_sigma": 1.0,
        "D_sigma": 2.0,
        "t0_sigma": 0.0,
        "lambda": 0.01,
    }


def test_parse_config_rejects_unknown_key_with_line_number():
    with pytest.raises(ConfigError, match=r"line 2.*Omega_squiggle"):
        parse_config("A = 0\nOmega_squiggle = 1\n")


def test_parse_config_rejects_a_duplicated_key_naming_both_lines():
    with pytest.raises(ConfigError, match=r"line 3: key 'A' is already set on line 1"):
        parse_config("A = 0.1\nD_sigma = 2\nA = 0.2\n")


def test_parse_config_rejects_bad_number():
    with pytest.raises(ConfigError, match="not a number"):
        parse_config("A = fast\n")


def test_parse_config_rejects_missing_equals():
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config("just some words\n")


def test_read_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("D_sigma = 3.5\n")
    assert read_config(str(path)) == {"D_sigma": 3.5}
    with pytest.raises(ConfigError, match="cannot read"):
        read_config(str(tmp_path / "missing.cfg"))


def test_params_from_mapping_defaults_and_overlay():
    p = params_from_mapping({})
    assert (p.A, p.omega_sigma, p.Omega_sigma) == (0.0, 2.0, 1.0)
    p = params_from_mapping({"D_sigma": 4.0, "lambda": 0.01})
    assert p.D_sigma == 4.0
    assert p.coupling_lambda == 0.01
    assert p.omega_sigma == 2.0  # untouched default
    with pytest.raises(ConfigError):
        params_from_mapping({"separation": 1.0})


@pytest.mark.parametrize("key", CONFIG_KEYS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_from_mapping_rejects_non_finite_values(key, value):
    with pytest.raises(ConfigError, match=f"parameter '{key}' must be finite"):
        params_from_mapping({key: value})


@pytest.mark.parametrize("key", CONFIG_KEYS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_record_built_directly_rejects_non_finite_values(key, value):
    # The record itself checks finiteness, ahead of the lambda and D rules,
    # so evaluate and density_matrix never see a nan or inf parameter.
    field = "coupling_lambda" if key == "lambda" else key
    with pytest.raises(ConfigError, match=f"parameter '{key}' must be finite"):
        DimensionlessParams(**{field: value})
    with pytest.raises(ConfigError, match=f"parameter '{key}'"):
        DimensionlessParams(**{"coupling_lambda": 0.0, "D_sigma": -1.0, field: value})


def test_config_keys_cover_defaults():
    # One table: CONFIG_DEFAULTS is the record's fields under their config
    # keys, in field order, and the record built from it is the default one.
    assert CONFIG_KEYS == tuple(CONFIG_DEFAULTS) == (
        "A", "omega_sigma", "Omega_sigma", "D_sigma", "t0_sigma", "lambda"
    )
    assert params_from_mapping(CONFIG_DEFAULTS) == DimensionlessParams()
    p = DimensionlessParams()
    for key, value in CONFIG_DEFAULTS.items():
        assert getattr(p, "coupling_lambda" if key == "lambda" else key) == value


@pytest.mark.parametrize("scalar", [np.float32, np.float64, np.int64])
@pytest.mark.parametrize("name", ["A", "D_sigma", "t0_sigma"])
def test_numpy_scalar_fields_are_stored_as_builtin_floats(scalar, name):
    # evaluate computes in the type of its inputs: a float32 A once gave a
    # float32 concurrence, off by 1e-8.
    values = {"A": 0.05, "omega_sigma": 2.0, "Omega_sigma": -0.7, "D_sigma": 1.3,
              "t0_sigma": 0.4}
    values[name] = scalar(values[name] if scalar is not np.int64 else 2)
    plain = {k: float(v) for k, v in values.items()}
    for params in (DimensionlessParams(**values), params_from_mapping(values)):
        assert [type(v) for v in vars(params).values()] == [float] * 6
        assert params == DimensionlessParams(**plain)
        row = np.array(evaluate(params).row)
        expected = np.array(evaluate(DimensionlessParams(**plain)).row)
        assert row.view(np.int64).tolist() == expected.view(np.int64).tolist()


def test_frozen_dataclasses():
    with pytest.raises(AttributeError):
        DimensionlessParams().A = 0.5


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scalar", [np.float32, np.float64])
def test_numpy_scalar_fields_are_converted_before_they_are_summed(scalar):
    # Summed as numpy scalars, the largest finite fields overflow with a
    # RuntimeWarning; converted first, the builtin sum overflows silently.
    big = scalar(np.finfo(scalar).max)
    values = {"A": big, "omega_sigma": big, "t0_sigma": -big}
    for params in (DimensionlessParams(**values), params_from_mapping(values)):
        assert [type(v) for v in vars(params).values()] == [float] * 6
        assert params.A == params.omega_sigma == -params.t0_sigma == float(big)
    with pytest.raises(ConfigError, match="'omega_sigma' must be finite"):
        DimensionlessParams(A=big, omega_sigma=scalar(math.inf))


@pytest.mark.parametrize("with_lambda", [False, True])
def test_params_finite_fields_whose_sum_overflows_still_construct(with_lambda):
    # Finiteness is first checked on the sum of the fields; a sum that
    # overflows sends the check field by field, which finds nothing wrong.
    values = {"A": 1e308, "omega_sigma": 1e308}
    if with_lambda:
        values["lambda"] = 1e308
    p = params_from_mapping(values)
    assert (p.A, p.omega_sigma) == (1e308, 1e308)
    assert p.coupling_lambda == (1e308 if with_lambda else 1.0)
    assert DimensionlessParams(A=-1e308, t0_sigma=-1e308).t0_sigma == -1e308


def test_params_name_the_first_non_finite_field_when_the_sum_is_nan():
    # inf + -inf is nan: the field-by-field check still names the first
    # bad key in field order, whichever key the mapping lists first.
    with pytest.raises(ConfigError, match="parameter 'omega_sigma'"):
        params_from_mapping({"t0_sigma": -math.inf, "omega_sigma": math.inf})
    with pytest.raises(ConfigError, match="parameter 'lambda'"):
        params_from_mapping({"lambda": math.nan, "D_sigma": 2.0})


@pytest.mark.parametrize(
    "values",
    [
        {"separation": 1.0},
        {"A": 0.05, "separation": 1.0},
        {"lambda": 0.5, "separation": 1.0},
        # A field name that is not a config key: the coupling's key is lambda.
        {"coupling_lambda": 0.5},
    ],
)
def test_params_from_mapping_rejects_unknown_keys(values):
    unknown = next(k for k in values if k not in CONFIG_KEYS)
    with pytest.raises(ConfigError, match=f"unknown parameter '{unknown}'"):
        params_from_mapping(values)


@pytest.mark.parametrize(
    "values",
    [
        {"A": 0.05, "omega_sigma": 3.0, "D_sigma": 2.0},
        {"A": 0.05, "lambda": 0.5},
        dict(CONFIG_DEFAULTS),
        {},
    ],
)
def test_params_from_mapping_leaves_the_mapping_unchanged(values):
    before = dict(values)
    p = params_from_mapping(values)
    assert values == before and list(values) == list(before)
    assert p.coupling_lambda == values.get("lambda", 1.0)
