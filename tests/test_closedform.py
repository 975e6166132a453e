"""Tests for the closed-form observables.

The frozen reference values below were produced by the package's
independent quadrature oracles (see gwharvest.oracle) *before* being
frozen here: regulated-kernel extrapolation for P and C_M, the
principal-value-subtraction regularization for X_M, the conjugate-variable
(s-integral) representations for I2 and I4, and the nascent-delta'
extrapolation for I1 and I3.  Tolerances reflect each oracle's measured
accuracy with an order-of-magnitude margin.
"""

import cmath
import dataclasses
import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwharvest import closedform as cf
from gwharvest import specfun
from gwharvest.closedform import (
    FIRST_ORDER_XM_FLOOR,
    OBSERVABLES,
    OUTSIDE_FIRST_ORDER_FLAG,
    SMALL_OMEGA_CUTOFF,
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
from gwharvest.model import (
    ConfigError,
    DegenerateDirection,
    DimensionlessParams,
    DomainTooLarge,
    InvalidGeometry,
    StateInvalid,
    params_from_mapping,
)
from gwharvest.oracle import oracle_c_gw, oracle_I1, oracle_I3, oracle_x_gw

PI_32 = math.pi**1.5

# --- frozen oracle references ----------------------------------------------

# (Omega, P) from the regulated-kernel oracle; worst observed deviation of
# the closed form is 1.7e-7 (at Omega = -1, where the kernel is hardest).
P_ORACLE = [
    (-1.0, 0.2891828988892931),
    (-0.25, 0.11976172312881886),
    (0.5, 0.028158873747919724),
    (1.0, 0.007088272031206647),
    (2.0, 0.00013794755594697495),
]

# (Omega, D, t0, X_M) from the PV-subtraction oracle (machine accurate).
XM_ORACLE = [
    (1.0, 1.0, 0.0, -0.02485067874683473 - 0.040410755506246294j),
    (0.5, 2.0, 1.0, -0.035019957245385536 + 0.01714392120388701j),
    (1.5, 0.5, 0.0, -0.008046511641224493 - 0.027931166815215545j),
    (1.0, 4.0, 1.0, 0.0016195220702422389 + 0.004109654502747218j),
    (0.0, 1.0, 0.0, -0.06755114846239424 - 0.1098478223669306j),
    (-0.5, 1.0, 0.3, -0.02497756307972858 - 0.09727561517756887j),
]

# (Omega, D, C_M) from the regulated-kernel oracle; worst deviation 2.2e-8.
CM_ORACLE = [
    (1.0, 1.0, 0.006600334155986937),
    (0.5, 2.0, 0.018831855595155256),
    (1.5, 0.5, 0.001201082006498214),
    (2.0, 3.0, 0.00010273061791222338),
    (-0.5, 1.0, 0.13064631111764272),
]

# (omega, D, Im I1) from the nascent-delta' oracle that oracle_I1 replaced;
# worst relative deviation 3.8e-11.
I1_ORACLE = [
    (2.0, 1.0, 0.9562676566864755),
    (5.0, 2.0, -0.6072200771642381),
    (0.5, 0.5, 0.4158584291203726),
    (2.0, 4.0, -0.07125572751009979),
    (8.0, 1.0, 0.11049309564182504),
]

# (omega, D, I2) from the s-integral oracle (machine accurate).
I2_ORACLE = [
    (2.0, 1.0, 0.22864189936231485),
    (5.0, 2.0, 1.0513090440275565),
    (0.5, 0.5, 0.009315488650344723),
    (2.0, 4.0, 1.6096636708324505),
    (8.0, 1.0, 1.105494825507553),
]

# (omega, Omega, D, I3) from the nascent-delta' oracle that oracle_I3
# replaced; worst relative deviation 1.8e-12.
I3_ORACLE = [
    (2.0, 1.0, 1.0, -1.05315419439168),
    (5.0, 0.5, 2.0, 0.9021576051089154),
    (0.5, 1.5, 0.5, -0.16309668760717447),
    (2.0, 1.5, 2.0, -1.9250525272639456),
    (3.0, 2.0, 1.0, -2.447715548199971),
]

# (omega, Omega, D, I4) from the s-integral oracle (machine accurate).
I4_ORACLE = [
    (2.0, 1.0, 1.0, 1.0947694907100014),
    (5.0, 0.5, 2.0, 1.6585015895962172),
    (0.5, 1.5, 0.5, 0.1631981716051523),
    (2.0, 1.5, 2.0, 2.0196414164827194),
    (3.0, 2.0, 1.0, 2.453315592870269),
]


# --- transition probability -------------------------------------------------


def test_p_at_zero_gap_is_one_over_four_pi():
    assert abs(transition_probability(0.0) - 1.0 / (4.0 * math.pi)) < 1e-15


@pytest.mark.parametrize("Omega, ref", P_ORACLE)
def test_p_matches_frozen_oracle(Omega, ref):
    assert abs(transition_probability(Omega) - ref) < 1e-6


def test_p_monotonically_decreasing_in_gap():
    oms = np.linspace(-2.0, 3.0, 101)
    vals = [transition_probability(om) for om in oms]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v > 0.0 for v in vals)


def test_p_excited_state_growth():
    # For Omega -> -inf, P ~ -sqrt(pi) Omega / (2 pi): de-excitation is easy.
    Om = -20.0
    expect = (math.exp(-400.0) - math.sqrt(math.pi) * Om * 2.0) / (4.0 * math.pi)
    assert math.isclose(transition_probability(Om), expect, rel_tol=1e-10)


# --- X_M and C_M ------------------------------------------------------------


@pytest.mark.parametrize("Omega, D, t0, ref", XM_ORACLE)
def test_xm_matches_frozen_oracle(Omega, D, t0, ref):
    val = x_minkowski(Omega, D, t0)
    assert abs(val - ref) <= 1e-12 * abs(ref)


def test_xm_phase_structure():
    # t0 enters only through exp(-2 i Omega t0).
    rng = np.random.default_rng(3)
    for _ in range(50):
        Om = rng.uniform(-1.5, 1.5)
        D = rng.uniform(0.3, 4.0)
        t0 = rng.uniform(-2.0, 2.0)
        base = x_minkowski(Om, D, 0.0)
        shifted = x_minkowski(Om, D, t0)
        expect = base * cmath.exp(-2j * Om * t0)
        assert abs(shifted - expect) <= 1e-13 * abs(base)
        assert abs(abs(shifted) - abs(base)) <= 1e-13 * abs(base)


@pytest.mark.parametrize("Omega, D, ref", CM_ORACLE)
def test_cm_matches_frozen_oracle(Omega, D, ref):
    assert abs(c_minkowski(Omega, D) - ref) < 1e-7


def test_cm_real_and_not_even_in_gap():
    assert isinstance(c_minkowski(1.0, 1.0), float)
    # A pair initialized in the excited state (Omega < 0) has a genuinely
    # different exchange term: c_m is not even in Omega.
    assert abs(c_minkowski(-0.5, 1.0) - c_minkowski(0.5, 1.0)) > 1e-2


# --- envelope ---------------------------------------------------------------


def test_f_envelope_two_forms_agree():
    rng = np.random.default_rng(17)
    for _ in range(200):
        w = rng.uniform(0.1, 8.0)
        Om = rng.uniform(-2.0, 2.0)
        t0 = rng.uniform(-2.0, 2.0)
        a = f_envelope(w, Om, t0)
        # The cosh form 2 exp(-omega^2/4 - Omega^2 - 2 i t0 Omega)
        # * cosh(omega Omega - i t0 omega) of the same two-Gaussian sum.
        b = 2.0 * cmath.exp(-w * w / 4.0 - Om * Om - 2j * t0 * Om) * cmath.cosh(
            w * Om - 1j * t0 * w
        )
        assert abs(a - b) <= 1e-12 * max(abs(a), 1e-300)


def test_f_envelope_peaks_at_resonance():
    # At t0 = 0 the envelope is largest near omega = 2 Omega.
    Om = 1.0
    at_res = abs(f_envelope(2.0 * Om, Om, 0.0))
    assert at_res > abs(f_envelope(0.5, Om, 0.0))
    assert at_res > abs(f_envelope(6.0, Om, 0.0))


# --- auxiliary integrals ----------------------------------------------------


@pytest.mark.parametrize("omega, D, ref", I1_ORACLE)
def test_i1_matches_frozen_oracle(omega, D, ref):
    val = integral_I1(omega, D)
    assert abs(val.real) == 0.0  # purely imaginary
    assert abs(val.imag - ref) <= 1e-9 * abs(ref)


@pytest.mark.parametrize("omega, D, ref", I2_ORACLE)
def test_i2_matches_frozen_oracle(omega, D, ref):
    assert abs(integral_I2(omega, D) - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("omega, Omega, D, ref", I3_ORACLE)
def test_i3_matches_frozen_oracle(omega, Omega, D, ref):
    assert abs(integral_I3(omega, Omega, D) - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("omega, Omega, D, ref", I4_ORACLE)
def test_i4_matches_frozen_oracle(omega, Omega, D, ref):
    assert abs(integral_I4(omega, Omega, D) - ref) <= 1e-12 * abs(ref)


def test_strain_contour_oracles_reproduce_the_frozen_i1_i3_tables():
    # The frozen values came from the nascent-delta' oracle; today's I1/I3
    # oracles must give them back within that oracle's stated deviations.
    for omega, D, ref in I1_ORACLE:
        assert abs(oracle_I1(omega, D).value.imag - ref) <= 3.8e-11 * abs(ref)
    for omega, Omega, D, ref in I3_ORACLE:
        assert abs(oracle_I3(omega, Omega, D).value.real - ref) <= 1.8e-12 * abs(ref)


def test_i3_odd_i4_even_in_gap():
    rng = np.random.default_rng(23)
    for _ in range(200):
        w = rng.uniform(0.1, 8.0)
        Om = rng.uniform(0.05, 2.0)
        D = rng.uniform(0.3, 4.0)
        i3p, i3m = integral_I3(w, Om, D), integral_I3(w, -Om, D)
        assert abs(i3p + i3m) <= 1e-13 * max(abs(i3p), 1e-30)
        i4p, i4m = integral_I4(w, Om, D), integral_I4(w, -Om, D)
        assert abs(i4p - i4m) <= 1e-12 * max(abs(i4p), 1e-30)


def test_small_omega_fallbacks_are_continuous():
    # One ulp below the cutoff the series, at it the direct forms.  The
    # jump in I2 and I4 is the direct forms' cancellation error, which
    # grows as D shrinks (at most 3.6e-10, 3.8e-12 and 3.5e-13 measured
    # at these D); I1 and I3 have none and agree to rounding.
    above = SMALL_OMEGA_CUTOFF
    below = math.nextafter(above, 0.0)

    def jump(f, *args):
        return abs(f(below, *args) - f(above, *args)) / abs(f(above, *args))

    for D, bound in [(0.25, 1e-9), (1.0, 1e-11), (4.0, 1e-12)]:
        assert jump(integral_I1, D) <= 1e-14
        assert jump(integral_I2, D) <= bound
        for Om in (0.8, -1.3, 2.0):
            assert jump(integral_I3, Om, D) <= 1e-14
            assert jump(integral_I4, Om, D) <= bound


# (omega, Omega, D, Im I1, I2, I3, I4) below SMALL_OMEGA_CUTOFF: the
# defining closed forms of the integral_I* docstrings in 50-digit
# arithmetic (mpmath), rounded to doubles.  |I3| is at least 0.02 of the
# size of its bracket's terms, and I4 is far from its zeros.
SMALL_OMEGA_REFERENCE = [
    (1e-06, 0.3, 0.25, 0.199346217854278, 0.0005698065941453655,
     -0.000959606499172187, 0.0014491033719085408),
    (2.5e-06, -1.2, 0.6, 0.5082023110636754, 0.01781601381995127,
     0.20394743429311765, 0.20458716404267377),
    (7e-06, 2.0, 1.0, 0.9175030570157883, 0.12110696407683705,
     -2.6867423235607415, 2.686847179621634),
    (1.3e-05, -0.45, 4.0, 0.5178624891624773, 2.524199386398387,
     1.0557020933022252, 3.8231419654591496),
    (4e-05, 1.7, 2.3, 1.7545299968112378, 1.5006963482409719,
     -0.26774761624242577, 0.2780615563112488),
    (9e-05, -2.0, 0.25, 0.19934621785822762, 0.0005698065952894758,
     0.021501867062639606, 0.021502299837823743),
    (0.00022, 0.8, 1.5, 1.4264265988713283, 0.4804264538495181,
     -2.075204019055653, 2.16978489394757),
    (0.00045, -0.6, 3.2, 1.189042513676279, 2.403822187006982,
     2.489823009101856, 3.9670463955166446),
    (0.0006, 1.1, 0.4, 0.32598817738472513, 0.0036622856035434404,
     -0.03738232733814953, 0.037576294995672305),
    (0.0008, -1.5, 2.0, 1.7335909630475885, 1.0887095187886076,
     3.9217725884507324, 3.9379086341704617),
    (0.00095, 0.25, 4.0, 0.5178622468674238, 2.52419915314483,
     -0.8093538589118479, 4.662947421055256),
    (0.000999, -0.9, 0.9, 0.8110807398702704, 0.0824940364121996,
     0.5300944035260401, 0.5401594566702493),
]


@pytest.mark.parametrize("omega, Omega, D, i1, i2, i3, i4", SMALL_OMEGA_REFERENCE)
def test_small_omega_series_match_50_digit_references(omega, Omega, D, i1, i2, i3, i4):
    # The series are exact through omega^4; the worst error measured is
    # 2.9e-14 (I2 at D = 0.25, where the direct form also loses digits).
    assert integral_I1(omega, D).real == 0.0
    for got, ref in [
        (integral_I1(omega, D).imag, i1),
        (integral_I2(omega, D), i2),
        (integral_I3(omega, Omega, D), i3),
        (integral_I4(omega, Omega, D), i4),
    ]:
        assert abs(got - ref) <= 1e-12 * abs(ref)


# (omega, Omega, D, Im I1, I2, I3, I4, tolerance of I2 and I4) above
# SMALL_OMEGA_CUTOFF, on the direct branch: the defining closed forms of
# the integral_I* docstrings in 50-digit arithmetic (mpmath), rounded to
# doubles.  |I3| is at least 0.02 of the size of its bracket's terms.  The
# tolerance is 1e-13, or where the direct I2 and I4 lose digits to the
# cancellation of their erf values (small omega D; ROADMAP item 4) their
# measured error rounded up to a power of ten.
DIRECT_REFERENCE = [
    (0.0010005, 2.0, 0.25, 0.1993462183424336, 0.0005698067355521422,
     -0.0215018679655592, 0.021502300741237636, 1e-08),
    (0.0010005, -0.9, 2.0, 1.7335909282794306, 1.088709568049058,
     3.8491573725596737, 4.023870862027173, 1e-12),
    (0.0013, -1.2, 4.0, 0.5178620354069857, 2.5241989495752177,
     -1.0800848802003804, -0.7142134175828222, 1e-12),
    (0.0022, 2.0, 1.0, 0.9175031186917396, 0.12110709136491903,
     -2.6867422303942434, 2.6868470870318375, 1e-11),
    (0.0047, -0.45, 0.5, 0.4150200522665377, 0.008782138753437817,
     0.02336365383771677, 0.028163732738925217, 1e-10),
    (0.01, 1.7, 2.0, 1.7335813935769793, 1.0887230769235865,
     -2.912941467825657, 2.9193485368982017, 1e-13),
    (0.031, 2.0, 0.25, 0.19934668650243978, 0.0005699423535251983,
     -0.021502740964196493, 0.02150317421791561, 1e-09),
    (0.031, 0.3, 1.0, 0.9175153023968307, 0.12113223803961981,
     -0.1916930026846361, 0.299325194829803, 1e-12),
    (0.09, -0.9, 4.0, 0.5156899824001325, 2.522105736136742,
     -0.08689163253181428, 0.8605699854056046, 1e-13),
    (0.27, 0.3, 1.0, 0.9184277995371982, 0.12302526510676619,
     -0.19328229334735034, 0.3032051687999514, 1e-13),
    (0.75, -1.2, 0.5, 0.4169004366603948, 0.009989877621970723,
     0.10757029141152115, 0.10800649639004864, 1e-13),
    (1.6, 2.0, 2.0, 1.4609165322173665, 1.3868268247585276,
     0.323471316613252, -0.3152151875758371, 1e-13),
    (2.4, -1.2, 0.5, 0.4332586531572661, 0.022329992415030017,
     0.1454370609042642, 0.14788957905362426, 1e-13),
    (3.3, -0.45, 0.25, 0.20451939893127716, 0.002461100056242437,
     0.0039163545966260024, 0.00608200362848113, 1e-13),
    (5.2, 1.7, 4.0, -0.013522122200518634, 0.6828102308156262,
     -0.04079165937550844, 1.3122286567730512, 1e-13),
    (8.0, 0.8, 1.0, 0.11049309564316297, 1.1054948255075534,
     -0.28753146084961895, 1.893340732655392, 1e-13),
]


@pytest.mark.parametrize("omega, Omega, D, i1, i2, i3, i4, tol24", DIRECT_REFERENCE)
def test_direct_branch_matches_50_digit_references(
    omega, Omega, D, i1, i2, i3, i4, tol24
):
    # I1 and I3 take no difference that cancels as omega -> 0: they hold
    # 1e-13 from the cutoff up (the worst measured is 1.3e-15).
    assert integral_I1(omega, D).real == 0.0
    for got, ref, tol in [
        (integral_I1(omega, D).imag, i1, 1e-13),
        (integral_I2(omega, D), i2, tol24),
        (integral_I3(omega, Omega, D), i3, 1e-13),
        (integral_I4(omega, Omega, D), i4, tol24),
    ]:
        assert abs(got - ref) <= tol * abs(ref)


def test_evaluate_arrays_small_omega_columns_match_50_digit_references():
    # x_gw = f (I2 + i I1)/(4 D^2 pi^{3/2}) and c_gw = -e^{-w^2/4}
    # cos(w t0) (I3 + I4)/(4 D^2 pi^{3/2}) from the references; c_gw is
    # judged against the size of its two terms, which nearly cancel at
    # some points.
    w, Om, D, i1, i2, i3, i4 = np.array(SMALL_OMEGA_REFERENCE).T
    t0 = np.linspace(0.0, 1.0, len(w))
    rows = evaluate_arrays(w, Om, D, t0, 0.05)
    col = {name: rows[:, k] for k, name in enumerate(OBSERVABLES)}
    norm = 4.0 * D * D * PI_32
    env = np.array([f_envelope(*point) for point in zip(w, Om, t0)])
    x_want = env * (i2 + 1j * i1) / norm
    x_got = col["re_x_gw"] + 1j * col["im_x_gw"]
    assert np.all(np.abs(x_got - x_want) <= 1e-12 * np.abs(x_want))
    c_factor = -np.exp(-w * w / 4.0) * np.cos(w * t0) / norm
    c_want, c_size = c_factor * (i3 + i4), np.abs(c_factor) * (np.abs(i3) + np.abs(i4))
    assert np.all(np.abs(col["re_c_gw"] - c_want) <= 1e-12 * c_size)
    assert np.all(col["im_c_gw"] == 0.0)


# omega on both sides of the cutoff, zero included.
_OMEGA_BOTH_SIDES = st.one_of(
    st.floats(-SMALL_OMEGA_CUTOFF, SMALL_OMEGA_CUTOFF),
    st.floats(SMALL_OMEGA_CUTOFF, 8.0),
)


@settings(max_examples=300, deadline=None)
@given(_OMEGA_BOTH_SIDES, st.floats(-2.0, 2.0), st.floats(0.25, 4.0))
def test_i3_is_odd_and_i4_even_in_the_gap_on_both_sides_of_the_cutoff(w, Om, D):
    # Exactly: the series take e^{-D^2/4} erf(-Om + iD/2) as minus the
    # conjugate of the +Om product, and the direct forms sum both branches.
    assert integral_I3(w, -Om, D) == -integral_I3(w, Om, D)
    assert integral_I4(w, -Om, D) == integral_I4(w, Om, D)


def _array_integrals(w, Om, D):
    """(Im I1, I2, I3, I4) over arrays, as evaluate_arrays computes them."""
    b = specfun._ARRAY
    w, Om, D = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (w, Om, D)))
    _, factors = cf._minkowski(b, Om, D, 0.0)
    return cf._integrals(b, w, Om, D, factors)[1:]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_OMEGA_BOTH_SIDES, st.floats(-2.0, 2.0), st.floats(0.25, 4.0)),
                min_size=1, max_size=30))
def test_i3_is_odd_and_i4_even_in_the_gap_on_arrays(points):
    w, Om, D = np.array(points).T
    with np.errstate(all="ignore"):
        _, _, i3_plus, i4_plus = _array_integrals(w, Om, D)
        _, _, i3_minus, i4_minus = _array_integrals(w, -Om, D)
    assert np.array_equal(i3_minus, -i3_plus)
    assert np.array_equal(i4_minus, i4_plus)
    # And they are the scalar functions' values.
    for k, (wk, Omk, Dk) in enumerate(points):
        assert i3_plus[k] == integral_I3(wk, Omk, Dk)
        assert i4_plus[k] == integral_I4(wk, Omk, Dk)


def test_i2_large_separation_is_not_gaussian():
    # I2 -> (pi/omega) erf(omega/2) as D -> infinity, with a 1/D^2
    # approach: the GW coherence decays algebraically, not like the
    # Gaussian exp(-D^2/4) (which would be ~1e-98 already at D = 30).
    w = 2.0
    limit = math.pi / w * math.erf(w / 2.0)
    err30 = integral_I2(w, 30.0) - limit
    err60 = integral_I2(w, 60.0) - limit
    assert abs(err30) < 1e-2
    assert abs(err30) > 1e-4  # algebraic tail, far above any Gaussian one
    assert 0.2 < err60 / err30 < 0.3  # quartering confirms the 1/D^2 law


# --- GW matrix elements as compositions of frozen pieces --------------------


def test_x_gw_composition_from_frozen_integrals():
    # x_gw = f * (I1 + I2) / (4 D^2 pi^{3/2}) with I1, I2 frozen from their
    # oracles; checks the assembly, not just the ingredients.
    w, D = 2.0, 1.0
    i1 = 1j * I1_ORACLE[0][2]
    i2 = I2_ORACLE[0][2]
    for Om, t0 in [(1.0, 0.0), (1.0, 1.0), (-0.5, 0.7)]:
        expect = f_envelope(w, Om, t0) * (i1 + i2) / (4.0 * D * D * PI_32)
        val = x_gw(w, Om, D, t0)
        assert abs(val - expect) <= 1e-9 * abs(expect)


def test_c_gw_composition_from_frozen_integrals():
    # c_gw = -exp(-w^2/4) cos(w t0) (I3 + I4) / (4 D^2 pi^{3/2}).
    w, Om, D = 2.0, 1.0, 1.0
    i3 = I3_ORACLE[0][3]
    i4 = I4_ORACLE[0][3]
    for t0 in (0.0, 1.0):
        expect = (
            -math.exp(-w * w / 4.0)
            * math.cos(w * t0)
            * (i3 + i4)
            / (4.0 * D * D * PI_32)
        )
        val = c_gw(w, Om, D, t0)
        assert val.imag == 0.0
        assert abs(val.real - expect) <= 1e-9 * abs(expect)


# --- GW matrix elements against the end-to-end oracle -----------------------
#
# The oracles integrate the strain term of the first-order Wightman function
# over both switching times, so they check the envelope, its t0 phase, the
# prefactors and the normalization together.  Each check also requires the
# oracle's own error estimate to resolve the stated tolerance.


def _assert_matches_oracle(val, est, rtol=1e-8):
    assert est.converged
    assert est.abs_error_estimate <= 0.1 * rtol * abs(est.value)
    assert abs(val - est.value) <= rtol * abs(est.value)


@pytest.mark.parametrize(
    "omega, Omega, D",
    [(2.0, 1.0, 0.5), (2.0, -0.7, 0.5), (5.0, -1.5, 4.0), (0.5, -0.5, 4.0)],
)
def test_x_gw_matches_end_to_end_oracle(omega, Omega, D):
    # t0 = 0 only: at t0 != 0 f_envelope carries the wrong phase (README,
    # "Known fault").
    _assert_matches_oracle(
        x_gw(omega, Omega, D, 0.0), oracle_x_gw(omega, Omega, D, 0.0)
    )


@pytest.mark.parametrize(
    "omega, Omega, D", [(2.0, 1.0, 1.0), (2.0, -0.7, 0.5), (5.0, -1.5, 4.0)]
)
@pytest.mark.parametrize("t0", [0.0, 0.6, 1.0])
def test_c_gw_matches_end_to_end_oracle(omega, Omega, D, t0):
    # Negative Omega checks the odd I3 against an even I4: an even I3
    # would miss the oracle by twice its own term.
    _assert_matches_oracle(
        c_gw(omega, Omega, D, t0), oracle_c_gw(omega, Omega, D, t0)
    )


# --- assembled observables --------------------------------------------------


def _params(**kw):
    return params_from_mapping(kw)


def test_evaluate_consistent_with_parts():
    p = _params(A=0.05, omega_sigma=2.0, Omega_sigma=1.0, D_sigma=1.0,
                t0_sigma=0.5)
    rep = evaluate(p)
    xm = x_minkowski(1.0, 1.0, 0.5)
    cm = c_minkowski(1.0, 1.0)
    xg = x_gw(2.0, 1.0, 1.0, 0.5)
    cg = c_gw(2.0, 1.0, 1.0, 0.5)
    pn = transition_probability(1.0)
    assert rep.x_m == xm
    assert rep.c_m == complex(cm, 0.0)
    assert rep.x_gw == xg
    assert rep.c_gw == cg
    assert rep.p_norm == pn
    assert math.isclose(rep.theta_m, abs(xm) - pn, rel_tol=1e-14)
    assert math.isclose(
        rep.theta_gw, (xg * xm.conjugate()).real / abs(xm), rel_tol=1e-14
    )
    assert rep.concurrence == 2.0 * max(0.0, rep.theta_m + 0.05 * rep.theta_gw)
    assert math.isclose(
        rep.psi_m, (abs(xm) ** 2 + cm * cm) / pn, rel_tol=1e-14
    )
    assert math.isclose(
        rep.psi_gw,
        2.0 * ((xg * xm.conjugate()).real + cg.real * cm) / pn,
        rel_tol=1e-14,
    )
    assert math.isclose(rep.corr, rep.psi_m + 0.05 * rep.psi_gw, rel_tol=1e-14)
    assert rep.flags == ()


def test_concurrence_clamps_at_zero():
    # Wide spacelike separation: no harvesting; theta_m < 0 clamps to zero.
    rep = evaluate(_params(Omega_sigma=0.5, D_sigma=4.0))
    assert rep.theta_m < 0.0
    assert rep.concurrence == 0.0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_OMEGA_BOTH_SIDES, st.floats(-2.0, 2.0), st.floats(0.25, 4.0))
def test_theta_gw_is_even_in_the_gap_at_t0_zero(w, Om, D):
    # At t0 = 0, x_m sees Omega only through e^{-Omega^2}, I1 and I2 not at
    # all, and -Omega swaps the envelope's two Gaussians, whose sum is the
    # same double: so the bits are equal, on both sides of the cutoff.
    plus = evaluate(_params(omega_sigma=w, Omega_sigma=Om, D_sigma=D))
    minus = evaluate(_params(omega_sigma=w, Omega_sigma=-Om, D_sigma=D))
    assert minus.theta_gw == plus.theta_gw


def test_degenerate_direction_raises():
    with pytest.raises(DegenerateDirection):
        evaluate(_params(Omega_sigma=30.0, D_sigma=1.0))


def test_evaluate_never_reports_ok_with_a_non_finite_observable():
    # Far outside the presets the arithmetic overflows (D^2 from D ~ 1e154
    # up) and clip turns a nan margin into concurrence 0.0; such a point
    # must fail with a named error, never return a report.
    rng = np.random.default_rng(5)
    n = 3000

    def log_uniform(lo, hi):
        return np.exp(rng.uniform(math.log(lo), math.log(hi), n))

    signs = rng.choice([-1.0, 1.0], (2, n))
    cols = np.stack([
        signs[0] * log_uniform(1e-6, 1e3),
        signs[1] * log_uniform(1e-6, 1e3),
        log_uniform(1e-3, 1e250),
        rng.uniform(0.0, 1.0, n),
    ])
    ok = domain = 0
    for omega, Omega, D, t0 in cols.T.tolist():
        try:
            row = _scalar_row(omega, Omega, D, t0, 0.05)
        except DomainTooLarge:
            domain += 1
            continue
        except (ArithmeticError, ValueError):
            continue
        ok += 1
        assert all(map(math.isfinite, row)), (omega, Omega, D, t0, row)
    assert ok > n // 10 and domain > n // 10


def test_non_finite_observables_are_named():
    # At D = 1e100 the series' (D w)^4 terms overflow; X_M stays finite.
    with pytest.raises(
        DomainTooLarge,
        match=r"^non-finite re_x_gw, im_x_gw, re_c_gw, theta_gw, psi_gw, corr at ",
    ):
        evaluate(_params(D_sigma=1e100, omega_sigma=1e-4, A=0.05))


def test_x_m_underflows_to_a_degenerate_direction_at_a_vast_separation():
    # |x_m| ~ e^{-Omega^2}/(2 pi D^2) is 0 at D = 1e200, and X_M's phased
    # erf product needs no exponent that could overflow on the way.
    with pytest.raises(DegenerateDirection, match=r"^\|x_m\| = 0 at "):
        evaluate(_params(D_sigma=1e200, A=0.05))


def test_first_order_floor_flag():
    # |x_m| ~ e^{-Omega^2}: at Omega = 5.4 it sits below 1e-12 but far
    # above the degenerate floor, so evaluation succeeds with a flag.
    p = _params(Omega_sigma=5.4, D_sigma=1.0)
    rep = evaluate(p)
    assert abs(rep.x_m) < FIRST_ORDER_XM_FLOOR
    assert OUTSIDE_FIRST_ORDER_FLAG in rep.flags


@pytest.mark.parametrize(
    "Omega, flags", [(1.0, ()), (5.4, (OUTSIDE_FIRST_ORDER_FLAG,))]
)
def test_evaluate_report_is_an_ordinary_frozen_report(Omega, flags):
    # evaluate fills its report through the slots, not through __init__:
    # the report must still equal, and hash as, one built by __init__.
    rep = evaluate(_params(A=0.05, omega_sigma=2.0, Omega_sigma=Omega,
                           D_sigma=1.3, t0_sigma=0.4))
    assert rep.flags == flags
    rebuilt = dataclasses.replace(rep)
    assert rebuilt == rep and hash(rebuilt) == hash(rep)
    for f in dataclasses.fields(rep):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rep, f.name, getattr(rep, f.name))
    # No per-report attribute dict: point_stream keeps 10,000 reports.
    assert not hasattr(rep, "__dict__")


# The report's attributes, named from OBSERVABLES: one complex for each
# re_*/im_* pair, one float for every other name.
_COMPLEX_VIEWS = [n[3:] for n in OBSERVABLES if n.startswith("re_")]
_FLOAT_VIEWS = [n for n in OBSERVABLES if not n.startswith(("re_", "im_"))]


def _viewed(rep, name):
    """OBSERVABLES entry name as the report's attributes give it."""
    if name.startswith(("re_", "im_")):
        value = getattr(rep, name[3:])
        return value.real if name.startswith("re_") else value.imag
    return getattr(rep, name)


@pytest.mark.parametrize("omega", [2.0, SMALL_OMEGA_CUTOFF / 2])
def test_report_attributes_are_views_of_its_row(omega):
    rep = evaluate(_params(A=0.05, omega_sigma=omega, Omega_sigma=-0.7,
                           D_sigma=1.3, t0_sigma=0.4))
    for name, value in zip(OBSERVABLES, rep.row, strict=True):
        assert struct.pack("<d", _viewed(rep, name)) == struct.pack("<d", value), name
    views = {n for n, v in vars(cf.HarvestReport).items() if isinstance(v, property)}
    assert views == {*_FLOAT_VIEWS, *_COMPLEX_VIEWS}
    # CPython 3.11's frozen slotted __setattr__ raises TypeError, not
    # FrozenInstanceError, for a name that is not a field.
    for name in _FLOAT_VIEWS + _COMPLEX_VIEWS:
        with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
            setattr(rep, name, 0.0)


def test_replace_writes_an_attribute_into_the_row():
    rep = evaluate(_params(A=0.05, omega_sigma=2.0, D_sigma=1.3))
    row = list(rep.row)
    row[OBSERVABLES.index("corr")] = 0.5
    row[OBSERVABLES.index("re_c_m")], row[OBSERVABLES.index("im_c_m")] = 1.0, 2.0
    changed = dataclasses.replace(rep, corr=0.5, c_m=1.0 + 2.0j)
    assert changed.row == tuple(row) and changed.flags == rep.flags
    with pytest.raises(TypeError, match="no attribute 'cm'"):
        dataclasses.replace(rep, cm=1.0)
    with pytest.raises(TypeError):
        dataclasses.replace(rep, corr=1j)
    with pytest.raises(ValueError, match="expected 15 observables"):
        dataclasses.replace(rep, row=rep.row[1:])


def _python_calls(fn):
    """The number of Python-level function calls fn() makes."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls - 1  # fn itself


@pytest.mark.parametrize(
    "omega, evaluate_calls",
    [(2.0, 29), (SMALL_OMEGA_CUTOFF / 2, 23)],
)
def test_python_calls_per_evaluate_stay_within_budget(omega, evaluate_calls):
    # A deterministic guard on the single-point path's per-call overhead:
    # almost all of evaluate's time goes to Python calls, not arithmetic.
    # The bounds are the counts this code makes (the direct branch, then the
    # series below the cutoff), so a change that adds calls must raise them.
    m = {"A": 0.05, "omega_sigma": omega, "Omega_sigma": 1.0, "D_sigma": 1.0,
         "t0_sigma": 0.5}
    p = params_from_mapping(m)
    assert _python_calls(lambda: params_from_mapping(m)) <= 3
    assert _python_calls(lambda: evaluate(p)) <= evaluate_calls


class _CountingWofz:
    """scipy's cython_special with its wofz calls counted."""

    def __init__(self, module):
        self._module = module
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._module, name)

    def wofz(self, z):
        self.calls += 1
        return self._module.wofz(z)


@pytest.mark.parametrize("omega, wofz_calls", [(2.0, 5), (SMALL_OMEGA_CUTOFF / 2, 2)])
def test_faddeeva_calls_per_evaluate(monkeypatch, omega, wofz_calls):
    # X_M and C_M take one each; the direct I2 one and I4 two, while the
    # series reuse the Minkowski ones.
    counting = _CountingWofz(specfun._cs)
    monkeypatch.setattr(specfun, "_cs", counting)
    evaluate(_params(A=0.05, omega_sigma=omega, Omega_sigma=1.0, D_sigma=1.0,
                     t0_sigma=0.5))
    assert counting.calls == wofz_calls


class _CountingCmath:
    """The cmath module with its exp calls counted."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(cmath, name)

    def exp(self, z):
        self.calls += 1
        return cmath.exp(z)


@pytest.mark.parametrize("omega", [2.0, SMALL_OMEGA_CUTOFF / 2])
def test_complex_exponentials_per_evaluate(monkeypatch, omega):
    # The envelope's two Gaussians, on both branches: the phase of every
    # erf product cancels in closed form, so none of the five takes one.
    counting = _CountingCmath()
    monkeypatch.setattr(specfun, "cmath", counting)
    evaluate(_params(A=0.05, omega_sigma=omega, Omega_sigma=1.0, D_sigma=1.0,
                     t0_sigma=0.5))
    assert counting.calls == 2


# --- array kernel -------------------------------------------------------------

# One point of the shipped presets' range, (omega, Omega, D, t0, A), or the
# same with |omega| at or below SMALL_OMEGA_CUTOFF, zero and negative omega
# included, so that batches mix the series with the direct forms.
_PRESET_POINTS = st.tuples(
    st.one_of(
        st.floats(1e-3, 8.0),
        st.floats(-SMALL_OMEGA_CUTOFF, SMALL_OMEGA_CUTOFF),
        st.sampled_from([0.0, -0.0]),
    ),
    st.floats(-2.0, 2.0),
    st.floats(0.25, 4.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 0.1),
)


def _scalar_row(omega, Omega, D, t0, A):
    return evaluate(
        _params(omega_sigma=omega, Omega_sigma=Omega, D_sigma=D, t0_sigma=t0, A=A)
    ).row


@settings(max_examples=200, deadline=None)
@given(st.lists(_PRESET_POINTS, min_size=1, max_size=40))
def test_evaluate_arrays_matches_evaluate(points):
    rows = evaluate_arrays(*np.array(points).T)
    assert rows.shape == (len(points), len(OBSERVABLES))
    for point, row in zip(points, rows.tolist()):
        expected = _scalar_row(*point)
        for name, a, b in zip(OBSERVABLES, row, expected):
            assert abs(a - b) <= 1e-12 * abs(b) + 1e-15, (name, point, a, b)


def test_evaluate_arrays_rows_do_not_depend_on_the_batch():
    # A row is a function of its own parameters only: a grid split into
    # chunks, strided or evaluated point by point gives identical bits.
    rng = np.random.default_rng(3)
    n = 1001
    cols = np.stack([
        rng.uniform(1e-3, 8.0, n),
        rng.uniform(-2.0, 2.0, n),
        rng.uniform(0.25, 4.0, n),
        rng.uniform(0.0, 1.0, n),
        rng.uniform(0.0, 0.1, n),
    ])
    whole = evaluate_arrays(*cols)
    halves = np.concatenate(
        [evaluate_arrays(*cols[:, :500]), evaluate_arrays(*cols[:, 500:])]
    )
    strided = evaluate_arrays(*cols[:, ::2])
    single = np.concatenate(
        [evaluate_arrays(*cols[:, i : i + 1]) for i in range(0, n, 50)]
    )
    assert np.array_equal(whole, halves)
    assert np.array_equal(whole[::2], strided)
    assert np.array_equal(whole[::50], single)


def test_evaluate_arrays_rows_equal_evaluate_bit_for_bit_below_the_cutoff():
    # The small-omega series are the same source on both paths: in a batch
    # that mixes them with the direct forms, every row has evaluate's bits.
    rng = np.random.default_rng(1003)
    n = 2000
    omega = np.exp(rng.uniform(math.log(1e-12), math.log(1e-3), n))
    omega *= rng.choice([-1.0, 1.0], n)
    omega[:3] = (0.0, -0.0, -SMALL_OMEGA_CUTOFF)
    omega[n // 2 :] = rng.uniform(SMALL_OMEGA_CUTOFF, 8.0, n - n // 2)
    cols = np.stack([
        omega,
        rng.uniform(-2.0, 2.0, n),
        np.exp(rng.uniform(math.log(1e-2), math.log(100.0), n)),
        rng.uniform(-1.0, 2.0, n),
        rng.uniform(0.0, 0.1, n),
    ])[:, rng.permutation(n)]
    rows = evaluate_arrays(*cols)
    scalar = np.array([_scalar_row(*point) for point in cols.T.tolist()])
    assert np.count_nonzero(np.abs(cols[0]) < SMALL_OMEGA_CUTOFF) > n // 3
    assert np.array_equal(rows.view(np.int64), scalar.view(np.int64))


@pytest.mark.parametrize(
    "point",
    [
        (2.0, 1.0, 0.0, 0.0, 0.0),
        (2.0, 1.0, -1.0, 0.0, 0.0),
        (2.0, math.nan, 1.0, 0.0, 0.0),
        (2.0, 1.0, 1.0, math.inf, 0.0),
    ],
)
def test_evaluate_arrays_rejects_points_outside_its_domain(point):
    # A point DimensionlessParams refuses gets an all-nan row, and the
    # valid point beside it keeps evaluate's bits.
    ok = np.array([2.0, 1.0, 1.0, 0.0, 0.0])
    rows = evaluate_arrays(*np.stack([ok, np.array(point)]).T)
    assert rows[0].tobytes() == np.array(_scalar_row(*ok.tolist())).tobytes()
    assert np.isnan(rows[1]).all()


def test_evaluate_rows_equal_kernel_rows_bit_for_bit_far_outside_presets():
    # Far beyond the presets x_gw underflows to zero at some points; the
    # scalar path must give that zero the kernel's sign, since `gwharvest
    # point` and `sweep` print it ("-0.0" or "0.0").
    rng = np.random.default_rng(2006)
    n = 4000
    cols = np.stack([
        rng.uniform(-400.0, 400.0, n),
        rng.uniform(-40.0, 40.0, n),
        np.exp(rng.uniform(math.log(1e-8), math.log(100.0), n)),
        rng.uniform(-1.0, 2.0, n),
        np.full(n, 0.05),
    ])
    rows = evaluate_arrays(*cols)
    # Points the sweep sends to evaluate one by one are not compared.
    kept = np.isfinite(rows).all(axis=1)
    assert kept.sum() > n // 2
    scalar = np.array([_scalar_row(*point) for point in cols.T[kept].tolist()])
    differ = (scalar.view(np.int64) != rows[kept].view(np.int64)).any(axis=1)
    assert np.count_nonzero(differ) == 0


# Every parameter's magnitude: 0, the powers of ten 1e-320, 1e-310, ...,
# 1e300, and 1.7e308.  They reach each way evaluate fails: D^2 underflows
# and divides, the envelope's (omega -+ 2 Omega) ** 2 overflows, the sine
# of an infinite Omega*D, observables that overflow, and |x_m| below
# DEGENERATE_XM_FLOOR (zero or not).
_MAGNITUDES = np.concatenate(([0.0], 10.0 ** np.arange(-320, 301, 10), [1.7e308]))


def test_array_rows_are_non_finite_exactly_where_evaluate_raises():
    rng = np.random.default_rng(33)
    n = 4000

    def signed():
        return rng.choice(_MAGNITUDES, n) * rng.choice([-1.0, 1.0], n)

    omega, Omega, t0, A = signed(), signed(), signed(), signed()
    D = rng.choice(_MAGNITUDES[1:], n)
    rows = evaluate_arrays(omega, Omega, D, t0, A)
    seen = set()
    for point, row in zip(zip(*(c.tolist() for c in (omega, Omega, D, t0, A))), rows):
        try:
            expected = _scalar_row(*point)
        except (DomainTooLarge, DegenerateDirection) as exc:
            assert not np.isfinite(row).all(), (point, exc)
            seen.add(type(exc.__cause__ or exc).__name__)
            continue
        assert row.tobytes() == np.array(expected).tobytes(), point
        seen.add("ok")
    assert seen == {
        "ok", "DegenerateDirection", "DomainTooLarge",
        "OverflowError", "ValueError", "ZeroDivisionError",
    }


def test_array_rows_are_non_finite_exactly_where_a_point_cannot_be_built():
    # nan and +-inf in each parameter, and D = 0, -0 or negative: the rows
    # of points DimensionlessParams refuses are nan.  Rows are non-finite
    # where evaluate raises (1e155 overflows), and hold evaluate's bits
    # everywhere else.
    rng = np.random.default_rng(34)
    n = 2000
    cols = np.stack([
        rng.uniform(0.0, 4.0, n),
        rng.uniform(-2.0, 2.0, n),
        rng.uniform(0.25, 4.0, n),
        rng.uniform(-1.0, 2.0, n),
        rng.uniform(0.0, 0.1, n),
    ])
    special = rng.random(cols.shape) < 0.15
    cols[special] = rng.choice(
        [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e155],
        np.count_nonzero(special),
    )
    rows = evaluate_arrays(*cols)
    seen = set()
    for (omega, Omega, D, t0, A), row in zip(cols.T.tolist(), rows):
        try:
            params = DimensionlessParams(
                A=A, omega_sigma=omega, Omega_sigma=Omega, D_sigma=D, t0_sigma=t0
            )
        except (ConfigError, InvalidGeometry) as exc:
            assert np.isnan(row).all(), (omega, Omega, D, t0, A)
            seen.add(str(exc).split(" must")[0])  # what the message names
            continue
        try:
            expected = evaluate(params).row
        except (DomainTooLarge, DegenerateDirection):
            assert not np.isfinite(row).all(), (omega, Omega, D, t0, A)
            seen.add("evaluate raises")
            continue
        assert row.tobytes() == np.array(expected).tobytes(), (omega, Omega, D, t0, A)
        seen.add("ok")
    assert seen == {
        "ok", "evaluate raises", "D/sigma", "parameter 'omega_sigma'",
        "parameter 'Omega_sigma'", "parameter 'D_sigma'", "parameter 't0_sigma'",
        "parameter 'A'",
    }


# The block shapes a sweep evaluates: a two-axis grid is whole rows of
# axis 1 as (k, 1) against axis 2 as (1, n) with its fixed values 0-d; a
# line preset is its grids as (grids, 1) against their shared axis as
# (1, n); a one-axis sweep is its axis against 0-d values only, so numpy
# scalars rather than arrays flow through the kernel.  Omega, omega and D
# cross SMALL_OMEGA_CUTOFF, reach D <= 0, a non-finite parameter, a
# degenerate |x_m| (Omega = 27, 30) and omega >= 1.3e154 (DomainTooLarge).
_LINE_OMEGA = np.array([[0.0, 5e-4, SMALL_OMEGA_CUTOFF, 0.2, 2.0, 8.0]])
# Each block's parameters, and how its points end: "ok", or the class of
# the error the point raises.
_SHAPED_BLOCKS = {
    "rows x axis, fixed 0-d": (
        (2.0, np.linspace(-2.0, 2.0, 7)[:, None], np.linspace(0.25, 4.0, 9)[None, :],
         1.0, 0.05),
        {"ok"}),
    "omega rows straddle the cutoff": (
        (np.array([[-SMALL_OMEGA_CUTOFF], [2e-4], [SMALL_OMEGA_CUTOFF], [3.0]]),
         0.7, np.array([[0.25, 1.0, 4.0]]), 0.5, 0.05),
        {"ok"}),
    "grids x axis": (
        (_LINE_OMEGA, np.array([[0.5], [1.0], [1.5], [2.0]]),
         np.array([[0.5], [0.5], [2.0], [2.0]]), np.full((4, 1), 1.0),
         np.full((4, 1), 0.05)),
        {"ok"}),
    "one axis, 0-d values": ((_LINE_OMEGA[0], -0.3, 1.7, 0.25, 0.05), {"ok"}),
    "D <= 0 and nan D": (
        (2.0, np.array([[0.5], [1.0]]), np.array([[-1.0, 0.0, -0.0, 1.0, np.nan]]),
         0.0, 0.05),
        {"ok", "InvalidGeometry", "ConfigError"}),
    "non-finite fixed value": ((_LINE_OMEGA, 1.0, 1.0, 0.0, np.inf), {"ConfigError"}),
    "degenerate |x_m|": (
        (2.0, np.array([[1.0], [27.0], [30.0]]), np.array([[0.5, 2.0]]), 0.0, 0.05),
        {"ok", "DegenerateDirection"}),
    "omega past 1.3e154": (
        (np.array([[2.0, 1e154, 1.3e154, 1e155, 1e308]]), np.array([[0.5], [1.0]]),
         1.0, 0.3, 0.05),
        {"ok", "DomainTooLarge"}),
}


@pytest.mark.parametrize("block, outcomes", list(_SHAPED_BLOCKS.values()),
                         ids=list(_SHAPED_BLOCKS))
def test_shaped_evaluation_has_the_bits_of_flat_and_scalar_evaluation(block, outcomes):
    columns = cf._observable_columns(*block)
    shape = np.broadcast_shapes(*map(np.shape, block))
    shaped = np.stack(np.broadcast_arrays(*columns), axis=-1).reshape(-1, len(OBSERVABLES))
    assert all(np.broadcast_shapes(np.shape(c), shape) == shape for c in columns)
    points = [p.ravel() for p in np.broadcast_arrays(*block)]
    flat = evaluate_arrays(*points)
    assert shaped.tobytes() == flat.tobytes()
    assert evaluate_arrays(*block).tobytes() == flat.tobytes()
    seen = set()
    for point, row in zip(zip(*(p.tolist() for p in points)), shaped):
        try:
            expected = _scalar_row(*point)
        except (ConfigError, InvalidGeometry) as exc:
            assert np.isnan(row).all(), point
            seen.add(type(exc).__name__)
            continue
        except (DomainTooLarge, DegenerateDirection) as exc:
            assert not np.isfinite(row).all(), point
            seen.add(type(exc).__name__)
            continue
        assert row.tobytes() == np.array(expected).tobytes(), point
        seen.add("ok")
    assert seen == outcomes


def test_shaped_evaluation_keeps_each_factor_on_the_shape_it_spans():
    # A heatmap block: P on Omega's rows alone, the zero imaginary parts
    # as floats, everything else on the product.
    block, _ = _SHAPED_BLOCKS["rows x axis, fixed 0-d"]
    shapes = dict(zip(OBSERVABLES, map(np.shape, cf._observable_columns(*block))))
    assert shapes.pop("p_norm") == (7, 1)
    assert shapes.pop("im_c_m") == shapes.pop("im_c_gw") == ()
    assert set(shapes.values()) == {(7, 9)}
    # A line block: the Minkowski terms once per curve.
    block, _ = _SHAPED_BLOCKS["grids x axis"]
    shapes = dict(zip(OBSERVABLES, map(np.shape, cf._observable_columns(*block))))
    per_curve = {"p_norm", "re_x_m", "im_x_m", "re_c_m", "theta_m", "psi_m"}
    assert {name for name, s in shapes.items() if s == (4, 1)} == per_curve


def test_scalar_path_returns_builtin_numbers():
    # Builtin float/complex, never numpy scalars: every row entry and every
    # complex attribute, on the direct and the small-omega branches.
    for omega in (2.0, SMALL_OMEGA_CUTOFF / 2):
        rep = evaluate(_params(A=0.05, omega_sigma=omega, Omega_sigma=-0.7,
                               D_sigma=1.3, t0_sigma=0.4))
        assert [type(v) for v in rep.row] == [float] * len(OBSERVABLES)
        for name in _COMPLEX_VIEWS:
            assert type(getattr(rep, name)) is complex, name
        assert type(x_minkowski(-0.7, 1.3, 0.4)) is complex
        assert type(f_envelope(omega, -0.7, 0.4)) is complex
        assert type(x_gw(omega, -0.7, 1.3, 0.4)) is complex
        assert type(c_gw(omega, -0.7, 1.3, 0.4)) is complex
        assert type(integral_I1(omega, 1.3)) is complex
        for value in (transition_probability(-0.7), c_minkowski(-0.7, 1.3),
                      integral_I2(omega, 1.3), integral_I3(omega, -0.7, 1.3),
                      integral_I4(omega, -0.7, 1.3)):
            assert type(value) is float


# --- density matrix ---------------------------------------------------------


def test_density_matrix_structure():
    p = _params(A=0.05, omega_sigma=2.0, Omega_sigma=1.0, D_sigma=1.0,
                **{"lambda": 0.01})
    rho = density_matrix(p)
    lam2 = 0.01**2
    rep = evaluate(p)
    assert rho.shape == (4, 4)
    assert np.max(np.abs(rho - rho.conj().T)) == 0.0
    assert abs(np.trace(rho).real - 1.0) < 1e-15
    assert rho[0, 3] == lam2 * (rep.x_m + 0.05 * rep.x_gw)
    assert rho[1, 2] == lam2 * (rep.c_m + 0.05 * rep.c_gw)
    assert rho[1, 1] == rho[2, 2] == lam2 * rep.p_norm
    # Zeros of the X-state pattern.
    for i, j in [(0, 1), (0, 2), (1, 3), (2, 3)]:
        assert rho[i, j] == 0.0
    # Perturbative positivity: lowest eigenvalue is O(lambda^4).
    eigs = np.linalg.eigvalsh(rho)
    assert eigs.min() >= -10.0 * lam2 * lam2


def test_density_matrix_rejects_nonphysical_state(monkeypatch):
    # Physical same-gap parameters never trip the positivity gate (the
    # exchange term stays below P), so the rejection path is exercised by
    # forcing an exchange term far above the transition probability.
    real_evaluate = cf.evaluate

    def with_large_exchange(params):
        rep = real_evaluate(params)
        row = list(rep.row)
        row[OBSERVABLES.index("re_c_m")] = 1.0
        return dataclasses.replace(rep, row=tuple(row))

    monkeypatch.setattr(cf, "evaluate", with_large_exchange)
    with pytest.raises(StateInvalid):
        density_matrix(_params(**{"lambda": 0.01}))
