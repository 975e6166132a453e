"""Tests for the quadrature oracles.

The oracles exist to check the closed forms, so these tests mostly check
the *machinery*: the batched Gauss-Kronrod pass against QUADPACK, the
shifted contour of the Wightman integrals (two shifts are two independent
quadratures of one number), the I1/I3 references from the strain-term
contour, the error-estimate honesty bands, the calibration guard, and the
structure of the verification records.  Cross-validation of physics
values happens in test_closedform.py (frozen tables) and
test_acceptance.py.
"""

import collections
import itertools
import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning
from scipy.integrate import quad as scipy_quad

from gwharvest import cli, oracle
from gwharvest.closedform import (
    SMALL_OMEGA_CUTOFF,
    c_gw,
    c_minkowski,
    integral_I1,
    integral_I2,
    integral_I3,
    integral_I4,
    transition_probability,
    x_gw,
    x_minkowski,
)
from gwharvest.oracle import (
    DEFAULT_VERIFY_GRID,
    MINIMAL_VERIFY_GRID,
    SignConventionMismatch,
    oracle_CM,
    oracle_I1,
    oracle_I2,
    oracle_I3,
    oracle_I4,
    oracle_P,
    oracle_XM,
    verify_suite,
)

SQRT_PI = math.sqrt(math.pi)


# --- the batched Gauss-Kronrod pass --------------------------------------------


def _rule_tables():
    nodes = oracle._NODES
    k21 = np.array(oracle._WGK[:-1] + oracle._WGK[::-1])
    g10 = np.array(oracle._WG + oracle._WG[::-1])
    return nodes, k21, nodes[1::2], g10


@pytest.mark.parametrize("degree", range(33))
def test_gk21_rule_integrates_monomials_to_its_degree(degree):
    # K21 is exact through degree 31 and G10 through degree 19 on [-1, 1],
    # and neither at the next even degree; a mistyped node or weight
    # breaks this at some degree.
    nodes, k21, gauss, g10 = _rule_tables()
    exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
    k = float(np.sum(k21 * nodes ** degree))
    g = float(np.sum(g10 * gauss ** degree))
    assert (abs(k - exact) <= 1e-15) == (degree <= 31)
    if degree <= 20:
        assert (abs(g - exact) <= 1e-15) == (degree <= 19)
    # The rule as integrated, each node paired with its mirror: the same
    # K, and an error estimate (|K - G| at heart) at the roundoff floor
    # exactly where G10 is exact.
    one = np.ones(1)
    (value,), (err,) = oracle._gk21_rule(
        lambda x, _: x ** degree, np.zeros(1, dtype=int), -one, one
    )
    assert abs(value - k) <= 1e-15
    if degree % 2 == 0 and degree <= 20:
        assert (err <= 1e-13) == (degree <= 19)


def test_gk21_rule_table_layout():
    nodes, k21, gauss, g10 = _rule_tables()
    assert len(nodes) == 21 and nodes[10] == 0.0
    assert np.all(np.diff(nodes) < 0.0)
    assert np.array_equal(nodes, -nodes[::-1])
    assert len(k21) == 21 and len(g10) == len(gauss) == 10


# Peaked complex integrands of different widths, centres and phases, one
# per integral index.
_PEAKS = np.array([1e-1, 1e-3, 1e-5, 1e-8])
_CENTRES = np.array([0.3, -0.7, 0.1, 0.05])


def _peaks(x, k):
    return np.exp(1j * (k + 1) * x) / (_PEAKS[k] + (x - _CENTRES[k]) ** 2)


_PEAK_EDGES = [(-2.0, 0.0, 2.0), (-1.0, 1.0), (-1.0, 0.5, 2.0), (0.0, 1.0)]


def _hexes(values, errors):
    return [(complex(v).real.hex(), complex(v).imag.hex(), float(e).hex())
            for v, e in zip(values, errors)]


def test_gk21_results_do_not_depend_on_the_batch():
    together = _hexes(*oracle._gk21(_peaks, _PEAK_EDGES))
    for i, edges in enumerate(_PEAK_EDGES):
        alone = oracle._gk21(lambda x, k: _peaks(x, k + i), [edges])
        assert _hexes(*alone) == [together[i]]
    # ... nor on the order of the batch.
    order = [2, 0, 3, 1]
    shuffled = oracle._gk21(
        lambda x, k: _peaks(x, np.array(order)[k]), [_PEAK_EDGES[i] for i in order]
    )
    assert _hexes(*shuffled) == [together[i] for i in order]


def test_gk21_evaluates_each_node_once():
    # One call of the integrand, on the 21 nodes of every piece of every
    # integral, each node once; each integral is the exact sum of its
    # pieces' K21 values, and its estimate the in-order sum of their qk21
    # estimates.
    calls = []

    def counted(x, k):
        calls.append(np.broadcast_arrays(x, k))
        return _peaks(x, k)

    values, errors = oracle._gk21(counted, _PEAK_EDGES)
    assert len(calls) == 1
    nodes = [
        (int(k), float(t))
        for xs, ks in calls
        for t, k in zip(xs.ravel(), ks.ravel())
    ]
    assert len(nodes) == len(set(nodes)) == 21 * sum(len(e) - 1 for e in _PEAK_EDGES)
    for i, edges in enumerate(_PEAK_EDGES):
        one = np.zeros(1, dtype=int)
        pieces = [
            oracle._gk21_rule(
                lambda x, k: _peaks(x, k + i), one, np.array([a]), np.array([b])
            )
            for a, b in zip(edges[:-1], edges[1:])
        ]
        assert values[i] == complex(
            math.fsum(v[0].real for v, _ in pieces),
            math.fsum(v[0].imag for v, _ in pieces),
        )
        assert errors[i] == sum(e[0] for _, e in pieces)


def _real_peak(x, width, centre):
    return 1.0 / (width + (x - centre) ** 2)


def _complex_peak(x, width, centre, freq):
    return np.exp(1j * freq * x) / (width + (x - centre) ** 2)


_REAL_PEAK = oracle._Family(_real_peak, float)
_COMPLEX_PEAK = oracle._Family(_complex_peak, complex)


# (family, params, edges): two integrals of each value type.
_PEAK_INTEGRALS = [
    (_REAL_PEAK, (1e-3, 0.3), (-1.0, 0.0, 1.0)),
    (_COMPLEX_PEAK, (1e-5, -0.2, 3.0), (-1.0, 1.0)),
    (_REAL_PEAK, (1e-2, -0.5), (-2.0, 1.0)),
    (_COMPLEX_PEAK, (1e-4, 0.4, 5.0), (-1.0, 1.0)),
]


def _peak_oracle():
    return oracle._Oracle(
        [oracle._Integral(*peak) for peak in _PEAK_INTEGRALS],
        lambda vals, errs: (vals, errs),
    )


def _lone_peak(family, params, edges):
    """The _gk21 result of one entry of _PEAK_INTEGRALS, integrated alone."""
    return oracle._gk21(lambda x, k: family.kernel(x, *params), [edges])


def _rule_in_chunks(max_rows):
    """oracle._gk21_rule, applied to at most max_rows rows at a time."""
    rule = oracle._gk21_rule

    def chunked(f, owner, lo, hi):
        parts = [
            rule(f, owner[i:i + max_rows], lo[i:i + max_rows], hi[i:i + max_rows])
            for i in range(0, len(lo), max_rows)
        ]
        return tuple(np.concatenate(p) for p in zip(*parts))

    return chunked


@pytest.mark.parametrize("max_rows", [1, 512, 10**9])
def test_batched_run_equals_lone_gk21_calls(max_rows, monkeypatch):
    # A real integrand batched as complex would be summed in another order
    # and change in its last bits: the run must make one _gk21 call per
    # value type, each result must be a lone call's, and the rule must work
    # row by row, so that how many rows it is given at once does not matter.
    alone = [_hexes(*_lone_peak(*peak))[0] for peak in _PEAK_INTEGRALS]
    sizes = _gk21_call_sizes(monkeypatch)
    monkeypatch.setattr(oracle, "_gk21_rule", _rule_in_chunks(max_rows))
    (together,) = oracle._solve([_peak_oracle()])
    together = _hexes(*together)
    assert sorted(sizes) == [2, 2]
    assert together == alone


def _quadpack(f, edges):
    """QUADPACK (scipy's quad) over the real and imaginary parts of f.

    f(t) is the integrand at the float node t, by whatever arithmetic the
    caller chooses.
    """
    values = {}

    def at(t):
        v = values.get(t)
        if v is None:
            v = values[t] = complex(np.ravel(f(t))[0])
        return v

    kw = {
        "points": edges[1:-1] or None,
        "limit": 300,
        "epsabs": 1e-13,
        "epsrel": 1e-12,
    }
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        re, re_err = scipy_quad(lambda t: at(t).real, edges[0], edges[-1], **kw)
        im, im_err = scipy_quad(lambda t: at(t).imag, edges[0], edges[-1], **kw)
    return complex(re, im), re_err + im_err


def _grid(*names):
    keys = {"omega": "omega_sigma", "Omega": "Omega_sigma", "D": "D_sigma"}
    axes = [DEFAULT_VERIFY_GRID[keys[n]] for n in names]
    return [dict(zip(names, p)) for p in itertools.product(*axes)]


def _strain(full_line):
    # The contour legs of the x_gw (half line) and c_gw (full line)
    # a-integrals, on the whole grid.
    names = ("omega", "Omega", "D") if full_line else ("omega", "D")
    oracle._integrate([
        leg
        for p in _grid(*names)
        for leg in oracle._wightman(
            p.get("Omega", 0.0), p["D"], full_line=full_line,
            minkowski=0.0, strain=1.0, omega=p["omega"],
        ).integrals
    ])


# Every integrand family of the oracles, at the default verify grid.
_FAMILIES = {
    "P": lambda: [oracle_P(p["Omega"]) for p in _grid("Omega")],
    "XM_contour": lambda: [
        oracle_XM(0.0, p["D"], 0.0, method="contour") for p in _grid("D")
    ],
    "XM_pv": lambda: [
        oracle_XM(0.0, p["D"], 0.0, method="pv_subtraction") for p in _grid("D")
    ],
    "CM": lambda: [oracle_CM(p["Omega"], p["D"]) for p in _grid("Omega", "D")],
    "I1": lambda: [oracle_I1(p["omega"], p["D"]) for p in _grid("omega", "D")],
    "I3": lambda: [
        oracle_I3(p["omega"], p["Omega"], p["D"]) for p in _grid("omega", "Omega", "D")
    ],
    "I2": lambda: [oracle_I2(p["omega"], p["D"]) for p in _grid("omega", "D")],
    "I4": lambda: [
        oracle_I4(p["omega"], p["Omega"], p["D"]) for p in _grid("omega", "Omega", "D")
    ],
    "strain_half_line": lambda: _strain(False),
    "strain_full_line": lambda: _strain(True),
}


# QUADPACK evaluates every family on (1, 1) arrays, with the arithmetic
# _gk21 uses.  The half-line strain family is also evaluated on float
# nodes, whose last bits differ: its estimates must cover the integrand's
# own rounding, on both legs of its contour.
@pytest.mark.parametrize(
    "family, float_nodes",
    [pytest.param(f, False, id=f) for f in sorted(_FAMILIES)]
    + [pytest.param("strain_half_line", True, id="strain_half_line-float_nodes")],
)
def test_gk21_agrees_with_quadpack_within_both_error_estimates(
    family, float_nodes, monkeypatch
):
    integrals, batches = [], []
    batched, integrand = oracle._gk21, oracle._batch_integrand

    def recording(f, edges, **kwargs):
        values, errors = batched(f, edges, **kwargs)
        integrals.extend(
            (f, i, it, tuple(e), v, err)
            for i, (it, e, v, err) in enumerate(
                zip(batches[-1], edges, values, errors)
            )
        )
        return values, errors

    def recorded_integrand(batch):
        batches.append(batch)
        return integrand(batch)

    monkeypatch.setattr(oracle, "_gk21", recording)
    monkeypatch.setattr(oracle, "_batch_integrand", recorded_integrand)
    _FAMILIES[family]()
    assert integrals
    for f, i, it, edges, value, err in integrals:
        if float_nodes:
            ref, ref_err = _quadpack(
                lambda t: it.family.kernel(t, *it.params), edges
            )
        else:
            ref, ref_err = _quadpack(
                lambda t: f(np.array([[t]]), np.array([[i]])), edges
            )
        assert abs(value - ref) <= err + ref_err, (edges, value, ref, err, ref_err)


def _tail_bound(wightman):
    """The tail bound of a _wightman oracle: its error on exact legs."""
    n = len(wightman.integrals)
    return wightman.finish(np.zeros(n, dtype=complex), np.zeros(n)).abs_error_estimate


def test_contour_tail_bound_enters_estimate(monkeypatch):
    # The neglected tails of a horizontal leg carry its growth off the
    # axis, e^{c^2/4} e^{|Omega| c} cosh(omega c/2), into the estimate, at
    # the leg's height c = min(_SHIFT, 10/|omega|).
    def tail(shift, Omega, omega):
        monkeypatch.setattr(oracle, "_SHIFT", shift)
        return _tail_bound(oracle._wightman(
            Omega, 1.0, full_line=True, minkowski=0.0, strain=1.0, omega=omega
        ))

    def growth(c, Omega, omega):
        return math.exp(c * c / 4.0 + abs(Omega) * c) * math.cosh(omega * c / 2.0)

    for omega, high, low in [(8.0, 0.5, 0.25), (100.0, 0.1, 0.05)]:
        ratio = growth(high, -1.0, omega) / growth(low, -1.0, omega)
        assert math.isclose(tail(high, -1.0, omega) / tail(low, -1.0, omega), ratio)
    # At |omega| = 100 the leg runs at 10/|omega| = 0.1 whatever _SHIFT
    # above it.
    assert tail(0.5, -1.0, -100.0) == tail(0.1, -1.0, 100.0)
    monkeypatch.setattr(oracle, "_SHIFT", 0.5)
    est = oracle_CM(1.0, 1.0)
    bound = _tail_bound(oracle._wightman(1.0, 1.0, full_line=True))
    assert est.abs_error_estimate >= SQRT_PI * bound > 0.0


# --- kernel oracles ----------------------------------------------------------


def test_oracle_p_hits_exact_anchor():
    est = oracle_P(0.0)
    assert abs(est.value - 1.0 / (4.0 * math.pi)) < 1e-7
    assert abs(est.value.imag) < 1e-7


def test_oracle_p_matches_closed_form_away_from_anchor():
    for Om in (0.5, 1.0, -0.25):
        est = oracle_P(Om)
        assert abs(est.value - transition_probability(Om)) < 1e-6


def _shift_p_minus_one(monkeypatch, shift):
    """Make the P oracle at Omega = -1, the anchor's second term, off by shift."""
    build = oracle._p

    def shifted(Omega, *args):
        o = build(Omega, *args)
        if Omega != -1.0:
            return o

        def finish(vals, errs):
            est = o.finish(vals, errs)
            return oracle.OracleEstimate(
                est.value + shift, est.abs_error_estimate, est.converged
            )

        return oracle._Oracle(o.integrals, finish)

    monkeypatch.setattr(oracle, "_p", shifted)


def test_oracle_p_calibration_guard(monkeypatch):
    # An anchor off by more than 100 * _FINE_TOL must trip the
    # sign-convention guard before any value is returned, in every call:
    # the calibration is integrated anew each time.  Within that, P(1) is
    # returned as it is unshifted.
    allowed = 100.0 * oracle._FINE_TOL
    want = oracle_P(1.0)
    _shift_p_minus_one(monkeypatch, 2.0 * allowed)
    for _ in range(2):
        with pytest.raises(SignConventionMismatch):
            oracle_P(1.0)
        with pytest.raises(SignConventionMismatch):
            verify_suite(MINIMAL_VERIFY_GRID)
    monkeypatch.undo()
    _shift_p_minus_one(monkeypatch, 0.5 * allowed)
    got = oracle_P(1.0)
    assert _hex(got.value) == _hex(want.value)


def test_oracle_p_calibration_catches_a_flipped_contour(monkeypatch):
    # Below the poles the contour gives the eps -> 0- limit.  P(0) cannot
    # tell (the residue of e^{-a^2/4}/a^2 at 0 vanishes), but P(1) - P(-1)
    # changes by 1/sqrt(pi).
    monkeypatch.setattr(oracle, "_SHIFT", -oracle._SHIFT)
    (flipped,) = oracle._solve([oracle._p(0.0)])
    assert abs(flipped.value - 1.0 / (4.0 * math.pi)) < 1e-15
    with pytest.raises(SignConventionMismatch):
        oracle_P(1.0)


def test_oracle_xm_methods_are_independent_and_agree():
    contour = oracle_XM(1.0, 1.0, 0.0)
    pv = oracle_XM(1.0, 1.0, 0.0, method="pv_subtraction")
    assert abs(contour.value - pv.value) < 1e-6
    # The PV-subtraction oracle is analytic except for one regular
    # quadrature; it reproduces the closed form essentially exactly.
    assert abs(pv.value - x_minkowski(1.0, 1.0, 0.0)) < 1e-14


def test_oracle_xm_rejects_unknown_method():
    with pytest.raises(ValueError):
        oracle_XM(1.0, 1.0, 0.0, method="zeta_function")


def test_oracle_cm_matches_closed_form():
    est = oracle_CM(1.0, 1.0)
    assert abs(est.value - c_minkowski(1.0, 1.0)) < 1e-6
    assert abs(est.value.imag) < 1e-8


@pytest.mark.parametrize("Omega", [-0.25, 0.0, 1.0])
@pytest.mark.parametrize("A", [0.0, 0.05, 0.1])
def test_oracle_p_full_is_oracle_p_bit_for_bit(A, Omega):
    # One detector, one integral: P and the full-Wightman P are the same
    # contour integral, and the strain term vanishes exactly.
    full, plain = oracle_P(Omega, A, 2.0), oracle_P(Omega)
    assert _hex(full.value) == _hex(plain.value)
    assert full.abs_error_estimate.hex() == plain.abs_error_estimate.hex()


def test_oracle_p_full_strain_independent_on_static_worldline():
    # The transverse factor of a single static worldline vanishes, so the
    # first-order strain term contributes exactly zero: identical
    # estimates for any amplitude, all matching the Minkowski P.
    base = oracle_P(1.0, 0.0, 2.0)
    with_strain = oracle_P(1.0, 0.05, 2.0)
    assert with_strain.value == base.value
    assert abs(base.value - transition_probability(1.0)) < 1e-6


# --- argument checks -----------------------------------------------------------

# A valid value of every oracle argument.
_VALID = {"omega": 2.0, "Omega": 1.0, "D": 1.0, "t0": 0.5, "A": 0.05}


def _invalid_args(*names, omega_zero=True):
    """(name, value) cases: each argument non-finite, D <= 0, omega = 0."""
    cases = []
    for name in names:
        bad = [math.nan, math.inf, -math.inf]
        if name == "D":
            bad += [0.0, -1.0]
        if name == "omega" and omega_zero:
            bad.append(0.0)
        cases += [pytest.param(name, v, id=f"{name}={v}") for v in bad]
    return cases


def _assert_rejected(oracle_fn, names, name, value, **kwargs):
    """oracle_fn raises a ValueError naming name = value, before any warning."""
    args = {n: _VALID[n] for n in names} | {name: value}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = f"^invalid {name} = {re.escape(repr(value))}:"
        with pytest.raises(ValueError, match=message):
            oracle_fn(**args, **kwargs)


@pytest.mark.parametrize(
    "name, value", _invalid_args("Omega", "A", "omega", "t0", omega_zero=False)
)
def test_oracle_p_rejects_invalid_arguments(name, value):
    # omega = 0 is oracle_P's default: on one worldline the wave leaves P
    # alone at every omega.
    _assert_rejected(oracle_P, ("Omega", "A", "omega", "t0"), name, value)
    assert oracle_P(1.0, 0.05, 0.0) == oracle_P(1.0)


@pytest.mark.parametrize("method", ["contour", "pv_subtraction"])
@pytest.mark.parametrize("name, value", _invalid_args("Omega", "D", "t0"))
def test_oracle_xm_rejects_invalid_arguments(name, value, method):
    _assert_rejected(oracle_XM, ("Omega", "D", "t0"), name, value, method=method)


@pytest.mark.parametrize("name, value", _invalid_args("Omega", "D"))
def test_oracle_cm_rejects_invalid_arguments(name, value):
    _assert_rejected(oracle_CM, ("Omega", "D"), name, value)


@pytest.mark.parametrize("name, value", _invalid_args("omega", "D"))
def test_oracle_i1_rejects_invalid_arguments(name, value):
    _assert_rejected(oracle_I1, ("omega", "D"), name, value)


@pytest.mark.parametrize("name, value", _invalid_args("omega", "D"))
def test_oracle_i2_rejects_invalid_arguments(name, value):
    _assert_rejected(oracle_I2, ("omega", "D"), name, value)


@pytest.mark.parametrize("name, value", _invalid_args("omega", "Omega", "D"))
def test_oracle_i3_rejects_invalid_arguments(name, value):
    _assert_rejected(oracle_I3, ("omega", "Omega", "D"), name, value)


@pytest.mark.parametrize("name, value", _invalid_args("omega", "Omega", "D"))
def test_oracle_i4_rejects_invalid_arguments(name, value):
    _assert_rejected(oracle_I4, ("omega", "Omega", "D"), name, value)


@pytest.mark.parametrize("name, value", _invalid_args("omega", "Omega", "D", "t0"))
def test_oracle_x_gw_rejects_invalid_arguments(name, value):
    _assert_rejected(oracle.oracle_x_gw, ("omega", "Omega", "D", "t0"), name, value)


@pytest.mark.parametrize("name, value", _invalid_args("omega", "Omega", "D", "t0"))
def test_oracle_c_gw_rejects_invalid_arguments(name, value):
    _assert_rejected(oracle.oracle_c_gw, ("omega", "Omega", "D", "t0"), name, value)


# --- the shifted contour ------------------------------------------------------

_WIDE = {
    "omega": (0.5, 2.0, 5.0, 8.0),
    "Omega": (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0),
    "D": (0.25, 1.0, 4.0),
}


def _wide(*names):
    return [dict(zip(names, p)) for p in itertools.product(*(_WIDE[n] for n in names))]


# Each Wightman-integral oracle, over the wide grid.
_CONTOUR_ORACLES = {
    "P": lambda: [oracle._p(p["Omega"]) for p in _wide("Omega")],
    "XM": lambda: [oracle._xm_kernel(p["D"], "contour") for p in _wide("D")],
    "CM": lambda: [oracle._cm(p["Omega"], p["D"]) for p in _wide("Omega", "D")],
    "x_gw": lambda: [
        oracle._x_gw(p["omega"], p["Omega"], p["D"], 0.6)
        for p in _wide("omega", "Omega", "D")
    ],
    "c_gw": lambda: [
        oracle._c_gw(p["omega"], p["Omega"], p["D"], 0.6)
        for p in _wide("omega", "Omega", "D")
    ],
}


@pytest.mark.parametrize("quantity", sorted(_CONTOUR_ORACLES))
def test_two_contour_shifts_agree_within_both_error_estimates(quantity, monkeypatch):
    # Any two heights above the poles give the same integral by two
    # independent quadratures, so their difference tests the estimates.
    estimates = []
    for shift in (0.5, 0.8):
        monkeypatch.setattr(oracle, "_SHIFT", shift)
        estimates.append(oracle._solve(_CONTOUR_ORACLES[quantity]()))
    for one, two in zip(*estimates):
        assert one.converged and two.converged
        gap = abs(one.value - two.value)
        assert gap <= one.abs_error_estimate + two.abs_error_estimate, (one, two)


# Full-line Wightman oracles: P at D = 0, C_M, and the strain term.
_FULL_LINE = [
    pytest.param(dict(Omega=1.0, D=0.0), id="P"),
    *(
        pytest.param(dict(Omega=Om, D=D), id=f"CM-Omega={Om}-D={D}")
        for Om in (-1.5, 0.5)
        for D in (0.5, 4.0)
    ),
    *(
        pytest.param(
            dict(Omega=1.0, D=1.0, minkowski=0.0, strain=1.0, omega=w),
            id=f"strain-omega={w}",
        )
        for w in (0.5, 5.0)
    ),
]


@pytest.mark.parametrize("args", _FULL_LINE)
def test_full_line_oracle_is_twice_the_real_part_of_its_right_half(args):
    # The folded oracle against the explicit two-sided integral: the same
    # kernel and start edges mirrored onto [-L, L], by _gk21 with the same
    # tail bound.
    folded_oracle = oracle._wightman(full_line=True, **args)
    (right,) = folded_oracle.integrals
    assert right.edges[0] == 0.0
    edges = (*(-x for x in reversed(right.edges[1:])), *right.edges)
    two_sided = right._replace(edges=edges)
    (value,), (err,) = oracle._gk21(oracle._batch_integrand([two_sided]), [edges])
    err += _tail_bound(folded_oracle)
    (folded,) = oracle._solve([folded_oracle])
    assert folded.converged
    assert folded.value.imag == 0.0
    gap = abs(folded.value - value)
    assert gap <= folded.abs_error_estimate + err, (folded, value, err)


def _defining_wightman(x, vertical, c, D, m, Om, gw, w):
    """e^{-a^2/4 + i Omega a} [m/(4 pi^2 s) - gw sinc(omega a/2)/(4 pi^2 s^2)] da/dx.

    s = D^2 - a^2 on the leg a = i x (vertical) or a = x + i c, in complex
    arithmetic, with sinc(0) = 1.
    """
    a = 1j * x if vertical else x + 1j * c
    s = D * D - a * a
    u = w * a / 2.0
    sinc = np.sin(u) / u if w != 0.0 else np.ones_like(a)
    four_pi_sq = 4.0 * math.pi ** 2
    kern = m / (four_pi_sq * s) - gw * sinc / (four_pi_sq * s * s)
    return np.exp(-a * a / 4.0 + 1j * Om * a) * kern * (1j if vertical else 1.0)


def test_wightman_kernel_equals_its_defining_expression():
    # Each leg's kernel, _horizontal_leg and i times _vertical_leg, with
    # the strain term off (m = 1) and on alone (m = 0, gw = D^2, as the
    # oracles use it), on rows of nodes as _gk21 passes them and on float
    # nodes as QUADPACK does.
    c = oracle._SHIFT
    for vertical, strain in itertools.product((True, False), (False, True)):
        rows, nodes, want = [], [], []
        for Om, D, w in itertools.product(
            (-2.0, 0.0, 1.5), (0.25, 1.0, 4.0), (1e-3, 0.5, 8.0) if strain else (0.0,)
        ):
            if vertical:
                x = np.linspace(0.0, c, 23)[1:-1]
            else:
                x = np.linspace(-1.0, 1.0, 21) * (D + 14.0)
            m, gw = (0.0, D * D) if strain else (1.0, 0.0)
            cols = (D, m, Om, gw, w) if strain else (D, m, Om)
            rows.append(cols if vertical else (c, *cols))
            nodes.append(x)
            want.append(_defining_wightman(x, vertical, c, D, m, Om, gw, w))
        x, want, cols = np.array(nodes), np.array(want), np.array(rows).T
        if vertical:
            got = 1j * oracle._vertical_leg(x, *cols[:, :, None])
        else:
            got = oracle._horizontal_leg(x, *cols[:, :, None])
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
        for i, j in ((0, 3), (-1, 7)):
            if vertical:
                one = 1j * oracle._vertical_leg(float(x[i, j]), *cols[:, i].tolist())
            else:
                one = oracle._horizontal_leg(float(x[i, j]), *cols[:, i].tolist())
            assert abs(one - want[i, j]) <= 1e-13 * abs(want[i, j])


@pytest.mark.parametrize("full_line", [False, True])
def test_wightman_rejects_the_strain_term_at_zero_frequency(full_line):
    # sinc(omega a/2) is 1 at omega = 0, which the leg kernels do not
    # compute; no public oracle takes that input.
    with pytest.raises(ValueError, match="omega != 0"):
        oracle._wightman(
            1.0, 1.0, full_line=full_line, minkowski=0.0, strain=1.0, omega=0.0
        )


def _wightman_4d(X, Xp, A, w):
    """The first-order Wightman function between events X = (t, x, y, z)
    and Xp in the wave g = -dt^2 + (1 + h) dx^2 + (1 - h) dy^2 + dz^2,
    h = A cos(omega (t - z)):

      W = 1/(4 pi^2 sigma^2) - s (dx^2 - dy^2) sinc(omega du/2) / (4 pi^2 sigma^4)

    with sigma^2 the flat interval, u = t - z and s = A cos(omega (u + u')/2).
    At dz = 0 (du = a = dt) this is the kernel of oracle._horizontal_leg.
    """
    dt, dx, dy, dz = (X[k] - Xp[k] for k in range(4))
    sig = dx * dx + dy * dy + dz * dz - dt * dt
    u, up = X[0] - X[3], Xp[0] - Xp[3]
    s = A * np.cos(w * (u + up) / 2.0)
    half = w * (u - up) / 2.0
    four_pi_sq = 4.0 * math.pi ** 2
    return 1.0 / (four_pi_sq * sig) - s * (dx * dx - dy * dy) * (
        np.sin(half) / half
    ) / (four_pi_sq * sig * sig)


# Pairs of events (X, Xp) off the light cone, |sigma^2| >= 1: space- and
# timelike, with every separation nonzero.
_FIELD_EQUATION_PAIRS = [
    ((0.3, 1.4, 0.2, -0.5), (-0.2, -0.6, 0.9, 0.4)),
    ((1.1, -0.8, 1.3, 0.7), (0.4, 0.9, -0.2, -0.3)),
    ((2.6, 0.5, -0.4, 0.3), (0.1, -0.3, 0.2, -0.2)),
    ((-0.7, 0.2, -1.6, 1.2), (0.5, 1.1, 0.3, -0.1)),
    ((0.9, 2.1, 0.6, -0.8), (-0.4, 0.2, -0.5, 0.6)),
]


def _wave_operator_terms(X, Xp, A, w, step=4e-3):
    """-W_tt, W_xx/(1 + h), W_yy/(1 - h), W_zz at X: the terms of the
    wave operator of g on W to first order in A (sqrt(-g) = 1 + O(A^2)),
    each by the fourth-order central difference."""
    stencil = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
    h = A * math.cos(w * (X[0] - X[3]))

    def d2(k):
        Y = np.tile(np.asarray(X, dtype=float), (5, 1)).T
        Y[k] += step * np.arange(-2, 3)
        return stencil @ _wightman_4d(Y, np.asarray(Xp, dtype=float), A, w) / step**2

    return np.array([-d2(0), d2(1) / (1.0 + h), d2(2) / (1.0 - h), d2(3)])


@pytest.mark.parametrize("X, Xp", _FIELD_EQUATION_PAIRS)
def test_the_model_wightman_function_solves_the_wave_equation(X, Xp):
    # Off the light cone W solves its field equation to first order in A:
    # the flat part and the O(A) part of the residual each vanish against
    # the size of their individual terms.  The O(A) part is the odd part
    # in A, (R(A) - R(-A))/(2A), which holds no O(A^2) term.  A flipped
    # strain sign, dx^2 + dy^2 for dx^2 - dy^2, or sin for sinc leaves an
    # O(A) residual of 6e-3 to 2.5 of its terms at these pairs.
    w, A = 1.3, 1e-4
    flat = _wave_operator_terms(X, Xp, 0.0, w)
    linear = (
        _wave_operator_terms(X, Xp, A, w) - _wave_operator_terms(X, Xp, -A, w)
    ) / (2.0 * A)
    assert abs(flat.sum()) <= 1e-6 * np.abs(flat).max()
    assert abs(linear.sum()) <= 1e-6 * np.abs(linear).max()


def test_the_wave_equation_check_takes_the_oracles_kernel():
    # At dz = 0, _wightman_4d is oracle._horizontal_leg's W on the real
    # axis (c = 0, no Gaussian or gap phase: Om = 0, times e^{a^2/4}),
    # with gw = s (dx^2 - dy^2) as _wightman forms it.
    w, A = 1.3, 0.05
    for X, Xp in _FIELD_EQUATION_PAIRS:
        X, Xp = np.array(X), np.array(Xp)
        X[3] = Xp[3]
        a = X[0] - Xp[0]
        dx, dy = X[1] - Xp[1], X[2] - Xp[2]
        s = A * math.cos(w * (X[0] - X[3] + Xp[0] - Xp[3]) / 2.0)
        kern = oracle._horizontal_leg(
            a, 0.0, math.hypot(dx, dy), 1.0, 0.0, s * (dx * dx - dy * dy), w
        ) * math.exp(a * a / 4.0)
        want = _wightman_4d(X, Xp, A, w)
        assert abs(kern - want) <= 1e-13 * abs(want)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("D", [60.0, 100.0, 1e3])
def test_pv_subtraction_is_finite_at_large_separation(D):
    # e^{-D^2/4} underflows to 0 from D ~ 54, where e^{(D^2 - a^2)/4}
    # overflows near a = 0: the near kernel takes the factor
    # e^{-max(a, D)^2/4} out, so that neither overflows, and the method
    # agrees with the contour.
    pv = oracle_XM(1.0, D, 0.0, method="pv_subtraction")
    contour = oracle_XM(1.0, D, 0.0)
    assert np.isfinite(pv.value) and pv.converged and contour.converged
    assert abs(pv.value - contour.value) <= 1e-12 * abs(contour.value)


@pytest.mark.parametrize("D", [0.25, 0.1])
def test_contour_xm_agrees_with_pv_subtraction_at_small_d(D):
    contour = oracle_XM(1.0, D, 0.0, method="contour")
    pv = oracle_XM(1.0, D, 0.0, method="pv_subtraction")
    assert contour.converged and pv.converged
    assert abs(contour.value - pv.value) <= 1e-12 * abs(pv.value)


def test_half_line_contour_rejects_coincident_detectors():
    # At D = 0 the half-line contour would start on the pole a = 0: the
    # public oracles reject D = 0 up front, and the contour itself too.
    with pytest.raises(ValueError, match="invalid D = 0.0"):
        oracle_XM(1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="invalid D = 0.0"):
        oracle.oracle_x_gw(2.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="D != 0"):
        oracle._wightman(1.0, 0.0, full_line=False)


# --- s-integral oracles, and I1/I3 from the strain-term contour -------------


def test_oracle_i2_i4_machine_accurate():
    i2 = oracle_I2(2.0, 1.0)
    assert i2.converged
    assert i2.abs_error_estimate < 1e-10
    assert abs(i2.value.imag) == 0.0
    # The I4 window is split at s = 0 where it spans it, and one segment
    # where |Omega| >= 9 + omega/2, on either side of 0.
    for w, Om, D, segments in [
        (2.0, 1.0, 1.0, 2), (0.5, 9.5, 1.0, 1), (2.0, -12.0, 1.0, 1)
    ]:
        assert len(oracle._i4(w, Om, D).integrals) == segments
        i4 = oracle_I4(w, Om, D)
        assert i4.converged
        assert i4.abs_error_estimate < 1e-10
        assert abs(i4.value - integral_I4(w, Om, D)) <= 1e-15 * abs(i4.value)


def test_s_integral_keeps_one_window_until_it_would_hit_the_cap():
    # One window over both humps at s = Omega +- |omega|/2 while _panels
    # cuts it into at most 1,000 pieces 1.25 wide (at D <= 4: while
    # |omega| + 18 <= 1,250); beyond that one window 18 wide per hump.
    # Humps less than 18 apart keep their one window, capped, at any D.
    def pieces(w, Om, D, full_line):
        o = oracle._fourier(w, Om, D, full_line=full_line)
        return [(it.edges[0], it.edges[-1], len(it.edges) - 1) for it in o.integrals]

    assert oracle._MAX_PIECES == 1000
    assert pieces(1232.0, 0.0, 1.0, False) == [(0.0, 625.0, 500)]
    assert pieces(1233.0, 0.0, 1.0, False) == [(607.5, 625.5, 15)]
    assert pieces(1233.0, 0.5, 1.0, True) == [(-625.0, -607.0, 15), (608.0, 626.0, 15)]
    assert pieces(2.0, 1.0, 1e3, True) == [(-9.0, 0.0, 1000), (0.0, 11.0, 1000)]


@pytest.mark.parametrize("omega", [1e-3, 1e-6, 1e-9])
def test_oracle_i2_i3_i4_converge_at_small_frequency(omega):
    # The s-integrals are scaled by sqrt(pi)/omega, up to 1.8e9 here, but
    # their integrands and errors shrink with omega, so the scaled error
    # stays within _FINE_TOL.  The closed forms are taken on their
    # small-omega series, as below the cutoff: at the cutoff itself the
    # direct forms of I2 and I4 lose up to 1e-11 to cancellation
    # (test_small_omega_fallbacks_are_continuous), 3.0e-12 for I2 here.
    series = min(omega, math.nextafter(SMALL_OMEGA_CUTOFF, 0.0))
    Om, D = 1.0, 1.0
    for est, closed in [
        (oracle_I2(omega, D), integral_I2(series, D)),
        (oracle_I3(omega, Om, D), integral_I3(series, Om, D)),
        (oracle_I4(omega, Om, D), integral_I4(series, Om, D)),
    ]:
        assert est.converged, est
        assert abs(est.value - closed) <= 1e-12 * abs(closed), (est, closed)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "omega", [20.0, 40.0, 60.0, 100.0, -40.0, 2e3, 1e4, -1e4, 1e5, 1e9]
)
def test_oracle_i2_i4_converge_at_large_frequency(omega):
    # e^{-omega^2/4} is taken into the s-integrand, so no factor of the
    # I2 and I4 oracles, nor of their tail bounds, overflows, and none
    # warns.  The strain contour of I1 and I3 runs at height 10/|omega|
    # beyond |omega| = 20, where sin(omega a/2) grows as cosh(omega c/2)
    # <= cosh(5) off the axis, so it cancels no more digits as |omega|
    # grows; at height 0.5 it would cancel about 10 at omega = 100.
    # Beyond |omega| = 100 only I2 and I4 are asked for: from about 1,230
    # one window would need more than 1,000 pieces, and each hump at
    # s = Omega +- |omega|/2 gets a window of its own.  The phase D s of
    # the bracket loses about D s eps there: 4.8e-12 of I2 at 1e5, and as
    # much in the closed form.  At 1e9, where D s is near 7e8, the values
    # are about 6e-7 off and the estimates miss the target: the oracles
    # must say so, and not return 0 as converged.
    Om, D = 0.8, 1.3
    pairs = [
        (oracle_I2(omega, D), integral_I2(omega, D)),
        (oracle_I4(omega, Om, D), integral_I4(omega, Om, D)),
    ]
    if abs(omega) <= 100.0:
        pairs += [
            (oracle_I1(omega, D), integral_I1(omega, D)),
            (oracle_I3(omega, Om, D), integral_I3(omega, Om, D)),
        ]
    tol = 1e-12 if abs(omega) <= 100.0 else 1e-11
    for est, closed in pairs:
        assert est.value != 0.0, est
        if abs(omega) == 1e9 and not est.converged:
            continue
        assert est.converged, est
        assert abs(est.value - closed) <= tol * abs(closed), (est, closed)


# I1 and I3 are the delta' parts of the strain term, at a = D and a = +-D.


def test_oracle_delta_prime_parities():
    d1 = oracle_I1(2.0, 1.0)
    assert d1.value.real == 0.0  # I1 is purely imaginary
    assert abs(d1.value.imag - 0.9562676566864755) <= 1e-9
    d3 = oracle_I3(2.0, 1.0, 1.0)
    assert d3.value.imag == 0.0  # I3 is purely real
    assert abs(d3.value.real - (-1.05315419439168)) <= 1e-9


@pytest.mark.parametrize(
    "which, omega, Omega, closed",
    [
        ("I1", 2.0, 0.0, integral_I1(2.0, 1.0)),
        ("I3", 0.5, 0.5, integral_I3(0.5, 0.5, 1.0)),
    ],
    ids=["I1", "I3"],
)
def test_oracle_i1_i3_estimates_are_far_below_their_target(
    which, omega, Omega, closed
):
    # The values do not depend on the target: at a hundredth of _FINE_TOL
    # the default estimates are converged, within 1e-12 of the closed form.
    if which == "I1":
        est = oracle_I1(omega, 1.0)
    else:
        est = oracle_I3(omega, Omega, 1.0)
    bound = 1e-12 * max(1.0, abs(est.value))
    assert est.converged
    assert est.abs_error_estimate <= bound
    assert abs(est.value - closed) <= bound


def test_oracle_i1_honest_unconverged_band(monkeypatch):
    # A target below what the quadrature reaches (~5e-14) comes back
    # flagged, not raised, and the flagged value still lies within its
    # estimate.
    monkeypatch.setattr(oracle, "_FINE_TOL", 1e-14)
    est = oracle_I1(2.0, 1.0)
    assert not est.converged
    assert est.abs_error_estimate > 1e-14
    assert abs(est.value - integral_I1(2.0, 1.0)) <= est.abs_error_estimate


def _at_minimal_point(t0):
    """Every oracle builder at the minimal verify grid's point, by name."""
    w, Om, D = 2.0, 1.0, 2.0
    return {
        "P": lambda: oracle._p(Om),
        "XM_contour": lambda: oracle._xm(oracle._xm_kernel(D, "contour"), Om, t0),
        "XM_pv": lambda: oracle._xm(oracle._xm_kernel(D, "pv_subtraction"), Om, t0),
        "CM": lambda: oracle._cm(Om, D),
        "I2": lambda: oracle._i2(w, D),
        "I4": lambda: oracle._i4(w, Om, D),
        "strain_less_half_line": lambda: oracle._strain_less(
            0.0, D, w, False, oracle._i2(w, D)
        ),
        "strain_less_full_line": lambda: oracle._strain_less(
            Om, D, w, True, oracle._i4(w, Om, D)
        ),
        "x_gw": lambda: oracle._x_gw(w, Om, D, t0),
        "c_gw": lambda: oracle._c_gw(w, Om, D, t0),
    }


@pytest.mark.parametrize(
    "name, t0",
    [(name, 0.0) for name in _at_minimal_point(0.0)]
    + [("x_gw", 0.6), ("c_gw", 0.6)],
)
def test_every_oracle_judges_its_final_error_against_one_target(
    name, t0, monkeypatch
):
    # converged is abs_error_estimate <= _FINE_TOL for every oracle, on
    # the error after any scaling: a target just below the estimate flips
    # the flag, and nothing else changes.  At this point every scaled
    # estimate's error exceeds its unscaled integral's, so a flag passed
    # through from the integral would not flip.
    build = _at_minimal_point(t0)[name]
    (est,) = oracle._solve([build()])
    assert est.converged == (est.abs_error_estimate <= oracle._FINE_TOL)
    assert est.converged
    for tol, converged in [
        (est.abs_error_estimate, True),
        (math.nextafter(est.abs_error_estimate, 0.0), False),
    ]:
        monkeypatch.setattr(oracle, "_FINE_TOL", tol)
        (judged,) = oracle._solve([build()])
        assert judged.converged == converged
        assert _hex(judged.value) == _hex(est.value)
        assert judged.abs_error_estimate.hex() == est.abs_error_estimate.hex()


# The new oracles off the verify grid: negative and larger Omega, a small
# and a large D, a slow and a fast wave.
_OFF_GRID = list(itertools.product((-1.5, -0.5, 2.0), (0.25, 3.0), (0.5, 8.0)))


@pytest.mark.parametrize("Omega, D, omega", _OFF_GRID)
def test_oracle_i1_i3_agree_with_the_closed_forms_off_the_verify_grid(Omega, D, omega):
    for est, closed in [
        (oracle_I1(omega, D), integral_I1(omega, D)),
        (oracle_I3(omega, Omega, D), integral_I3(omega, Omega, D)),
    ]:
        gap = abs(est.value - closed)
        assert est.converged
        assert gap <= 1e-10 * abs(closed), (est, closed)
        assert gap <= est.abs_error_estimate, (est, closed)


@pytest.mark.parametrize("Omega, D, omega", _OFF_GRID)
def test_oracle_i3_is_odd_and_oracle_i1_imaginary(Omega, D, omega):
    # I3 is odd in Omega (README "Known-failing tests", criterion 7) and I1
    # is purely imaginary: each to within the estimates, from legs and
    # I2/I4 integrals that know neither property.
    plus, minus = oracle_I3(omega, Omega, D), oracle_I3(omega, -Omega, D)
    both = plus.abs_error_estimate + minus.abs_error_estimate
    assert abs(plus.value + minus.value) <= both, (plus, minus)
    i1 = oracle_I1(omega, D)
    assert abs(i1.value.real) <= i1.abs_error_estimate, i1


def test_a_zone_of_a_partition_has_at_most_1000_pieces():
    # The piece widths follow omega, Omega and D, so omega = 1e9 would ask
    # for 3e9 pieces of the T window; it gets 1,000, and the estimate
    # reports that they are too wide.
    x_gw = oracle._x_gw(1e9, 1.0, 1.0, 0.0)
    window, *legs = x_gw.integrals
    assert len(window.edges) - 1 == 1000
    assert all(len(leg.edges) - 1 <= 3000 for leg in legs)  # three zones
    (est,) = oracle._solve([x_gw])
    assert not est.converged


# Relative bounds per piece for test_oracles_converge_and_agree_off_the_grid,
# none looser than the piece's verify tolerance.  The worst errors on its
# sample: P 3.1e-14, X_M 5.4e-16 and 6.0e-16 (contour, PV), C_M 1.6e-13,
# I1 1.4e-13, I3 1.1e-12, I2 5.5e-11, I4 3.5e-12, x_gw 4.3e-13 and c_gw
# 2.2e-10.
_OFF_GRID_BOUNDS = {
    "P": 1e-12, "XM": 1e-12, "XM_pv": 1e-12, "CM": 1e-12,
    "I1": 1e-11, "I3": 1e-11, "I2": 1e-9, "I4": 1e-9, "x_gw": 1e-11, "c_gw": 1e-8,
}


def _off_grid_points(n, seed):
    """n seeded (omega, Omega, D, t0): |omega| log-uniform in [0.01, 100] of
    either sign, Omega uniform in [-2, 2], D log-uniform in [0.1, 4], t0
    uniform in [-1, 1]."""
    rng = np.random.default_rng(seed)
    sign = rng.choice([-1.0, 1.0], n)
    omega = sign * np.exp(rng.uniform(math.log(0.01), math.log(100.0), n))
    Omega = rng.uniform(-2.0, 2.0, n)
    D = np.exp(rng.uniform(math.log(0.1), math.log(4.0), n))
    t0 = rng.uniform(-1.0, 1.0, n)
    return list(zip(omega.tolist(), Omega.tolist(), D.tolist(), t0.tolist()))


def test_oracles_converge_and_agree_off_the_grid():
    # Each oracle fixes its partition from its own scales (the Gaussian's
    # width, the contour height c = min(_SHIFT, 10/|omega|) near each pole,
    # D, and omega and Omega in the oscillating factors), so every public
    # oracle converges anywhere in this box, and each piece agrees with its
    # closed form within its bound.  Where the closed forms are known to
    # lose digits, a piece is not compared (ROADMAP item 4): I2 and I4 at
    # D < 0.25, where the direct forms lose up to 1.6e-8 at omega = 0.01,
    # D = 0.1; c_gw at D < 0.25 (the cancellation of I3 + I4); x_gw and
    # c_gw beyond |omega| = 8, where they are below 1e-17; and x_gw at
    # t0 != 0, where the closed form has the t0 fault.
    missed = []
    for w, Om, D, t0 in _off_grid_points(150, seed=0):
        slow, small_d = abs(w) <= 8.0, D < 0.25
        pieces = [
            ("P", oracle_P(Om, 0.05, w, t0=t0), transition_probability(Om)),
            ("XM", oracle_XM(Om, D, t0), x_minkowski(Om, D, t0)),
            ("XM_pv", oracle_XM(Om, D, t0, method="pv_subtraction"),
             x_minkowski(Om, D, t0)),
            ("CM", oracle_CM(Om, D), c_minkowski(Om, D)),
            ("I1", oracle_I1(w, D), integral_I1(w, D)),
            ("I3", oracle_I3(w, Om, D), integral_I3(w, Om, D)),
            ("I2", oracle_I2(w, D), None if small_d else integral_I2(w, D)),
            ("I4", oracle_I4(w, Om, D), None if small_d else integral_I4(w, Om, D)),
            ("x_gw", oracle.oracle_x_gw(w, Om, D, 0.0),
             x_gw(w, Om, D, 0.0) if slow else None),
            ("x_gw", oracle.oracle_x_gw(w, Om, D, t0), None),
            ("c_gw", oracle.oracle_c_gw(w, Om, D, t0),
             c_gw(w, Om, D, t0) if slow and not small_d else None),
        ]
        for name, est, closed in pieces:
            rel = 0.0 if closed is None else abs(est.value - closed) / abs(closed)
            if not est.converged or rel > _OFF_GRID_BOUNDS[name]:
                missed.append((name, (w, Om, D, t0), est, rel))
    assert missed == []


def test_oracles_converge_at_small_separation():
    # Near D -> 0 the vertical contour leg's integrand is a Lorentzian D
    # wide, and the PV remainder varies on the scale of a - D; both zones
    # are cut in pieces that double from D wide (_doubling), so a partition
    # grows like log(1/D) and every public oracle converges at D = 1e-3 and
    # 1e-4.  X_M by both methods, C_M and I1 agree with their closed forms
    # within 1e-12 relative (worst measured 3.3e-13, C_M at D = 1e-3); I3,
    # near 1e-16 at D = 1e-4 and a difference of terms near 1e-12, within
    # its own estimate.
    for D in (1e-3, 1e-4):
        for leg in (*oracle._xm_kernel(D, "contour").integrals,
                    *oracle._xm_kernel(D, "pv_subtraction").integrals):
            assert len(leg.edges) - 1 <= 40
        for w, Om, t0 in ((2.0, 1.0, 0.0), (-0.5, -1.5, 0.3), (30.0, 0.4, -0.7)):
            compared = [
                (oracle_XM(Om, D, t0), x_minkowski(Om, D, t0)),
                (oracle_XM(Om, D, t0, method="pv_subtraction"),
                 x_minkowski(Om, D, t0)),
                (oracle_CM(Om, D), c_minkowski(Om, D)),
                (oracle_I1(w, D), integral_I1(w, D)),
            ]
            for est, closed in compared:
                assert est.converged, est
                assert abs(est.value - closed) <= 1e-12 * abs(closed), est
            i3 = oracle_I3(w, Om, D)
            assert i3.converged
            assert abs(i3.value - integral_I3(w, Om, D)) <= i3.abs_error_estimate
            for est in (
                oracle_P(Om, 0.05, w, t0=t0),
                oracle_I2(w, D),
                oracle_I4(w, Om, D),
                oracle.oracle_x_gw(w, Om, D, t0),
                oracle.oracle_c_gw(w, Om, D, t0),
            ):
                assert est.converged, est


def test_oracle_i1_i3_are_the_strain_contour_less_oracle_i2_i4():
    # I1 = -4 pi^2 D^2 S_half - I2 and I3 = -4 pi^2 D^2 S_full - I4, S the
    # strain-term contour integral of oracle_x_gw (oracle_c_gw), and each
    # estimate is the parts' estimates, S's scaled by 4 pi^2 D^2.
    omega, Omega, D = 2.0, -0.5, 3.0
    scale = oracle._FOUR_PI_SQ * D * D
    for est, Om, full_line, rest in [
        (oracle_I1(omega, D), 0.0, False, oracle_I2(omega, D)),
        (oracle_I3(omega, Omega, D), Omega, True, oracle_I4(omega, Omega, D)),
    ]:
        (s,) = oracle._solve([oracle._wightman(
            Om, D, full_line=full_line, minkowski=0.0, strain=1.0, omega=omega
        )])
        assert _hex(est.value) == _hex(-scale * s.value - rest.value)
        err = scale * s.abs_error_estimate + rest.abs_error_estimate
        assert est.abs_error_estimate.hex() == err.hex()
        assert est.abs_error_estimate > scale * s.abs_error_estimate > 0.0


# --- verification suite ------------------------------------------------------


def test_verify_suite_minimal_grid():
    records = verify_suite(MINIMAL_VERIFY_GRID)
    assert len(records) == 9
    names = [r.quantity for r in records]
    assert sorted(names) == sorted(
        [
            "transition_probability",
            "x_minkowski",
            "x_minkowski_pv",
            "x_minkowski_consistency",
            "c_minkowski",
            "integral_I1",
            "integral_I2",
            "integral_I3",
            "integral_I4",
        ]
    )
    for rec in records:
        assert rec.passed
        assert rec.rel_error <= rec.tolerance
        assert rec.params == tuple(sorted(rec.params))
        assert all(isinstance(k, str) and isinstance(v, float)
                   for k, v in rec.params)
    consistency = [r for r in records if r.quantity == "x_minkowski_consistency"]
    assert len(consistency) == 1
    assert consistency[0].note == "independent regularizations of the same kernel"


def test_a_record_passes_only_on_converged_oracles():
    # The reference must converge; so must a compared oracle (the X_M
    # consistency row), whatever the relative error.
    check = oracle._Check("x_minkowski_consistency", None, None, 1e-5)
    good = oracle.OracleEstimate(1.0, 1e-9, True)
    flagged = oracle.OracleEstimate(1.0, 1e-9, False)
    assert oracle._record(check, (), 1.0, good).passed
    assert oracle._record(check, (), good, good).passed
    assert not oracle._record(check, (), 1.0, flagged).passed
    assert not oracle._record(check, (), flagged, good).passed
    assert not oracle._record(check, (), good, flagged).passed
    # converged carries the flags themselves, whatever the relative error.
    far = oracle.OracleEstimate(2.0, 1e-9, True)
    assert oracle._record(check, (), 1.0, good).converged
    assert oracle._record(check, (), 1.0, far).converged
    assert not oracle._record(check, (), 1.0, far).passed
    assert not oracle._record(check, (), 1.0, flagged).converged
    assert not oracle._record(check, (), flagged, good).converged
    assert not oracle._record(check, (), good, flagged).converged


def test_verify_fails_the_records_whose_oracles_miss_their_target(monkeypatch):
    # Below what the quadratures reach (I1-I4 and P at this point), their
    # records fail though the values agree as closely as ever, and the CLI
    # exits 1.
    monkeypatch.setattr(oracle, "_FINE_TOL", 1e-14)
    records = verify_suite(MINIMAL_VERIFY_GRID)
    failed = {r.quantity for r in records if not r.passed}
    assert {"integral_I1", "integral_I3"} <= failed
    assert all(r.rel_error <= r.tolerance for r in records)
    assert cli.main(["verify", "--grid", "minimal"]) == 1


_XM_GRID = {
    "omega_sigma": (2.0,),
    "Omega_sigma": (0.5, 1.0),
    "D_sigma": (1.0, 2.0),
    "t0_sigma": (0.0, 1.0),
}


def _hex(z):
    return (complex(z).real.hex(), complex(z).imag.hex())


def test_verify_suite_record_order_on_xm_grid():
    # Records come signature by signature, grid point by grid point (first
    # axis outer), and kind by kind within a point.
    records = verify_suite(_XM_GRID)
    (w,) = _XM_GRID["omega_sigma"]
    Oms, Ds, t0s = (_XM_GRID[k] for k in ("Omega_sigma", "D_sigma", "t0_sigma"))
    expected = [
        *(("transition_probability", {"Omega_sigma": Om}) for Om in Oms),
        *(
            (q, {"Omega_sigma": Om, "D_sigma": D, "t0_sigma": t0})
            for Om in Oms
            for D in Ds
            for t0 in t0s
            for q in ("x_minkowski", "x_minkowski_pv", "x_minkowski_consistency")
        ),
        *(("c_minkowski", {"Omega_sigma": Om, "D_sigma": D}) for Om in Oms for D in Ds),
        *(
            (q, {"omega_sigma": w, "D_sigma": D})
            for D in Ds
            for q in ("integral_I1", "integral_I2")
        ),
        *(
            (q, {"omega_sigma": w, "Omega_sigma": Om, "D_sigma": D})
            for Om in Oms
            for D in Ds
            for q in ("integral_I3", "integral_I4")
        ),
    ]
    assert [(r.quantity, r.params) for r in records] == [
        (q, tuple(sorted(p.items()))) for q, p in expected
    ]


def _standalone(rec):
    """The closed-form value and oracle estimate a record compares."""
    p = dict(rec.params)
    names = ("omega_sigma", "Omega_sigma", "D_sigma", "t0_sigma")
    w, Om, D, t0 = (p.get(name) for name in names)
    if rec.quantity == "transition_probability":
        return complex(transition_probability(Om), 0.0), oracle_P(Om)
    if rec.quantity.startswith("x_minkowski"):
        reg = oracle_XM(Om, D, t0, method="contour")
        pv = oracle_XM(Om, D, t0, method="pv_subtraction")
        return {
            "x_minkowski": (x_minkowski(Om, D, t0), reg),
            "x_minkowski_pv": (x_minkowski(Om, D, t0), pv),
            "x_minkowski_consistency": (reg.value, pv),
        }[rec.quantity]
    if rec.quantity == "c_minkowski":
        return complex(c_minkowski(Om, D), 0.0), oracle_CM(Om, D)
    if rec.quantity == "integral_I1":
        return integral_I1(w, D), oracle_I1(w, D)
    if rec.quantity == "integral_I2":
        return complex(integral_I2(w, D), 0.0), oracle_I2(w, D)
    if rec.quantity == "integral_I3":
        return complex(integral_I3(w, Om, D), 0.0), oracle_I3(w, Om, D)
    assert rec.quantity == "integral_I4"
    return complex(integral_I4(w, Om, D), 0.0), oracle_I4(w, Om, D)


def test_verify_suite_records_equal_standalone_oracles():
    # verify_suite refines the integrals of all its oracles together, and
    # takes every closed form from one array pass; each record must still
    # be what the public piece and oracle give alone, bit for bit.  One
    # more grid point at Omega < 0 and t0 = 0.6, and omega below the
    # small-omega cutoff, so that the pass mixes series and direct rows.
    records = verify_suite({
        **_XM_GRID,
        "omega_sigma": (5e-4, 2.0),
        "Omega_sigma": (-0.5, 0.5, 1.0),
        "t0_sigma": (0.0, 0.6, 1.0),
    })
    for rec in records:
        value, est = _standalone(rec)
        assert _hex(rec.value) == _hex(value), rec
        assert _hex(rec.reference) == _hex(est.value), rec
        assert rec.oracle_error_estimate.hex() == est.abs_error_estimate.hex(), rec
    counts = collections.Counter(rec.quantity for rec in records)
    assert counts == {
        "transition_probability": 3,
        "x_minkowski": 18,
        "x_minkowski_pv": 18,
        "x_minkowski_consistency": 18,
        "c_minkowski": 6,
        "integral_I1": 4,
        "integral_I2": 4,
        "integral_I3": 12,
        "integral_I4": 12,
    }


@pytest.mark.parametrize(
    "grid", [DEFAULT_VERIFY_GRID, MINIMAL_VERIFY_GRID], ids=["default", "minimal"]
)
def test_verify_suite_integrals_all_meet_their_targets(grid, monkeypatch):
    # Each integral's partition is fine enough on the verify grids that its
    # error estimate is within QUADPACK's max(1e-13, 1e-12 |value|).
    asked = []
    integrate = oracle._integrate

    def recording(integrals):
        vals, errs = integrate(integrals)
        asked.extend(zip(integrals, vals, errs))
        return vals, errs

    monkeypatch.setattr(oracle, "_integrate", recording)
    verify_suite(grid)
    assert asked
    over = [
        (it.family.kernel.__name__, it.params, err, target)
        for it, val, err in asked
        if err > (target := max(1e-13, 1e-12 * abs(val)))
    ]
    assert over == []


def _gk21_call_sizes(monkeypatch):
    """The number of integrals of each oracle._gk21 call, in call order."""
    sizes = []
    batched = oracle._gk21

    def recording(f, edges, **kwargs):
        sizes.append(len(edges))
        return batched(f, edges, **kwargs)

    monkeypatch.setattr(oracle, "_gk21", recording)
    return sizes


def test_verify_suite_makes_one_quadrature_call_per_value_type(monkeypatch):
    sizes = _gk21_call_sizes(monkeypatch)
    records = verify_suite()
    assert len(records) == 183
    # One call for the complex integrands, the horizontal contour legs:
    # one each of P (3, and P(-1) of the calibration, whose P(1) is the
    # grid's), C_M (12), the X_M kernel (4 D), the half-line strain term
    # of I1 (12 (omega, D)) and the full-line one of I3 (36):
    # 4 + 12 + 4 + 12 + 36.  One for the real ones: the vertical legs of
    # the X_M kernel (4) and of I1's strain term (12), X_M by PV
    # subtraction (4 D, two pieces), I2 (12) and I4's two pieces (36),
    # each shared by the I1 or I3 reference at its point:
    # 4 + 12 + 8 + 12 + 72.
    assert sorted(sizes) == [68, 108]


def test_verify_suite_starts_each_integral_on_its_final_partition(monkeypatch):
    # Rows (pieces) per _gk21_rule call of a default verify_suite: one call
    # per 512 pieces of each value type, complex first, each integral on
    # the partition its oracle fixed.
    # Complex: every contour integral has one horizontal leg over [0, L],
    # L = D + 14 (a full-line oracle takes twice its real part), in pieces
    # c = 0.5 wide within 1 of the pole at D and 2 wide elsewhere (every
    # |Omega| + |omega|/2 on the grid is at most 4).  At D = 0 (P, 3 Omega,
    # and the calibration's P(-1)) that is [0, 1] in 2 and [1, 14] in 7: 9
    # rows.  At D = 0.5, 1, 2, 4 it is 10, 11, 12 and 13 rows, 46 over the
    # four D, for C_M (3 Omega), I3 (9 (omega, Omega)), X_M (1) and I1 (3
    # omega): 4 * 9 + 16 * 46 = 772.
    # Real: the half-line oracles' vertical legs 0 -> i c, one row each (X_M
    # at 4 D, I1 at 12 (omega, D)): 16.  X_M by PV subtraction: [0, 2D] in
    # pieces 2 wide, 8 over the four D, and [2D, L] in pieces D, 2D, 4D, ...
    # wide until one would be 2 wide, then 2 wide: 8, 7, 6 and 5 rows, 26.
    # I2's [0, 9 + omega/2] and I4's two pieces around s = 0 in pieces 1.25
    # wide: 8, 8 and 10 rows at each D for I2 (104), and 155 over
    # (omega, Omega) at each D for I4 (620).  16 + 8 + 26 + 104 + 620 = 774.
    # 772 = 512 + 260 and 774 = 512 + 262.
    rows = []
    rule = oracle._gk21_rule

    def counting(f, owner, lo, hi):
        rows.append(len(lo))
        return rule(f, owner, lo, hi)

    monkeypatch.setattr(oracle, "_gk21_rule", counting)
    verify_suite()
    assert rows == [512, 260, 512, 262]


def _count_quad_calls(monkeypatch):
    """One entry per integral that oracle._gk21 is asked for."""
    calls = []
    batched = oracle._gk21

    def counting(f, edges, **kwargs):
        calls.extend(edges)
        return batched(f, edges, **kwargs)

    monkeypatch.setattr(oracle, "_gk21", counting)
    return calls


def test_verify_suite_integrates_each_xm_kernel_once_per_d(monkeypatch):
    # Only the x_minkowski records depend on t0, and their kernel integral
    # does not: a second t0 value adds records but no quadrature.  Each
    # call builds each kernel oracle once per (D, method), whatever Omega
    # and t0 are.
    calls = _count_quad_calls(monkeypatch)
    builds = collections.Counter()
    build = oracle._xm_kernel

    def counting(D, method):
        builds[D, method] += 1
        return build(D, method)

    monkeypatch.setattr(oracle, "_xm_kernel", counting)
    counts = []
    for t0s in ((0.0,), (0.0, 1.0)):
        calls.clear()
        builds.clear()
        records = verify_suite({**_XM_GRID, "t0_sigma": t0s})
        counts.append((len(records), len(calls)))
        assert builds == {
            (D, method): 1
            for D in _XM_GRID["D_sigma"]
            for method in ("contour", "pv_subtraction")
        }
    assert counts[0][0] < counts[1][0]
    assert counts[0][1] == counts[1][1]


_BAD_GRIDS = {
    "unknown_key": ({**MINIMAL_VERIFY_GRID, "A": (0.1,)}, "'A'"),
    "missing_key": (
        {k: v for k, v in MINIMAL_VERIFY_GRID.items() if k != "t0_sigma"},
        "'t0_sigma'",
    ),
    "all_empty": (dict.fromkeys(MINIMAL_VERIFY_GRID, ()), "'omega_sigma'"),
    "one_empty": ({**MINIMAL_VERIFY_GRID, "D_sigma": ()}, "'D_sigma'"),
    "omega_zero": ({**MINIMAL_VERIFY_GRID, "omega_sigma": (0.0, 2.0)}, "'omega_sigma'"),
    "D_zero": ({**MINIMAL_VERIFY_GRID, "D_sigma": (0.0,)}, "'D_sigma'"),
    "D_negative": ({**MINIMAL_VERIFY_GRID, "D_sigma": (-1.0, 2.0)}, "'D_sigma'"),
    "Omega_nan": ({**MINIMAL_VERIFY_GRID, "Omega_sigma": (math.nan,)}, "'Omega_sigma'"),
    "t0_inf": ({**MINIMAL_VERIFY_GRID, "t0_sigma": (0.0, math.inf)}, "'t0_sigma'"),
}


@pytest.mark.parametrize("name", sorted(_BAD_GRIDS))
def test_verify_suite_rejects_invalid_grids_before_any_quadrature(name, monkeypatch):
    grid, key = _BAD_GRIDS[name]
    calls = _count_quad_calls(monkeypatch)
    with pytest.raises(ValueError, match=key):
        verify_suite(grid)
    assert calls == []


@pytest.mark.parametrize(
    "axis, value",
    [
        ("omega_sigma", -2.0),
        ("omega_sigma", 1e-4),
        ("Omega_sigma", -1.0),
        ("Omega_sigma", 0.0),
    ],
)
def test_verify_suite_accepts_negative_and_small_frequencies(axis, value):
    assert len(verify_suite({**MINIMAL_VERIFY_GRID, axis: (value,)})) == 9


def test_solve_integrates_an_integral_shared_by_two_oracles_once(monkeypatch):
    # The calibration's P(1) leg is the integral of oracle_P(1): solved
    # together, _gk21 gets it once, and each result is its lone one.  The
    # calibration integrates both its legs in every _solve that asks.
    assert oracle._p(1.0).integrals[0] in oracle._calibration().integrals
    calls = _count_quad_calls(monkeypatch)
    _, together = oracle._solve([oracle._calibration(), oracle._p(1.0)])
    assert len(calls) == 2  # the P(1) and P(-1) legs
    for _ in range(2):
        calls.clear()
        oracle._solve([oracle._calibration()])
        assert len(calls) == 2
    (alone,) = oracle._solve([oracle._p(1.0)])
    assert _hex(together.value) == _hex(alone.value)
    assert together.abs_error_estimate.hex() == alone.abs_error_estimate.hex()


def test_solve_keeps_integrals_apart_that_differ_in_the_sign_of_a_zero(monkeypatch):
    # At Omega = 0.0 and -0.0 the legs are equal as tuples; their values
    # may differ in the sign of a zero, so each is integrated.
    pos, neg = (oracle._p(Om) for Om in (0.0, -0.0))
    assert pos.integrals == neg.integrals
    calls = _count_quad_calls(monkeypatch)
    together = oracle._solve([pos, neg])
    assert len(calls) == 2
    monkeypatch.undo()
    for est, o in zip(together, (pos, neg)):
        (alone,) = oracle._solve([o])
        assert _hex(est.value) == _hex(alone.value)
        assert est.abs_error_estimate.hex() == alone.abs_error_estimate.hex()


def test_verify_suite_carries_nothing_between_calls(monkeypatch):
    # The first call of the process integrates what every later one does,
    # the calibration included, and gives the same records.
    calls = _count_quad_calls(monkeypatch)
    counts, records = [], []
    for _ in range(3):
        calls.clear()
        records.append(verify_suite(_XM_GRID))
        counts.append(len(calls))
    assert counts[0] == counts[1] == counts[2] > 0
    assert records[0] == records[1] == records[2]
