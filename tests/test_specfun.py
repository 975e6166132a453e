"""Tests for the special-function layer: the backend's erf, erfc and
first-quadrant Faddeeva primitives, and the phased erf product built on them.

Reference constants were computed with 30-digit arbitrary-precision
arithmetic and are frozen here as literals; structural identities are
checked on seeded random samples against independent evaluations.
"""

import cmath
import math

import numpy as np
import pytest
from scipy import special

from gwharvest.specfun import _ARRAY, _SCALAR, _phased_erf, complex_array, erfc_real

SQRT_PI = math.sqrt(math.pi)


def _phased(p: float, k: float) -> complex:
    """exp(2ipk) exp(-p^2) erf(k + ip) by _phased_erf on builtin floats."""
    return complex(*_phased_erf(
        _SCALAR, p, math.exp(-p * p), k, math.cos(2.0 * p * k),
        math.sin(2.0 * p * k), math.exp(-k * k),
    ))


def _unscaled(p: float, k: float) -> complex:
    """erf(k + ip) recovered from _phased: safe only while exp(p^2) is."""
    return _phased(p, k) * math.exp(p * p) * cmath.exp(complex(0.0, -2.0 * p * k))


def test_erf_real_reference_values():
    erf = _SCALAR.erf
    assert abs(erf(1.0) - 0.84270079294971486934) < 1e-15
    assert erf(0.0) == 0.0
    assert abs(erf(-1.0) + 0.84270079294971486934) < 1e-15


def test_erfc_real_accurate_in_far_tail():
    # erfc(10) underflows to 0 in the naive 1 - erf(10) evaluation.
    ref = 2.088487583762544757e-45
    assert abs(erfc_real(10.0) - ref) / ref < 1e-13


def test_scalar_erf_and_erfc_equal_the_scipy_ufuncs_bit_for_bit():
    # The scalar backend's erf and erfc are scipy's Cython-level doubles;
    # the array backend's are the ufuncs.  Scalar and array rows can only
    # agree bit for bit if these do, signed zeros and subnormals included.
    rng = np.random.default_rng(11)
    tiny = np.exp(rng.uniform(math.log(5e-324), math.log(2.3e-308), 500))
    x = np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.inf, -math.inf],
        tiny, -tiny,
        np.linspace(-30.0, 30.0, 60001),
        rng.uniform(-30.0, 30.0, 20000),
    ])
    for scalar, ufunc in ((_SCALAR.erf, special.erf), (_SCALAR.erfc, special.erfc)):
        got = np.array([scalar(v) for v in x.tolist()])
        assert np.array_equal(got.view(np.int64), ufunc(x).view(np.int64))
        assert type(scalar(0.5)) is float and type(scalar(2)) is float
        assert math.isnan(scalar(math.nan))
    assert _SCALAR.erfc is erfc_real


def test_faddeeva_at_origin():
    assert _SCALAR.w(0.0, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_faddeeva_reference_values():
    # First quadrant only: the one region _phased_erf asks w for.
    for z, ref in [
        (1 + 1j, 0.30474420525691259246 + 0.20821893820283162729j),
        (2 + 0.5j, 0.10335882374136665895 + 0.28478588475009374558j),
        (0.5 + 3j, 0.17510521262315801276 + 0.02663616844623088308j),
        (6 + 0.01j, 0.00016375289889683184285 + 0.095395923386601482412j),
        (3 + 0j, 0.0001234098040866795495 + 0.20115731703760038666j),
    ]:
        assert abs(_SCALAR.w(z.real, z.imag) - ref) < 1e-14


def test_faddeeva_against_defining_integral():
    # For Im z > 0, w(z) = (i/pi) * integral of exp(-t^2)/(z - t) dt.  The
    # trapezoid rule on an analytic integrand converges geometrically, so a
    # modest uniform grid is already far below the comparison tolerance.
    ts = np.linspace(-10.0, 10.0, 401)
    for z in (1.0 + 1.0j, 0.25 + 2.0j, 4.0 + 1.0j):
        vals = np.exp(-ts * ts) / (z - ts)
        ref = 1j / math.pi * np.trapezoid(vals, ts)
        assert abs(_SCALAR.w(z.real, z.imag) - ref) < 1e-11


def test_scaled_erf_product_unscaled_reference_values():
    # erf(1 + i) and erf(0.5 + 2.5i), recovered from the phased product.
    ref = 1.3161512816979476449 + 0.19045346923783468628j
    assert abs(_unscaled(1.0, 1.0) - ref) < 1e-14
    ref2 = 76.00304652657264075 - 61.010112413398781654j
    assert abs(_unscaled(2.5, 0.5) - ref2) / abs(ref2) < 1e-13


def test_scaled_erf_product_unscaled_odd_and_conjugate():
    # _phased_erf takes Im z = p > 0 only; scipy's erf at -z and conj(z),
    # in the half-planes it never reaches, must give the same erf(z) by
    # erf(z) = -erf(-z) = conj(erf(conj(z))).
    rng = np.random.default_rng(7)
    for p, k in zip(*rng.uniform((0.05, -3.0), 3.0, (200, 2)).T.tolist()):
        erf_z = _unscaled(p, k)
        scale = max(1.0, abs(erf_z))
        z = complex(k, p)
        assert abs(erf_z + special.erf(-z)) < 1e-13 * scale
        assert abs(erf_z - special.erf(z.conjugate()).conjugate()) < 1e-13 * scale


def test_scaled_erf_product_odd_in_z():
    # z -> -z leaves Im z = p > 0; with the conjugate, oddness stays there:
    # the phased product at -k is minus the conjugate of the one at k,
    # exactly, also where exp(p^2) overflows.
    rng = np.random.default_rng(11)
    for p, k in zip(*rng.uniform((0.05, -8.0), (30.0, 8.0), (100, 2)).T.tolist()):
        assert _phased(p, -k) == -_phased(p, k).conjugate()


def test_scaled_erf_product_matches_separate_factors_in_safe_range():
    # Where the bare factors are representable the phased product must
    # equal their literal product, at arguments with no exact square.
    for p, k in [(1.0, 2.0), (2.5, 0.5), (0.3, -1.7), (0.1, 0.05), (3.7, -0.9)]:
        phase = cmath.exp(complex(0.0, 2.0 * p * k))
        direct = phase * math.exp(-p * p) * complex(special.erf(complex(k, p)))
        assert abs(_phased(p, k) - direct) <= 1e-13 * abs(direct)


def test_scaled_erf_product_beyond_bare_overflow():
    # e^{-36} erf(6 + 6i): erf alone peaks near e^{36}, far outside the
    # safe window of the unscaled route, but the product is tiny.
    ref = 2.4532067660420161103e-16 - 7.6866933216173717401e-18j
    val = _phased(6.0, 6.0) * complex(math.cos(72.0), -math.sin(72.0))
    assert abs(val - ref) / abs(ref) < 1e-12


def test_scaled_erf_product_purely_imaginary_is_dawson():
    # e^{-p^2} erf(ip) = 2i D(p)/sqrt(pi); stays bounded to p = 30.  The
    # arguments are X_M's E0 (closedform._minkowski): k = 0, phase 1,
    # e^{-k^2} = 1.
    def e0(p):
        return complex(*_phased_erf(_SCALAR, p, math.exp(-p * p), 0.0, 1.0, 0.0, 1.0))

    ref5 = 2j * 0.10213407442427683544 / SQRT_PI
    assert abs(e0(5.0) - ref5) < 1e-15
    for p in np.linspace(0.5, 30.0, 60).tolist():
        val = e0(p)
        expected = 2j * special.dawsn(p) / SQRT_PI
        assert abs(val - expected) <= 1e-13 * abs(expected)
        assert abs(val) < 1.0  # bounded like 1/(p sqrt(pi)) for large p


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=complex).view(np.int64)


def test_array_forms_match_scalar_forms_in_every_quadrant():
    # The complex primitives of the two backends give the same bits, signed
    # zeros included: cexp, which the envelope calls, in all four quadrants,
    # and w on its domain, the first quadrant with both axes.
    rng = np.random.default_rng(5)
    re, im = rng.uniform(-40.0, 40.0, (2, 400))
    re[:4], im[:4] = (0.0, -0.0, 2.0, -1.5), (-0.0, 3.0, 0.0, -0.0)
    for sr, si in ((1, 1), (-1, 1), (-1, -1), (1, -1)):
        assert np.sum((np.sign(re) == sr) & (np.sign(im) == si)) > 50
    scalar = [_SCALAR.cexp(x, y) for x, y in zip(re.tolist(), im.tolist())]
    assert np.array_equal(_bits(scalar), _bits(_ARRAY.cexp(re, im)))
    re, im = abs(re / 5.0), abs(im / 5.0)
    re[:3], im[:3] = (0.0, 0.0, 3.0), (0.0, 2.0, 0.0)
    scalar = [_SCALAR.w(x, y) for x, y in zip(re.tolist(), im.tolist())]
    assert np.array_equal(_bits(scalar), _bits(_ARRAY.w(re, im)))


def test_scalar_forms_return_builtin_numbers():
    # Builtin float/complex, never numpy scalars: the scalar closed forms
    # do all their arithmetic on what these return.
    for x, y in ((0.5, 0.5), (0.0, 2.0), (2.0, 0.0), (2, 1)):
        assert type(_SCALAR.w(x, y)) is complex
        assert type(_SCALAR.cexp(-x, y)) is complex


def _phased_erf_points():
    """_phased_erf's arguments after the backend, (p, e^{-p^2}, k, cos 2pk,
    sin 2pk, e^{-k^2}), as float arrays: p in [0.05, 8] and k in [-8, 8],
    k = 0.0, -0.0 and +-8 included.

    p and k are multiples of 1/256, so 2pk, p^2, k^2 and k^2 - p^2 are
    exact doubles: the two routes compared below then share their
    arguments, and differ only by the rounding of their own operations.
    """
    rng = np.random.default_rng(26)
    p = rng.integers(13, 2049, 2000) / 256.0
    k = rng.integers(-2048, 2049, 2000) / 256.0
    k[:4] = (0.0, -0.0, 8.0, -8.0)
    theta = 2.0 * p * k
    return p, np.exp(-p * p), k, np.cos(theta), np.sin(theta), np.exp(-k * k)


def test_phased_erf_matches_the_scaled_erf_product_times_its_phase():
    # e^{2ipk} e^{-p^2} erf(k + ip) by the phase identity against the
    # literal product of its factors, with scipy's erf, which folds none of
    # this module's code.  The identity's two terms are e^{-p^2} and
    # e^{-k^2} |w(p + i|k|)|; the error is judged against the larger.
    eps = np.finfo(float).eps
    for point in zip(*(a.tolist() for a in _phased_erf_points())):
        p, e_p, k, cos, sin, gauss_k = point
        got = complex(*_phased_erf(_SCALAR, *point))
        ref = complex(cos, sin) * (e_p * complex(special.erf(complex(k, p))))
        scale = max(e_p, gauss_k * abs(special.wofz(complex(p, abs(k)))))
        assert abs(got - ref) <= 4.0 * eps * scale, (p, k, got, ref)


def test_phased_erf_array_form_matches_scalar_form_bit_for_bit():
    points = _phased_erf_points()
    re, im = _phased_erf(_ARRAY, *points)
    scalar = [
        complex(*_phased_erf(_SCALAR, *point))
        for point in zip(*(a.tolist() for a in points))
    ]
    assert np.array_equal(_bits(scalar), _bits(complex_array(re, im)))
    # Builtin floats on the scalar backend, as the closed forms need.
    values = _phased_erf(_SCALAR, 1.0, math.exp(-1.0), -0.5, math.cos(-1.0),
                         math.sin(-1.0), math.exp(-0.25))
    assert [type(v) for v in values] == [float, float]
