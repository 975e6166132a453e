"""Tests for the overflow-safe special-function layer.

Reference constants were computed with 30-digit arbitrary-precision
arithmetic and are frozen here as literals; structural identities are
checked on seeded random samples against independent evaluations.
"""

import cmath
import math

import numpy as np
import pytest
from scipy import special

from gwharvest.specfun import (
    _ARRAY,
    _SCALAR,
    DomainTooLarge,
    _phased_erf,
    complex_array,
    erf_real,
    erfc_real,
    faddeeva_w,
    faddeeva_w_array,
    scaled_erf_product,
    scaled_erf_product_array,
)

SQRT_PI = math.sqrt(math.pi)


def test_erf_real_reference_values():
    assert abs(erf_real(1.0) - 0.84270079294971486934) < 1e-15
    assert erf_real(0.0) == 0.0
    assert abs(erf_real(-1.0) + 0.84270079294971486934) < 1e-15


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
    for scalar, ufunc in ((erf_real, special.erf), (erfc_real, special.erfc)):
        got = np.array([scalar(v) for v in x.tolist()])
        assert np.array_equal(got.view(np.int64), ufunc(x).view(np.int64))
        assert type(scalar(0.5)) is float and type(scalar(2)) is float
    assert math.isnan(erf_real(math.nan)) and math.isnan(erfc_real(math.nan))


def test_faddeeva_at_origin():
    assert faddeeva_w(0.0) == pytest.approx(1.0, abs=1e-15)


def test_faddeeva_reference_values():
    ref_upper = 0.30474420525691259246 + 0.20821893820283162729j
    assert abs(faddeeva_w(1 + 1j) - ref_upper) < 1e-14
    # Lower half-plane goes through the functional-equation fold.
    ref_lower = -0.12293249482276237412 + 0.32755513633331258763j
    assert abs(faddeeva_w(2 - 0.5j) - ref_lower) < 1e-13


def test_faddeeva_against_defining_integral():
    # For Im z > 0, w(z) = (i/pi) * integral of exp(-t^2)/(z - t) dt.  The
    # trapezoid rule on an analytic integrand converges geometrically, so a
    # modest uniform grid is already far below the comparison tolerance.
    z = 1.0 + 1.0j
    ts = np.linspace(-10.0, 10.0, 401)
    vals = np.exp(-ts * ts) / (z - ts)
    ref = 1j / math.pi * np.trapezoid(vals, ts)
    assert abs(faddeeva_w(z) - ref) < 1e-11


def test_faddeeva_reflection_symmetries():
    rng = np.random.default_rng(20250819)
    pts = rng.uniform(-8.0, 8.0, size=(1000, 2))
    for x, y in pts:
        z = complex(x, y)
        w = faddeeva_w(z)
        # w(-conj(z)) = conj(w(z)) for all z.
        assert abs(faddeeva_w(-z.conjugate()) - w.conjugate()) <= 1e-13 * abs(w)
        # Functional equation w(-z) = 2 exp(-z^2) - w(z).  The difference
        # is judged against the largest term entering the subtraction: when
        # 2 exp(-z^2) is exponentially larger than w(-z) the right-hand
        # side cancels catastrophically and only that scaled bound is
        # meaningful in floating point.
        gauss = 2.0 * np.exp(-z * z)
        rhs = gauss - w
        scale = max(abs(gauss), abs(w), 1.0)
        assert abs(faddeeva_w(-z) - rhs) <= 1e-12 * scale


def test_scaled_erf_product_unscaled_reference_values():
    # At p = 0 the product is erf(z) itself.
    ref = 1.3161512816979476449 + 0.19045346923783468628j
    assert abs(scaled_erf_product(0.0, 1 + 1j) - ref) < 1e-14
    ref2 = 76.00304652657264075 - 61.010112413398781654j
    assert abs(scaled_erf_product(0.0, 0.5 + 2.5j) - ref2) / abs(ref2) < 1e-13


def test_scaled_erf_product_unscaled_odd_and_conjugate():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-3.0, 3.0, size=(200, 2))
    for x, y in pts:
        z = complex(x, y)
        erf_z = scaled_erf_product(0.0, z)
        assert abs(scaled_erf_product(0.0, -z) + erf_z) < 1e-14 * max(
            1.0, abs(erf_z)
        )
        assert abs(
            scaled_erf_product(0.0, z.conjugate()) - erf_z.conjugate()
        ) < 1e-13 * max(1.0, abs(erf_z))


def test_scaled_erf_product_matches_separate_factors_in_safe_range():
    # Where the bare factors are representable the scaled product must
    # equal their literal product.
    for p, z in [(1.0, 2.0 + 1.0j), (3.0, 0.5 + 2.5j), (0.0, 1.0 + 1.0j)]:
        direct = math.exp(-p * p) * complex(special.erf(z))
        assert abs(scaled_erf_product(p, z) - direct) <= 1e-13 * max(
            abs(direct), 1e-30
        )


def test_scaled_erf_product_beyond_bare_overflow():
    # e^{-36} erf(6 + 6i): erf alone peaks near e^{36}, far outside the
    # safe window of the unscaled route, but the product is tiny.
    ref = 2.4532067660420161103e-16 - 7.6866933216173717401e-18j
    val = scaled_erf_product(6.0, 6.0 + 6.0j)
    assert abs(val - ref) / abs(ref) < 1e-12


def test_scaled_erf_product_purely_imaginary_is_dawson():
    # e^{-p^2} erf(ip) = 2i D(p)/sqrt(pi); stays bounded to p = 30.
    ref5 = 2j * 0.10213407442427683544 / SQRT_PI
    assert abs(scaled_erf_product(5.0, 5.0j) - ref5) < 1e-15
    for p in np.linspace(0.5, 30.0, 60):
        val = scaled_erf_product(p, 1j * p)
        expected = 2j * special.dawsn(p) / SQRT_PI
        assert abs(val - expected) <= 1e-13 * abs(expected)
        assert abs(val) < 1.0  # bounded like 1/(p sqrt(pi)) for large p


def test_scaled_erf_product_odd_in_z():
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = rng.uniform(0.0, 4.0)
        z = complex(rng.uniform(-4, 4), rng.uniform(-p, p))
        a = scaled_erf_product(p, z)
        b = scaled_erf_product(p, -z)
        assert abs(a + b) <= 1e-13 * max(abs(a), 1e-30)


def test_scaled_erf_product_overflow_guard():
    # Exponent real part y^2 - x^2 - p^2 = 1600 > 700 must refuse rather
    # than return inf.
    with pytest.raises(DomainTooLarge):
        scaled_erf_product(0.0, 40.0j)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=complex).view(np.int64)


def test_array_forms_match_scalar_forms_in_every_quadrant():
    rng = np.random.default_rng(5)
    z = rng.uniform(-4, 4, 400) + 1j * rng.uniform(-4, 4, 400)
    z[:4] = [0.0, 2.0, -2.0j, -1.5 + 0.0j]
    w = faddeeva_w_array(z)
    for zi, wi in zip(z.tolist(), w.tolist()):
        assert abs(wi - faddeeva_w(zi)) <= 1e-14 * abs(faddeeva_w(zi))
    p = rng.uniform(0.0, 4.0, 400)
    zs = rng.uniform(-4, 4, 400) + 1j * rng.uniform(-1, 1, 400) * p
    got = scaled_erf_product_array(p, zs)
    for pi, zi, gi in zip(p.tolist(), zs.tolist(), got.tolist()):
        ref = scaled_erf_product(pi, zi)
        assert abs(gi - ref) <= 1e-14 * max(abs(ref), 1e-300)
    # Both forms make the same floating-point operations, so they agree
    # bit for bit, signed zeros included, in all four quadrants.
    for zq in (z, zs):
        for sr, si in ((1, 1), (-1, 1), (-1, -1), (1, -1)):
            assert np.sum((np.sign(zq.real) == sr) & (np.sign(zq.imag) == si)) > 50
    assert np.array_equal(_bits([faddeeva_w(v) for v in z.tolist()]), _bits(w))
    scalar = [scaled_erf_product(a, b) for a, b in zip(p.tolist(), zs.tolist())]
    assert np.array_equal(_bits(scalar), _bits(got))
    with pytest.raises(DomainTooLarge):
        scaled_erf_product_array(np.array([0.0, 1.0]), np.array([40.0j, 1.0]))


def test_scalar_forms_return_builtin_numbers():
    # Builtin float/complex, never numpy scalars, on every branch: the
    # scalar closed forms do all their arithmetic on what these return.
    for z in (0.5 + 0.5j, -0.5 + 0.5j, 0.5 - 0.5j, -0.5 - 0.5j, 0.0, 2):
        assert type(faddeeva_w(z)) is complex
        assert type(scaled_erf_product(1.0, z)) is complex


@pytest.mark.parametrize("z, exponent", [(1 - 30j, "899"), (-3 - 40j, "1591")])
def test_faddeeva_overflow_raises(z, exponent):
    # exp(-z^2) overflows below the real axis where y^2 - x^2 > 700; w
    # itself is that large there, so no finite value exists to return.
    with pytest.raises(DomainTooLarge, match=f"exponent {exponent}"):
        faddeeva_w(z)
    with pytest.raises(DomainTooLarge, match=f"exponent {exponent}"):
        faddeeva_w_array(np.array([1.0 + 1.0j, z]))


def test_faddeeva_just_inside_the_overflow_bound_is_finite():
    z = 1 - 26.47j  # y^2 - x^2 = 699.66
    w = faddeeva_w(z)
    assert cmath.isfinite(w) and abs(w) > 1e303
    assert faddeeva_w_array(np.array([z]))[0] == w


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
    # independent route through scaled_erf_product, which forms e^{-z^2}
    # and folds w(iz) across the imaginary axis.  The identity's two terms
    # are e^{-p^2} and e^{-k^2} |w(p + i|k|)|; the error is judged against
    # the larger.
    eps = np.finfo(float).eps
    for point in zip(*(a.tolist() for a in _phased_erf_points())):
        p, e_p, k, cos, sin, gauss_k = point
        got = complex(*_phased_erf(_SCALAR, *point))
        ref = complex(cos, sin) * scaled_erf_product(p, complex(k, p))
        scale = max(e_p, gauss_k * abs(faddeeva_w(complex(p, abs(k)))))
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
