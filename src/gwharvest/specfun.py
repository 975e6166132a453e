"""Overflow-safe real and complex special functions.

Every closed form downstream is built from the error function on the real
axis and in the complex plane, the Faddeeva function w(z) = exp(-z^2) erfc(-iz),
and the scaled combination exp(-p^2) * erf(z).  The scaled combination
matters because erf(x + iy) grows like exp(y^2): whenever a closed form
multiplies a Gaussian prefactor exp(-D^2/4) into erf(... + iD/2), evaluating
the two factors separately overflows long before the product does.
All complex evaluation is routed through the Faddeeva function, which is
numerically stable in the upper half-plane.

The scalar functions compute on builtin float and complex (math, cmath
and scipy's Cython-level wofz, the same code as the scipy.special.wofz
ufunc without its per-call array dispatch) and return them.  Each _array
form repeats its scalar function's floating-point operations element by
element, so the two agree bit for bit.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy import special as _sp
from scipy.special import cython_special as _cs

__all__ = [
    "DomainTooLarge",
    "erf_real",
    "erfc_real",
    "faddeeva_w",
    "faddeeva_w_array",
    "scaled_erf_product",
    "scaled_erf_product_array",
    "complex_array",
    "sinc",
]

# sinc switches to its Taylor polynomial below this to avoid 0/0 and the
# precision loss of sin(x)/x for tiny x.
_SINC_TAYLOR_CUTOFF = 1e-4

# Largest real part of an exponent passed to exp; exp(709.78) overflows.
_EXPONENT_LIMIT = 700.0


class DomainTooLarge(ValueError):
    """An argument whose exponential factor would overflow a double."""


def erf_real(x: float) -> float:
    """Error function on the real axis."""
    return float(_sp.erf(x))


def erfc_real(x: float) -> float:
    """Complementary error function 1 - erf(x), accurate for large x."""
    return float(_sp.erfc(x))


def faddeeva_w(z: complex) -> complex:
    """Faddeeva function w(z) = exp(-z^2) erfc(-iz).

    Defined for all finite z whose exp(-z^2) is representable; arguments in
    the left half-plane are folded to the right through the reflection
    w(-conj(z)) = conj(w(z)), and the lower half-plane to the upper, where
    the evaluation is numerically stable.  Raises DomainTooLarge where
    Re(-z^2) > 700 in the lower half-plane, since w itself overflows there.
    """
    z = complex(z)
    left = z.real < 0.0
    if left:
        # w(-conj(z)) = conj(w(z)) maps onto Re(z) >= 0 at no cost.
        z = complex(-z.real, z.imag)
    if z.imag < 0.0:
        # Functional equation w(z) = 2 exp(-z^2) - w(-z) folds the lower
        # half-plane up; the exponential term here is the true leading
        # behaviour of w below the real axis, so where it overflows the
        # function itself does.
        exponent = -z * z
        if exponent.real > _EXPONENT_LIMIT:
            raise DomainTooLarge(
                f"Faddeeva function overflows: exponent {exponent.real:g}"
            )
        w = 2.0 * cmath.exp(exponent) - _cs.wofz(-z)
    else:
        w = _cs.wofz(z)
    return w.conjugate() if left else w


def scaled_erf_product(p: float, z: complex) -> complex:
    """The product exp(-p^2) * erf(z) without intermediate overflow.

    Uses erf(z) = 1 - exp(-z^2) w(iz) for Re(z) >= 0 (oddness handles the
    other half-plane), so the product becomes

        exp(-p^2) - exp(-p^2 - z^2) w(iz).

    With z = x + iy the surviving exponent has real part y^2 - x^2 - p^2,
    which is non-positive whenever |y| <= p regardless of x: exactly the
    pattern of every Gaussian-damped erf product in the closed forms
    (p = D/2 against y = D/2).  w(iz) is evaluated in its stable region.
    """
    p = float(p)
    z = complex(z)
    odd = z.real < 0.0
    if odd:
        # erf is odd, so the product just flips sign under z -> -z.
        z = -z

    exponent = -p * p - z * z
    # Guard the corner |Im z| > p where the compensated exponent can still
    # grow past what a double holds.
    if exponent.real > _EXPONENT_LIMIT:
        raise DomainTooLarge(
            f"scaled erf product overflows: exponent {exponent.real:g}"
        )
    w = faddeeva_w(1j * z)
    # The real exp stays numpy's, the loop scaled_erf_product_array uses
    # (it can differ from math.exp in the last bit).
    out = float(np.exp(-p * p)) - cmath.exp(exponent) * w
    return -out if odd else out


def complex_array(re, im) -> np.ndarray:
    """Complex array with exactly the given real and imaginary parts.

    re + 1j*im is not exact: an infinite part turns the other into nan, and
    zero signs can flip.
    """
    out = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), dtype=complex)
    out.real = re
    out.imag = im
    return out


def faddeeva_w_array(z: np.ndarray) -> np.ndarray:
    """faddeeva_w over a complex array, its two reflections taken as masks.

    The lower half-plane fold is written in real arithmetic in the order of
    the scalar function's complex operations, as in scaled_erf_product_array.
    """
    z = np.asarray(z, dtype=complex)
    left = z.real < 0.0
    z = np.where(left, -np.conj(z), z)
    lower = z.imag < 0.0
    w = _sp.wofz(np.where(lower, -z, z))
    if lower.any():
        x, y = z.real[lower], z.imag[lower]
        # exponent = (-z) * z
        exp_re = -x * x - -y * y
        exp_im = -x * y + -y * x
        if np.any(exp_re > _EXPONENT_LIMIT):
            raise DomainTooLarge(
                f"Faddeeva function overflows: exponent {np.max(exp_re):g}"
            )
        # 2 exp(exponent) - w(-z)
        e = np.exp(complex_array(exp_re, exp_im))
        wl = w[lower]
        w[lower] = complex_array(
            2.0 * e.real - 0.0 * e.imag - wl.real,
            2.0 * e.imag + 0.0 * e.real - wl.imag,
        )
    return np.where(left, np.conj(w), w)


def scaled_erf_product_array(p: np.ndarray, z: np.ndarray) -> np.ndarray:
    """scaled_erf_product over arrays, its oddness fold taken as a mask.

    Written in real arithmetic in the order Python's complex operations
    use, so that each element equals the scalar function's value bit for
    bit (numpy's vectorized complex multiply can fuse multiply-adds).
    """
    p = np.asarray(p, dtype=float)
    z = np.asarray(z, dtype=complex)
    odd = z.real < 0.0
    z = np.where(odd, -z, z)
    x, y = z.real, z.imag
    # exponent = -p^2 - z^2
    exp_re = -p * p - (x * x - y * y)
    exp_im = 0.0 - (x * y + y * x)
    if np.any(exp_re > _EXPONENT_LIMIT):
        raise DomainTooLarge(
            f"scaled erf product overflows: exponent {np.max(exp_re):g}"
        )
    # w(iz), iz = (0 x - y) + i (0 y + x)
    w = faddeeva_w_array(complex_array(0.0 * x - y, 0.0 * y + x))
    e = np.exp(complex_array(exp_re, exp_im))
    prod_re = e.real * w.real - e.imag * w.imag
    prod_im = e.real * w.imag + e.imag * w.real
    out = complex_array(np.exp(-p * p) - prod_re, 0.0 - prod_im)
    return np.where(odd, -out, out)


def sinc(x: float) -> float:
    """sin(x)/x with sinc(0) = 1.

    Below the Taylor cutoff the series 1 - x^2/6 + x^4/120 is exact to
    double precision and avoids the degraded quotient.
    """
    x = float(x)
    ax = abs(x)
    if ax < _SINC_TAYLOR_CUTOFF:
        x2 = x * x
        return 1.0 - x2 / 6.0 + x2 * x2 / 120.0
    return math.sin(x) / x
