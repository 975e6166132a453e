"""Overflow-safe real and complex special functions.

Every closed form downstream is built from the error function on the real
axis and in the complex plane, the Faddeeva function w(z) = exp(-z^2) erfc(-iz),
and the scaled combination exp(-p^2) * erf(z).  The scaled combination
matters because erf(x + iy) grows like exp(y^2): whenever a closed form
multiplies a Gaussian prefactor exp(-D^2/4) into erf(... + iD/2), evaluating
the two factors separately overflows long before the product does.
All complex evaluation is routed through the Faddeeva function, which is
numerically stable in the upper half-plane.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

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


class DomainTooLarge(ValueError):
    """A scaled erf product whose compensated exponent would still overflow."""


def erf_real(x: float) -> float:
    """Error function on the real axis."""
    return float(_sp.erf(x))


def erfc_real(x: float) -> float:
    """Complementary error function 1 - erf(x), accurate for large x."""
    return float(_sp.erfc(x))


def faddeeva_w(z: complex) -> complex:
    """Faddeeva function w(z) = exp(-z^2) erfc(-iz).

    Defined for all finite z; arguments in the lower half-plane are folded
    to the upper half-plane through the reflection w(-conj(z)) = conj(w(z)),
    where the evaluation is numerically stable.
    """
    z = complex(z)
    if z.real < 0.0:
        # w(-conj(z)) = conj(w(z)) maps onto Re(z) >= 0 at no cost.
        return np.conj(faddeeva_w(-np.conj(z)))
    if z.imag < 0.0:
        # Functional equation w(z) = 2 exp(-z^2) - w(-z) folds the lower
        # half-plane up; the exponential term here is the true leading
        # behaviour of w below the real axis, so it overflows only where
        # the function itself does.
        return 2.0 * np.exp(-z * z) - complex(_sp.wofz(-z))
    return complex(_sp.wofz(z))


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
    if z.real < 0.0:
        # erf is odd, so the product just flips sign under z -> -z.
        return -scaled_erf_product(p, -z)

    exponent = -p * p - z * z
    # Guard the corner |Im z| > p where the compensated exponent can still
    # grow: clamp through log-space never materializing e^{y^2} alone.
    if exponent.real > 700.0:
        raise DomainTooLarge(
            f"scaled erf product overflows: exponent {exponent.real:g}"
        )
    w = faddeeva_w(1j * z)
    return np.exp(-p * p) - np.exp(exponent) * w


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
    """faddeeva_w over a complex array, its two reflections taken as masks."""
    z = np.asarray(z, dtype=complex)
    left = z.real < 0.0
    z = np.where(left, -np.conj(z), z)
    lower = z.imag < 0.0
    w = _sp.wofz(np.where(lower, -z, z))
    if lower.any():
        zl = z[lower]
        w[lower] = 2.0 * np.exp(-zl * zl) - w[lower]
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
    if np.any(exp_re > 700.0):
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
    return np.sin(x) / x
