"""Overflow-safe real and complex special functions.

Every closed form downstream is built from the error function on the real
axis and in the complex plane, the Faddeeva function w(z) = exp(-z^2) erfc(-iz),
and the scaled combination exp(-p^2) * erf(z).  The scaled combination
matters because erf(x + iy) grows like exp(y^2): whenever a closed form
multiplies a Gaussian prefactor exp(-D^2/4) into erf(... + iD/2), evaluating
the two factors separately overflows long before the product does.
All complex evaluation is routed through the Faddeeva function, which is
numerically stable in the upper half-plane.

The closed forms only ever need the scaled product at Im z = p, and always
times the phase exp(2ipk) at k = Re z.  With erf(z) = 1 - exp(-z^2) w(iz)
and w(-p + ik) = conj(w(p + ik)) (DLMF sections 7.2, 7.4) that phase
cancels: for p > 0 and k >= 0,

    exp(2ipk) exp(-p^2) erf(k + ip)
        = exp(-p^2) (cos 2pk + i sin 2pk) - exp(-k^2) conj(w(p + ik)),

and erf's oddness gives k < 0.  So _phased_erf needs w only in the first
quadrant, no complex exponential and no overflow guard.  It is written
once over a backend of primitives and bound twice with the same bits:
_SCALAR to builtin float and complex (math, cmath and scipy's Cython-level
wofz, erf and erfc, the code of the scipy.special ufuncs without their
array dispatch), _ARRAY to numpy arrays.  Every real exponential is the C
library's exp on both.

faddeeva_w and scaled_erf_product take any argument, so they fold it into
the stable region, by branches on builtin numbers and by masks on arrays:
the lower half-plane exponential must never be evaluated where it
overflows.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from typing import Callable, NamedTuple

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
]

# Largest real part of an exponent passed to exp; exp(709.78) overflows.
_EXPONENT_LIMIT = 700.0


class DomainTooLarge(ValueError):
    """An argument whose exponential factor would overflow a double."""


# The error function on the real axis, and its complement 1 - erf(x),
# accurate for large x: the double versions of scipy's Cython-level erf
# and erfc, which give the scipy.special.erf and erfc ufuncs' bits at less
# than half their cost on a builtin float.
erf_real = _cs.erf["double"]
erfc_real = _cs.erfc["double"]


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
        _guard(exponent.real, "Faddeeva function")
        w = 2.0 * cmath.exp(exponent) - _cs.wofz(-z)
    else:
        w = _cs.wofz(z)
    return w.conjugate() if left else w


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
    the scalar function's complex operations, so that each element equals
    faddeeva_w's value bit for bit.
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
        _guard(exp_re, "Faddeeva function")
        # 2 exp(exponent) - w(-z)
        e = np.exp(complex_array(exp_re, exp_im))
        wl = w[lower]
        w[lower] = complex_array(
            2.0 * e.real - 0.0 * e.imag - wl.real,
            2.0 * e.imag + 0.0 * e.real - wl.imag,
        )
    return np.where(left, np.conj(w), w)


def _guard(exponent, what: str) -> None:
    """DomainTooLarge naming what where the real part of an exponent, a
    float or an array, exceeds _EXPONENT_LIMIT."""
    if np.any(exponent > _EXPONENT_LIMIT):
        raise DomainTooLarge(f"{what} overflows: exponent {np.max(exponent):g}")


# --- one source for builtin numbers and arrays --------------------------------


class _Backend(NamedTuple):
    """The primitives the closed forms are written over, in real arithmetic.

    _SCALAR binds them to builtin floats, _ARRAY to float64 arrays, and
    each _ARRAY primitive gives the bits of its _SCALAR counterpart element
    by element.  A complex quantity is carried as its two parts and
    multiplied in Python's order (numpy's complex multiply can fuse
    multiply-adds); cexp and w return complex values.  The scalar
    primitives raise where Python's arithmetic raises (ValueError from
    math, OverflowError from ** and cmath); the array ones give inf or nan.
    """

    exp: Callable     # the C library's exp
    sin: Callable
    cos: Callable
    erf: Callable
    erfc: Callable
    pow: Callable     # the C library's pow
    cexp: Callable    # (re, im) -> exp(re + i im)
    w: Callable       # (re, im) -> w(re + i im) for re > 0, im >= 0: no fold
    abs: Callable     # (re, im) -> |re + i im|, the C library's hypot
    clip: Callable    # max(0, x)
    choose: Callable  # (cond, f, g, *args) -> f(*args) where cond, else g(*args)


def _cmul(a_re, a_im, b_re, b_im):
    """Parts of (a_re + i a_im)(b_re + i b_im), in Python's complex order."""
    return a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re


def _scalar_abs(re: float, im: float) -> float:
    z = complex(re, im)
    # abs of a complex is the C library's hypot, as np.hypot (math.hypot
    # is not).  With a nan part it raises OverflowError if an earlier C
    # library call left errno set; math.hypot gives the same inf or nan.
    return abs(z) if cmath.isfinite(z) else math.hypot(re, im)


_SCALAR = _Backend(
    exp=math.exp,
    sin=math.sin,
    cos=math.cos,
    erf=erf_real,
    erfc=erfc_real,
    pow=operator.pow,
    cexp=lambda re, im: cmath.exp(complex(re, im)),
    w=lambda re, im: _cs.wofz(complex(re, im)),
    abs=_scalar_abs,
    clip=functools.partial(max, 0.0),
    choose=lambda cond, f, g, *args: f(*args) if cond else g(*args),
)

_ARRAY = _Backend(
    # numpy's complex exp loop calls the C library's exp; its real loop is
    # a SIMD approximation that can differ in the last bit.
    exp=lambda x: np.exp(np.asarray(x, dtype=complex)).real,
    sin=np.sin,
    cos=np.cos,
    erf=_sp.erf,
    erfc=_sp.erfc,
    # numpy's x ** 2 is x * x, which can differ in the last bit.
    pow=np.float_power,
    cexp=lambda re, im: np.exp(complex_array(re, im)),
    w=lambda re, im: _sp.wofz(complex_array(re, im)),
    abs=np.hypot,
    clip=lambda x: np.where(x > 0.0, x, 0.0),
    choose=lambda cond, f, g, *args: (
        # f runs only when some element needs it; g runs on every element.
        np.where(cond, f(*args), g(*args)) if cond.any() else g(*args)
    ),
)


def _phased_erf(b: _Backend, p, e_p, k, cos_2pk, sin_2pk, gauss_k):
    """Parts of exp(2ipk) exp(-p^2) erf(k + ip) for p > 0, given
    e_p = exp(-p^2), cos_2pk and sin_2pk = cos 2pk and sin 2pk, and
    gauss_k = exp(-k^2).

    For k >= 0 it is exp(-p^2) exp(2ipk) - exp(-k^2) conj(w(p + ik)), the
    module docstring's identity: w is evaluated in the first quadrant,
    where it is stable and no exponent is positive.  erf is odd, so the
    value at -k is minus the conjugate of the value at k: s is -1.0 for
    k < 0, else 1.0, and a product with s is exact.
    """
    s = 1.0 - 2.0 * (k < 0.0)
    w = b.w(p, abs(k))
    return s * (e_p * cos_2pk - gauss_k * w.real), s * e_p * sin_2pk + gauss_k * w.imag


def _scaled_erf(b: _Backend, faddeeva, p, e_p, x, y):
    """Parts of exp(-p^2) erf(x + iy), given e_p = b.exp(-p*p) and the
    Faddeeva function of b's numbers (faddeeva_w or faddeeva_w_array);
    see scaled_erf_product for the method."""
    # erf is odd, so the product just flips sign under z -> -z: s is -1.0
    # for Re z < 0, else 1.0, and a product with s is exact (only a nan
    # may keep its sign bit where a negation would flip it).
    s = 1.0 - 2.0 * (x < 0.0)
    x, y = s * x, s * y
    # exponent = -p^2 - z^2; guard the corner |Im z| > p where it can
    # still grow past what a double holds.
    exp_re = -p * p - (x * x - y * y)
    exp_im = 0.0 - (x * y + y * x)
    _guard(exp_re, "scaled erf product")
    # exp(exponent) w(iz), iz = (0 x - y) + i (0 y + x)
    w = faddeeva(complex_array(0.0 * x - y, 0.0 * y + x))
    e = b.cexp(exp_re, exp_im)
    prod_re, prod_im = _cmul(e.real, e.imag, w.real, w.imag)
    return s * (e_p - prod_re), s * (0.0 - prod_im)


def scaled_erf_product(p: float, z: complex) -> complex:
    """The product exp(-p^2) * erf(z) without intermediate overflow.

    Uses erf(z) = 1 - exp(-z^2) w(iz) for Re(z) >= 0 (oddness handles the
    other half-plane), so the product becomes

        exp(-p^2) - exp(-p^2 - z^2) w(iz).

    With z = x + iy the surviving exponent has real part y^2 - x^2 - p^2,
    which is non-positive whenever |y| <= p regardless of x: exactly the
    pattern of every Gaussian-damped erf product in the closed forms
    (p = D/2 against y = D/2).  w(iz) is evaluated in its stable region.
    The real exp(-p^2) is the C library's, as in scaled_erf_product_array.
    """
    z = complex(z)
    e_p = math.exp(-p * p)
    return complex(*_scaled_erf(_SCALAR, faddeeva_w, p, e_p, z.real, z.imag))


def scaled_erf_product_array(p: np.ndarray, z: np.ndarray) -> np.ndarray:
    """scaled_erf_product over arrays, its oddness fold taken as a mask."""
    p = np.asarray(p, dtype=float)
    z = np.asarray(z, dtype=complex)
    e_p = _ARRAY.exp(-p * p)
    return complex_array(
        *_scaled_erf(_ARRAY, faddeeva_w_array, p, e_p, z.real, z.imag)
    )
