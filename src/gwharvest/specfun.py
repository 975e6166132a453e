"""The error function, and the Faddeeva function on the first quadrant.

Every closed form downstream is built from the error function on the
real axis and from the phased product exp(2ipk) exp(-p^2) erf(k + ip),
with p = D/2.  erf(k + ip) grows like exp(p^2), so evaluating the
factors separately overflows long before the product does.  With
erf(z) = 1 - exp(-z^2) w(iz), w the Faddeeva function, and
w(-p + ik) = conj(w(p + ik)) (DLMF sections 7.2, 7.4) the phase cancels:
for p > 0 and k >= 0,

    exp(2ipk) exp(-p^2) erf(k + ip)
        = exp(-p^2) (cos 2pk + i sin 2pk) - exp(-k^2) conj(w(p + ik)),

and erf's oddness gives k < 0.  So _phased_erf needs w only in the first
quadrant, where it is stable, no complex exponential and no overflow
guard.  It is written once over a backend of primitives and bound twice
with the same bits: _SCALAR to builtin float and complex (math, cmath and
scipy's Cython-level wofz, erf and erfc, the code of the scipy.special
ufuncs without their array dispatch), _ARRAY to numpy arrays.  Every real
exponential is the C library's exp on both.
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
    "erfc_real",
    "complex_array",
]


# 1 - erf(x), accurate for large x: the double version of scipy's
# Cython-level erfc, which gives the scipy.special.erfc ufunc's bits at
# less than half its cost on a builtin float.
erfc_real = _cs.erfc["double"]


def complex_array(re, im) -> np.ndarray:
    """Complex array with exactly the given real and imaginary parts.

    re + 1j*im is not exact: an infinite part turns the other into nan, and
    zero signs can flip.
    """
    out = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), dtype=complex)
    out.real = re
    out.imag = im
    return out


# --- one source for builtin numbers and arrays --------------------------------


class _Backend(NamedTuple):
    """The primitives the closed forms are written over, in real arithmetic.

    _SCALAR binds them to builtin floats, _ARRAY to float64 arrays, and
    each _ARRAY primitive gives the bits of its _SCALAR counterpart element
    by element.  A complex quantity is carried as its two parts and
    multiplied in Python's order (numpy's complex multiply can fuse
    multiply-adds); cexp and w return complex values.  The scalar
    primitives raise where Python's arithmetic raises (ValueError from
    math and cmath at an infinite argument, OverflowError from ** and
    abs); the array ones give nan there, except that abs and cexp give
    the inf they overflow to, which stays non-finite in the row of
    observables.
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


def _array_pow(x, y):
    """The C library's pow, nan where it overflows from finite operands:
    Python's ** raises OverflowError there."""
    out = np.float_power(x, y)
    return np.where(np.isinf(out) & np.isfinite(x) & np.isfinite(y), np.nan, out)


def _array_choose(cond, f, g, *args):
    """f(*args) where cond, else g(*args), entry by entry of the tuples
    they return, whose entries may differ in shape.  f runs only when some
    element needs it; g runs on every element."""
    if not cond.any():
        return g(*args)
    return tuple(np.where(cond, a, b) for a, b in zip(f(*args), g(*args)))


_SCALAR = _Backend(
    exp=math.exp,
    sin=math.sin,
    cos=math.cos,
    # scipy's Cython-level erf, as erfc_real, with the ufunc's bits.
    erf=_cs.erf["double"],
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
    pow=_array_pow,
    cexp=lambda re, im: np.exp(complex_array(re, im)),
    w=lambda re, im: _sp.wofz(complex_array(re, im)),
    abs=np.hypot,
    clip=lambda x: np.where(x > 0.0, x, 0.0),
    choose=_array_choose,
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
