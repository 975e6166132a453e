"""Closed-form harvesting observables for a Gaussian-switched detector pair.

Two pointlike two-level detectors with energy gap Omega couple to a massless
scalar field through Gaussian switching windows of width sigma centered at
t0.  They fall freely in a linearized plane gravitational wave of
frequency omega and strain amplitude A, a fixed distance D apart along its
stretch axis in transverse-traceless (TT) coordinates, so their proper
separation oscillates with the strain.  To second order in the coupling
lambda and first order in A, the joint state is an X-state determined by
three matrix elements:

  P      single-detector transition probability   (reported as P/lambda^2)
  X      the |gg><ee| coherence, X = X_M + A*X_GW (reported per lambda^2,
         with x_gw = X_GW/(A*lambda^2))
  C      the |ge><eg| exchange term, C = C_M + A*C_GW (same normalization)

From these follow the concurrence 2*max(0, |X| - P) and the correlation
measure (|X|^2 + |C|^2)/P, expanded to first order in A:

  theta_m = |x_m| - p_norm          theta_gw = Re[x_gw * conj(x_m)] / |x_m|
  psi_m   = (|x_m|^2 + |c_m|^2)/p   psi_gw   = 2(Re[x_gw*conj(x_m)]
                                               + Re[c_gw*conj(c_m)])/p

Everything here is an explicit closed form built from the error function of
complex argument; the companion quadrature module re-derives each quantity
from its defining regularized integral.

All inputs are dimensionless (sigma = 1): Omega and omega are Omega*sigma
and omega*sigma, D is D/sigma, t0 is t0/sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    DegenerateDirection,
    DimensionlessParams,
    DomainTooLarge,
    StateInvalid,
)
from .specfun import (
    _ARRAY,
    _SCALAR,
    _Backend,
    _cmul,
    _phased_erf,
    complex_array,
)

__all__ = [
    "SMALL_OMEGA_CUTOFF",
    "DEGENERATE_XM_FLOOR",
    "FIRST_ORDER_XM_FLOOR",
    "OBSERVABLES",
    "HarvestReport",
    "transition_probability",
    "x_minkowski",
    "c_minkowski",
    "f_envelope",
    "integral_I1",
    "integral_I2",
    "integral_I3",
    "integral_I4",
    "x_gw",
    "c_gw",
    "evaluate",
    "evaluate_arrays",
    "density_matrix",
]

_SQRT_PI = math.sqrt(math.pi)
_TWO_OVER_SQRT_PI = 2.0 / _SQRT_PI
_PI_32 = math.pi ** 1.5

# Below this omega*sigma the direct closed forms of I2 and I4 suffer
# 1/omega cancellation, so their Taylor series in omega take over, and
# sin h/h and cos h of I1 and I3 (h = omega D/2) their polynomials
# (_small_omega makes the choice, on builtin floats and on arrays).
SMALL_OMEGA_CUTOFF = 1.0e-3

# |x_m| below this is treated as an exact zero of the coherence direction.
DEGENERATE_XM_FLOOR = 1.0e-300
# |x_m| below this leaves the first-order-in-A shift formally defined but
# physically untrustworthy; reports carry a flag instead of failing.
FIRST_ORDER_XM_FLOOR = 1.0e-12

OUTSIDE_FIRST_ORDER_FLAG = "outside first-order validity"

# The observables of one point, as real numbers, in the order of the CSV
# columns, the `point` output and the columns of evaluate_arrays.
OBSERVABLES = (
    "p_norm",
    "re_x_m",
    "im_x_m",
    "re_c_m",
    "im_c_m",
    "re_x_gw",
    "im_x_gw",
    "re_c_gw",
    "im_c_gw",
    "theta_m",
    "theta_gw",
    "concurrence",
    "psi_m",
    "psi_gw",
    "corr",
)


# --- the closed forms, written once ------------------------------------------
#
# Each form takes a backend b (specfun._Backend): evaluate and the piece
# functions run it on builtin floats, evaluate_arrays and _piece_arrays on
# numpy arrays, with the same bits.  Shared factors are computed once per point.  The scalar
# forms raise where Python's arithmetic does, and take their steps in a
# fixed order, so at a point where two steps fail the first names it.


def _p_norm(b: _Backend, Om, gauss_om):
    """P from gauss_om = e^{-Om^2}, which the I4 series shares."""
    return (gauss_om - _SQRT_PI * Om * b.erfc(Om)) / (4.0 * math.pi)


def _envelope(b: _Backend, w, Om, t0):
    a_re = -b.pow(w - 2.0 * Om, 2.0) / 4.0
    a_im = -t0 * (w + 2.0 * Om)
    c_re = -b.pow(w + 2.0 * Om, 2.0) / 4.0
    c_im = t0 * (w - 2.0 * Om)
    a, c = b.cexp(a_re, a_im), b.cexp(c_re, c_im)
    return a.real + c.real, a.imag + c.imag


def _small_omega(w):
    """Where I2 and I4 take their series (_gw_series) instead of their
    direct forms (_gw_direct), which lose their digits to 1/w there, and
    sin h/h and cos h their Taylor polynomials: a bool on builtin floats, a
    mask on arrays."""
    return abs(w) < SMALL_OMEGA_CUTOFF


# The direct forms.  I2 and I4 are pi/w times g at w/2 and w/2 +- Om, each
# erf product taken with its phase, e^{iDk} e^{-D^2/4} erf(k + iD/2), from
# _phased_erf.


def _g(b: _Backend, k, D, gauss):
    """The odd function of I2 and I4, from gauss = e^{-D^2/4}:

        g(k) = erf(k) - Re[e^{iDk} (1 + D^2/4 - iDk/2) e^{-D^2/4} erf(k + iD/2)].
    """
    Dk = D * k
    ph_re, ph_im = _phased_erf(
        b, D / 2.0, gauss, k, b.cos(Dk), b.sin(Dk), b.exp(-k * k)
    )
    return b.erf(k) - ((1.0 + D * D / 4.0) * ph_re + (Dk / 2.0) * ph_im)


def _gw_direct(b: _Backend, w, Om, D, factors):
    """(sin h/h, cos h, I2, I4) by libm and the direct forms, h = w D/2,
    from the factors _minkowski returns."""
    gauss = factors[0]
    h, k = w * D / 2.0, w / 2.0
    return (
        b.sin(h) / h,
        b.cos(h),
        math.pi / w * _g(b, k, D, gauss),
        math.pi / w * (0.0 + _g(b, k + Om, D, gauss) + _g(b, k - Om, D, gauss)),
    )


# The series: sin h/h and cos h by their Taylor polynomials through h^4
# (_sinc_cos), and I2 and I4 by theirs through w^4, which take the
# difference of g values that cancels against 1/w from _erf_quotient.
# The first term left out is of relative order (w max(D, |Om|))^6, below
# a double's resolution for |w| below SMALL_OMEGA_CUTOFF on the presets'
# range.


def _sinc_cos(w, D):
    """(sin h/h, cos h) at h = w D/2, by their Taylor polynomials through h^4."""
    y = D * D * (w * w) / 16.0  # h^2/4
    return 1.0 - y * (2.0 / 3.0 - y * (2.0 / 15.0)), 1.0 - y * (2.0 - y * (2.0 / 3.0))


def _erf_quotient(w, k, D, gauss_k, z_re, z_im, sinc, cos):
    """(g(k + w/2) - g(k - w/2))/w for _g's odd function g, given
    gauss_k = e^{-k^2} and z = e^{iDk} e^{-D^2/4} erf(k + iD/2).

    With p = D/2, every derivative of g at k is elementary (DLMF 7.10)
    except where e^{-D^2/4} erf(k + iD/2) itself is left underived, which
    gives the terms in z.  The Taylor coefficients sum to

        -(2/sqrt(pi)) e^{-k^2} p^2 [1 - (pw/2)^2 (2/3 - (2/15)(p^2 - 1)(w/2)^2)]
        - 2 p^2 k (sin h/h) Re z + p (2 (1 + p^2) sin h/h - cos h) Im z

    through w^4, with h = pw.  No term divides by w.
    """
    p2 = D * D / 4.0
    t2 = w * w / 4.0
    smooth = 1.0 - p2 * t2 * (2.0 / 3.0 - (2.0 / 15.0) * (p2 - 1.0) * t2)
    return (
        -_TWO_OVER_SQRT_PI * gauss_k * p2 * smooth
        - 2.0 * p2 * k * sinc * z_re
        + D / 2.0 * (2.0 * (1.0 + p2) * sinc - cos) * z_im
    )


def _gw_series(b: _Backend, w, Om, D, factors):
    """(sin h/h, cos h, I2, I4) by their series, from the factors
    _minkowski returns: no Faddeeva call.  b is unused; _gw_direct's
    signature.

    I2 = (pi/w) g(w/2) is (pi/2) _erf_quotient at k = 0, where z is
    _minkowski's E0.  E0 is purely imaginary, so its computed real part,
    zero up to rounding, is not used.  I4 = (pi/w) [g(w/2 + Om) +
    g(w/2 - Om)] is pi _erf_quotient at k = Om (z as in _minkowski), as g
    is odd: the -Om branch, e^{-D^2/4} erf(-Om + iD/2), is -conj of the
    +Om one and needs no evaluation.
    """
    _, gauss_om, _, _, e0_im, z_re, z_im = factors
    sinc, cos = _sinc_cos(w, D)
    return (
        sinc,
        cos,
        math.pi / 2.0 * _erf_quotient(w, 0.0, D, 1.0, 0.0, e0_im, sinc, cos),
        math.pi * _erf_quotient(w, Om, D, gauss_om, z_re, z_im, sinc, cos),
    )


def _minkowski(b: _Backend, Om, D, t0):
    """(P, Re X_M, Im X_M, C_M, |X_M|), and the factors the GW terms reuse:
    (e^{-D^2/4}, e^{-Om^2}, sin(Om D), cos(Om D), Im E0, Re z, Im z)."""
    # e^{-D^2/4} by libm's exp: the Gaussian of I1 and I3, and exp(-p^2) at
    # p = D/2 of every phased erf product (-D*D/4 and -p*p are the same
    # double).
    gauss, gauss_om = b.exp(-D * D / 4.0), b.exp(-Om * Om)
    # E0 = e^{-D^2/4} erf(iD/2): X_M's, and the I2 series'.
    e0_re, e0_im = _phased_erf(b, D / 2.0, gauss, 0.0, 1.0, 0.0, 1.0)
    # X_M = i/(4 D sqrt(pi)) exp(-Om^2 - 2i Om t0) (E0 - e^{-D^2/4}), the
    # exponential multiplied out as cmath.exp does.
    inv = 1.0 / (4.0 * D * _SQRT_PI)
    arg = -2.0 * Om * t0
    pre_re, pre_im = _cmul(0.0, inv, gauss_om * b.cos(arg), gauss_om * b.sin(arg))
    xm_re, xm_im = _cmul(pre_re, pre_im, e0_re - gauss, e0_im)
    OD = Om * D
    sin_OD, cos_OD = b.sin(OD), b.cos(OD)
    # z = e^{i Om D} e^{-D^2/4} erf(Om + iD/2): C_M's, and the I4 series'.
    z_re, z_im = _phased_erf(b, D / 2.0, gauss, Om, cos_OD, sin_OD, gauss_om)
    # C_M = (Im z - e^{-D^2/4} sin(Om D)) / (4 D sqrt(pi)).
    c_m = (z_im - gauss * sin_OD) / (4.0 * D * _SQRT_PI)
    minkowski = (_p_norm(b, Om, gauss_om), xm_re, xm_im, c_m, b.abs(xm_re, xm_im))
    return minkowski, (gauss, gauss_om, sin_OD, cos_OD, e0_im, z_re, z_im)


def _integrals(b: _Backend, w, Om, D, factors):
    """(e^{-w^2/4}, Im I1, I2, I3, I4) of a point, from the factors
    _minkowski returns.  One choice per point picks the series or the
    direct forms of sin h/h, cos h (h = w D/2), I2 and I4; I1 and I3 are
    one form over both, with no division by w."""
    gauss, _, sin_OD, cos_OD, _, _, _ = factors
    sinc, cos, i2, i4 = b.choose(
        _small_omega(w), _gw_series, _gw_direct, b, w, Om, D, factors
    )
    # Im I1 = pi e^{-D^2/4} (D/2) [(1 + D^2/4) sin h/h - cos h/2].
    i1 = math.pi * gauss * (D / 2.0) * ((1.0 + D * D / 4.0) * sinc - cos / 2.0)
    # I3 = pi e^{-D^2/4}/2 [D sin(Om D) cos h
    #      + (2 D Om cos(Om D) - (D^2 + 4) sin(Om D)) (D/2) sin h/h].
    sinc_term = (2.0 * D * Om * cos_OD - (D * D + 4.0) * sin_OD) * (D / 2.0) * sinc
    i3 = math.pi * gauss / 2.0 * (D * sin_OD * cos + sinc_term)
    return b.exp(-w * w / 4.0), i1, i2, i3, i4


def _gw(b: _Backend, w, Om, D, t0, factors):
    """(Re x_gw, Im x_gw, c_gw) of a point.

    The envelope comes first: where its ** overflows, nothing after it
    runs.
    """
    env_re, env_im = _envelope(b, w, Om, t0)
    gauss_w, i1, i2, i3, i4 = _integrals(b, w, Om, D, factors)
    # x_gw = f (I2 + I1) / (4 D^2 pi^{3/2}), I1 = i Im I1.
    fk_re, fk_im = _cmul(env_re, env_im, i2, i1)
    inv = 1.0 / (4.0 * D * D * _PI_32)
    # c_gw = -e^{-w^2/4} cos(w t0) (I3 + I4) / (4 D^2 pi^{3/2}).
    c_gw = -gauss_w * b.cos(w * t0) * (i3 + i4) / (4.0 * D * D * _PI_32)
    return fk_re * inv, fk_im * inv, c_gw


def _observables(b: _Backend, A, minkowski, gw):
    """The observables of a point, in OBSERVABLES order."""
    p_norm, xm_re, xm_im, c_m, abs_xm = minkowski
    xg_re, xg_im, c_gw = gw
    dot_x = xg_re * xm_re - xg_im * -xm_im  # Re[x_gw conj(x_m)]
    theta_m = abs_xm - p_norm
    theta_gw = dot_x / abs_xm
    margin = theta_m + A * theta_gw
    concurrence = 2.0 * b.clip(margin)
    psi_m = (abs_xm * abs_xm + c_m * c_m) / p_norm
    psi_gw = 2.0 * (dot_x + c_gw * c_m) / p_norm
    corr = psi_m + A * psi_gw
    return (
        p_norm, xm_re, xm_im, c_m, 0.0, xg_re, xg_im, c_gw, 0.0,
        theta_m, theta_gw, concurrence, psi_m, psi_gw, corr,
    )


# --- the pieces: each reads the composition on builtin floats ---------------
#
# transition_probability reads _p_norm as _minkowski does, x_minkowski and
# c_minkowski read _minkowski, integral_I1-I4 _integrals of its factors,
# and x_gw and c_gw _gw: a piece's value is the bits
# evaluate computes for it, and the piece raises wherever that composition
# raises at its point.  A piece without t0 reads the composition at t0 = 0,
# and I1 and I2 read it at Omega = 0: no step they depend on uses those.


def _integrals_at(omega, Omega, D):
    """_integrals of a point on builtin floats, read at t0 = 0."""
    _, factors = _minkowski(_SCALAR, Omega, D, 0.0)
    return _integrals(_SCALAR, omega, Omega, D, factors)


def transition_probability(Omega: float) -> float:
    """Single-detector transition probability P/lambda^2.

    P/lambda^2 = (exp(-Omega^2) - sqrt(pi)*Omega*erfc(Omega)) / (4 pi).

    Independent of D, t0, and the GW background (a wave with purely
    transverse strain does not disturb a single static detector's response
    at first order).  Equals 1/(4 pi) at Omega = 0 and grows linearly for
    negative Omega (an initially excited detector de-excites readily).
    """
    return _p_norm(_SCALAR, Omega, math.exp(-Omega * Omega))


def x_minkowski(Omega: float, D: float, t0: float) -> complex:
    """Flat-spacetime coherence X_M/lambda^2.

    X_M/lambda^2 = i/(4 D sqrt(pi)) * exp(-Omega^2 - 2 i Omega t0)
                   * (e^{-D^2/4} erf(i D/2) - e^{-D^2/4}).

    The scaled product e^{-D^2/4} erf(iD/2) is evaluated without forming
    the exploding erf(iD/2) on its own.  t0 enters only through the phase,
    so |X_M| is t0-independent.  Raises wherever _minkowski raises at
    (Omega, D, t0).
    """
    (_, xm_re, xm_im, _, _), _ = _minkowski(_SCALAR, Omega, D, t0)
    return complex(xm_re, xm_im)


def c_minkowski(Omega: float, D: float) -> float:
    """Flat-spacetime exchange term C_M/lambda^2 (real, t0-independent).

    C_M/lambda^2 = ( Im[e^{i D Omega} e^{-D^2/4} erf(Omega + i D/2)]
                     - e^{-D^2/4} sin(Omega D) ) / (4 D sqrt(pi)).

    Not an even function of Omega: for a pair initialized in the excited
    state (Omega < 0) the exchange term is enhanced rather than mirrored.
    Raises wherever _minkowski raises at (Omega, D, t0 = 0).
    """
    (_, _, _, c_m, _), _ = _minkowski(_SCALAR, Omega, D, 0.0)
    return c_m


def f_envelope(omega: float, Omega: float, t0: float) -> complex:
    """Gaussian frequency-window factor multiplying the u-sector integrals.

    f = exp(-(omega-2*Omega)^2/4 - i t0 (omega+2*Omega))
      + exp(-(omega+2*Omega)^2/4 + i t0 (omega-2*Omega))

    Equivalently 2 exp(-omega^2/4 - Omega^2 - 2 i t0 Omega)
    * cosh(omega*Omega - i t0 omega): a Gaussian window in omega centered
    on the resonance omega = 2|Omega|, carrying all t0 dependence of the
    u-sector.  Both exponents have non-positive real part, so the direct
    two-term sum never overflows.

    Caveat: the t0 phases are swapped between the two Gaussians.  The
    defining window integral, which oracle_x_gw evaluates end to end, is
    sqrt(pi)/2 times exp(-(omega-2*Omega)^2/4 + i t0 (omega-2*Omega))
    + exp(-(omega+2*Omega)^2/4 - i t0 (omega+2*Omega)), so x_gw and every
    observable built on it are wrong at t0 != 0 (README, "Known fault");
    at t0 = 0 both forms agree.
    """
    return complex(*_envelope(_SCALAR, omega, Omega, t0))


def integral_I1(omega: float, D: float) -> complex:
    """Purely imaginary light-cone integral of the u-sector (delta' part).

    I1 = i pi e^{-D^2/4} / omega * [ (D^2/4 + 1) sin(omega D/2)
                                      - (D omega/4) cos(omega D/2) ].

    It is computed as i pi e^{-D^2/4} (D/2) [ (D^2/4 + 1) sin(h)/h
    - cos(h)/2 ] with h = omega D/2, which does not divide by omega:
    sin(h)/h and cos(h) by libm, and below SMALL_OMEGA_CUTOFF by their
    Taylor polynomials through h^4.  Raises wherever _minkowski and
    _integrals raise at (omega, Omega = 0, D).
    """
    return complex(0.0, _integrals_at(omega, 0.0, D)[1])


def integral_I2(omega: float, D: float) -> float:
    """Real finite-part integral of the u-sector (principal-value part).

    I2 = pi/omega * ( erf(omega/2)
         - Re[ e^{i omega D/2} (1 + D^2/4 - i D omega/4)
               * e^{-D^2/4} erf(omega/2 + i D/2) ] ).

    The omega -> 0 limit is finite but the direct form loses its digits to
    cancellation there, so below SMALL_OMEGA_CUTOFF the value is the exact
    Taylor polynomial through omega^4 (the integral is even in omega).
    Every derivative of erf is elementary, so its coefficients need only
    E0 = e^{-D^2/4} erf(iD/2), which X_M also uses; measured against
    50-digit arithmetic it is good to about 1e-14 relative at D = 0.25
    and 1e-15 at D >= 1.  Raises wherever _minkowski and _integrals raise
    at (omega, Omega = 0, D).

    Large-D behaviour is not Gaussian: I2 -> (pi/omega) erf(omega/2) as
    D -> infinity, so the GW coherence decays only like 1/D^2.
    """
    return _integrals_at(omega, 0.0, D)[2]


def integral_I3(omega: float, Omega: float, D: float) -> float:
    """Real v-sector integral (delta' part); odd in Omega.

    I3 = pi e^{-D^2/4}/(2 omega) * [ D omega sin(Omega D) cos(omega D/2)
         + 2 D Omega cos(Omega D) sin(omega D/2)
         - (D^2 + 4) sin(Omega D) sin(omega D/2) ].

    Expanding each product of trigonometric factors into sums gives the
    equivalent four-term bracket
    pi e^{-D^2/4}/(4 omega) * [ (D omega + 2 D Omega) sin(D(omega/2+Omega))
      - (D omega - 2 D Omega) sin(D(omega/2-Omega))
      + (D^2+4) (cos(D(omega/2+Omega)) - cos(D(omega/2-Omega))) ];
    the relative sign of the two sine terms follows from
    2 sin a cos b = sin(a+b) + sin(a-b) applied to each product above.

    It is computed as pi e^{-D^2/4}/2 * [ D sin(Omega D) cos(h)
    + (2 D Omega cos(Omega D) - (D^2 + 4) sin(Omega D)) (D/2) sin(h)/h ]
    with h = omega D/2, sin(h)/h and cos(h) as for integral_I1.  Raises
    wherever _minkowski and _integrals raise at (omega, Omega, D).
    """
    return _integrals_at(omega, Omega, D)[3]


def integral_I4(omega: float, Omega: float, D: float) -> float:
    """Real v-sector finite-part integral; even in Omega.

    I4 = pi/omega * sum over s = +/- of
         ( erf(omega/2 + s Omega)
           - Re[ -i e^{i D (omega/2 + s Omega)}
                 e^{-D^2/4} erf(omega/2 + s Omega + i D/2)
                 * ( D(omega/2 + s Omega)/2 + i (1 + D^2/4) ) ] ).

    The two branches swap under Omega -> -Omega, so evenness is manifest.
    Below SMALL_OMEGA_CUTOFF the exact Taylor polynomial through omega^4
    replaces the cancellation-prone direct form, as for integral_I2: its
    coefficients need only e^{-D^2/4} erf(Omega + iD/2), which C_M also
    uses, since the -Omega branch is minus its conjugate.  Raises wherever
    _minkowski and _integrals raise at (omega, Omega, D).
    """
    return _integrals_at(omega, Omega, D)[4]


def x_gw(omega: float, Omega: float, D: float, t0: float) -> complex:
    """First-order GW correction coefficient x_gw = X_GW/(A lambda^2).

    X_GW/(A lambda^2) = f(omega, Omega, t0) * (I1 + I2) / (4 D^2 pi^{3/2}).

    Raises wherever _minkowski and _gw raise at the point.
    """
    _, factors = _minkowski(_SCALAR, Omega, D, t0)
    xg_re, xg_im, _ = _gw(_SCALAR, omega, Omega, D, t0, factors)
    return complex(xg_re, xg_im)


def c_gw(omega: float, Omega: float, D: float, t0: float) -> complex:
    """First-order GW correction coefficient c_gw = C_GW/(A lambda^2).

    C_GW/(A lambda^2) = -exp(-omega^2/4) cos(omega t0) (I3 + I4)
                        / (4 D^2 pi^{3/2}); real-valued.

    Raises wherever _minkowski and _gw raise at the point.
    """
    _, factors = _minkowski(_SCALAR, Omega, D, t0)
    return complex(_gw(_SCALAR, omega, Omega, D, t0, factors)[2], 0.0)


# --- assembled observables -------------------------------------------------


@dataclass(frozen=True, slots=True, init=False)
class HarvestReport:
    """All observables for one parameter point, normalized per lambda^2.

    row holds them as builtin floats in OBSERVABLES order.  Each name of
    OBSERVABLES is also a read-only attribute, except that each re_*/im_*
    pair is one complex attribute (x_m for re_x_m and im_x_m).  x_gw,
    c_gw, theta_gw and psi_gw are additionally normalized per unit strain
    amplitude A; the assembled concurrence and corr re-attach A.
    """

    row: tuple[float, ...]
    flags: tuple[str, ...]

    def __init__(self, row, flags=(), **views) -> None:
        """A report of row, with each attribute given by name (as
        dataclasses.replace passes it) written into its entries."""
        row = [float(v) for v in row]
        if len(row) != len(OBSERVABLES):
            raise ValueError(f"expected {len(OBSERVABLES)} observables, got {len(row)}")
        for name, value in views.items():
            if name not in _VIEWS:
                raise TypeError(f"HarvestReport has no attribute {name!r}")
            i, *j = _VIEWS[name]
            if j:
                row[i], row[j[0]] = complex(value).real, complex(value).imag
            else:
                row[i] = float(value)
        _SET_ROW(self, tuple(row))
        _SET_FLAGS(self, tuple(flags))


# Each attribute of a report and the row entries it reads: its own, for a
# name of OBSERVABLES; both, for the complex named by a re_*/im_* pair.
_VIEWS = {
    name.removeprefix("re_"): (i, OBSERVABLES.index("im_" + name[3:]))
    if name.startswith("re_") else (i,)
    for i, name in enumerate(OBSERVABLES)
    if not name.startswith("im_")
}


def _view(i, *j) -> property:
    if j:
        return property(lambda self: complex(self.row[i], self.row[j[0]]))
    return property(lambda self: self.row[i])


for _name, _index in _VIEWS.items():
    setattr(HarvestReport, _name, _view(*_index))
del _name, _index

# evaluate fills a report through its slots' setters: the frozen class's
# __setattr__ refuses, and __init__ would cost a Python call.
_SET_ROW, _SET_FLAGS = HarvestReport.row.__set__, HarvestReport.flags.__set__


def _point_text(w: float, Om: float, D: float, t0: float) -> str:
    """The point of an evaluate error, as its messages name it."""
    return f"omega={w:g}, Omega={Om:g}, D={D:g}, t0={t0:g}"


def evaluate(params: DimensionlessParams) -> HarvestReport:
    """Compute every observable for one parameter point: the report's row
    holds them as builtin floats in OBSERVABLES order.

    Raises DegenerateDirection if |x_m| underflows (theta_gw undefined).
    Raises DomainTooLarge, naming the point, where the arithmetic raises
    an ArithmeticError (D^2 underflows to zero and divides, or omega^2
    overflows) or the math library rejects an argument that overflowed to
    infinity (a ValueError: the sine of Omega*D = inf), and naming the
    observables too where any are not finite
    (the arithmetic overflows without raising, as once (D/2)^2 does).  A
    point with |x_m| below FIRST_ORDER_XM_FLOOR (in units of lambda^2)
    still evaluates but the report carries the OUTSIDE_FIRST_ORDER_FLAG,
    since the neglected second-order strain terms can dominate there.
    The closed forms, and below SMALL_OMEGA_CUTOFF the series that stand
    in for sin h/h, cos h, I2 and I4, are those evaluate_arrays runs,
    bound to builtin floats.
    """
    w, Om, D, t0 = (
        params.omega_sigma, params.Omega_sigma, params.D_sigma, params.t0_sigma
    )
    try:
        minkowski, factors = _minkowski(_SCALAR, Om, D, t0)
        axm = minkowski[-1]
        if axm < DEGENERATE_XM_FLOOR:
            raise DegenerateDirection(
                f"|x_m| = {axm:g} at Omega={Om:g}, D={D:g}: "
                "first-order GW shift of |X| is undefined"
            )
        gw = _gw(_SCALAR, w, Om, D, t0, factors)
        row = _observables(_SCALAR, params.A, minkowski, gw)
    except DegenerateDirection:
        raise
    except (ArithmeticError, ValueError) as exc:
        raise DomainTooLarge(
            f"{type(exc).__name__} at {_point_text(w, Om, D, t0)}: {exc}"
        ) from exc
    # A non-finite value makes the sum non-finite, and one sum costs about
    # half of fifteen isfinite calls.  A sum that overflowed names nothing.
    if not math.isfinite(sum(row)):
        bad = [name for name, v in zip(OBSERVABLES, row) if not math.isfinite(v)]
        if bad:
            raise DomainTooLarge(
                f"non-finite {', '.join(bad)} at {_point_text(w, Om, D, t0)}"
            )
    report = object.__new__(HarvestReport)
    _SET_ROW(report, row)
    flags = (OUTSIDE_FIRST_ORDER_FLAG,) if axm < FIRST_ORDER_XM_FLOOR else ()
    _SET_FLAGS(report, flags)
    return report


# --- the same observables over arrays of points -----------------------------


def evaluate_arrays(omega, Omega, D, t0, A) -> np.ndarray:
    """Every observable for N points at once, as a float64 (N, 15) array.

    Column k is OBSERVABLES[k]; row i holds evaluate's values for point i
    (separation along x): the same closed forms, bound to numpy arrays
    instead of builtin floats, with the Faddeeva and erf-oddness folds
    and the small-omega series taken as masks (the series run only when
    some point needs them).  Any parameters are accepted, and nothing
    raises: a row is non-finite exactly where
    evaluate(DimensionlessParams(...)) raises at its point.  It is all
    nan where the point cannot be built (a non-finite parameter, D <= 0)
    or |x_m| < DEGENERATE_XM_FLOOR, and non-finite where a step that
    raises on builtin floats gives nan or inf here.  Every other row holds
    evaluate's bits, so a caller needs evaluate only for the error of a
    non-finite row.
    """
    w, Om, D, t0, A = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (omega, Omega, D, t0, A))
    )
    with np.errstate(all="ignore"):
        minkowski, factors = _minkowski(_ARRAY, Om, D, t0)
        gw = _gw(_ARRAY, w, Om, D, t0, factors)
        row = _observables(_ARRAY, A, minkowski, gw)
    out = np.column_stack(np.broadcast_arrays(*row))
    valid = np.isfinite((w, Om, D, t0, A)).all(axis=0) & (D > 0.0)
    out[~valid | (minkowski[-1] < DEGENERATE_XM_FLOOR)] = np.nan
    return out


def _piece_arrays(omega, Omega, D, t0) -> dict[str, np.ndarray]:
    """The pieces transition_probability, x_minkowski, c_minkowski and
    integral_I1-I4 at N points, by one pass of the composition on arrays.

    Each piece's name maps to its N values as complex numbers, point by
    point the bits the piece returns (a real piece's imaginary part is
    zero).  Nothing raises: a step that raises on builtin floats gives inf
    or nan here.
    """
    with np.errstate(all="ignore"):
        (p, xm_re, xm_im, c_m, _), factors = _minkowski(_ARRAY, Omega, D, t0)
        _, i1, i2, i3, i4 = _integrals(_ARRAY, omega, Omega, D, factors)
    return {
        "transition_probability": complex_array(p, 0.0),
        "x_minkowski": complex_array(xm_re, xm_im),
        "c_minkowski": complex_array(c_m, 0.0),
        "integral_I1": complex_array(0.0, i1),
        "integral_I2": complex_array(i2, 0.0),
        "integral_I3": complex_array(i3, 0.0),
        "integral_I4": complex_array(i4, 0.0),
    }


def density_matrix(params: DimensionlessParams) -> np.ndarray:
    """Joint detector density matrix to O(lambda^2), in the energy basis
    (|gg>, |ge>, |eg>, |ee>), with the physical lambda and A reattached:

        [[1-2P, 0,  0,  X ],
         [0,    P,  C,  0 ],
         [0,    C*, P,  0 ],
         [X*,   0,  0,  0 ]]

    where P = lambda^2 p_norm, X = lambda^2 (x_m + A x_gw), and
    C = lambda^2 (c_m + A c_gw).  Hermitian with unit trace by
    construction.  Exact positivity fails at O(lambda^4) (the truncation
    order), so the matrix is accepted if its smallest eigenvalue, computed
    from the two 2x2 blocks of the X-state structure, is >= -10 lambda^4;
    otherwise StateInvalid is raised.
    """
    rep = evaluate(params)
    lam2 = params.coupling_lambda ** 2
    P = lam2 * rep.p_norm
    X = lam2 * (rep.x_m + params.A * rep.x_gw)
    C = lam2 * (rep.c_m + params.A * rep.c_gw)

    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0 - 2.0 * P
    rho[0, 3] = X
    rho[3, 0] = X.conjugate()
    rho[1, 1] = P
    rho[2, 2] = P
    rho[1, 2] = C
    rho[2, 1] = C.conjugate()

    # X-state eigenvalues from the two invariant 2x2 blocks.
    half = (1.0 - 2.0 * P) / 2.0
    disc = math.sqrt(half * half + abs(X) ** 2)
    eigs = (half - disc, half + disc, P - abs(C), P + abs(C))
    tol = 10.0 * lam2 * lam2
    lowest = min(eigs)
    if lowest < -tol:
        raise StateInvalid(
            f"density matrix eigenvalue {lowest:g} below -10*lambda^4 = {-tol:g} "
            f"at Omega={params.Omega_sigma:g}, D={params.D_sigma:g}, "
            f"A={params.A:g}: beyond perturbative positivity tolerance"
        )
    return rho
