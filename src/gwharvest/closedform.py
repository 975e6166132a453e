"""Closed-form harvesting observables for a Gaussian-switched detector pair.

Two pointlike two-level detectors with energy gap Omega couple to a massless
scalar field through Gaussian switching windows of width sigma centered at
t0, at rest and separated by a proper distance D along the stretch axis of a
linearized plane gravitational wave of frequency omega and strain amplitude
A.  To second order in the coupling lambda and first order in A, the joint
state is an X-state determined by three matrix elements:

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

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as _sp

from . import specfun
from .model import (
    DegenerateDirection,
    DimensionlessParams,
    StateInvalid,
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
    "array_domain",
    "evaluate_arrays",
    "density_matrix",
]

_SQRT_PI = math.sqrt(math.pi)
_PI_32 = math.pi ** 1.5

# Below this omega*sigma the direct closed forms for the GW integrals suffer
# 1/omega cancellation, so series/extrapolation fallbacks take over.
SMALL_OMEGA_CUTOFF = 1.0e-3
# Two-point quadratic extrapolation nodes used by the I2/I4 fallback.
_RICHARDSON_NODES = (1.0e-2, 5.0e-3)

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


# --- Minkowski pieces -----------------------------------------------------


def transition_probability(Omega: float) -> float:
    """Single-detector transition probability P/lambda^2.

    P/lambda^2 = (exp(-Omega^2) - sqrt(pi)*Omega*erfc(Omega)) / (4 pi).

    Independent of D, t0, and the GW background (a wave with purely
    transverse strain does not disturb a single static detector's response
    at first order).  Equals 1/(4 pi) at Omega = 0 and grows linearly for
    negative Omega (an initially excited detector de-excites readily).
    """
    Om = float(Omega)
    return (math.exp(-Om * Om) - _SQRT_PI * Om * specfun.erfc_real(Om)) / (
        4.0 * math.pi
    )


def x_minkowski(Omega: float, D: float, t0: float) -> complex:
    """Flat-spacetime coherence X_M/lambda^2.

    X_M/lambda^2 = i/(4 D sqrt(pi)) * exp(-Omega^2 - 2 i Omega t0)
                   * (e^{-D^2/4} erf(i D/2) - e^{-D^2/4}).

    The scaled product e^{-D^2/4} erf(iD/2) is evaluated without forming
    the exploding erf(iD/2) on its own.  t0 enters only through the phase,
    so |X_M| is t0-independent.
    """
    Om, Dv, t0v = float(Omega), float(D), float(t0)
    scaled = specfun.scaled_erf_product(Dv / 2.0, 1j * (Dv / 2.0))
    phase = complex(-Om * Om, -2.0 * Om * t0v)
    return (
        1j
        / (4.0 * Dv * _SQRT_PI)
        * cmath.exp(phase)
        * (scaled - math.exp(-Dv * Dv / 4.0))
    )


def c_minkowski(Omega: float, D: float) -> float:
    """Flat-spacetime exchange term C_M/lambda^2 (real, t0-independent).

    C_M/lambda^2 = ( Im[e^{i D Omega} e^{-D^2/4} erf(Omega + i D/2)]
                     - e^{-D^2/4} sin(Omega D) ) / (4 D sqrt(pi)).

    Not an even function of Omega: for a pair initialized in the excited
    state (Omega < 0) the exchange term is enhanced rather than mirrored.
    """
    Om, Dv = float(Omega), float(D)
    scaled = specfun.scaled_erf_product(Dv / 2.0, complex(Om, Dv / 2.0))
    val = (complex(math.cos(Dv * Om), math.sin(Dv * Om)) * scaled).imag
    return (val - math.exp(-Dv * Dv / 4.0) * math.sin(Om * Dv)) / (
        4.0 * Dv * _SQRT_PI
    )


# --- GW envelope and auxiliary integrals ----------------------------------


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
    w, Om, t0v = float(omega), float(Omega), float(t0)
    a = complex(-((w - 2.0 * Om) ** 2) / 4.0, -t0v * (w + 2.0 * Om))
    b = complex(-((w + 2.0 * Om) ** 2) / 4.0, t0v * (w - 2.0 * Om))
    return cmath.exp(a) + cmath.exp(b)


def integral_I1(omega: float, D: float) -> complex:
    """Purely imaginary light-cone integral of the u-sector (delta' part).

    I1 = i pi e^{-D^2/4} / omega * [ (D^2/4 + 1) sin(omega D/2)
                                      - (D omega/4) cos(omega D/2) ].

    For omega below SMALL_OMEGA_CUTOFF the 0/0 form is replaced by its
    quadratic Taylor polynomial
    i pi e^{-D^2/4} [ (D^3/8 + D/4) + omega^2 D^3 (1 - D^2/2)/96 ].
    """
    w, Dv = float(omega), float(D)
    gauss = math.exp(-Dv * Dv / 4.0)
    if abs(w) < SMALL_OMEGA_CUTOFF:
        const = Dv ** 3 / 8.0 + Dv / 4.0
        quad = Dv ** 3 * (1.0 - Dv * Dv / 2.0) / 96.0
        return complex(0.0, math.pi * gauss * (const + w * w * quad))
    half = w * Dv / 2.0
    bracket = (Dv * Dv / 4.0 + 1.0) * math.sin(half) - (
        Dv * w / 4.0
    ) * math.cos(half)
    return complex(0.0, math.pi * gauss * bracket / w)


def _integral_I2_direct(omega: float, D: float) -> float:
    w, Dv = float(omega), float(D)
    z = complex(w / 2.0, Dv / 2.0)
    scaled = specfun.scaled_erf_product(Dv / 2.0, z)
    coeff = complex(1.0 + Dv * Dv / 4.0, -Dv * w / 4.0)
    phase = complex(math.cos(w * Dv / 2.0), math.sin(w * Dv / 2.0))
    return (
        math.pi / w * (specfun.erf_real(w / 2.0) - (phase * coeff * scaled).real)
    )


def integral_I2(omega: float, D: float) -> float:
    """Real finite-part integral of the u-sector (principal-value part).

    I2 = pi/omega * ( erf(omega/2)
         - Re[ e^{i omega D/2} (1 + D^2/4 - i D omega/4)
               * e^{-D^2/4} erf(omega/2 + i D/2) ] ).

    The omega -> 0 limit is finite but the direct form loses all digits to
    cancellation there, so below SMALL_OMEGA_CUTOFF the value is produced
    by a two-point quadratic extrapolation a + b omega^2 fitted at
    omega in {1e-2, 5e-3} (the integral is even in omega).

    Large-D behaviour is not Gaussian: I2 -> (pi/omega) erf(omega/2) as
    D -> infinity, so the GW coherence decays only like 1/D^2.
    """
    w, Dv = float(omega), float(D)
    if abs(w) < SMALL_OMEGA_CUTOFF:
        w1, w2 = _RICHARDSON_NODES
        f1 = _integral_I2_direct(w1, Dv)
        f2 = _integral_I2_direct(w2, Dv)
        b = (f1 - f2) / (w1 * w1 - w2 * w2)
        a = f1 - b * w1 * w1
        return a + b * w * w
    return _integral_I2_direct(w, Dv)


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

    Below SMALL_OMEGA_CUTOFF the quadratic Taylor polynomial in omega is
    used instead of the 0/0 direct form.
    """
    w, Om, Dv = float(omega), float(Omega), float(D)
    gauss = math.exp(-Dv * Dv / 4.0)
    s, c = math.sin(Om * Dv), math.cos(Om * Dv)
    if abs(w) < SMALL_OMEGA_CUTOFF:
        const = Dv * Dv * Om * c - (Dv ** 3 / 2.0 + Dv) * s
        quad = (
            -(Dv ** 3) * s / 8.0
            - Dv ** 4 * Om * c / 24.0
            + (Dv * Dv + 4.0) * Dv ** 3 * s / 48.0
        )
        return math.pi * gauss / 2.0 * (const + w * w * quad)
    half = w * Dv / 2.0
    bracket = (
        Dv * w * s * math.cos(half)
        + 2.0 * Dv * Om * c * math.sin(half)
        - (Dv * Dv + 4.0) * s * math.sin(half)
    )
    return math.pi * gauss / (2.0 * w) * bracket


def _integral_I4_direct(omega: float, Omega: float, D: float) -> float:
    w, Om, Dv = float(omega), float(Omega), float(D)
    total = 0.0
    for sign in (+1.0, -1.0):
        k = w / 2.0 + sign * Om
        scaled = specfun.scaled_erf_product(Dv / 2.0, complex(k, Dv / 2.0))
        q = -1j * complex(math.cos(Dv * k), math.sin(Dv * k)) * scaled
        r = complex(Dv * k / 2.0, 1.0 + Dv * Dv / 4.0)
        total += specfun.erf_real(k) - (q * r).real
    return math.pi / w * total


def integral_I4(omega: float, Omega: float, D: float) -> float:
    """Real v-sector finite-part integral; even in Omega.

    I4 = pi/omega * sum over s = +/- of
         ( erf(omega/2 + s Omega)
           - Re[ -i e^{i D (omega/2 + s Omega)}
                 e^{-D^2/4} erf(omega/2 + s Omega + i D/2)
                 * ( D(omega/2 + s Omega)/2 + i (1 + D^2/4) ) ] ).

    The two branches swap under Omega -> -Omega, so evenness is manifest.
    Below SMALL_OMEGA_CUTOFF a two-point quadratic extrapolation in omega
    replaces the cancellation-prone direct form, as for integral_I2.
    """
    w, Om, Dv = float(omega), float(Omega), float(D)
    if abs(w) < SMALL_OMEGA_CUTOFF:
        w1, w2 = _RICHARDSON_NODES
        f1 = _integral_I4_direct(w1, Om, Dv)
        f2 = _integral_I4_direct(w2, Om, Dv)
        b = (f1 - f2) / (w1 * w1 - w2 * w2)
        a = f1 - b * w1 * w1
        return a + b * w * w
    return _integral_I4_direct(w, Om, Dv)


# --- first-order GW matrix elements ---------------------------------------


def x_gw(omega: float, Omega: float, D: float, t0: float) -> complex:
    """First-order GW correction coefficient x_gw = X_GW/(A lambda^2).

    X_GW/(A lambda^2) = f(omega, Omega, t0) * (I1 + I2) / (4 D^2 pi^{3/2}).
    """
    w, Om, Dv, t0v = float(omega), float(Omega), float(D), float(t0)
    f = f_envelope(w, Om, t0v)
    # I1 is purely imaginary and I2 real; the parts are placed, not added,
    # so that no signed zero changes.  Both parts are multiplied by the
    # reciprocal of the norm, as evaluate_arrays does.
    fk = f * complex(integral_I2(w, Dv), integral_I1(w, Dv).imag)
    inv = 1.0 / (4.0 * Dv * Dv * _PI_32)
    return complex(fk.real * inv, fk.imag * inv)


def c_gw(omega: float, Omega: float, D: float, t0: float) -> complex:
    """First-order GW correction coefficient c_gw = C_GW/(A lambda^2).

    C_GW/(A lambda^2) = -exp(-omega^2/4) cos(omega t0) (I3 + I4)
                        / (4 D^2 pi^{3/2}); real-valued.
    """
    w, Om, Dv, t0v = float(omega), float(Omega), float(D), float(t0)
    kernel = integral_I3(w, Om, Dv) + integral_I4(w, Om, Dv)
    val = -math.exp(-w * w / 4.0) * math.cos(w * t0v) * kernel / (
        4.0 * Dv * Dv * _PI_32
    )
    return complex(val, 0.0)


# --- assembled observables -------------------------------------------------


@dataclass(frozen=True)
class HarvestReport:
    """All observables for one parameter point, normalized per lambda^2.

    x_gw, c_gw, theta_gw and psi_gw are additionally normalized per unit
    strain amplitude A; the assembled concurrence and corr re-attach A.
    Every field evaluate fills is a builtin float or complex, never a
    numpy scalar.
    """

    p_norm: float
    x_m: complex
    c_m: complex
    x_gw: complex
    c_gw: complex
    theta_m: float
    theta_gw: float
    concurrence: float
    psi_m: float
    psi_gw: float
    corr: float
    flags: tuple[str, ...] = field(default=())

    def as_row(self) -> tuple[float, ...]:
        """The observables as floats, in OBSERVABLES order."""
        return tuple(
            float(v)
            for v in (
                self.p_norm,
                self.x_m.real,
                self.x_m.imag,
                self.c_m.real,
                self.c_m.imag,
                self.x_gw.real,
                self.x_gw.imag,
                self.c_gw.real,
                self.c_gw.imag,
                self.theta_m,
                self.theta_gw,
                self.concurrence,
                self.psi_m,
                self.psi_gw,
                self.corr,
            )
        )

    @classmethod
    def from_row(cls, row) -> "HarvestReport":
        """Inverse of as_row; the flags follow from |x_m| as in evaluate."""
        (p_norm, xm_re, xm_im, cm_re, cm_im, xg_re, xg_im, cg_re, cg_im,
         theta_m, theta_gw, conc, psi_m, psi_gw, corr) = (float(v) for v in row)
        x_m = complex(xm_re, xm_im)
        return cls(
            p_norm=p_norm,
            x_m=x_m,
            c_m=complex(cm_re, cm_im),
            x_gw=complex(xg_re, xg_im),
            c_gw=complex(cg_re, cg_im),
            theta_m=theta_m,
            theta_gw=theta_gw,
            concurrence=conc,
            psi_m=psi_m,
            psi_gw=psi_gw,
            corr=corr,
            flags=_first_order_flags(abs(x_m)),
        )


def _first_order_flags(axm: float) -> tuple[str, ...]:
    return (OUTSIDE_FIRST_ORDER_FLAG,) if axm < FIRST_ORDER_XM_FLOOR else ()


def evaluate(params: DimensionlessParams) -> HarvestReport:
    """Compute every observable for one parameter point.

    Raises DegenerateDirection if |x_m| underflows (theta_gw undefined).
    A point with |x_m| below FIRST_ORDER_XM_FLOOR (in units of lambda^2)
    still evaluates but the report carries the OUTSIDE_FIRST_ORDER_FLAG,
    since the neglected second-order strain terms can dominate there.
    """
    p = params
    pnorm = transition_probability(p.Omega_sigma)
    xm = x_minkowski(p.Omega_sigma, p.D_sigma, p.t0_sigma)
    cm = c_minkowski(p.Omega_sigma, p.D_sigma)
    axm = abs(xm)
    if axm < DEGENERATE_XM_FLOOR:
        raise DegenerateDirection(
            f"|x_m| = {axm:g} at Omega={p.Omega_sigma:g}, D={p.D_sigma:g}: "
            "first-order GW shift of |X| is undefined"
        )
    xg = x_gw(p.omega_sigma, p.Omega_sigma, p.D_sigma, p.t0_sigma)
    cg = c_gw(p.omega_sigma, p.Omega_sigma, p.D_sigma, p.t0_sigma)

    dot_x = (xg * xm.conjugate()).real  # Re[x_gw conj(x_m)]
    theta_m = axm - pnorm
    theta_gw = dot_x / axm
    conc = 2.0 * max(0.0, theta_m + p.A * theta_gw)

    psi_m = (axm * axm + cm * cm) / pnorm
    psi_gw = 2.0 * (dot_x + cg.real * cm) / pnorm
    corr = psi_m + p.A * psi_gw

    return HarvestReport(
        p_norm=pnorm,
        x_m=xm,
        c_m=complex(cm, 0.0),
        x_gw=xg,
        c_gw=cg,
        theta_m=theta_m,
        theta_gw=theta_gw,
        concurrence=conc,
        psi_m=psi_m,
        psi_gw=psi_gw,
        corr=corr,
        flags=_first_order_flags(axm),
    )


# --- the same observables over arrays of points -----------------------------


def array_domain(omega, Omega, D, t0, A) -> np.ndarray:
    """Mask of the points evaluate_arrays accepts.

    Finite parameters, D > 0 and |omega| >= SMALL_OMEGA_CUTOFF: evaluate
    handles the rest one by one (validation errors, the small-omega
    fallbacks).
    """
    finite = np.isfinite(omega) & np.isfinite(Omega) & np.isfinite(D)
    finite &= np.isfinite(t0) & np.isfinite(A)
    return finite & (D > 0.0) & (np.abs(omega) >= SMALL_OMEGA_CUTOFF)


def _exp(x: np.ndarray) -> np.ndarray:
    # The complex exp loop calls the C library's exp, as math.exp does;
    # numpy's real exp loop is a SIMD approximation that can differ from it
    # in the last bit.
    return np.exp(x.astype(complex)).real


def _cmul(a_re, a_im, b_re, b_im):
    # Complex product in the order Python and numpy scalars compute it
    # (numpy's vectorized complex multiply can fuse multiply-adds).
    return a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re


def evaluate_arrays(omega, Omega, D, t0, A) -> np.ndarray:
    """Every observable for N points at once, as a float64 (N, 15) array.

    Column k is OBSERVABLES[k]; row i holds evaluate's values for point i
    (separation along x), computed from the same closed forms in the same
    floating-point operations, with the Faddeeva and erf-oddness folds
    taken as masks.  All points must lie in array_domain (ValueError
    otherwise).  Rows with |x_m| < DEGENERATE_XM_FLOOR, where evaluate
    raises DegenerateDirection, and rows whose arithmetic overflowed hold
    non-finite values; callers send those points to evaluate.
    """
    w, Om, Dv, t0v, Av = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (omega, Omega, D, t0, A))
    )
    if not array_domain(w, Om, Dv, t0v, Av).all():
        raise ValueError(
            "evaluate_arrays needs finite parameters, D > 0 and "
            "|omega| >= SMALL_OMEGA_CUTOFF; evaluate handles other points"
        )
    with np.errstate(all="ignore"):
        p_norm = (_exp(-Om * Om) - _SQRT_PI * Om * _sp.erfc(Om)) / (4.0 * math.pi)
        gauss = _exp(-Dv * Dv / 4.0)
        half_D = Dv / 2.0
        half = w * Dv / 2.0
        sin_h, cos_h = np.sin(half), np.cos(half)
        sin_OD, cos_OD = np.sin(Dv * Om), np.cos(Dv * Om)

        # x_minkowski: i/(4 D sqrt(pi)) e^{-Omega^2 - 2i Omega t0} (scaled - gauss)
        scaled = specfun.scaled_erf_product_array(
            half_D, specfun.complex_array(0.0, half_D)
        )
        phase = np.exp(specfun.complex_array(-Om * Om, -2.0 * Om * t0v))
        pre_re, pre_im = _cmul(
            0.0, 1.0 / (4.0 * Dv * _SQRT_PI), phase.real, phase.imag
        )
        xm_re, xm_im = _cmul(pre_re, pre_im, scaled.real - gauss, scaled.imag)

        # c_minkowski
        scaled = specfun.scaled_erf_product_array(
            half_D, specfun.complex_array(Om, half_D)
        )
        im_part = cos_OD * scaled.imag + sin_OD * scaled.real
        c_m = (im_part - gauss * np.sin(Om * Dv)) / (4.0 * Dv * _SQRT_PI)

        # f_envelope; float_power is the C library's pow, as Python's x ** 2
        # (numpy's x ** 2 is x * x, which can differ in the last bit)
        env = np.exp(
            specfun.complex_array(
                -np.float_power(w - 2.0 * Om, 2.0) / 4.0, -t0v * (w + 2.0 * Om)
            )
        ) + np.exp(
            specfun.complex_array(
                -np.float_power(w + 2.0 * Om, 2.0) / 4.0, t0v * (w - 2.0 * Om)
            )
        )

        # integral_I1 (its imaginary part; the real part is zero)
        i1 = (
            math.pi
            * gauss
            * ((Dv * Dv / 4.0 + 1.0) * sin_h - (Dv * w / 4.0) * cos_h)
            / w
        )

        # integral_I2
        scaled = specfun.scaled_erf_product_array(
            half_D, specfun.complex_array(w / 2.0, half_D)
        )
        pc_re, pc_im = _cmul(cos_h, sin_h, 1.0 + Dv * Dv / 4.0, -Dv * w / 4.0)
        prod_re, _ = _cmul(pc_re, pc_im, scaled.real, scaled.imag)
        i2 = math.pi / w * (_sp.erf(w / 2.0) - prod_re)

        # integral_I3
        i3 = (
            math.pi
            * gauss
            / (2.0 * w)
            * (
                Dv * w * sin_OD * cos_h
                + 2.0 * Dv * Om * cos_OD * sin_h
                - (Dv * Dv + 4.0) * sin_OD * sin_h
            )
        )

        # integral_I4
        total = 0.0
        for sign in (+1.0, -1.0):
            k = w / 2.0 + sign * Om
            scaled = specfun.scaled_erf_product_array(
                half_D, specfun.complex_array(k, half_D)
            )
            # q = -1j e^{i D k} scaled, r = D k/2 + i (1 + D^2/4)
            q_re, q_im = _cmul(-0.0, -1.0, np.cos(Dv * k), np.sin(Dv * k))
            q_re, q_im = _cmul(q_re, q_im, scaled.real, scaled.imag)
            qr_re, _ = _cmul(q_re, q_im, Dv * k / 2.0, 1.0 + Dv * Dv / 4.0)
            total = total + (_sp.erf(k) - qr_re)
        i4 = math.pi / w * total

        # x_gw and c_gw; x_gw divides by multiplying with the reciprocal,
        # as the scalar path does
        norm = 4.0 * Dv * Dv * _PI_32
        fk_re, fk_im = _cmul(env.real, env.imag, i2, i1)
        xg_re, xg_im = fk_re * (1.0 / norm), fk_im * (1.0 / norm)
        c_gw = -_exp(-w * w / 4.0) * np.cos(w * t0v) * (i3 + i4) / norm

        abs_xm = np.hypot(xm_re, xm_im)
        dot_x = xg_re * xm_re - xg_im * -xm_im  # Re[x_gw conj(x_m)]
        theta_m = abs_xm - p_norm
        theta_gw = dot_x / abs_xm
        margin = theta_m + Av * theta_gw
        concurrence = 2.0 * np.where(margin > 0.0, margin, 0.0)
        psi_m = (abs_xm * abs_xm + c_m * c_m) / p_norm
        psi_gw = 2.0 * (dot_x + c_gw * c_m) / p_norm
        corr = psi_m + Av * psi_gw

    zero = np.zeros_like(p_norm)
    columns = {
        "p_norm": p_norm,
        "re_x_m": xm_re,
        "im_x_m": xm_im,
        "re_c_m": c_m,
        "im_c_m": zero,
        "re_x_gw": xg_re,
        "im_x_gw": xg_im,
        "re_c_gw": c_gw,
        "im_c_gw": zero,
        "theta_m": theta_m,
        "theta_gw": theta_gw,
        "concurrence": concurrence,
        "psi_m": psi_m,
        "psi_gw": psi_gw,
        "corr": corr,
    }
    return np.column_stack([columns[name] for name in OBSERVABLES])


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
