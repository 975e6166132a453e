"""Independent quadrature oracles for every closed-form observable.

Each closed form in this package is re-derived here from a *defining*
integral representation rather than from the closed-form algebra, so the
two paths share no simplification steps:

* P, X_M and C_M are each a prefactor times one regulated integral of the
  first-order Wightman function, _wightman_integral: the distributional
  splittings (delta / delta' plus principal value) are realized as an
  explicit i*epsilon displacement, integrated at a geometric schedule of
  epsilon values, and polynomial-extrapolated (Neville) to epsilon -> 0.
* X_M additionally gets a second, independent regularization: explicit
  principal-value singularity subtraction on a symmetric window around
  a = D plus the analytic delta contribution.  Agreement between the two
  regularizations is a structural invariant of the suite.
* I2 and I4 are computed from their Fourier-side representations: one
  absolutely convergent 1-d integral over the conjugate variable s, the
  distributional factor having been evaluated in closed form by residues.
* I1 and I3 are computed by replacing delta' with a nascent Gaussian
  derivative of width eta and extrapolating in eta^2 (the nascent family
  is even, so its moment expansion proceeds in eta^2).
* The single-detector transition probability is additionally computed
  from the same integral with its strain term switched on, to exhibit that
  a transverse wave leaves P strictly unaffected: the strain term enters
  through the transverse separation factor (dx^2 - dy^2), which vanishes
  identically on a single static worldline.
* x_gw and c_gw are computed end to end from the strain term alone of the
  same integral, on two static worldlines separated by D along x: the
  t + t' integral by quadrature, the t - t' integral i*epsilon-regulated
  and extrapolated.  This checks how I1-I4 are assembled (envelope, t0
  phase, prefactors, normalization), which the per-integral oracles cannot.

Every oracle returns an OracleEstimate carrying the value, a defensible
absolute error estimate (quadrature + extrapolation residual + analytic
truncation bound), the regulator schedule used, and a convergence flag.

The quadrature is adaptive Gauss-Kronrod with QUADPACK's G10/K21 pair
(routine qk21), its error estimate and its stopping rule (epsabs 1e-13,
epsrel 1e-12, at most 300 subintervals), written over numpy arrays.  All
integrals of one oracle, every rung of a regulator ladder and both
half-windows of I3 and I4, are refined together: each refinement round
evaluates the integrand once, on the nodes of every new subinterval.  No
part of scipy.integrate is used.

All quantities are dimensionless (sigma = 1) and normalized per lambda^2
exactly as in the closed-form module.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import closedform, specfun
from .model import SpacetimePoint

__all__ = [
    "NoConvergence",
    "SignConventionMismatch",
    "RegulatorSchedule",
    "DEFAULT_SCHEDULE",
    "OracleEstimate",
    "quad_adaptive",
    "oracle_P",
    "oracle_P_full",
    "oracle_XM",
    "oracle_CM",
    "oracle_I2",
    "oracle_I4",
    "oracle_delta_prime",
    "oracle_x_gw",
    "oracle_c_gw",
    "CheckRecord",
    "DEFAULT_VERIFY_GRID",
    "MINIMAL_VERIFY_GRID",
    "verify_suite",
    "all_passed",
]

_FOUR_PI_SQ = 4.0 * math.pi ** 2
_SQRT_PI = math.sqrt(math.pi)


class NoConvergence(ArithmeticError):
    """Regulator extrapolation failed by orders of magnitude."""


class SignConventionMismatch(AssertionError):
    """Oracle calibration against an exact anchor value failed.

    The i*epsilon displacement direction fixes the sign of the
    delta-function halves of each kernel; a flipped convention reproduces
    the principal values but negates those halves.  The calibration check
    (P at Omega = 0 against the exact 1/(4 pi)) catches exactly this.
    """


@dataclass(frozen=True)
class RegulatorSchedule:
    """Geometric regulator ladder start * ratio**k for k = 0..count-1.

    Raises ValueError unless start is finite and positive, ratio lies in
    (0, 1) and count is at least 2: a non-positive regulator displaces the
    kernel singularity to the wrong side (a negative start returns the
    complex conjugate of X_M), and extrapolation needs two distinct rungs.
    """

    start: float = 0.1
    ratio: float = 0.5
    count: int = 4

    def __post_init__(self) -> None:
        if not (
            0.0 < self.start < math.inf
            and 0.0 < self.ratio < 1.0
            and self.count >= 2
        ):
            raise ValueError(
                "a regulator schedule needs a finite start > 0, a ratio in "
                f"(0, 1) and a count of at least 2, got {self!r}"
            )

    def values(self) -> tuple[float, ...]:
        return tuple(self.start * self.ratio ** k for k in range(self.count))


DEFAULT_SCHEDULE = RegulatorSchedule()


@dataclass(frozen=True)
class OracleEstimate:
    """Quadrature result with a defensible absolute error estimate."""

    value: complex
    abs_error_estimate: float
    regulator_schedule: tuple[float, ...]
    converged: bool


# QUADPACK's qk21 rule on [-1, 1] (Piessens et al., QUADPACK, Springer
# 1983): the 21-point Kronrod abscissae 1 > x_0 > ... > x_10 = 0 and their
# mirrors, with the Kronrod weights; the embedded 10-point Gauss rule uses
# x_1, x_3, ..., x_9 and their mirrors.
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_NODES = np.array(_XGK + tuple(-x for x in reversed(_XGK[:-1])))
_WGK_PAIRS = np.array(_WGK[:-1])
_WG_PAIRS = np.array(_WG)

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# QUADPACK tolerances: an integral is done at error <= max(abs, rel * |I|).
_EPSABS = 1e-13
_EPSREL = 1e-12


def _k21_sum(v: np.ndarray) -> np.ndarray:
    """Kronrod sum of each row of v, node values in _NODES order.

    As in qk21, each node is paired with its mirror (v_j + v_{20-j}), so an
    interval and its mirror image give sums of exactly opposite sign.
    """
    pairs = (v[:, :10] + v[:, :10:-1]) * _WGK_PAIRS
    return np.add.reduce(pairs, axis=1) + v[:, 10] * _WGK[10]


def _gk21_rule(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    owner: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """K21 value and qk21 error estimate of each interval [lo, hi].

    f is called once, with the nodes shaped (m, 21) and owner shaped
    (m, 1).  The error is made as qk21 makes it, with complex moduli for a
    complex integrand: |K - G| scaled by resasc * min(1, (200 |K - G| /
    resasc)^1.5), and at least the roundoff floor 50 eps resabs.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    x = c[:, None] + h[:, None] * _NODES
    fx = np.asarray(f(x, owner[:, None]))
    if fx.shape != x.shape:
        fx = np.broadcast_to(fx, x.shape)
    k = _k21_sum(fx)
    g = np.add.reduce((fx[:, 1:10:2] + fx[:, 19:10:-2]) * _WG_PAIRS, axis=1)
    ah = np.abs(h)
    resabs = ah * _k21_sum(np.abs(fx))
    resasc = ah * _k21_sum(np.abs(fx - 0.5 * k[:, None]))
    err = np.abs(k - g) * ah
    ok = resasc > 0.0
    ratio = 200.0 * err / np.where(ok, resasc, 1.0)
    err = np.where(ok, resasc * np.minimum(1.0, ratio) ** 1.5, err)
    floor = 50.0 * _EPS * resabs
    err = np.where(floor > _TINY, np.maximum(floor, err), err)
    return h * k, err


def _gk21(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    edges: Sequence[Sequence[float]],
    *,
    limit: int = 300,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of f over n piecewise intervals by batched adaptive G10/K21.

    Integral i runs over the consecutive pieces of edges[i], which start as
    its subintervals.  Each round calls f once, with the 21 nodes of every
    new subinterval of every integral as rows x shaped (m, 21), and the
    index of each row's integral as k shaped (m, 1); f(x, k) returns the
    (real or complex) integrand values, elementwise.  Every node is thus
    evaluated once.

    The stopping rule is QUADPACK's: integral i is done when the sum of its
    subinterval errors is at most max(_EPSABS, _EPSREL |I_i|), or when it has
    limit subintervals.  Until then each round bisects its subintervals
    whose error exceeds an equal share of that tolerance (its largest one
    always, and never beyond limit).  Every step is elementwise or per
    integral, and each integral's sums are made in an order of its own,
    so a result is bit for bit the same alone or batched with others.

    Returns the values (complex) and error estimates, both shaped (n,).
    """
    n = len(edges)
    owner = np.repeat(np.arange(n), [len(e) - 1 for e in edges])
    lo = np.array([a for e in edges for a in e[:-1]], dtype=float)
    hi = np.array([b for e in edges for b in e[1:]], dtype=float)
    val, err = _gk21_rule(f, owner, lo, hi)
    while True:
        # Each integral's subintervals in order of |midpoint|, then left
        # end: bincount adds in array order, so each sum is made in an
        # order of the integral's own, whatever else is in the batch, and
        # a window and its mirror image are summed in mirrored order.
        order = np.lexsort((lo, np.abs(lo + hi), owner))
        owner, lo, hi, val, err = (
            owner[order], lo[order], hi[order], val[order], err[order]
        )
        count = np.bincount(owner, minlength=n)
        re = np.bincount(owner, val.real, n)
        im = np.bincount(owner, val.imag, n)
        esum = np.bincount(owner, err, n)
        target = np.maximum(_EPSABS, _EPSREL * np.hypot(re, im))
        active = (esum > target) & (count < limit)
        if not active.any():
            return specfun.complex_array(re, im), esum
        # Rank of each subinterval by error within its integral, largest 0.
        order = np.lexsort((-err, owner))
        rank = np.empty_like(owner)
        first = np.cumsum(count) - count
        rank[order] = np.arange(len(owner)) - first[owner[order]]
        split = (
            active[owner]
            & ((err * count[owner] > target[owner]) | (rank == 0))
            & (rank < (limit - count)[owner])
        )
        keep = ~split
        o, a, b = owner[split], lo[split], hi[split]
        mid = 0.5 * (a + b)
        new_owner = np.concatenate((o, o))
        new_lo = np.concatenate((a, mid))
        new_hi = np.concatenate((mid, b))
        new_val, new_err = _gk21_rule(f, new_owner, new_lo, new_hi)
        owner = np.concatenate((owner[keep], new_owner))
        lo = np.concatenate((lo[keep], new_lo))
        hi = np.concatenate((hi[keep], new_hi))
        val = np.concatenate((val[keep], new_val))
        err = np.concatenate((err[keep], new_err))


def _quad(
    f: Callable[[np.ndarray], np.ndarray], *edges: float
) -> tuple[complex, float]:
    """One integral of f over the consecutive pieces of edges."""
    (value,), (err,) = _gk21(lambda x, k: f(x), [edges])
    return complex(value), float(err)


def _neville_at_zero(
    xs: Sequence[float], ys: Sequence[complex]
) -> tuple[complex, float]:
    """Polynomial extrapolation of (xs, ys) to x = 0 with residual estimate.

    The residual estimate is the absolute difference between the last two
    diagonal entries of the Neville tableau: the correction the final
    extrapolation order contributed.
    """
    n = len(xs)
    rows = [list(ys)]
    for k in range(1, n):
        prev = rows[-1]
        row = []
        for i in range(n - k):
            xi, xk = xs[i], xs[i + k]
            row.append((xk * prev[i] - xi * prev[i + 1]) / (xk - xi))
        rows.append(row)
    return rows[-1][0], abs(rows[-1][0] - rows[-2][0])


def _regulators(
    schedule: RegulatorSchedule | Sequence[float],
) -> tuple[float, ...]:
    """The regulator values of a schedule or an explicit sequence.

    Raises ValueError unless there are at least two values, all finite,
    positive and distinct: Neville extrapolation divides by the difference
    of every pair.
    """
    regs = (
        schedule.values()
        if isinstance(schedule, RegulatorSchedule)
        else tuple(schedule)
    )
    if (
        len(regs) < 2
        or len(set(regs)) != len(regs)
        or not all(r > 0.0 and math.isfinite(r) for r in regs)
    ):
        raise ValueError(
            "a regulator ladder needs at least two distinct finite positive "
            f"values, got {regs!r}"
        )
    return regs


def _ladder(
    regs: Sequence[float],
    vals: Sequence[complex],
    errs: Sequence[float],
    square_variable: bool,
) -> tuple[complex, float]:
    """Extrapolate the rung values vals (quadrature errors errs) to reg -> 0.

    Neville in reg, or in reg**2 when square_variable is set; the error is
    the extrapolation residual plus the worst quadrature error.
    """
    xs = [r * r for r in regs] if square_variable else list(regs)
    value, resid = _neville_at_zero(xs, [complex(v) for v in vals])
    return value, resid + float(max(errs))


def _scaled(
    est: OracleEstimate,
    factor: complex,
    factor_err: float = 0.0,
    tol: float | None = None,
) -> OracleEstimate:
    """factor * est, with first-order error propagation.

    The convergence flag is est's, or with tol given, err <= tol.
    """
    err = abs(factor) * est.abs_error_estimate + factor_err * abs(est.value)
    return OracleEstimate(
        value=factor * est.value,
        abs_error_estimate=err,
        regulator_schedule=est.regulator_schedule,
        converged=est.converged if tol is None else err <= tol,
    )


def quad_adaptive(
    family: Callable[[np.ndarray], Callable[[np.ndarray], np.ndarray]],
    a: float,
    b: float,
    *,
    schedule: RegulatorSchedule | Sequence[float] = DEFAULT_SCHEDULE,
    square_variable: bool = False,
    tol: float = 1e-6,
    points: Sequence[float] | None = None,
    tail_bound: float = 0.0,
    limit: int = 300,
) -> OracleEstimate:
    """Integrate a regulator-indexed integrand family and extrapolate.

    family(reg) must return the integrand for regulator value reg; the
    integral is evaluated at every value of the schedule and Neville
    extrapolation in reg (or reg**2 when square_variable is set, for
    families even in the regulator) carries the result to reg -> 0.
    All rungs are integrated together, so family and its integrands work
    on numpy arrays (np.exp, not math.exp): reg comes shaped (m, 1), one
    regulator per row, and the integrand's nodes shaped (m, 21).  The
    points inside (a, b) split the interval before any refinement.

    The abs_error_estimate of the returned OracleEstimate is the sum of
    the worst quadrature error on the schedule, the extrapolation
    residual, and the caller's analytic truncation bound for the
    neglected integration tails (callers are expected to choose the
    window so that this bound is below tol/10).

    Raises NoConvergence when the combined error estimate exceeds
    1000 * tol; an estimate between tol and 1000 * tol is returned
    with converged = False.
    """
    regs = _regulators(schedule)
    reg_of = np.array(regs)
    edges = (a, *(p for p in sorted(points or ()) if a < p < b), b)
    vals, errs = _gk21(
        lambda x, k: family(reg_of[k])(x), [edges] * len(regs), limit=limit
    )
    value, err = _ladder(regs, vals, errs, square_variable)
    err += tail_bound
    if err > 1000.0 * tol:
        raise NoConvergence(
            f"regulator extrapolation residual {err:g} exceeds "
            f"1000 * tol = {1000.0 * tol:g}"
        )
    return OracleEstimate(value, err, regs, err <= tol)


# --- the regulated Wightman integral behind every kernel oracle -------------

_CAL_CACHE: dict[str, float] = {}


def _wightman_integral(
    Omega: float,
    D: float,
    *,
    full_line: bool,
    schedule: RegulatorSchedule | Sequence[float],
    tol: float,
    minkowski: float = 1.0,
    strain: float = 0.0,
    omega: float = 0.0,
) -> OracleEstimate:
    """Integral of e^{-a^2/4} e^{i Omega a} W(a + i eps) over a >= 0 or all a.

    W is the first-order Wightman function between events of detector A,
    at rest at the origin, and detector B, at rest at x = D (D = 0: one
    detector), a apart in time:

      W = m / (4 pi^2 sigma^2) - s (dx^2 - dy^2) sinc(omega a/2) / (4 pi^2 sigma^4)

    with m = minkowski, s = strain (the amplitude times the window-averaged
    cos(omega (t+t')/2)) and sigma^2 = dx^2 + dy^2 - (a + i eps)^2, formed
    as (r - a - i eps)(r + a + i eps), r = hypot(dx, dy), which keeps its
    digits near the pole a = r.  quad_adaptive extrapolates eps -> 0 over
    schedule.

    The window is |a| <= L = D + 14, split at a = -D and D.  The neglected
    tails are bounded from |sigma^2| >= L^2 - D^2 and |sinc| <= 1.
    """
    Om, Dv, w = float(Omega), float(D), float(omega)
    ev_a, ev_b = SpacetimePoint(t=0.0), SpacetimePoint(t=0.0, x=Dv)
    dx, dy = ev_b.x - ev_a.x, ev_b.y - ev_a.y
    r = math.hypot(dx, dy)
    m = float(minkowski)
    gw = float(strain) * (dx * dx - dy * dy)
    L = Dv + 14.0
    span = L * L - Dv * Dv
    tail = (
        (2.0 if full_line else 1.0)
        * _SQRT_PI
        * specfun.erfc_real(L / 2.0)
        * (abs(m) / span + abs(gw) / (span * span))
        / _FOUR_PI_SQ
    )

    def family(eps):
        def integrand(av):
            z = av + 1j * eps
            sig = (r - z) * (r + z)
            kern = m / (_FOUR_PI_SQ * sig)
            if gw:  # zero for P, X_M, C_M and on one worldline: no sinc
                sinc = specfun.sinc_array(w * av / 2.0)
                kern = kern - (gw / _FOUR_PI_SQ) * sinc / (sig * sig)
            return np.exp(-av * av / 4.0) * np.exp(1j * Om * av) * kern

        return integrand

    return quad_adaptive(
        family, -L if full_line else 0.0, L, schedule=schedule, tol=tol,
        points=sorted({-Dv, Dv}), tail_bound=tail,
    )


def oracle_P(
    Omega: float,
    *,
    tol: float = 1e-6,
    schedule: RegulatorSchedule | Sequence[float] = DEFAULT_SCHEDULE,
) -> OracleEstimate:
    """Transition probability from the regulated Wightman kernel.

    P/lambda^2 = sqrt(pi) * Integral over a of
    exp(-a^2/4 + i Omega a) * ( -1 / (4 pi^2 (a + i eps)^2) ),
    extrapolated eps -> 0: sqrt(pi) times the full-line _wightman_integral
    at D = 0, which is oracle_P_full at zero strain.  (The defining form,
    with exp(-i Omega a) and (a - i eps)^2, is this integral under a -> -a.)

    On first use the machinery is calibrated against the exact anchor
    P(0) = 1/(4 pi); a discrepancy above 100 * tol raises
    SignConventionMismatch, which indicates a flipped i*epsilon direction
    rather than a loss of quadrature accuracy.
    """
    if "P" not in _CAL_CACHE:
        cal = oracle_P_full(0.0, 0.0, 0.0)
        _CAL_CACHE["P"] = abs(cal.value - 1.0 / (4.0 * math.pi))
    if _CAL_CACHE["P"] > 100.0 * tol:
        raise SignConventionMismatch(
            f"P oracle off by {_CAL_CACHE['P']:g} at the Omega = 0 anchor "
            f"(allowed 100 * tol = {100.0 * tol:g}); the i*epsilon "
            "displacement direction is inconsistent with the kernel signs"
        )
    return oracle_P_full(Omega, 0.0, 0.0, tol=tol, schedule=schedule)


def oracle_P_full(
    Omega: float,
    A: float,
    omega: float,
    *,
    t0: float = 0.0,
    tol: float = 1e-6,
    schedule: RegulatorSchedule | Sequence[float] = DEFAULT_SCHEDULE,
) -> OracleEstimate:
    """Transition probability from the full first-order Wightman function.

    P/lambda^2 = sqrt(pi) times the full-line _wightman_integral at D = 0,
    strain term included.  That term carries the transverse factor
    (dx^2 - dy^2) of the separation between the two events; on a single
    static worldline both are zero, computed from the worldline events
    themselves rather than assumed.  The strain enters the kernel exactly
    as derived — amplitude A times the window-averaged
    cos(omega*(t+t')/2), Gaussian-integrated over t+t' analytically to
    exp(-omega^2/4) cos(omega*t0) — so equality with oracle_P for every A
    is a computed outcome, not a hard-coded one.
    """
    w = float(omega)
    strain = float(A) * math.exp(-w * w / 4.0) * math.cos(w * float(t0))
    est = _wightman_integral(
        Omega, 0.0, full_line=True, schedule=schedule, tol=tol,
        strain=strain, omega=w,
    )
    return _scaled(est, _SQRT_PI)


def _xm_prefactor(Omega: float, t0: float) -> complex:
    """X_M / its kernel integral.  Scaling keeps the kernel's convergence
    flag, judged (as NoConvergence is) on the unscaled kernel error."""
    Om, t0 = float(Omega), float(t0)
    return -2.0 * _SQRT_PI * cmath.exp(complex(-Om * Om, -2.0 * Om * t0))


def _expm1_ratio(w: np.ndarray) -> np.ndarray:
    """(exp(-w/4) - 1)/w elementwise, stable through w = 0."""
    small = np.abs(w) < 1e-8
    return np.where(
        small, -0.25 + w / 32.0, np.expm1(-w / 4.0) / np.where(small, 1.0, w)
    )


def _xm_kernel(
    D: float,
    method: str,
    tol: float,
    schedule: RegulatorSchedule | Sequence[float],
) -> OracleEstimate:
    """Half-line kernel integral of X_M: Integral_0^inf exp(-a^2/4) K(a) da.

    It depends on D alone (and on the method, tol and schedule), so one
    estimate serves every (Omega, t0) through _xm_prefactor; see oracle_XM
    for the two methods.  abs_error_estimate bounds the error of this
    unscaled integral, its neglected tail beyond L = D + 14 included.
    """
    if method == "regulated":
        return _wightman_integral(0.0, D, full_line=False, schedule=schedule, tol=tol)

    if method == "pv_subtraction":
        Dv = float(D)
        L = Dv + 14.0
        # |K(a)| <= 1/(4 pi^2 (L^2 - D^2)) for a >= L.
        tail = (
            _SQRT_PI
            * specfun.erfc_real(L / 2.0)
            / (_FOUR_PI_SQ * (L * L - Dv * Dv))
        )
        gauss_d = math.exp(-Dv * Dv / 4.0)

        # Regularized part on [0, 2D]: (e^{-a^2/4} - e^{-D^2/4})/(a^2 - D^2)
        # is smooth through a = D.
        v1, e1 = _quad(
            lambda av: gauss_d * _expm1_ratio(av * av - Dv * Dv),
            0.0, Dv, 2.0 * Dv,
        )
        # PV of the subtracted constant over [0, 2D] is exactly -ln3/(2D).
        v2 = -gauss_d * math.log(3.0) / (2.0 * Dv)
        # Regular remainder on [2D, L].
        v3, e3 = _quad(
            lambda av: np.exp(-av * av / 4.0) / (av * av - Dv * Dv), 2.0 * Dv, L
        )
        pv_total = v1.real + v2 + v3.real
        # Half-line kernel integral: -PV/(4 pi^2) plus the concentrated
        # half-delta term + i e^{-D^2/4}/(8 pi D).
        kernel_integral = complex(
            -pv_total / _FOUR_PI_SQ, gauss_d / (8.0 * math.pi * Dv)
        )
        err = (e1 + e3) / _FOUR_PI_SQ + tail
        return OracleEstimate(kernel_integral, err, (), err <= tol)

    raise ValueError(f"unknown oracle_XM method {method!r}")


def oracle_XM(
    Omega: float,
    D: float,
    t0: float,
    *,
    tol: float = 1e-6,
    schedule: RegulatorSchedule | Sequence[float] = DEFAULT_SCHEDULE,
    method: str = "regulated",
) -> OracleEstimate:
    """Coherence X_M/lambda^2 from its defining half-line kernel integral.

    X_M/lambda^2 = -2 sqrt(pi) exp(-Omega^2 - 2 i Omega t0) *
    Integral_0^inf of exp(-a^2/4) * K(a) da.

    method="regulated": K(a) = -1/(4 pi^2 ((a + i eps)^2 - D^2)),
    extrapolated eps -> 0 over the schedule: the half-line
    _wightman_integral at Omega = 0.

    method="pv_subtraction": the independent regularization — the
    principal value at a = D is computed by subtracting the singular
    Gaussian value on the symmetric window [0, 2D] (whose own principal
    value integrates to the exact -ln(3)/(2D)), the rest of the half-line
    is regular, and the concentrated half-delta contributes the analytic
    i exp(-D^2/4)/(8 pi D).  No regulator schedule is involved.

    The kernel integral depends on D alone and is computed once per call;
    the prefactor carries Omega and t0.  verify_suite reuses one kernel
    estimate for every (Omega, t0) at a D within one suite call, with the
    same arithmetic, so its records equal this function's results bit for
    bit.

    The two methods share no regularization machinery; their agreement is
    checked by verify_suite as a structural invariant.
    """
    return _scaled(_xm_kernel(D, method, tol, schedule), _xm_prefactor(Omega, t0))


def oracle_CM(
    Omega: float,
    D: float,
    *,
    tol: float = 1e-6,
    schedule: RegulatorSchedule | Sequence[float] = DEFAULT_SCHEDULE,
) -> OracleEstimate:
    """Exchange term C_M/lambda^2 from its defining full-line kernel.

    C_M/lambda^2 = -sqrt(pi) * Integral over a of
    exp(-a^2/4 + i Omega a) * ( 1/(4 pi^2 ((a + i eps)^2 - D^2)) ),
    extrapolated eps -> 0: sqrt(pi) times the full-line _wightman_integral.
    The kernel has near-singularities at a = +-D.
    """
    est = _wightman_integral(Omega, D, full_line=True, schedule=schedule, tol=tol)
    return _scaled(est, _SQRT_PI)


# --- end-to-end strain-term oracles for x_gw and c_gw ----------------------

# Half-width of the T = (t + t')/2 - t0 window: e^{-T^2} < e^{-100} outside.
_T_WINDOW = 10.0


def _gw_schedule(omega: float, Omega: float, D: float) -> RegulatorSchedule:
    """Regulator ladder for the strain term's 1/sigma^4 double pole.

    The eps-regulated a integral varies with eps on the scale of the
    shortest length in its integrand: D, or 2/(omega/2 + |Omega|) for the
    oscillating factors.  The ladder starts at 0.05 times the smallest of
    1 and these two and has six rungs; at omega = 2, D = 0.5 the four
    fixed rungs of DEFAULT_SCHEDULE leave a 7e-4 relative residual.
    """
    k = abs(float(omega)) / 2.0 + abs(float(Omega))
    scale = min(1.0, float(D), 2.0 / k if k > 0.0 else 1.0)
    return RegulatorSchedule(start=0.05 * scale, ratio=0.5, count=6)


def _window_integral(g: Callable[[np.ndarray], np.ndarray]) -> tuple[complex, float]:
    """Integral over T of e^{-T^2} g(T), by quadrature; g works on arrays."""
    return _quad(lambda T: np.exp(-T * T) * g(T), -_T_WINDOW, 0.0, _T_WINDOW)


def oracle_x_gw(
    omega: float,
    Omega: float,
    D: float,
    t0: float,
    *,
    tol: float = 1e-10,
) -> OracleEstimate:
    """x_gw = X_GW/(A lambda^2) from the full first-order Wightman function.

    With t = t0 + T + a/2 and t' = t0 + T - a/2 the switching product is
    e^{-T^2 - a^2/4} and the strain factor cos(omega (t + t')/2) is
    cos(omega (t0 + T)), so that, with the same kernel convention as
    oracle_XM,

      x_gw = -2 * Integral over T of e^{-T^2} cos(omega (t0 + T))
                  e^{-2 i Omega (t0 + T)}
             * Integral_0^inf of e^{-a^2/4} W_gw(a) da,

    W_gw being the strain term of the Wightman function (_wightman_integral)
    per unit strain, for two static detectors separated by D along x.  The
    T integral is done by quadrature, so this path shares no algebra with
    f_envelope, the I1/I2 closed forms or the 1/(4 D^2 pi^{3/2})
    normalization.  The a integral is eps-regulated and extrapolated over
    a six-rung ladder scaled to D and omega.  tol is absolute.
    """
    w, Om, t0v = float(omega), float(Omega), float(t0)
    t_int, t_err = _window_integral(
        lambda T: np.cos(w * (t0v + T)) * np.exp(-2j * Om * (t0v + T))
    )
    pref = -2.0 * t_int
    a_est = _wightman_integral(
        0.0, D, full_line=False, schedule=_gw_schedule(w, 0.0, D),
        tol=tol / max(abs(pref), 1e-300), minkowski=0.0, strain=1.0, omega=w,
    )
    return _scaled(a_est, pref, 2.0 * t_err, tol)


def oracle_c_gw(
    omega: float,
    Omega: float,
    D: float,
    t0: float,
    *,
    tol: float = 1e-10,
) -> OracleEstimate:
    """c_gw = C_GW/(A lambda^2) from the full first-order Wightman function.

    With the change of variables of oracle_x_gw and the kernel convention
    of oracle_CM,

      c_gw = Integral over T of e^{-T^2} cos(omega (t0 + T))
             * Integral over a of e^{-a^2/4} e^{i Omega a} W_gw(a) da,

    both by quadrature, the a integral regulated and extrapolated as in
    oracle_x_gw.  tol is absolute.
    """
    w, t0v = float(omega), float(t0)
    t_int, t_err = _window_integral(lambda T: np.cos(w * (t0v + T)))
    a_est = _wightman_integral(
        Omega, D, full_line=True, schedule=_gw_schedule(w, Omega, D),
        tol=tol / max(abs(t_int), 1e-300), minkowski=0.0, strain=1.0, omega=w,
    )
    return _scaled(a_est, t_int, t_err, tol)


# --- Fourier-side oracles for I2 and I4 ------------------------------------


def oracle_I2(omega: float, D: float, *, tol: float = 1e-10) -> OracleEstimate:
    """I2 from its conjugate-variable representation.

    I2 = (sqrt(pi)/omega) e^{-omega^2/4} * Integral_0^inf of
    e^{-s^2} sinh(omega s) [2 - 2 cos(D s) - D s sin(D s)] ds

    (the full-line integrand is even in s).  The distributional factor of
    the defining finite-part integral was evaluated by residues, so this
    path shares no algebra with the closed form.
    """
    w, Dv = float(omega), float(D)
    Ls = abs(w) / 2.0 + 9.0
    pref = _SQRT_PI * math.exp(-w * w / 4.0) / w

    def integrand(s):
        bracket = 2.0 - 2.0 * np.cos(Dv * s) - Dv * s * np.sin(Dv * s)
        return np.exp(-s * s) * np.sinh(w * s) * bracket

    val, err = _quad(integrand, 0.0, Ls)
    val = val.real
    # Tail: e^{-s^2} sinh(ws) <= e^{w^2/4} e^{-(s - w/2)^2} / 2 and the
    # bracket is bounded by 4 + D s on the tail.
    tail = (
        abs(pref)
        * math.exp(w * w / 4.0)
        * (4.0 + Dv * (Ls + 1.0))
        * _SQRT_PI
        / 2.0
        * specfun.erfc_real(Ls - w / 2.0)
    )
    total_err = abs(pref) * err + tail
    return OracleEstimate(complex(pref * val, 0.0), total_err, (), total_err <= tol)


def oracle_I4(
    omega: float, Omega: float, D: float, *, tol: float = 1e-10
) -> OracleEstimate:
    """I4 from its conjugate-variable representation.

    I4 = (sqrt(pi)/omega) e^{-omega^2/4} * Integral over s of
    e^{-(Omega-s)^2} sinh(omega (Omega-s)) sgn(s)
    [D s sin(D s) + 2 cos(D s) - 2] ds,

    split at s = 0 where sgn changes; the Gaussian support is centered at
    s = Omega with half-width omega/2 + 9.
    """
    w, Om, Dv = float(omega), float(Omega), float(D)
    pref = _SQRT_PI * math.exp(-w * w / 4.0) / w
    lo = Om - abs(w) / 2.0 - 9.0
    hi = Om + abs(w) / 2.0 + 9.0

    def piece(s, k):
        u = Om - s
        bracket = Dv * s * np.sin(Dv * s) + 2.0 * np.cos(Dv * s) - 2.0
        return np.exp(-u * u) * np.sinh(w * u) * bracket

    if lo < 0.0 < hi:
        segments = [(lo, 0.0, -1.0), (0.0, hi, +1.0)]
    else:
        segments = [(lo, hi, math.copysign(1.0, (lo + hi) / 2.0))]
    vals, errs = _gk21(piece, [(a, b) for a, b, _ in segments])
    val = sum(sgn * v.real for (_, _, sgn), v in zip(segments, vals))
    err = float(errs.sum())
    # Window ends sit 9 Gaussian widths from the center s = Omega.
    tail = (
        abs(pref)
        * math.exp(w * w / 4.0)
        * (4.0 + Dv * (max(abs(lo), abs(hi)) + 1.0))
        * _SQRT_PI
        * specfun.erfc_real(9.0)
    )
    total_err = abs(pref) * err + tail
    return OracleEstimate(complex(pref * val, 0.0), total_err, (), total_err <= tol)


# --- nascent-delta' oracles for I1 and I3 ----------------------------------


def _dprime_window(D: float, eta: float, halfwidth: float = 12.0) -> tuple[float, float]:
    """Positive-a window where |a - D^2/a| <= halfwidth * eta."""
    m = halfwidth * eta
    root = math.sqrt(m * m + 4.0 * D * D)
    return (-m + root) / 2.0, (m + root) / 2.0


def oracle_delta_prime(
    which: str,
    omega: float,
    Omega: float,
    D: float,
    *,
    tol: float = 1e-5,
    schedule: RegulatorSchedule | Sequence[float] = DEFAULT_SCHEDULE,
) -> OracleEstimate:
    """I1 or I3 from the defining delta' integral with a nascent family.

    delta'(x) is realized as d/dx of the Gaussian nascent delta:
    delta'_eta(x) = -2 x exp(-x^2/eta^2) / (eta^3 sqrt(pi)).  Its moment
    expansion contains only even powers of eta, so the integrals at the
    regulator schedule are Neville-extrapolated in eta^2.

      I1 = i pi D^4 * Integral_0^inf of g(a) delta'(a - D^2/a) da
      I3 = i pi D^4 * Integral over R of e^{i Omega a} g(a) delta'(a - D^2/a) da

    with g(a) = e^{-a^2/4} sinc(omega a / 2) / a^2.  The nascent spike is
    supported near a = D (and a = -D for I3); integration windows cover
    |a - D^2/a| <= 12 eta, outside of which the family is below e^{-144}.

    `which` selects "I1" (Omega is ignored) or "I3".  Unlike every other
    oracle's, tol is relative: tol * max(1, |value|) decides both
    NoConvergence (raised beyond 1000 times it) and converged.
    """
    if which not in ("I1", "I3"):
        raise ValueError(f"which must be 'I1' or 'I3', got {which!r}")
    w, Om, Dv = float(omega), float(Omega), float(D)
    regs = _regulators(schedule)
    # One integral per rung over the window around a = D; for I3 a second
    # one over its mirror around a = -D.  All run in one batched pass.
    windows = [_dprime_window(Dv, eta) for eta in regs]
    if which == "I1":
        edges = [(lo, Dv, hi) for lo, hi in windows]
    else:
        edges = [
            piece
            for lo, hi in windows
            for piece in ((lo, Dv, hi), (-hi, -Dv, -lo))
        ]
    eta_of = np.repeat(regs, len(edges) // len(regs))

    def integrand(av, k):
        eta = eta_of[k]
        x = av - Dv * Dv / av
        r = x / eta
        d_eta = -2.0 * x * np.exp(-r * r) / (eta ** 3 * _SQRT_PI)
        g = np.exp(-av * av / 4.0) * specfun.sinc_array(w * av / 2.0) / (av * av)
        # I1's integrand is real, and stays so.
        return g * d_eta if which == "I1" else np.exp(1j * Om * av) * g * d_eta

    vals, errs = _gk21(integrand, edges)
    if which == "I3":
        vals, errs = vals[0::2] + vals[1::2], errs[0::2] + errs[1::2]
    scale = math.pi * Dv ** 4
    value, err = _ladder(
        regs, [1j * scale * complex(v) for v in vals], scale * errs, True
    )
    if err > 1000.0 * tol * max(1.0, abs(value)):
        raise NoConvergence(
            f"delta'-family extrapolation residual {err:g} is far beyond "
            f"tol = {tol:g} for {which} at omega={w:g}, Omega={Om:g}, D={Dv:g}"
        )
    return OracleEstimate(value, err, regs, err <= tol * max(1.0, abs(value)))


# --- verification suite -----------------------------------------------------

DEFAULT_VERIFY_GRID: Mapping[str, tuple[float, ...]] = {
    "omega_sigma": (0.5, 2.0, 5.0),
    "Omega_sigma": (0.5, 1.0, 1.5),
    "D_sigma": (0.5, 1.0, 2.0, 4.0),
    "t0_sigma": (0.0, 1.0),
}

MINIMAL_VERIFY_GRID: Mapping[str, tuple[float, ...]] = {
    "omega_sigma": (2.0,),
    "Omega_sigma": (1.0,),
    "D_sigma": (2.0,),
    "t0_sigma": (0.0,),
}

# Comparison tolerances (relative) for closed form vs oracle.
TOL_KERNEL = 1.0e-5      # P, X_M, C_M and the X_M cross-regularization
TOL_S_ORACLE = 1.0e-8    # I2, I4 against the Fourier-side representation
TOL_DPRIME = 1.0e-5      # I1, I3 against the nascent-delta' family


@dataclass(frozen=True)
class CheckRecord:
    """One closed-form-versus-oracle comparison."""

    quantity: str
    params: tuple[tuple[str, float], ...]
    value: complex
    reference: complex
    abs_error: float
    rel_error: float
    tolerance: float
    passed: bool
    oracle_error_estimate: float
    note: str = ""


def _record(
    quantity: str,
    params: dict[str, float],
    value: complex,
    est: OracleEstimate,
    tol: float,
    note: str = "",
) -> CheckRecord:
    ref = est.value
    abs_err = abs(value - ref)
    rel_err = abs_err / max(abs(ref), 1e-300)
    return CheckRecord(
        quantity=quantity,
        params=tuple(sorted(params.items())),
        value=value,
        reference=ref,
        abs_error=abs_err,
        rel_error=rel_err,
        tolerance=tol,
        passed=rel_err <= tol,
        oracle_error_estimate=est.abs_error_estimate,
        note=note,
    )


def verify_suite(
    grid: Mapping[str, Sequence[float]] | None = None,
) -> list[CheckRecord]:
    """Compare every closed form against its oracles over a parameter grid.

    The default grid is the library's reference verification grid.  Checks
    are generated once per *unique* argument signature of each quantity
    (e.g. P depends only on Omega), in deterministic sorted order; each
    check is a pure function of its parameters and collection is
    append-only in task order, so the suite is safe to re-run or shard
    without reordering results.

    Each X_M kernel integral (one per D and method) is computed once and
    shared by the x_minkowski records of every (Omega, t0) at that D; the
    records equal the standalone oracle_XM results bit for bit.  The reuse
    is scoped to this call, so repeated calls repeat the same work.  The
    one thing that outlives a call is oracle_P's calibration against
    P(0) = 1/(4 pi), made on first use in the process and kept in
    _CAL_CACHE; only the first call pays for it.

    Record list (per unique signature):
      transition_probability        closed vs regulated-kernel oracle
      x_minkowski                   closed vs regulated-kernel oracle
      x_minkowski_pv                closed vs PV-subtraction oracle
      x_minkowski_consistency       the two X_M oracles against each other
      c_minkowski                   closed vs regulated-kernel oracle
      integral_I1 / integral_I3     closed vs nascent-delta' oracle
      integral_I2 / integral_I4     closed vs Fourier-side oracle
    """
    g = dict(DEFAULT_VERIFY_GRID if grid is None else grid)
    omegas = tuple(g["omega_sigma"])
    Omegas = tuple(g["Omega_sigma"])
    Ds = tuple(g["D_sigma"])
    t0s = tuple(g["t0_sigma"])

    records: list[CheckRecord] = []

    for Om in sorted(set(Omegas)):
        est = oracle_P(Om)
        records.append(
            _record(
                "transition_probability",
                {"Omega_sigma": Om},
                complex(closedform.transition_probability(Om), 0.0),
                est,
                TOL_KERNEL,
            )
        )

    # X_M kernel integrals depend on D alone: one estimate per D and method
    # in this call, scaled per (Omega, t0) exactly as oracle_XM scales it.
    xm_tol = 1e-6
    kernels = {
        (D, method): _xm_kernel(D, method, xm_tol, DEFAULT_SCHEDULE)
        for D in sorted(set(Ds))
        for method in ("regulated", "pv_subtraction")
    }
    for Om in sorted(set(Omegas)):
        for D in sorted(set(Ds)):
            for t0 in sorted(set(t0s)):
                xm = closedform.x_minkowski(Om, D, t0)
                pref = _xm_prefactor(Om, t0)
                est_reg = _scaled(kernels[D, "regulated"], pref)
                records.append(
                    _record(
                        "x_minkowski",
                        {"Omega_sigma": Om, "D_sigma": D, "t0_sigma": t0},
                        xm,
                        est_reg,
                        TOL_KERNEL,
                    )
                )
                est_pv = _scaled(kernels[D, "pv_subtraction"], pref)
                records.append(
                    _record(
                        "x_minkowski_pv",
                        {"Omega_sigma": Om, "D_sigma": D, "t0_sigma": t0},
                        xm,
                        est_pv,
                        TOL_KERNEL,
                    )
                )
                records.append(
                    _record(
                        "x_minkowski_consistency",
                        {"Omega_sigma": Om, "D_sigma": D, "t0_sigma": t0},
                        est_reg.value,
                        est_pv,
                        TOL_KERNEL,
                        note="independent regularizations of the same kernel",
                    )
                )

    for Om in sorted(set(Omegas)):
        for D in sorted(set(Ds)):
            cm = complex(closedform.c_minkowski(Om, D), 0.0)
            records.append(
                _record(
                    "c_minkowski",
                    {"Omega_sigma": Om, "D_sigma": D},
                    cm,
                    oracle_CM(Om, D),
                    TOL_KERNEL,
                )
            )

    for w in sorted(set(omegas)):
        for D in sorted(set(Ds)):
            records.append(
                _record(
                    "integral_I1",
                    {"omega_sigma": w, "D_sigma": D},
                    closedform.integral_I1(w, D),
                    oracle_delta_prime("I1", w, 0.0, D),
                    TOL_DPRIME,
                )
            )
            records.append(
                _record(
                    "integral_I2",
                    {"omega_sigma": w, "D_sigma": D},
                    complex(closedform.integral_I2(w, D), 0.0),
                    oracle_I2(w, D),
                    TOL_S_ORACLE,
                )
            )

    for w in sorted(set(omegas)):
        for Om in sorted(set(Omegas)):
            for D in sorted(set(Ds)):
                records.append(
                    _record(
                        "integral_I3",
                        {"omega_sigma": w, "Omega_sigma": Om, "D_sigma": D},
                        complex(closedform.integral_I3(w, Om, D), 0.0),
                        oracle_delta_prime("I3", w, Om, D),
                        TOL_DPRIME,
                    )
                )
                records.append(
                    _record(
                        "integral_I4",
                        {"omega_sigma": w, "Omega_sigma": Om, "D_sigma": D},
                        complex(closedform.integral_I4(w, Om, D), 0.0),
                        oracle_I4(w, Om, D),
                        TOL_S_ORACLE,
                    )
                )

    return records


def all_passed(records: Sequence[CheckRecord]) -> bool:
    return all(r.passed for r in records)
