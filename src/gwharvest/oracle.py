"""Independent quadrature oracles for every closed-form observable.

Each closed form in this package is re-derived here from a *defining*
integral representation rather than from the closed-form algebra, so the
two paths share no simplification steps:

* P, X_M and C_M are each a prefactor times one integral of the
  first-order Wightman function, _wightman.  Their distributional
  splittings (delta / delta' plus principal value) are the eps -> 0+
  limit of the integral of W(a + i eps).  Every pole of W(a + i eps) lies
  below the real axis and the rest of the integrand is entire, so by
  Cauchy's theorem that limit is exactly the integral along the contour
  Im a = c > 0 (over all a), or along 0 -> i c -> i c + oo
  (over a >= 0): one ordinary integral per straight leg, with no
  regulator and nothing to extrapolate.  The integrand is conjugate
  symmetric on the horizontal leg, so over all a it is twice the real
  part of the integral over its right half; on the vertical leg it is i
  times a real function, integrated as such.
* X_M additionally gets a second, independent regularization: explicit
  principal-value singularity subtraction on a symmetric window around
  a = D plus the analytic delta contribution.  Agreement between the two
  regularizations is a structural invariant of the suite.
* I2 and I4 are computed from their Fourier-side representations: one
  absolutely convergent 1-d integral over the conjugate variable s, the
  distributional factor having been evaluated in closed form by residues.
  I2's integrand is I4's at Omega = 0, over s >= 0 rather than with
  sgn(s) over all s: one kernel and one builder (_fourier) serve both.
* I1 and I3 are the delta' parts of the strain-term Wightman integral
  (below), whose finite parts are I2 and I4: each is -4 pi^2 D^2 times
  that integral, less the I2 or I4 oracle.
* The single-detector transition probability takes the wave's amplitude
  and keeps the integral's strain term switched on, to exhibit that a
  transverse wave leaves P strictly unaffected: the strain term enters
  through the transverse separation factor dx^2 - dy^2 = D^2, which
  vanishes identically on a single static worldline.
* x_gw and c_gw are computed end to end from the strain term alone of the
  same integral, on two static worldlines separated by D along x: the
  t + t' integral by quadrature on the real line, the t - t' integral
  along the contour.  This checks how I1-I4 are assembled (envelope, t0
  phase, prefactors, normalization), which the per-integral oracles cannot.

Every oracle returns an OracleEstimate carrying the value, a defensible
absolute error estimate (quadrature + analytic truncation bound) and a
convergence flag: whether that estimate is within the one target
_FINE_TOL.  Every public oracle raises ValueError naming its first
argument that is not finite, a D <= 0 or an omega = 0 (oracle_P takes
omega = 0), as verify_suite does for its grid axes.

The quadrature is one pass of QUADPACK's G10/K21 pair (routine qk21) and
its error estimate, written over numpy arrays; nothing is bisected, and
no part of scipy.integrate is used.  Every integrand is analytic or
smooth with scales known in advance, so each oracle fixes its partition
up front (_panels): pieces as wide as the contour height c within 1 of a
pole, pieces doubling from D wide where a pole is D from the path
(_doubling), and elsewhere as wide as the Gaussian's scale or a few
radians of the fastest oscillation (Omega and omega/2 on a contour leg,
omega and 2 Omega in a window T-integral, D in an s-integral, around
each hump of an s-integrand where one window would need more than
_MAX_PIECES pieces).  On such a partition each piece's rule converges
geometrically, as for the trapezoidal rule on analytic integrands
(Trefethen & Weideman, SIAM Review 56(3), 385-458, 2014).  Each oracle is
data, an _Oracle: the integrals it needs (an integrand family with
per-integral parameters, and the edges of its pieces) and a function
that builds its estimate from their values (contour legs summed with the
tail bound, then scaled, windowed or less I2 or I4).
_solve integrates the lists of any number of oracles (verify_suite's:
all of them) by one pass per integrand value type, each distinct
integral once, calling each integrand family once per 512 pieces on
their nodes, and summing each integral's pieces exactly.  A default
verify_suite evaluates 1,546 pieces (32,466 nodes) in four rule calls,
772 of them complex (the horizontal legs).  The pass is elementwise or
per integral throughout, so an estimate is bit for bit the same alone or
batched.

All quantities are dimensionless (sigma = 1) and normalized per lambda^2
exactly as in the closed-form module.
"""

from __future__ import annotations

import cmath
import itertools
import math
import struct
from dataclasses import dataclass
from functools import cache
from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import closedform, specfun

__all__ = [
    "SignConventionMismatch",
    "OracleEstimate",
    "oracle_P",
    "oracle_XM",
    "oracle_CM",
    "oracle_I1",
    "oracle_I2",
    "oracle_I3",
    "oracle_I4",
    "oracle_x_gw",
    "oracle_c_gw",
    "CheckRecord",
    "DEFAULT_VERIFY_GRID",
    "MINIMAL_VERIFY_GRID",
    "verify_suite",
]

_FOUR_PI_SQ = 4.0 * math.pi ** 2
_SQRT_PI = math.sqrt(math.pi)


class SignConventionMismatch(AssertionError):
    """Oracle calibration against an exact anchor value failed.

    The side of the poles on which the contour runs fixes the sign of the
    delta-function halves of each kernel; a contour on the wrong side
    reproduces the principal values but negates those halves.  The
    calibration check, the state-independent commutator identity
    P(1) - P(-1) = -1/(2 sqrt(pi)), catches exactly this.
    """


@dataclass(frozen=True)
class OracleEstimate:
    """Quadrature result with a defensible absolute error estimate.

    converged is abs_error_estimate <= _FINE_TOL, read when the oracle runs,
    for every oracle alike: the error of the final value, after any scaling.
    """

    value: complex
    abs_error_estimate: float
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
# The error target that sets OracleEstimate.converged (not verify_suite's
# comparison tolerances TOL_*).
_FINE_TOL = 1e-10
# The most pieces _panels cuts a zone into.
_MAX_PIECES = 1000


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
    (m, 1), and returns values shaped like the nodes.  The error is made
    as qk21 makes it, with complex moduli for a complex integrand: |K - G|
    scaled by resasc * min(1, (200 |K - G| / resasc)^1.5), and at least
    the roundoff floor 50 eps resabs.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    x = c[:, None] + h[:, None] * _NODES
    fx = f(x, owner[:, None])
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
) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of f over n piecewise intervals by one batched G10/K21 pass.

    Integral i is the sum of the K21 values over the consecutive pieces of
    edges[i], and its error estimate the sum of their qk21 estimates.  f is
    called once per 512 pieces of all integrals, with their 21 nodes as
    rows x shaped (m, 21), and the index of each row's integral as k
    shaped (m, 1); f(x, k) returns the (real or complex) integrand values,
    elementwise.  Every node is thus evaluated once, and the temporaries
    of the rule and of f are bounded however large the batch.  The real
    and imaginary parts of each integral's piece values are summed exactly
    (math.fsum), with one rounding: near a pole the pieces cancel, and an
    ordered sum would leave several ulps of the value.  Every step is
    elementwise, per row or per integral, so a result is bit for bit the
    same alone or batched with others, in pieces of any number.

    Returns the values (complex) and error estimates, both shaped (n,).
    """
    n, counts = len(edges), [len(e) - 1 for e in edges]
    owner = np.repeat(np.arange(n), counts)
    lo = np.array([a for e in edges for a in e[:-1]], dtype=float)
    hi = np.array([b for e in edges for b in e[1:]], dtype=float)
    parts = [
        _gk21_rule(f, owner[i:i + 512], lo[i:i + 512], hi[i:i + 512])
        for i in range(0, len(lo), 512)
    ]
    val, err = (np.concatenate(p) for p in zip(*parts))
    cuts = np.cumsum([0, *counts]).tolist()
    re, im = val.real.tolist(), val.imag.tolist()
    value = np.array([complex(math.fsum(re[a:b]), math.fsum(im[a:b]))
                      for a, b in zip(cuts, cuts[1:])], dtype=complex)
    # bincount adds in array order, here each integral's pieces in order.
    return value, np.bincount(owner, err, n)


# --- oracles as data: the integrals each needs, and how it finishes ---------


@dataclass(frozen=True, eq=False)
class _Family:
    """An integrand family: kernel(x, *columns), elementwise.

    Each integral of a family brings its parameters as one tuple of floats;
    kernel gets them as columns shaped (m, 1), one entry per row of nodes x.
    dtype is the kernel's value type, float or complex.  Families compare
    by identity, so two families may share a kernel.
    """

    kernel: Callable[..., np.ndarray]
    dtype: type


class _Integral(NamedTuple):
    """One integral of a family at params over the pieces of edges."""

    family: _Family
    params: tuple[float, ...]
    edges: tuple[float, ...]


class _Oracle(NamedTuple):
    """The integrals an oracle needs, and finish(vals, errs) -> its result.

    finish gets their values and error estimates as arrays, in the order
    of integrals.
    """

    integrals: list[_Integral]
    finish: Callable[[np.ndarray, np.ndarray], Any]


@cache
def _packer(n: int) -> Callable[..., bytes]:
    """Packs n floats into their 8n bytes, for _solve's integral keys."""
    return struct.Struct(f"{n}d").pack


def _solve(oracles: Sequence[_Oracle]) -> list[Any]:
    """The results of oracles, in order, from one _integrate call.

    Each distinct integral is integrated once, however many oracles ask
    for it.  Integrals are the same when their family is (by identity)
    and so are the bits of every float (-0.0 is not 0.0), so a shared
    result is what each oracle would get alone.
    """
    asked = [it for o in oracles for it in o.integrals]
    slot: dict[tuple[_Family, bytes], int] = {}
    unique: list[_Integral] = []
    place = []
    for it in asked:
        floats = (*it.params, *it.edges)
        key = it.family, _packer(len(floats))(*floats)
        if key not in slot:
            slot[key] = len(unique)
            unique.append(it)
        place.append(slot[key])
    vals, errs = _integrate(unique)
    vals, errs = vals[place], errs[place]
    results, start = [], 0
    for o in oracles:
        stop = start + len(o.integrals)
        results.append(o.finish(vals[start:stop], errs[start:stop]))
        start = stop
    return results


def _integrate(integrals: Sequence[_Integral]) -> tuple[np.ndarray, np.ndarray]:
    """Values (complex) and error estimates of integrals, in order.

    One _gk21 call integrates all integrals whose integrands have one value
    type.  Real and complex integrands never share a call: numpy sums the
    rows of a complex array in another order than those of a real one, so
    a real integrand batched as complex would change in its last bits.
    """
    batches: dict[type, list[int]] = {}
    for i, it in enumerate(integrals):
        batches.setdefault(it.family.dtype, []).append(i)
    vals = np.empty(len(integrals), dtype=complex)
    errs = np.empty(len(integrals))
    for index in batches.values():
        batch = [integrals[i] for i in index]
        vals[index], errs[index] = _gk21(
            _batch_integrand(batch), [it.edges for it in batch]
        )
    return vals, errs


def _batch_integrand(
    batch: Sequence[_Integral],
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """f(x, k) for _gk21 over batch: each family's kernel once per call.

    Each family's parameters are stored as columns over the whole batch,
    so the index k of a row's integral selects its parameters directly.
    """
    families = list(dict.fromkeys(it.family for it in batch))
    which = np.array([families.index(it.family) for it in batch])
    columns = []
    for j, family in enumerate(families):
        members = np.flatnonzero(which == j)
        cols = np.zeros((len(batch[members[0]].params), len(batch)))
        cols[:, members] = np.array([batch[i].params for i in members]).T
        columns.append(cols)

    def f(x, k):
        out = np.empty(x.shape, dtype=families[0].dtype)
        row_family = which[k[:, 0]]
        for j, family in enumerate(families):
            rows = np.flatnonzero(row_family == j)
            if len(rows):
                out[rows] = family.kernel(x[rows], *columns[j][:, k[rows]])
        return out

    return f


def _judged(value: complex, err: float) -> OracleEstimate:
    """The estimate value +- err: converged is err <= _FINE_TOL."""
    return OracleEstimate(value, err, err <= _FINE_TOL)


def _scaled(
    est: OracleEstimate, factor: complex, factor_err: float = 0.0
) -> OracleEstimate:
    """factor * est, with first-order error propagation, judged anew."""
    err = abs(factor) * est.abs_error_estimate + factor_err * abs(est.value)
    return _judged(factor * est.value, err)


def _times(oracle: _Oracle, factor: complex) -> _Oracle:
    """The oracle of factor times oracle's estimate."""
    return _Oracle(oracle.integrals, lambda v, e: _scaled(oracle.finish(v, e), factor))


def _panels(a: float, b: float, width: float) -> tuple[float, ...]:
    """Edges of [a, b] in the fewest equal pieces no wider than width.

    (b,) when a == b, so that a zone of no length adds no piece.  At most
    _MAX_PIECES pieces, which bounds the work and memory of any input:
    where that cap makes them wider, their error estimates report it.
    """
    n = math.ceil(min(abs(b - a) / width, _MAX_PIECES))
    return (*(a + (b - a) * j / n for j in range(n)), b)


def _doubling(a: float, b: float, first: float, width: float) -> tuple[float, ...]:
    """Edges of [a, b] in pieces first, 2 first, 4 first, ... wide from a,
    and _panels of width once a piece would be as wide: about
    log2(width/first) pieces for an integrand that varies on the scale of
    its distance from a pole first away from a."""
    edges, step = [a], first
    while step < width and edges[-1] + step < b:
        edges.append(edges[-1] + step)
        step *= 2.0
    return (*edges[:-1], *_panels(edges[-1], b, width))


def _invalid(name: str, v: float) -> bool:
    """Whether v is outside the domain of argument name: not finite, D <= 0, omega = 0.

    name is an oracle's argument or, less "_sigma", a verify grid axis.
    """
    return (not math.isfinite(v) or (name == "D" and v <= 0.0)
            or (name == "omega" and v == 0.0))


def _check_args(**args: float) -> None:
    """ValueError naming the first of args that is _invalid."""
    for name, v in args.items():
        if _invalid(name, v):
            raise ValueError(
                f"invalid {name} = {v!r}: the oracles take finite arguments, "
                "D > 0 and omega != 0"
            )


# --- the Wightman integral behind every kernel oracle, on a contour ---------

# Height c of the contour above the real axis, at most 10/|omega| on a
# strain leg (_wightman); every pole lies below it.
_SHIFT = 0.5


def _horizontal_leg(x, c, r, m, Om, gw=None, w=None):
    """e^{-a^2/4} e^{i Omega a} W(a) on a = x + i c, omega c != 0; see _wightman.

    sin(omega a/2) = sin(omega x/2) cosh(omega c/2) + i cos(omega x/2)
    sinh(omega c/2).  Columns (k, 1) go with rows of nodes x (k, n), or
    all are floats, as QUADPACK passes one node.
    """
    a = x + 1j * c
    sig = (r - a) * (r + a)
    kern = (m / _FOUR_PI_SQ) / sig
    if gw is not None:
        half = 0.5 * w
        phase = half * x
        sin_u = np.empty(np.shape(x), dtype=complex)
        np.multiply(np.sin(phase), np.cosh(half * c), out=sin_u.real)
        np.multiply(np.cos(phase), np.sinh(half * c), out=sin_u.imag)
        kern = kern - (gw / _FOUR_PI_SQ) * sin_u / (half * a * sig * sig)
    return np.exp(a * (1j * Om - 0.25 * a)) * kern


def _vertical_leg(y, r, m, Om, gw=None, w=None):
    """The real f with i f(y) = e^{-a^2/4} e^{i Omega a} W(a) da/dy on a = i y.

    f = e^{y^2/4 - Omega y} [m/(4 pi^2 s) - gw (sinh(u)/u)/(4 pi^2 s^2)],
    s = r^2 + y^2, u = omega y/2 != 0; columns as for _horizontal_leg.
    """
    s = r * r + y * y
    kern = m / (_FOUR_PI_SQ * s)
    if gw is not None:
        u = 0.5 * w * y
        kern = kern - (gw / _FOUR_PI_SQ) * (np.sinh(u) / u) / (s * s)
    return np.exp(y * (0.25 * y - Om)) * kern


# The horizontal and vertical legs' families: columns (c, r, m, Omega)
# and (r, m, Omega), each followed by (gw, omega) with the strain on.
_LEGS = (_Family(_horizontal_leg, complex), _Family(_vertical_leg, float))
_STRAIN_LEGS = (_Family(_horizontal_leg, complex), _Family(_vertical_leg, float))


def _wightman(
    Omega: float,
    D: float,
    *,
    full_line: bool,
    minkowski: float = 1.0,
    strain: float = 0.0,
    omega: float = 0.0,
) -> _Oracle:
    """Oracle of the integral of e^{-a^2/4} e^{i Omega a} W(a + i0), a >= 0 or all a.

    W is the first-order Wightman function between events of detector A,
    at rest at the origin, and detector B, at rest at x = D (D = 0: one
    detector), a apart in time:

      W = m / (4 pi^2 sigma^2) - s D^2 sinc(omega a/2) / (4 pi^2 sigma^4)

    with m = minkowski, s = strain (the amplitude times the window-averaged
    cos(omega (t+t')/2)) and sigma^2 = D^2 - a^2, formed as
    (r - a)(r + a), r = |D|.  D^2 is the transverse factor dx^2 - dy^2 of
    a separation along the stretch axis x.  The i*eps prescription
    W(a + i eps) moves the poles a = +-r below the real axis, so the
    integral runs above them.  The rest of the integrand is entire, so the
    integral is the same along any path above the poles that ends where
    the Gaussian has decayed: here Im a = c over all a, or the vertical
    leg 0 -> i c and the horizontal leg i c -> i c + L over a >= 0, where
    the vertical leg is i times a real integral
    (_vertical_leg; the horizontal one is _horizontal_leg's).  Over a >= 0
    the path starts at a = 0, a pole when r = 0, so D = 0 raises
    ValueError there, as does a strain term at omega = 0.

    Over all a only the right half, Re a >= 0, is integrated: every
    column is real, so the integrand at -x + i c is the complex conjugate
    of that at x + i c, and the full-line integral is exactly twice the
    real part of the right half's.  Its value is that, with zero
    imaginary part; its error twice the half's error plus the tail bound.

    The height c is _SHIFT, or 10/|omega| where that is lower and the
    strain term is on: off the axis sin(omega a/2) grows as
    cosh(omega c/2), so the horizontal leg cancels at most cosh(5) to one
    at any omega.  That leg runs over 0 <= Re a <= L = D + 14, in pieces
    c wide within 1 of the pole at Re a = D and elsewhere 2 wide (the
    Gaussian's scale) or 8 radians of e^{i Omega a} sin(omega a/2); the
    vertical leg's pieces start D wide, the poles' distance from its end
    a = 0, and double toward c (_doubling).  The neglected tails beyond
    |Re a| = L (one or both) are bounded from |sigma^2| >= L^2 - D^2,
    |e^{-a^2/4}| = e^{c^2/4} e^{-Re a^2/4}, |e^{i Omega a}| <= e^{|Omega| c}
    and |sinc(omega a/2)| <= cosh(omega c/2); the estimate's error is the
    legs' errors plus that bound.
    """
    Om, Dv, w = float(Omega), float(D), float(omega)
    # Detector A at the origin, B at x = D: their separation.
    r = abs(Dv)
    if not full_line and r == 0.0:
        raise ValueError("a half-line Wightman integral needs D != 0")
    m = float(minkowski)
    gw = float(strain) * (Dv * Dv)
    # The strain term is zero for P, X_M, C_M and on one worldline: no sinc.
    if gw and w == 0.0:
        raise ValueError("the strain term of a Wightman integral needs omega != 0")
    c = min(_SHIFT, 10.0 / abs(w)) if gw else _SHIFT
    L = Dv + 14.0
    span = L * L - Dv * Dv
    tail = (
        (2.0 if full_line else 1.0)
        * _SQRT_PI
        * specfun.erfc_real(L / 2.0)
        * math.exp(c * c / 4.0 + abs(Om * c))
        * (abs(m) / span + abs(gw) * math.cosh(w * c / 2.0) / (span * span))
        / _FOUR_PI_SQ
    )
    (across, up), strain_cols = (_STRAIN_LEGS, (gw, w)) if gw else (_LEGS, ())
    width = 8.0 / max(4.0, abs(Om) + (abs(w) / 2.0 if gw else 0.0))
    near, far = max(r - 1.0, 0.0), r + 1.0
    edges = (*_panels(0.0, near, width)[:-1], *_panels(near, far, abs(c))[:-1],
             *_panels(far, L, width))
    right = _Integral(across, (c, r, m, Om, *strain_cols), edges)
    if not full_line:
        up_edges = _doubling(0.0, c, r, c)
        legs = [_Integral(up, (r, m, Om, *strain_cols), up_edges), right]
        return _Oracle(legs, lambda v, e: _judged(
            complex(v[1] + 1j * v[0].real), float(e.sum()) + tail
        ))

    def folded(v: np.ndarray, e: np.ndarray) -> OracleEstimate:
        return _judged(complex(2.0 * v[0].real), 2.0 * float(e[0]) + tail)

    return _Oracle([right], folded)


def _calibration() -> _Oracle:
    """Oracle raising SignConventionMismatch unless the P oracle is calibrated.

    The anchor is the commutator identity P(1) - P(-1) = -1/(2 sqrt(pi)),
    which holds in every state, so it shares no algebra with the closed
    form.  (P(0) = 1/(4 pi) could not serve: the residue of e^{-a^2/4}/a^2
    at a = 0 vanishes, so P(0) is the same on either side of the pole.)
    The discrepancy is integrated in every _solve that asks for this
    oracle, and may be at most 100 * _FINE_TOL.
    """
    up, down = _p(1.0), _p(-1.0)
    n = len(up.integrals)

    def finish(vals: np.ndarray, errs: np.ndarray) -> None:
        off = abs(up.finish(vals[:n], errs[:n]).value
                  - down.finish(vals[n:], errs[n:]).value + 0.5 / _SQRT_PI)
        allowed = 100.0 * _FINE_TOL
        if off > allowed:
            raise SignConventionMismatch(
                f"P oracle off by {off:g} at the anchor "
                f"P(1) - P(-1) = -1/(2 sqrt(pi)) (allowed {allowed:g}); "
                "the contour runs on the wrong side of the kernel's poles"
            )

    return _Oracle([*up.integrals, *down.integrals], finish)


def _p(Omega: float, A: float = 0.0, omega: float = 0.0, t0: float = 0.0) -> _Oracle:
    """Oracle of oracle_P, without its calibration."""
    w = float(omega)
    strain = float(A) * math.exp(-w * w / 4.0) * math.cos(w * float(t0))
    return _times(
        _wightman(Omega, 0.0, full_line=True, strain=strain, omega=w), _SQRT_PI
    )


def oracle_P(
    Omega: float, A: float = 0.0, omega: float = 0.0, *, t0: float = 0.0
) -> OracleEstimate:
    """Transition probability from the full first-order Wightman function.

    P/lambda^2 = sqrt(pi) * Integral over a of
    exp(-a^2/4 + i Omega a) * W(a + i eps), eps -> 0+: sqrt(pi) times the
    full-line Wightman integral at D = 0, on the contour, which is twice
    the real part of the integral over its right half.  (The defining
    form, with exp(-i Omega a) and (a - i eps)^2, is this integral under
    a -> -a.)  At A = 0, W is the Minkowski -1/(4 pi^2 a^2).

    The strain term of W carries the transverse factor dx^2 - dy^2 = D^2
    of the separation between the two events; on a single static
    worldline it is zero, computed from the separation D = 0 rather than
    assumed.  The strain enters the kernel exactly as derived —
    amplitude A times the window-averaged cos(omega*(t+t')/2),
    Gaussian-integrated over t+t' analytically to
    exp(-omega^2/4) cos(omega*t0) — so that P is the same for every A is a
    computed outcome, not a hard-coded one.

    Every call calibrates the machinery against the exact anchor
    P(1) - P(-1) = -1/(2 sqrt(pi)), integrated with P; a discrepancy above
    100 * _FINE_TOL raises SignConventionMismatch, which indicates a
    contour on the wrong side of the poles rather than a loss of
    quadrature accuracy.
    """
    _check_args(Omega=Omega, A=A, t0=t0)
    if omega != 0.0:  # the default: the wave leaves P alone at every omega
        _check_args(omega=omega)
    return _solve([_calibration(), _p(Omega, A, omega, t0)])[1]


def _expm1_ratio(w: np.ndarray) -> np.ndarray:
    """(exp(-w/4) - 1)/w elementwise, stable through w = 0."""
    small = np.abs(w) < 1e-8
    return np.where(
        small, -0.25 + w / 32.0, np.expm1(-w / 4.0) / np.where(small, 1.0, w)
    )


def _pv_near_kernel(av, gauss_d, D):
    """(e^{-a^2/4} - e^{-D^2/4})/(a^2 - D^2), smooth through a = D, as
    e^{-b^2/4} (e^{-|a^2 - D^2|/4} - 1)/|a^2 - D^2|, b = max(a, D): no
    factor overflows at any D."""
    return np.where(av < D, np.exp(-av * av / 4.0), gauss_d) * _expm1_ratio(
        np.abs(av * av - D * D)
    )


def _pv_far_kernel(av, D):
    """e^{-a^2/4}/(a^2 - D^2), regular beyond a = 2D."""
    return np.exp(-av * av / 4.0) / (av * av - D * D)


_PV_NEAR = _Family(_pv_near_kernel, float)  # columns (e^{-D^2/4}, D)
_PV_FAR = _Family(_pv_far_kernel, float)  # columns (D,)


def _xm_kernel(D: float, method: str) -> _Oracle:
    """Oracle: half-line kernel integral of X_M, Integral_0^inf exp(-a^2/4) K(a) da.

    It depends on D alone (and on the method); _xm scales it to X_M.  See
    oracle_XM for the two methods.  abs_error_estimate bounds the error of
    this unscaled integral, its tail beyond L = D + 14 included.
    """
    if method == "contour":
        return _wightman(0.0, D, full_line=False)

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

        def finish(vals: np.ndarray, errs: np.ndarray) -> OracleEstimate:
            (v1, v3), (e1, e3) = vals.tolist(), errs.tolist()
            # PV of the subtracted constant over [0, 2D] is exactly -ln3/(2D).
            v2 = -gauss_d * math.log(3.0) / (2.0 * Dv)
            pv_total = v1.real + v2 + v3.real
            # Half-line kernel integral: -PV/(4 pi^2) plus the concentrated
            # half-delta term + i e^{-D^2/4}/(8 pi D).
            kernel_integral = complex(
                -pv_total / _FOUR_PI_SQ, gauss_d / (8.0 * math.pi * Dv)
            )
            return _judged(kernel_integral, (e1 + e3) / _FOUR_PI_SQ + tail)

        # The regularized part on [0, 2D] and the regular remainder on [2D, L],
        # this in pieces as wide as their distance from the pole a = D, up
        # to 2 wide.
        far_edges = _doubling(2.0 * Dv, L, Dv, 2.0)
        return _Oracle(
            [
                _Integral(_PV_NEAR, (gauss_d, Dv), _panels(0.0, 2.0 * Dv, 2.0)),
                _Integral(_PV_FAR, (Dv,), far_edges),
            ],
            finish,
        )

    raise ValueError(f"unknown oracle_XM method {method!r}")


def _xm(kernel: _Oracle, Omega: float, t0: float) -> _Oracle:
    """Oracle of oracle_XM: the _xm_kernel oracle times X_M's prefactor."""
    Om, t0v = float(Omega), float(t0)
    pref = -2.0 * _SQRT_PI * cmath.exp(complex(-Om * Om, -2.0 * Om * t0v))
    return _times(kernel, pref)


def oracle_XM(
    Omega: float,
    D: float,
    t0: float,
    *,
    method: str = "contour",
) -> OracleEstimate:
    """Coherence X_M/lambda^2 from its defining half-line kernel integral.

    X_M/lambda^2 = -2 sqrt(pi) exp(-Omega^2 - 2 i Omega t0) *
    Integral_0^inf of exp(-a^2/4) * K(a) da.

    method="contour": K(a) = -1/(4 pi^2 ((a + i eps)^2 - D^2)), eps -> 0+,
    integrated along 0 -> i c -> i c + oo above the pole: the half-line
    Wightman integral at Omega = 0, whose vertical leg is i times a real
    integral.

    method="pv_subtraction": the independent regularization — the
    principal value at a = D is computed by subtracting the singular
    Gaussian value on the symmetric window [0, 2D] (whose own principal
    value integrates to the exact -ln(3)/(2D)), the rest of the half-line
    is regular, and the concentrated half-delta contributes the analytic
    i exp(-D^2/4)/(8 pi D).  No contour is involved.

    The kernel integral depends on D alone, the prefactor on Omega and t0;
    verify_suite's x_minkowski records at one D share one kernel integral.
    The two methods share no regularization machinery; their agreement is
    checked by verify_suite as a structural invariant.
    """
    _check_args(Omega=Omega, D=D, t0=t0)
    return _solve([_xm(_xm_kernel(D, method), Omega, t0)])[0]


def _cm(Omega: float, D: float) -> _Oracle:
    """Oracle of oracle_CM."""
    return _times(_wightman(Omega, D, full_line=True), _SQRT_PI)


def oracle_CM(Omega: float, D: float) -> OracleEstimate:
    """Exchange term C_M/lambda^2 from its defining full-line kernel.

    C_M/lambda^2 = -sqrt(pi) * Integral over a of
    exp(-a^2/4 + i Omega a) * ( 1/(4 pi^2 ((a + i eps)^2 - D^2)) ),
    eps -> 0+: sqrt(pi) times the full-line Wightman integral, taken along
    Im a = c above the poles at a = +-D: twice the real part of the
    integral over the right half, Re a >= 0.
    """
    _check_args(Omega=Omega, D=D)
    return _solve([_cm(Omega, D)])[0]


# --- end-to-end strain-term oracles for x_gw and c_gw ----------------------

def _x_window_kernel(T, w, t0, Om):
    """e^{-T^2} cos(omega (t0 + T)) e^{-2 i Omega (t0 + T)}."""
    return np.exp(-T * T) * (np.cos(w * (t0 + T)) * np.exp(-2j * Om * (t0 + T)))


_X_WINDOW = _Family(_x_window_kernel, complex)  # columns (omega, t0, Omega)


def _t_window(w: float, t0: float, Om: float) -> _Integral:
    """The integral of _x_window_kernel over the T = (t + t')/2 - t0 window
    [-10, 10], outside which e^{-T^2} < e^{-100}, in pieces 1 wide (the
    Gaussian's scale) or 6 radians at omega and 2 Omega."""
    width = 6.0 / max(6.0, abs(w) + 2.0 * abs(Om))
    return _Integral(_X_WINDOW, (w, t0, Om), _panels(-10.0, 10.0, width))


def _windowed(window: _Integral, strain: _Oracle, factor: float) -> _Oracle:
    """Oracle of factor * T * S: T the window integral, S strain's estimate.

    T's error enters to first order, |factor| times T's error times |S|.
    """

    def finish(vals: np.ndarray, errs: np.ndarray) -> OracleEstimate:
        t_int, t_err = complex(vals[0]), float(errs[0])
        s = strain.finish(vals[1:], errs[1:])
        return _scaled(s, factor * t_int, abs(factor) * t_err)

    return _Oracle([window, *strain.integrals], finish)


def _x_gw(omega: float, Omega: float, D: float, t0: float) -> _Oracle:
    """Oracle of oracle_x_gw."""
    w, Om, t0v = float(omega), float(Omega), float(t0)
    strain = _wightman(0.0, D, full_line=False, minkowski=0.0, strain=1.0, omega=w)
    return _windowed(_t_window(w, t0v, Om), strain, -2.0)


def oracle_x_gw(omega: float, Omega: float, D: float, t0: float) -> OracleEstimate:
    """x_gw = X_GW/(A lambda^2) from the full first-order Wightman function.

    With t = t0 + T + a/2 and t' = t0 + T - a/2 the switching product is
    e^{-T^2 - a^2/4} and the strain factor cos(omega (t + t')/2) is
    cos(omega (t0 + T)), so that, with the same kernel convention as
    oracle_XM,

      x_gw = -2 * Integral over T of e^{-T^2} cos(omega (t0 + T))
                  e^{-2 i Omega (t0 + T)}
             * Integral_0^inf of e^{-a^2/4} W_gw(a) da,

    W_gw being the strain term of the Wightman function (_wightman)
    per unit strain, for two static detectors separated by D along x.  The
    T integral is done by quadrature, so this path shares no algebra with
    f_envelope, the I1/I2 closed forms or the 1/(4 D^2 pi^{3/2})
    normalization.  The a integral runs along the half-line contour, like
    oracle_XM's: i times a real integral up to i c, then a complex one.
    """
    _check_args(omega=omega, Omega=Omega, D=D, t0=t0)
    return _solve([_x_gw(omega, Omega, D, t0)])[0]


def _c_gw(omega: float, Omega: float, D: float, t0: float) -> _Oracle:
    """Oracle of oracle_c_gw: its T-integral is oracle_x_gw's at Omega = 0."""
    w, t0v = float(omega), float(t0)
    strain = _wightman(Omega, D, full_line=True, minkowski=0.0, strain=1.0, omega=w)
    return _windowed(_t_window(w, t0v, 0.0), strain, 1.0)


def oracle_c_gw(omega: float, Omega: float, D: float, t0: float) -> OracleEstimate:
    """c_gw = C_GW/(A lambda^2) from the full first-order Wightman function.

    With the change of variables of oracle_x_gw and the kernel convention
    of oracle_CM,

      c_gw = Integral over T of e^{-T^2} cos(omega (t0 + T))
             * Integral over a of e^{-a^2/4} e^{i Omega a} W_gw(a) da,

    both by quadrature, the a integral along the full-line contour like
    oracle_CM's: twice the real part of the integral over its right half.
    """
    _check_args(omega=omega, Omega=Omega, D=D, t0=t0)
    return _solve([_c_gw(omega, Omega, D, t0)])[0]


# --- Fourier-side oracles for I2 and I4 ------------------------------------


def _s_kernel(s, w, D, Om):
    """e^{-omega^2/4} e^{-u^2} sinh(omega u) [2 - 2 cos(D s) - D s sin(D s)],
    u = s - Omega, with the first three factors as
    sgn(omega u) e^{-(|u| - |omega|/2)^2} (1 - e^{-2|omega u|})/2: no
    factor overflows at any omega."""
    u = s - Om
    wu = w * u
    hump = np.exp(-np.square(np.abs(u) - 0.5 * np.abs(w)))
    bracket = 2.0 - 2.0 * np.cos(D * s) - D * s * np.sin(D * s)
    return np.sign(wu) * hump * (-0.5 * np.expm1(-2.0 * np.abs(wu))) * bracket


_S_KERNEL = _Family(_s_kernel, float)  # columns (omega, D, Omega)


def _fourier(omega: float, Omega: float, D: float, *, full_line: bool) -> _Oracle:
    """Oracle of (sqrt(pi)/omega) times the integral of _s_kernel over s >= 0
    (full_line False: I2, at Omega = 0) or of sgn(s) _s_kernel over all s (I4).

    The kernel is at most e^{-(|s - Omega| - |omega|/2)^2}/2 times 4 + D |s|:
    two humps of unit scale at s = Omega +- |omega|/2.  One window spans
    both, 9 beyond each, unless its pieces 1.25 wide (the Gaussian's scale)
    or 5 radians of cos(D s) would be more than _MAX_PIECES and the humps
    are more than 18 apart: then each hump gets a window of its own, 18
    wide.  Windows are split at s = 0, where sgn changes.
    """
    w, Om, Dv = float(omega), float(Omega), float(D)
    pref = _SQRT_PI / w
    half, width = abs(w) / 2.0, 5.0 / max(4.0, Dv)
    windows = [(Om - half - 9.0, Om + half + 9.0)]
    if (windows[0][1] - windows[0][0]) / width > _MAX_PIECES and half > 9.0:
        windows = [(c - 9.0, c + 9.0) for c in (Om - half, Om + half)]
    segments = [
        (a, b, sgn)
        for lo, hi in windows
        for a, b, sgn in ((lo, min(hi, 0.0), -1.0), (max(lo, 0.0), hi, 1.0))
        if a < b and (full_line or sgn > 0.0)
    ]
    # Outside the windows lie two Gaussian tails per window (one on the
    # half line), each at most (sqrt(pi)/4) erfc(9) times the bracket's
    # bound: the bound takes each twice.
    bracket = 4.0 + Dv * (max(abs(windows[0][0]), abs(windows[-1][1])) + 1.0)
    tails = len(windows) * (2 if full_line else 1)
    tail = abs(pref) * bracket * _SQRT_PI / 2.0 * specfun.erfc_real(9.0) * tails

    def finish(vals: np.ndarray, errs: np.ndarray) -> OracleEstimate:
        val = sum(sgn * v.real for (_, _, sgn), v in zip(segments, vals))
        total_err = abs(pref) * float(errs.sum()) + tail
        return _judged(complex(pref * val, 0.0), total_err)

    return _Oracle(
        [_Integral(_S_KERNEL, (w, Dv, Om), _panels(a, b, width)) for a, b, _ in segments],
        finish,
    )


def _i2(omega: float, D: float) -> _Oracle:
    """Oracle of oracle_I2."""
    return _fourier(omega, 0.0, D, full_line=False)


def oracle_I2(omega: float, D: float) -> OracleEstimate:
    """I2 from its conjugate-variable representation.

    I2 = (sqrt(pi)/omega) e^{-omega^2/4} * Integral_0^inf of
    e^{-s^2} sinh(omega s) [2 - 2 cos(D s) - D s sin(D s)] ds

    (half of oracle_I4's integral at Omega = 0, whose integrand is even in
    s), with e^{-omega^2/4} taken into the integrand (_s_kernel), so that
    no factor overflows at large omega.  The distributional factor of the
    defining finite-part integral was evaluated by residues, so this path
    shares no algebra with the closed form.
    """
    _check_args(omega=omega, D=D)
    return _solve([_i2(omega, D)])[0]


def _i4(omega: float, Omega: float, D: float) -> _Oracle:
    """Oracle of oracle_I4."""
    return _fourier(omega, Omega, D, full_line=True)


def oracle_I4(omega: float, Omega: float, D: float) -> OracleEstimate:
    """I4 from its conjugate-variable representation.

    I4 = (sqrt(pi)/omega) e^{-omega^2/4} * Integral over s of
    e^{-(s-Omega)^2} sinh(omega (s-Omega)) sgn(s)
    [2 - 2 cos(D s) - D s sin(D s)] ds,

    _fourier over the full line: the kernel of oracle_I2, centered at
    s = Omega, and split at s = 0 where sgn changes.
    """
    _check_args(omega=omega, Omega=Omega, D=D)
    return _solve([_i4(omega, Omega, D)])[0]


# --- I1 and I3 from the strain term of the Wightman integral ---------------


def _strain_less(
    Omega: float, D: float, omega: float, full_line: bool, rest: _Oracle
) -> _Oracle:
    """Oracle of -4 pi^2 D^2 S - rest, S the strain-term Wightman integral.

    S is over a >= 0 or all a (_wightman), rest an I2 or I4 oracle.  The
    error estimate is 4 pi^2 D^2 times S's plus rest's.
    """
    strain = _wightman(
        Omega, D, full_line=full_line, minkowski=0.0, strain=1.0, omega=omega
    )
    scale = _FOUR_PI_SQ * float(D) * float(D)
    n = len(strain.integrals)

    def finish(vals: np.ndarray, errs: np.ndarray) -> OracleEstimate:
        s, r = strain.finish(vals[:n], errs[:n]), rest.finish(vals[n:], errs[n:])
        err = scale * s.abs_error_estimate + r.abs_error_estimate
        return _judged(-scale * s.value - r.value, err)

    return _Oracle([*strain.integrals, *rest.integrals], finish)


def oracle_I1(omega: float, D: float) -> OracleEstimate:
    """I1 from the strain term of the half-line Wightman integral.

    The strain term of W for two detectors D apart along x is
    -D^2 sinc(omega a/2) / (4 pi^2 sigma^4), so -4 pi^2 D^2 times its
    half-line integral S_half (oracle_x_gw's a-integral, along the same
    contour: i times a real integral on its vertical leg) is the
    eps -> 0+ limit of

      D^4 * Integral_0^inf of e^{-a^2/4} sinc(omega a/2) / ((a + i eps)^2 - D^2)^2 da.

    Its delta' part at a = D is I1 and its finite part is I2, so

      I1 = -4 pi^2 D^2 S_half - I2,

    with I2 from oracle_I2.  Neither part uses the closed-form algebra.
    The error estimate is 4 pi^2 D^2 times S_half's plus I2's.  I1 is
    purely imaginary: the real part left is rounding.
    """
    _check_args(omega=omega, D=D)
    return _solve([_strain_less(0.0, D, omega, False, _i2(omega, D))])[0]


def oracle_I3(omega: float, Omega: float, D: float) -> OracleEstimate:
    """I3 from the strain term of the full-line Wightman integral.

    As for oracle_I1, over all a and weighted by e^{i Omega a}: with
    S_full the full-line strain-term integral (oracle_c_gw's a-integral),

      I3 = -4 pi^2 D^2 S_full - I4,

    I3 being the delta' part at a = +-D and I4 (oracle_I4) the finite
    part.  The error estimate is 4 pi^2 D^2 times S_full's plus I4's.  I3
    is real, and so is its estimate: S_full is twice the real part of the
    integral over the right half of the contour.
    """
    _check_args(omega=omega, Omega=Omega, D=D)
    return _solve([_strain_less(Omega, D, omega, True, _i4(omega, Omega, D))])[0]


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
TOL_DPRIME = 1.0e-5      # I1, I3 (delta' parts) against the strain contour


@dataclass(frozen=True)
class CheckRecord:
    """One closed-form-versus-oracle comparison.

    passed is rel_error <= tolerance, with every oracle of the record
    converged; converged says whether they all did.
    """

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
    converged: bool = True


class _Check(NamedTuple):
    """One record kind of verify_suite: quantity's value against reference.

    value names a closed-form piece of closedform._piece_arrays, or is a
    builder: value(*point) is an _Oracle whose estimate's value is
    compared.  reference(*point) is the _Oracle it is compared with.
    """

    quantity: str
    value: str | Callable[..., _Oracle]
    reference: Callable[..., _Oracle]
    tol: float
    note: str = ""


def _checks() -> dict[tuple[str, ...], tuple[_Check, ...]]:
    """verify_suite's record kinds by signature, for one call.

    A signature is the grid axes whose values, in this order, a kind's
    value and reference are built from.  An oracle that several kinds
    share is built once per call at each of its points: the X_M kernel
    integral at each (D, method), which serves every (Omega, t0), and
    the I2 and I4 oracles, which the I1 and I3 references subtract.
    """
    xm_kernel, i2, i4 = cache(_xm_kernel), cache(_i2), cache(_i4)

    def xm(method: str) -> Callable[..., _Oracle]:
        return lambda Om, D, t0: _xm(xm_kernel(D, method), Om, t0)

    xm_contour, xm_pv = xm("contour"), xm("pv_subtraction")
    return {
        ("Omega_sigma",): (
            _Check("transition_probability", "transition_probability", _p,
                   TOL_KERNEL),
        ),
        ("Omega_sigma", "D_sigma", "t0_sigma"): (
            _Check("x_minkowski", "x_minkowski", xm_contour, TOL_KERNEL),
            _Check("x_minkowski_pv", "x_minkowski", xm_pv, TOL_KERNEL),
            _Check("x_minkowski_consistency", xm_contour, xm_pv, TOL_KERNEL,
                   "independent regularizations of the same kernel"),
        ),
        ("Omega_sigma", "D_sigma"): (
            _Check("c_minkowski", "c_minkowski", _cm, TOL_KERNEL),
        ),
        ("omega_sigma", "D_sigma"): (
            _Check("integral_I1", "integral_I1",
                   lambda w, D: _strain_less(0.0, D, w, False, i2(w, D)), TOL_DPRIME),
            _Check("integral_I2", "integral_I2", i2, TOL_S_ORACLE),
        ),
        ("omega_sigma", "Omega_sigma", "D_sigma"): (
            _Check("integral_I3", "integral_I3",
                   lambda w, Om, D: _strain_less(Om, D, w, True, i4(w, Om, D)),
                   TOL_DPRIME),
            _Check("integral_I4", "integral_I4", i4, TOL_S_ORACLE),
        ),
    }


def _record(
    check: _Check,
    params: tuple[tuple[str, float], ...],
    value: complex | OracleEstimate,
    est: OracleEstimate,
) -> CheckRecord:
    """The record of check at params; it passes only on converged oracles."""
    converged = est.converged
    if isinstance(value, OracleEstimate):
        value, converged = value.value, converged and value.converged
    value, ref = complex(value), est.value
    abs_err = abs(value - ref)
    rel_err = abs_err / max(abs(ref), 1e-300)
    return CheckRecord(
        check.quantity, params, value, ref, abs_err, rel_err, check.tol,
        converged and rel_err <= check.tol, est.abs_error_estimate, check.note,
        converged,
    )


def _grid_axes(grid: Mapping[str, Sequence[float]]) -> dict[str, list[float]]:
    """The distinct values of each axis of a verify grid, ascending.

    ValueError names an unknown, missing or empty axis, or the axis of a
    non-finite value, D <= 0 or omega = 0."""
    for key in grid:
        if key not in DEFAULT_VERIFY_GRID:
            raise ValueError(f"unknown verify grid axis {key!r}")
    axes = {}
    for key in DEFAULT_VERIFY_GRID:
        axes[key] = sorted(set(grid[key])) if key in grid else []
        if not axes[key]:
            raise ValueError(f"verify grid axis {key!r} is missing or empty")
        for v in axes[key]:
            if _invalid(key.removesuffix("_sigma"), v):
                raise ValueError(f"verify grid axis {key!r} has invalid value {v!r}")
    return axes


def verify_suite(
    grid: Mapping[str, Sequence[float]] | None = None,
) -> list[CheckRecord]:
    """Compare every closed form against its oracles over a parameter grid.

    grid (default: the library's reference verification grid) maps
    omega_sigma, Omega_sigma, D_sigma and t0_sigma to their values, each
    counted once; any other key set, an empty axis, a non-finite value,
    D <= 0 or omega = 0 raises ValueError before any quadrature.

    Each _Check of _checks() makes a record at each point of its signature:
    signature by signature, point by point (each axis ascending, the first
    outermost), in table order within a point.  Every closed-form value
    comes from one closedform._piece_arrays pass, the array kernel that
    writes every sweep, over the grid points the records read (an axis
    outside a record's signature at its first value); each is the
    standalone piece's value bit for bit.  One _solve integrates each
    distinct integral of the call once (an X_M kernel integral serves
    every (Omega, t0) at its D), by one _gk21 call per value type; each
    record is the standalone oracle's result bit for bit.  A record passes
    when its relative error is within tolerance and its reference oracle
    (and for the X_M consistency row, the compared oracle too) converged.
    oracle_P's calibration is integrated with the rest, so nothing of one
    call outlives it.
    """
    axes = _grid_axes(DEFAULT_VERIFY_GRID if grid is None else grid)
    first = {name: values[0] for name, values in axes.items()}
    # Each record's grid point, and each oracle once per point.
    points, rows, built = [], {}, {}
    for signature, checks in _checks().items():
        for point in itertools.product(*(axes[name] for name in signature)):
            params = tuple(sorted(zip(signature, point)))
            at = {**first, **dict(params)}.values()  # in the axes' order
            row = rows.setdefault(tuple(at), len(rows))
            for check in checks:
                points.append((check, point, params, row))
                for build in (check.value, check.reference):
                    if callable(build) and (build, point) not in built:
                        built[build, point] = build(*point)
    closed = closedform._piece_arrays(*np.array(list(rows)).T)
    _, *estimates = _solve([_calibration(), *built.values()])
    built = dict(zip(built, estimates))
    return [
        _record(
            check,
            params,
            built[check.value, point] if callable(check.value)
            else closed[check.value][row],
            built[check.reference, point],
        )
        for check, point, params, row in points
    ]
