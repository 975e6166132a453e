"""CSV fields of float64 arrays: each double's repr() and a comma, built as
arrays.

repr writes the shortest decimal that reads back as the same double and,
of several, the one closest to it.  Its digits come here from Schubfach
(R. Giulietti, "The Schubfach way to render doubles", 2020; the algorithm
of Java's Double.toString) over a whole array at once.  A table holds
g ~ 10^-k * 2^-r of 126 bits for each decimal exponent k, and three
products of g, each rounded to odd, place the double and the two ends of
its rounding interval on the 10^k grid.  The products are built from
32-bit limbs, so every step is uint64 numpy arithmetic.  A zero takes
1.0's layout with the digit 0.  inf, nan and subnormals go to repr
itself: Java's Schubfach prints at least two digits, where repr prints
5e-324.

Each field is laid out in WORDS uint64 words whose nonzero bytes, in
order, are its text, so no step moves bytes by a per-value amount.  Of
the digits d0 d1 ... d16 (zeros after the last significant one) a field
shows the first `shown`, and the first la come before the point (all of
them when the point is in the prefix):

  word 0     the prefix ("-", "0." and up to three zeros) and d0, right-aligned
  words 1-3  a run of d1 ... d16 with the point inserted: bytes 0 to la - 2
             hold d1 ... d_(la-1), byte la - 1 the "." when la < shown, and
             bytes la to shown - 1 hold d_la ... d_(shown-1), the digits
             shifted by one byte.  The run ends by byte 16 (byte 0 of
             word 3), so byte 17 is always zero.
  word 3     bytes 2-7: the exponent ("e+16", "e-308") and the comma

Python's rule (float_repr_style "short"), with the value 0.d0d1... *
10^decpt: fixed notation for -4 < decpt <= 16, with ".0" after an
integer, and d.ddde±XX with at least two exponent digits otherwise.
"""

from __future__ import annotations

import functools

import numpy as np

WORDS = 4

# Doubles per pass.  A pass holds a few dozen uint64 temporaries of this
# length (about 1.3 MB); passes of 4,096 took 5-10 % less time per double
# than passes of 20,480.
_CHUNK = 4096

_K_MIN, _K_MAX = -324, 292  # decimal exponents k of the normal doubles
_DECPT_BIAS = 330  # decpt of the normal doubles: -307 to 309
_FORMS = range(-4, 18)

_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)
_M63 = _U64((1 << 63) - 1)
_ONE_BITS = _U64(0x3FF0000000000000)


def _flog10pow2(e):
    """floor(log10(2^e)); exact for |e| <= 6,000, beyond any double's e."""
    return (e * 661_971_961_083) >> 41


def _flog10_three_quarters_pow2(e):
    """floor(log10(3/4 * 2^e))."""
    return (e * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2pow10(e):
    """floor(log2(10^e))."""
    return (e * 913_124_641_741) >> 38


def padded_words(texts: list[bytes], words: int, right: bool = False) -> np.ndarray:
    """Each text zero-padded to `words` uint64 words, left- or right-aligned."""
    width = 8 * words
    padded = [t.rjust(width, b"\0") if right else t.ljust(width, b"\0") for t in texts]
    return np.frombuffer(b"".join(padded), _U64).reshape(len(texts), words)


class _Tables:
    """Read-only tables, built once on first use (about 2.5 ms)."""

    def __init__(self) -> None:
        g = []
        for k in range(_K_MIN, _K_MAX + 1):
            r = _flog2pow10(-k) - 125
            if k <= 0:
                exact = 10**-k
                g.append((exact << -r if r <= 0 else exact >> r) + 1)
            else:
                g.append((1 << -r) // 10**k + 1)
        # g = g1 * 2^63 + g0, each half also as its 32-bit limbs.
        g1 = np.array([x >> 63 for x in g], _U64)
        g0 = np.array([x & ((1 << 63) - 1) for x in g], _U64)
        self.g = (g1, g0, g1 & _M32, g1 >> _U64(32), g0 & _M32, g0 >> _U64(32))
        # "0000" to "9999", one uint32 each, and their trailing zeros.
        i = np.arange(10_000)
        text = i[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
        self.quads = text.astype(np.uint8).view(np.uint32)[:, 0]
        self.trailing = sum(i % 10**j == 0 for j in range(1, 5))
        # A field's form is decpt clipped to [-4, 17]: -4 and 17 are
        # exponent notation, -3 to 0 start "0.", 1 to 16 have decpt digits
        # before the point.  Row 10 * (22 * sign + form + 4) + d0 of
        # prefix: the sign, "0." and -form zeros for -3 to 0, and d0.
        self.prefix = padded_words(
            [f"{sign}{'0.' + '0' * -form if -4 < form <= 0 else ''}{d}".encode()
             for sign in ("", "-") for form in _FORMS for d in range(10)],
            1, right=True,
        )[:, 0]
        # Row decpt + _DECPT_BIAS of tail: the exponent and the comma, at
        # bytes 2-7 of word 3.
        tails = [f"e{decpt - 1:+03d}," if decpt <= -4 or decpt > 16 else ","
                 for decpt in range(-_DECPT_BIAS, _DECPT_BIAS)]
        self.tail = padded_words([b"\0\0" + t.encode() for t in tails], 1)[:, 0]
        # Row 17 * (form + 4) + z, for 17 - z significant digits: the byte
        # masks (0xff keeps a digit) A of the digits before the point and B
        # of those after it, each two words over d1 ... d16, then the point
        # in the run's words 1-2.
        masks = []
        for form in _FORMS:
            for z in range(17):
                n = 17 - z
                la = 1 if form in (-4, 17) else n if form <= 0 else form
                shown = n if form <= 0 or form == 17 else max(n, form + 1)
                a = b"\xff" * (la - 1) + bytes(17 - la)
                b = bytes(la - 1) + b"\xff" * (shown - la) + bytes(17 - shown)
                point = bytearray(16)
                if la < shown:
                    point[la - 1] = ord(".")
                masks.append(a + b + point)
        self.masks = np.ascontiguousarray(padded_words(masks, 6).T)
        for value in vars(self).values():
            for array in value if isinstance(value, tuple) else (value,):
                array.flags.writeable = False


@functools.cache
def _tables() -> _Tables:
    return _Tables()


def _mulhi(a_lo, a_hi, b_lo, b_hi):
    """The high 64 bits of a * b, each given as its 32-bit limbs."""
    p00 = a_lo * b_lo
    p01 = a_lo * b_hi
    p10 = a_hi * b_lo
    mid = (p00 >> _U64(32)) + (p01 & _M32) + (p10 & _M32)
    return a_hi * b_hi + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32))


def _round_to_odd(x_hi, y_lo, y_hi):
    """floor(g * cp / 2^127) with its lowest bit set when that drops a
    nonzero fraction, from x = g0 * cp and y = g1 * cp (Giulietti,
    section 9.9)."""
    z = (y_lo >> _U64(1)) + x_hi
    return (y_hi + (z >> _U64(63))) | (((z & _M63) + _M63) >> _U64(63))


def _shifted(x_lo, x_hi, a, shift, sign):
    """x + sign * a * 2^shift on 128 bits, as (lo, hi), for 0 < shift < 64."""
    a_lo, a_hi = a << shift, a >> (_U64(64) - shift)
    if sign > 0:
        lo = x_lo + a_lo
        return lo, x_hi + a_hi + (lo < x_lo)
    return x_lo - a_lo, x_hi - a_hi - (x_lo < a_lo)


def _schubfach(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest decimal (f, k), value = f * 10^k, of each normal double:
    f has 16 or 17 digits, trailing zeros included."""
    biased = (bits >> _U64(52)) & _U64(0x7FF)
    fraction = bits & _U64((1 << 52) - 1)
    c = fraction | _U64(1 << 52)
    q = biased.view(np.int64) - 1075
    # Below a power of two the doubles are half as far apart.
    irregular = (fraction == 0) & (biased > 1)
    k = _flog10pow2(q)
    k[irregular] = _flog10_three_quarters_pow2(q[irregular])
    h = (q + _flog2pow10(-k) + 2).view(_U64)
    row = k - _K_MIN
    g1, g0, g1_lo, g1_hi, g0_lo, g0_hi = (table[row] for table in _tables().g)
    # x = g0 * cp and y = g1 * cp on 128 bits, cp = 4c * 2^h.
    cp = c << (h + _U64(2))
    cp_lo, cp_hi = cp & _M32, cp >> _U64(32)
    x_lo, x_hi = g0 * cp, _mulhi(g0_lo, g0_hi, cp_lo, cp_hi)
    y_lo, y_hi = g1 * cp, _mulhi(g1_lo, g1_hi, cp_lo, cp_hi)
    vb = _round_to_odd(x_hi, y_lo, y_hi)
    # The interval's ends are cp -+ 2 * 2^h (cp - 2^h below a power of
    # two), so their products are x and y -+ g0, g1 shifted.
    ends = []
    for shift, sign in ((h + _U64(1) - irregular, -1), (h + _U64(1), 1)):
        _, xe_hi = _shifted(x_lo, x_hi, g0, shift, sign)
        ends.append(_round_to_odd(xe_hi, *_shifted(y_lo, y_hi, g1, shift, sign)))
    vbl, vbr = ends
    odd = c & _U64(1)  # an even c's interval includes its ends
    vbl += odd
    s = vb >> _U64(2)
    # One digit fewer: 10 floor(s / 10) or that + 10, when exactly one of
    # them rounds back to the double.
    sp10 = s // _U64(10) * _U64(10)
    upin = vbl <= sp10 << _U64(2)
    wpin = ((sp10 + _U64(10)) << _U64(2)) + odd <= vbr
    # Else s or s + 1: the one that rounds back, or the closer (the even
    # one on a tie) when both do.
    uin = vbl <= s << _U64(2)
    win = ((s + _U64(1)) << _U64(2)) + odd <= vbr
    closer = vb + (s & _U64(1)) <= (s << _U64(2)) + _U64(2)
    pick_s = np.where(uin != win, uin, closer)
    f = np.where(upin != wpin, sp10 + _U64(10) * ~upin, s + ~pick_s)
    return f.view(np.int64), k


def _fill(values: np.ndarray, out: np.ndarray) -> None:
    """csv_fields on one pass's worth of rows."""
    tables = _tables()
    bits = values.view(_U64)
    biased = (bits >> _U64(52)) & _U64(0x7FF)
    zero = (bits & _M63) == 0
    special = (biased == 0x7FF) | ((biased == 0) & ~zero)
    # A zero is laid out as 1.0 with d0 = 0, its sign from the prefix.  Any
    # normal double stands in for the special ones: their fields are
    # replaced below.
    f, k = _schubfach(np.where(special | zero, _ONE_BITS, bits))

    # big's 17 digits are d0 ... d16, the value being 0.d0d1... * 10^decpt.
    short = f < 10**16
    big = np.where(short, f * 10, f)
    decpt = k + 17 - short
    hi = big // 10**8
    lo = big - hi * 10**8
    d0 = hi // 10**8
    hi -= d0 * 10**8
    d0 -= zero
    upper, lower = hi // 10**4, lo // 10**4
    groups = (upper, hi - upper * 10**4, lower, lo - lower * 10**4)
    quads = np.empty(values.shape + (4,), np.uint32)
    for j, group in enumerate(groups):
        quads[..., j] = tables.quads[group]
    digits = quads.view(_U64)
    # Trailing zeros of d1 ... d16: a group's count adds on while every
    # group after it is 0000.
    zeros = tables.trailing[groups[3]]
    for after, group in zip((4, 8, 12), groups[2::-1]):
        zeros += (zeros == after) * tables.trailing[group]

    form = np.minimum(np.maximum(decpt, -4), 17) + 4  # the form's row offset
    masks = np.take(tables.masks, 17 * form + zeros, axis=1)
    sign = (bits >> _U64(63)).view(np.int64)
    out[..., 0] = tables.prefix[10 * (22 * sign + form) + d0]
    # The run: the digits of mask A, the point, and those of mask B one
    # byte later, each word's top byte carried into the next word.
    late = digits[..., 0] & masks[2], digits[..., 1] & masks[3]
    for j in (0, 1):
        run = out[..., 1 + j]
        np.bitwise_and(digits[..., j], masks[j], out=run)
        run |= masks[4 + j]
        run |= late[j] << _U64(8)
    out[..., 2] |= late[0] >> _U64(56)
    tail = tables.tail[decpt + _DECPT_BIAS]
    np.bitwise_or(late[1] >> _U64(56), tail, out=out[..., 3])

    if special.any():
        at = np.nonzero(special)
        patterns, inverse = np.unique(bits[at], return_inverse=True)
        texts = [f"{v!r},".encode() for v in patterns.view(np.float64).tolist()]
        out[at] = padded_words(texts, WORDS)[inverse]


def csv_fields(values: np.ndarray, out: np.ndarray) -> None:
    """Lay out repr(v) + "," of each double v of a 2-D array in out.

    values is C-contiguous float64 of shape (rows, columns); out is uint64
    of shape (rows, columns, WORDS), any strides.  Afterwards the nonzero
    bytes of out[i, j], in memory order, are the ASCII of repr(values[i,
    j]) followed by a comma.
    """
    step = max(1, _CHUNK // values.shape[1])
    for start in range(0, len(values), step):
        _fill(values[start : start + step], out[start : start + step])
