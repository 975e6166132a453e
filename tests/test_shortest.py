"""The CSV float fields of _shortest against repr(), the text they replace."""

from decimal import Decimal

import numpy as np

from gwharvest import _shortest


def _fields(values):
    """The text csv_fields lays out for each double of values."""
    values = np.ascontiguousarray(values, dtype=float).reshape(-1, 1)
    out = np.zeros(values.shape + (_shortest.WORDS,), np.uint64)
    _shortest.csv_fields(values, out)
    rows = out.view(np.uint8).reshape(len(values), -1)
    return [row[row != 0].tobytes().decode("ascii") for row in rows]


def _doubles(fraction, biased, sign):
    return ((sign << 63) | (biased << 52) | fraction).view(np.float64)


def test_csv_fields_are_repr_and_a_comma():
    rng = np.random.default_rng(31)
    n = 20_000
    fraction = rng.integers(0, 1 << 52, n, dtype=np.uint64)
    sign = rng.integers(0, 2, n, dtype=np.uint64)
    values = [
        # Random bit patterns: any double, normals of every exponent,
        # subnormals, and normals with few significant bits.
        rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True).view(float),
        _doubles(fraction, rng.integers(1, 2047, n, dtype=np.uint64), sign),
        _doubles(fraction, np.uint64(0), sign),
        _doubles(fraction & ~np.uint64((1 << 44) - 1),
                 rng.integers(1, 2047, n, dtype=np.uint64), sign),
        # Every power of two and of ten a double holds, and their
        # neighbours: below a power of two the doubles are denser.
        2.0 ** np.arange(-1074, 1024),
        np.nextafter(2.0 ** np.arange(-1022, 1024), 0.0),
        np.nextafter(2.0 ** np.arange(-1022, 1023), np.inf),
        [float(f"1e{e}") for e in range(-323, 309)],
        # Subnormals of significand 1-20, where Java's Schubfach keeps two
        # digits (4.9e-324) and repr one (5e-324).
        np.arange(1, 21) * 2.0**-1074,
        # Integers near +-2^53, and decimals with ties at their last digit.
        2.0**53 + np.arange(-300, 300),
        -(2.0**53) + np.arange(-300, 300),
        (rng.integers(10**15, 10**16, n) * 10 + 5) * 10.0 ** rng.integers(-8, 8, n),
        # The switches between fixed and exponent notation, three-digit
        # exponents, the largest and smallest normals, zeros, inf and nan.
        [0.0001, 1e-05, 0.00011, 9.9e-05, 9999999999999998.0, 1e16,
         1234567890123456.7, 1.2e16, 123.0, 0.5, 1e100, 1.5e-100,
         1.7976931348623157e308, 2.2250738585072014e-308,
         0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan],
    ]
    values = np.concatenate([np.asarray(v, dtype=float) for v in values])
    assert np.signbit(values[-1]) and np.isnan(values[-1])
    expected = [f"{v!r}," for v in values.tolist()]
    assert _fields(values) == expected


def test_zeros_beside_repr_fields_in_every_column():
    # Zeros take the digit path, subnormals, inf and nan repr's, so a row
    # mixes both; every value visits every column of a 2-D call.
    rng = np.random.default_rng(36)
    kinds = [0.0, -0.0, 5e-324, -2.2250738585072e-308, np.inf, -np.inf,
             np.nan, 1.0, -0.5, 1e-300]
    random = rng.integers(0, 2**64 - 1, 5000, dtype=np.uint64, endpoint=True)
    values = np.concatenate([kinds, random.view(float)])
    columns = len(kinds)
    table = np.stack([np.roll(values, j) for j in range(columns)], axis=1)
    out = np.zeros(table.shape + (_shortest.WORDS,), np.uint64)
    _shortest.csv_fields(np.ascontiguousarray(table), out)
    text = out.view(np.uint8).reshape(len(table), -1)
    for row, fields in zip(table.tolist(), text):
        assert fields[fields != 0].tobytes().decode() == "".join(
            f"{v!r}," for v in row
        )


def _significant_digits(text):
    return len(Decimal(text).normalize().as_tuple().digits)


def test_longest_field_of_every_form():
    # Each form -4 ... 17 (decpt clipped to that range) at 17 significant
    # digits, of both signs: the most bytes its layout holds.  The
    # exponent and the comma sit at a fixed offset after the digit run,
    # so a run one byte too long would run into them.
    longest = [float(f"0.12345678901234567e{decpt}")
               for decpt in [-306, *range(-4, 18), 309]]
    assert all(_significant_digits(repr(v)) == 17 for v in longest)
    values = [s * v for v in longest for s in (1.0, -1.0)]
    values += [-0.0001234567890123456, -1.2345678901234567e-308, 1234567890123456.0]
    fields = _fields(values)
    assert fields == [f"{v!r}," for v in values]
    assert max(map(len, fields)) == len("-1.2345678901234568e-307,")
    assert all(len(field) <= 8 * _shortest.WORDS for field in fields)
    # The run ends by byte 16: byte 17, just before the exponent, is zero.
    out = np.zeros((len(values), 1, _shortest.WORDS), np.uint64)
    _shortest.csv_fields(np.array(values).reshape(-1, 1), out)
    assert not (out.view(np.uint8)[:, 0, 8 * 3 + 1]).any()
