"""Python's repr text of float64 values, formed a block at a time in numpy.

repr(float) writes the shortest decimal that reads back to the same double
(the closest such decimal, ties to an even last digit) and lays it out as
CPython does: scientific notation for magnitudes below 1e-4 or from 1e16
up, with a signed exponent of at least two digits; otherwise positional
notation with ".0" on integral values; "nan", "inf" and "-inf" for the
rest.  `rows_text` forms that text for the columns of a block of CSV rows
with whole-array operations, so a block costs a few hundred numpy calls
whatever its length.

The digits come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020): the double's rounding interval is scaled by a 126-bit
power of ten g, and the shortest decimal in it is one of four candidates.
The scaling needs 64 x 64 -> 128-bit products, formed here from 32-bit
limbs; the interval's ends differ from the value by a power of two times
g, so their products are the value's product plus or minus a shifted g.
Unlike Java's Double.toString, which prints at least two digits, the port
tries the one-digit-shorter candidate from two digits up and does not
rescale the smallest subnormals, so 5e-324 stays one digit, as in repr.

The text is laid out in one uint8 buffer per block, filled with '0': the
field lengths follow from each value's digit count and decimal point, their
prefix sums give each field's offset, and every character but the zeros
that the layout pads with is written there by a scatter over all fields.
"""

from __future__ import annotations

import functools

import numpy as np

_U = np.uint64
_K_MIN, _K_MAX = -324, 292  # decimal exponents of the table of g
_M32 = _U(0xFFFFFFFF)
_M63 = _U((1 << 63) - 1)
_T_MASK = _U((1 << 52) - 1)
_SIGN = _U(1 << 63)
_INF = _U(0x7FF << 52)
_ONE = _U(0x3FF << 52)  # the bits of 1.0
_P10 = np.array([10**i for i in range(18)], dtype=np.uint64)
_ASCII_ZEROS = _U(0x3030303030303030)
# bytes written past a field's end stay within this many bytes of its start
_REACH = 32


@functools.cache
def _g_table() -> np.ndarray:
    """g = floor(10^-k * 2^(125 - floor(-k log2 10))) + 1 as rows g >> 63 and g mod 2^63.

    Column k - _K_MIN holds k's pair.  Built from Python integers on first
    use, so importing the module costs nothing.
    """
    table = np.empty((2, _K_MAX - _K_MIN + 1), dtype=np.uint64)
    for k in range(_K_MIN, _K_MAX + 1):
        if k <= 0:
            r = 126 - (10**-k).bit_length()
            beta = 10**-k << r if r >= 0 else 10**-k >> -r
        else:
            beta = (1 << (125 + (10**k).bit_length())) // 10**k
        g = beta + 1
        table[:, k - _K_MIN] = g >> 63, g & ((1 << 63) - 1)
    return table


def _mul(a, b):
    """(hi, lo) 64-bit halves of a * b, elementwise, from 32-bit limbs."""
    b_lo, b_hi = b & _M32, b >> _U(32)
    lh = a & _M32
    mid = lh * b_lo
    mid >>= _U(32)
    lh *= b_hi
    hh = a >> _U(32)
    hl = hh * b_lo
    hh *= b_hi
    mid += lh & _M32
    mid += hl & _M32
    lh >>= _U(32)
    hl >>= _U(32)
    mid >>= _U(32)
    hh += lh
    hh += hl
    hh += mid
    return hh, a * b


def _round_to_odd(y1, y0, x1):
    """Schubfach's rop: floor(g * cp / 2^127), odd when inexact.

    (y1, y0) are the halves of g1 * cp and x1 the high half of g0 * cp,
    where g = g1 * 2^63 + g0.
    """
    z = (y0 >> _U(1)) + x1
    return (y1 + (z >> _U(63))) | ((z & _M63) != 0)


def _interval(bits):
    """Schubfach's scaled value and interval ends, for finite nonzero doubles |v| = c * 2^q.

    Returns (vbl, vb, vbr, k, odd): four times v / 10^k and its interval's
    ends, each rounded to odd, the decimal exponent k, and whether c is
    odd (an odd c's interval excludes its ends).  bits holds the doubles
    with their sign bits clear.
    """
    bq = (bits >> _U(52)).astype(np.int64)
    c = bits & _T_MASK
    # at a power of two the interval below v is half as wide as above
    irregular = (c == _U(0)) & (bq > 1)
    c |= (bq > 0).astype(np.uint64) << _U(52)
    q = np.maximum(bq, 1, out=bq)
    q -= 1075
    # k = floor(log10 of 2^q, or of 3/4 2^q when irregular), and below
    # h = q + floor(-k log2 10) + 2, by Schubfach's fixed-point products,
    # exact over every exponent of a double
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    q += (-k * 913124641741) >> 38
    h = (q + 2).astype(np.uint64)
    del bq, q
    g1, g0 = _g_table()[:, k - _K_MIN]  # g = g1 * 2^63 + g0
    k = k.astype(np.int16)
    odd = (c & _U(1)).astype(bool)
    c <<= h + _U(2)  # cp = 4c << h
    y1, y0 = _mul(g1, c)
    x1, x0 = _mul(g0, c)
    del c
    vb = _round_to_odd(y1, y0, x1)
    # The ends are cp + (2 << h) and cp - (2 << h), or cp - (1 << h) when
    # irregular: g times such a power of two is g shifted, added to or taken
    # from the 128-bit products with cp.
    h += _U(1)
    back = _U(64) - h
    lo = y0 + (g1 << h)
    x_lo = x0 + (g0 << h)
    vbr = _round_to_odd(y1 + (g1 >> back) + (lo < y0), lo, x1 + (g0 >> back) + (x_lo < x0))
    h -= irregular
    back += irregular
    np.subtract(y0, g1 << h, out=lo)
    np.subtract(x0, g0 << h, out=x_lo)
    vbl = _round_to_odd(y1 - (g1 >> back) - (lo > y0), lo, x1 - (g0 >> back) - (x_lo > x0))
    return vbl, vb, vbr, k, odd


def _shortest(bits):
    """Decimal significand f and exponent k of finite nonzero doubles |v| = f * 10^k.

    f is the shortest decimal significand in the rounding interval of v,
    the closest to v among those, an even one on a tie.  bits holds the
    doubles with their sign bits clear.
    """
    vbl, vb, vbr, k, odd = _interval(bits)
    vbl += odd
    vbr -= odd
    del odd
    s = vb >> _U(2)
    # one digit shorter: the multiples of ten around s, if just one is inside
    sp10 = s // _U(10) * _U(10)
    upin = vbl <= sp10 << _U(2)
    shorter = upin != ((sp10 + _U(10)) << _U(2) <= vbr)
    shorter &= s >= _U(10)
    sp10 += _U(10) * ~upin
    del upin
    # full length: s or s + 1, the one inside, else the closer, else the even
    uin = vbl <= s << _U(2)
    win = (s + _U(1)) << _U(2) <= vbr
    del vbl, vbr
    vb -= (s << _U(2)) + _U(2)
    cmp = vb.view(np.int64)
    take_s = np.where(uin != win, uin, (cmp < 0) | ((cmp == 0) & ((s & _U(1)) == 0)))
    s += ~take_s
    return np.where(shorter, sp10, s), k


def _eight_digits(x):
    """Decimal digits of x < 10^8 in the bytes of a little-endian uint64, most significant first.

    Works in place: x becomes the result.
    """
    lanes = x // _U(10000)
    x -= lanes * _U(10000)
    x <<= _U(32)
    x |= lanes  # two 4-digit lanes
    lanes = (x * _U(10486)) >> _U(20)
    lanes &= _U(0x7F0000007F)  # each lane // 100
    x -= _U(100) * lanes
    x <<= _U(16)
    x += lanes  # four 2-digit lanes
    lanes = (x * _U(103)) >> _U(10)
    lanes &= _U(0x000F000F000F000F)  # each lane // 10
    x -= _U(10) * lanes
    x <<= _U(8)
    x += lanes
    return x


def _significant_bytes(w):
    """Index of the highest nonzero byte of w plus one (0 for 0), for bytes of at most 9."""
    return (np.frexp(w.astype(np.float64))[1] + 7) >> 3


def _digits(bits, f, k):
    """The digits of doubles |v| = f * 10^k, and what their layout needs.

    Returns (digit, n, d, neg, finite): |v| = 0.D * 10^d with the 17
    digits D, of which the first n are significant, as 17 rows of ASCII
    bytes (digit[j] holds digit j of every value); 0.0 is a single '0'
    with d = 1, and nan and inf are their three letters with d = 3.
    """
    neg = bits >= _SIGN
    bits = bits & ~_SIGN
    finite = bits < _INF
    nan = bits > _INF
    neg &= ~nan
    regular = finite & (bits != _U(0))
    del bits
    digits_in_f = np.searchsorted(_P10, f, side="right")
    d = np.where(regular, k + digits_in_f, np.where(finite, 1, 3)).astype(np.int16)
    full = np.where(regular, f * _P10[17 - digits_in_f], _U(0))
    del digits_in_f
    first = full // _U(10**16)
    full -= first * _U(10**16)
    high = full // _U(10**8)
    full -= high * _U(10**8)
    words = _eight_digits(np.stack([high, full]))
    del full, high
    tail = _significant_bytes(words[1])
    n = np.where(finite, np.where(tail > 0, 9 + tail, 1 + _significant_bytes(words[0])), 3).astype(np.int16)
    words += _ASCII_ZEROS
    words[0] = np.where(finite, words[0], np.where(nan, _U(0x3030303030306E61), _U(0x303030303030666E)))
    first = np.where(finite, first + _U(48), np.where(nan, ord("n"), ord("i"))).astype(np.uint8)
    rows = words.astype("<u8", copy=False).view(np.uint8).reshape(2, -1, 8).transpose(0, 2, 1).reshape(16, -1)
    return [first, *rows], n, d, neg, finite


def rows_text(columns, source) -> str:
    """CSV rows whose field i is repr(float(v)) of the value in columns[source[i]].

    columns are float64 arrays of one length; the shortest digits of each
    are found once, however many fields repeat it.  Fields are separated
    by ',' and each row ends in a newline.
    """
    rows, width = len(columns[0]), len(source)
    values = np.concatenate(columns).view(np.uint64)
    mag = values & ~_SIGN
    f, k = _shortest(np.where((mag != _U(0)) & (mag < _INF), mag, _ONE))
    del mag
    # the fields in text order: row by row, each row's fields in order
    field = (np.asarray(source)[None, :] * rows + np.arange(rows)[:, None]).ravel()
    digit, n, d, neg, finite = _digits(values[field], f[field], k[field])
    del values, f, k, field

    sci = (d < -3) | (d > 16)
    lead = np.where(sci, 0, np.maximum(0, 1 - d))  # zeros before the first digit
    point = np.where(sci, 1, np.maximum(d, 1))  # places before the '.', counting those zeros
    split = point - lead  # digits before the '.'
    mantissa = np.where(sci, n + (n > 1), np.maximum(lead + n, point) + 1 + (point >= lead + n))
    exp10 = np.abs(d - 1)
    exp_width = 2 + (exp10 >= 100)
    lengths = np.where(finite, neg + mantissa + sci * (2 + exp_width), neg + 3)
    ends = np.cumsum(lengths + 1)
    size = int(ends[-1])
    start = ends - (lengths + 1)
    # Fields are written at their starts into a buffer of '0's.  A mark that
    # a field does not have goes to scratch bytes past the text.
    buf = np.full(size + 2 * _REACH, ord("0"), dtype=np.uint8)
    scratch = size + _REACH
    # Every digit is first written as if after the '.', last digit first,
    # then those before the '.' are written one place back.  Digits past
    # the n significant ones are '0's, and may land in the next fields,
    # whose own digits at those places come later in the same loop.
    base = start + neg + lead
    pos = base + 17
    for j in reversed(range(17)):
        buf[pos] = digit[j]
        pos -= 1
    for j in range(int(split.max())):
        buf[np.where(split > j, base + j, scratch)] = digit[j]
    del pos, base, digit
    buf[np.where(finite, start + neg + point, scratch)] = ord(".")
    buf[np.where(neg, start, scratch)] = ord("-")
    e = np.where(sci, start + neg + mantissa, scratch)
    tens = exp10 // 10
    hundreds = tens // 10
    ones = e + exp_width + 1
    buf[ones - 2] = hundreds + 48  # on the exponent's sign when it has two digits
    buf[ones - 1] = tens - 10 * hundreds + 48
    buf[ones] = exp10 - 10 * tens + 48
    buf[e + 1] = np.where(d < 1, ord("-"), ord("+"))
    buf[e] = ord("e")  # on the '.' of a one-digit mantissa
    ends -= 1
    buf[ends] = ord(",")
    buf[ends[width - 1 :: width]] = ord("\n")
    return str(buf[:size], "ascii")
