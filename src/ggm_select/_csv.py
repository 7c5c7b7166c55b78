"""The ``"%.17g"`` text of float64 rows, in array code.

:func:`format_rows` turns a block of rows into exactly the bytes of
``",".join("%.17g" % v for v in row) + "\\n"`` per row, which is how
``samples.csv`` stores its values.  ``%.17g`` round-trips every double;
CPython computes it with correctly rounded binary-to-decimal conversion
(Gay, 1990), so this module reproduces that rounding exactly rather than
approximating it.

For a value ``a`` in [1e-5, 1e16):

- ``k = floor(log10 a)``, corrected where ``log10`` rounds across a power
  of ten;
- the exact product ``a * 10**(16 - k)`` is a Dekker two-product
  ``hi + lo`` (Dekker, Numer. Math. 1971); it is exact because
  ``10**p`` is an exact double for p <= 22;
- the 17 significant digits are ``D = hi + rint(lo)``: ``hi`` is an even
  integer above 2**53, so ``rint`` rounds half to even as ``%.17g`` does;
- ``D`` becomes digit characters through a table of 4-digit groups, and
  the trailing zeros are trimmed;
- the layout is that of ``%g``: fixed notation for exponents -4 to 16,
  ``d.ddde-05`` for -5;
- one boolean gather picks the shown bytes of the whole block.

A block with any other value (zeros, ``-0.0``, anything outside [1e-5,
1e16)) is instead one ``%`` call of the row template
``"%.17g,...,%.17g\\n"`` repeated, which costs what the plain ``%.17g``
writer costs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BLOCK_VALUES", "format_rows"]

# values formatted per call of format_rows by SampleSet.save_csv: large
# enough that the array calls dominate the per-block overhead, small enough
# that the temporaries stay well under 2 MB
BLOCK_VALUES = 4096

# the decimal exponents of the fast range [1e-5, 1e16)
_EXPONENTS = range(-5, 16)
_FAST_LOW, _FAST_HIGH = 10.0 ** _EXPONENTS.start, 10.0 ** _EXPONENTS.stop
_DIGITS = 17
# A value's text is laid out in a slot of four little-endian 64-bit words:
# bytes 0-23 hold the text ("%.17g" of a finite double is at most 24 bytes,
# "-2.2250738585072014e-308"), byte 24 the separator, the rest is unused.
_TEXT_BYTES = 24
_SLOT_BYTES = 32

_POW10 = 10.0 ** np.arange(23)


def _split(a):
    """Veltkamp split: ``a = high + low``, each half 26 bits or less."""
    scaled = 134217729.0 * a  # 2**27 + 1
    high = scaled - (scaled - a)
    return high, a - high


_POW10_HIGH, _POW10_LOW = _split(_POW10)

# numpy's own cast D.astype("S17") gives the same 17 bytes, but takes about
# 1.4 ms per 4,096 values against 0.24 ms for these tables and _digit_words
_GROUP = np.arange(10000)
# the four digits of each g < 10**4, most significant first, as the ASCII
# bytes of a little-endian word
_GROUP_TEXT = sum((_GROUP // 10 ** (3 - i) % 10 + ord("0")) << (8 * i)
                  for i in range(4)).astype(np.uint64)
# the trailing zero digits of each g among its four (4 for g = 0)
_GROUP_ZEROS = sum(_GROUP % 10**i == 0 for i in range(1, 5))


def _layouts():
    """Per decimal exponent: how the 17 digits at bytes 0-16 of a slot become ``%g`` text.

    The digits move up ``lead`` bits; then the bytes from ``point`` on move
    up one more byte, which is ``(text & low) | (text << 8 & high)``;
    ``const`` fills the bytes so freed (the point, the ``0.0`` prefix, the
    ``e-05`` suffix).  ``keep[18 * c + s]`` marks the slot bytes shown for
    exponent class ``c`` when ``s`` digits are significant: ``%g`` drops
    trailing zeros of the fraction and a point with no fraction after it.
    """
    count = len(_EXPONENTS)
    lead = np.zeros(count, dtype=np.uint64)
    low, high, const = np.zeros((3, count, _TEXT_BYTES), dtype=np.uint8)
    keep = np.zeros((count, _DIGITS + 1, _SLOT_BYTES), dtype=bool)
    keep[:, :, _TEXT_BYTES] = True
    position = np.arange(_TEXT_BYTES)
    significant = np.arange(_DIGITS + 1)[:, None]
    for c, exp in enumerate(_EXPONENTS):
        if exp >= 0:
            # fixed notation; the integer digits always show
            prefix, point, suffix = b"", exp + 1, b""
            shown = np.where(significant > point, significant + 1, point)
        elif exp >= -4:
            # fixed notation: "0.", the leading zeros, the digits
            prefix, point, suffix = b"0." + b"0" * (-exp - 1), None, b""
            shown = len(prefix) + significant
        else:
            prefix, point, suffix = b"", 1, b"e-%02d" % -exp
            shown = np.where(significant > 1, significant + 1, 1)
        lead[c] = 8 * len(prefix)
        const[c, :len(prefix)] = list(prefix)
        if point is None:
            low[c] = 0xFF
        else:
            low[c, :point] = 0xFF
            high[c, point + 1:] = 0xFF
            const[c, point] = ord(".")
        end = len(prefix) + _DIGITS + (point is not None)
        const[c, end:end + len(suffix)] = list(suffix)
        keep[c, :, :_TEXT_BYTES] = position < shown
        keep[c, :, end:end + len(suffix)] = True

    def words(table):
        # one row per word: _LOW[word][exp_class] is a plain 1-D gather
        return table.view("<u8").astype(np.uint64).T.copy()

    return lead, words(low), words(high), words(const), keep.reshape(-1, _SLOT_BYTES)


_LEAD, _LOW, _HIGH, _CONST, _KEEP = _layouts()


def _shift_up(words, bits):
    """Shift three words, byte 0 first, up by ``bits`` (< 64 each) toward the last byte."""
    # "w >> 1 >> (63 - bits)" is the carry "w >> (64 - bits)", and 0 for bits = 0
    carry = 63 - bits
    return [words[0] << bits,
            words[1] << bits | words[0] >> 1 >> carry,
            words[2] << bits | words[1] >> 1 >> carry]


def _scaled_digits(a: np.ndarray):
    """The 17 significant digits ``D`` of each ``a`` in [1e-5, 1e16) and its decimal exponent.

    ``D`` is ``a * 10**(16 - exp)`` rounded half to even, in [1e16, 1e17).
    The rounding never carries to 10**17: that needs a double within half a
    unit of the 17th digit below a power of ten, and none lies in [1e-5,
    1e16) (the closest are 8e-17 below 1e-1 and 1e-4, relative).
    """
    exp = np.floor(np.log10(a)).astype(np.int64)
    a_high, a_low = _split(a)
    while True:
        power = 16 - exp
        hi = a * _POW10[power]
        p_high, p_low = _POW10_HIGH[power], _POW10_LOW[power]
        lo = ((a_high * p_high - hi) + a_high * p_low + a_low * p_high) + a_low * p_low
        # hi + lo is the exact product; log10 may round across a power of ten
        below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
        above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
        if not (below.any() or above.any()):
            break
        exp += above
        exp -= below
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64), exp


def _digit_words(scaled):
    """Each ``D`` as ASCII digits at bytes 0-16 of three words, and its significant digit count."""
    high9, low8 = np.divmod(scaled, 10**8)
    top, high8 = np.divmod(high9, 10**8)
    groups = [*np.divmod(high8, 10**4), *np.divmod(low8, 10**4)]
    text = [_GROUP_TEXT[group] for group in groups]
    words = [(top + ord("0")).astype(np.uint64) | text[0] << 8 | text[1] << 40,
             text[1] >> 24 | text[2] << 8 | text[3] << 40,
             text[3] >> 24]
    # trailing zeros of the 17 digits; the first digit is never 0
    zeros = _GROUP_ZEROS[groups[0]]
    for group in groups[1:]:
        zeros = _GROUP_ZEROS[group] + (group == 0) * zeros
    return words, _DIGITS - zeros


def format_rows(rows) -> bytes:
    """The ``%.17g`` text of a block of rows: values joined by "," and each row ended by "\\n".

    Byte for byte ``"".join(",".join("%.17g" % v for v in row) + "\\n" for
    row in rows).encode()``; a row of no columns is a bare newline.
    """
    rows = np.asarray(rows, dtype=float)
    m, n = rows.shape
    if n == 0:
        return b"\n" * m
    values = rows.ravel()
    if not np.all((values >= _FAST_LOW) & (values < _FAST_HIGH)):
        template = (b",".join([b"%.17g"] * n) + b"\n") * m
        return template % tuple(values.tolist())
    scaled, exp = _scaled_digits(values)
    digits, significant = _digit_words(scaled)
    exp_class = exp - _EXPONENTS[0]
    digits = _shift_up(digits, _LEAD[exp_class])
    moved = _shift_up(digits, 8)
    slots = np.empty((values.size, _SLOT_BYTES // 8), dtype="<u8")
    for word in range(3):
        slots[:, word] = (digits[word] & _LOW[word][exp_class]
                          | moved[word] & _HIGH[word][exp_class]
                          | _CONST[word][exp_class])
    slots[:, 3] = ord(",")
    slots[n - 1::n, 3] = ord("\n")
    return slots.view(np.uint8)[_KEEP[(_DIGITS + 1) * exp_class + significant]].tobytes()
