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
- ``D`` becomes one byte per digit, valued 0 to 9, through a table of
  4-digit groups; the highest nonzero byte gives the significant digits;
- the layout is that of ``%g``: fixed notation for exponents -4 to 16,
  ``d.ddde-05`` for -5.  Digits move only for a point after digit 1 or
  later, or for ``e-05``; one table per exponent and digit count adds the
  ``"0"`` bits of the shown digits, the point, prefix, suffix and separator;
- every byte not shown is 0, and one ``bytes.translate`` drops them all.

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

# the decimal exponents of the fast range [1e-5, 1e16); a value's class is
# its exponent + 5
_EXPONENTS = range(-5, 16)
_FAST_LOW, _FAST_HIGH = 10.0 ** _EXPONENTS.start, 10.0 ** _EXPONENTS.stop
_DIGITS = 17
# A value's text is laid out in a slot of three little-endian 64-bit words.
# Byte 0 holds the separator before the value, and the text follows in at
# most 22 bytes ("0.00012345678901234567", "1.2345678901234567e-05").
# Digit 0 is byte 6 and digits 1-8 and 9-16 fill words 1 and 2, so byte 7
# is free for a point after digit 0 and bytes 1-5 for the "0.000" prefix.
_SLOT_BYTES = 24
_FIRST = 6

# 10**(16 - k) per class; class 21 is a value just below 1e16 whose log10
# rounds up to 16
_SCALE = 10.0 ** (16 - np.arange(_EXPONENTS.start, _EXPONENTS.stop + 1))


def _split(a):
    """Veltkamp split: ``a = high + low``, each half 26 bits or less."""
    scaled = 134217729.0 * a  # 2**27 + 1
    high = scaled - (scaled - a)
    return high, a - high


_SCALE_HIGH, _SCALE_LOW = _split(_SCALE)

# numpy's own cast D.astype("S17") gives the same 17 characters, but takes
# about 0.7 ms per 4,096 values against 0.08 ms for this table and
# _digit_words.  The four digits of each g < 10**4, most significant first,
# as the bytes of a little-endian word:
_GROUP_DIGITS = sum(np.arange(10000) // 10 ** (3 - i) % 10 << (8 * i) for i in range(4))


def _layouts():
    """Per class: the bytes that move for the point; per class and digit count: the characters.

    For an exponent of 1 or more, ``m = d & _MOVE[class]`` holds digits 1 to
    exponent of a slot's digits ``d``, and ``d ^ m ^ (m moved down one
    byte)`` moves them next to digit 0, which frees the point's byte.  Then
    ``| _TEXT[17 * class + s - 1]`` adds, for ``s`` significant digits, the
    ``"0"`` bits of each shown digit, the point, the ``0.0`` prefix, the
    ``e-05`` suffix and a ",".  ``%g`` drops trailing zeros of the
    fraction, which are 0 bytes already, and a point with no fraction after
    it, which gets no bits.
    """
    count = len(_EXPONENTS)
    move = np.zeros((count, _SLOT_BYTES), dtype=np.uint8)
    text = np.zeros((count, _DIGITS, _SLOT_BYTES), dtype=np.uint8)
    text[:, :, 0] = ord(",")
    digit = np.arange(_DIGITS)
    significant = np.arange(1, _DIGITS + 1)[:, None]
    for c, exp in enumerate(_EXPONENTS):
        # the integer digits always show; "d.ddde-05" starts 4 bytes lower
        first = _FIRST - 4 * (exp == -5)
        integer = max(exp, 0) + 1
        shown, at = digit < np.maximum(significant, integer), first + digit + (digit >= integer)
        text[c][:, at] |= np.where(shown, ord("0"), 0).astype(np.uint8)
        if -5 < exp < 0:
            prefix = b"0." + b"0" * (-exp - 1)
            text[c, :, _FIRST - len(prefix):_FIRST] = list(prefix)
        else:
            move[c, _FIRST + 2:first + integer + 1] = 0xFF
            text[c, :, first + integer] = np.where(significant[:, 0] > integer, ord("."), 0)
        if exp == -5:
            text[c, :, -4:] = list(b"e-05")
    return [table.reshape(-1, _SLOT_BYTES).view("<u8").astype(np.int64) for table in (move, text)]


_MOVE, _TEXT = _layouts()


def _product(a, exp_class):
    """``a * 10**(21 - exp_class)`` rounded half to even to an integer, exactly."""
    hi = a * _SCALE[exp_class]
    a_high, a_low = _split(a)
    p_high, p_low = _SCALE_HIGH[exp_class], _SCALE_LOW[exp_class]
    lo = a_high * p_high
    lo -= hi
    lo += a_high * p_low
    lo += a_low * p_high
    lo += a_low * p_low
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _scaled_digits(a: np.ndarray):
    """The 17 significant digits ``D`` of each ``a`` in [1e-5, 1e16) and its class.

    ``D`` is ``a * 10**(16 - exp)`` rounded half to even, in [1e16, 1e17).
    The rounding never carries to 10**17: that needs a double within half a
    unit of the 17th digit below a power of ten, and none lies in [1e-5,
    1e16) (the closest are 8e-17 below 1e-1 and 1e-4, relative).  So ``D``
    leaves [1e16, 1e17) exactly where ``log10`` rounded across a power of
    ten.
    """
    # log10 a + 5 >= 0 up to rounding, so the cast takes the floor
    exp_class = (np.log10(a) + 5).astype(np.intp)
    scaled = _product(a, exp_class)
    wrong = np.flatnonzero((scaled - 10**16).view(np.uint64) >= 9 * 10**16)
    while wrong.size:
        exp_class[wrong] += np.where(scaled[wrong] < 10**16, -1, 1)
        scaled[wrong] = _product(a[wrong], exp_class[wrong])
        wrong = wrong[(scaled[wrong] - 10**16).view(np.uint64) >= 9 * 10**16]
    return scaled, exp_class


def _digit_words(scaled):
    """Each ``D`` as one byte per digit at bytes 6 and 8-23 of a slot, and the index of its last nonzero digit."""
    top = scaled // 10**16
    rest = scaled - top * 10**16
    halves = np.empty((2, scaled.size), dtype=np.int64)
    np.floor_divide(rest, 10**8, out=halves[0])
    np.subtract(rest, halves[0] * 10**8, out=halves[1])
    high = halves // 10**4
    # digits 1-8 and 9-16, one word each
    glyphs = _GROUP_DIGITS[high] | _GROUP_DIGITS[halves - high * 10**4] << 32
    words = np.empty((scaled.size, 3), dtype=np.int64)
    np.left_shift(top, 8 * _FIRST, out=words[:, 0])
    words[:, 1], words[:, 2] = glyphs
    # The last nonzero digit is the highest nonzero byte of the 128-bit
    # number ``glyphs[1] * 2**64 + glyphs[0]``, read off the exponent of its
    # float: a digit byte is at most 9, so the float never rounds up into the
    # next byte, and the 0.5 makes 0 read as digit 0.
    last = (glyphs[1] * 2.0**64 + glyphs[0] + 0.5).view(np.int64) >> 52
    return words, (last - 1015) >> 3


def _moved_down(words, count):
    """The slots' bytes as one stream moved ``count`` bytes toward byte 0, with 0 bytes at the end."""
    out = np.empty_like(words)
    stream = out.reshape(-1).view(np.uint8)
    stream[:-count] = words.reshape(-1).view(np.uint8)[count:]
    stream[-count:] = 0
    return out


def format_rows(rows) -> bytes:
    """The ``%.17g`` text of a block of rows: values joined by "," and each row ended by "\\n".

    Byte for byte ``"".join(",".join("%.17g" % v for v in row) + "\\n" for
    row in rows).encode()``; a row of no columns is a bare newline.
    """
    rows = np.asarray(rows, dtype=float)
    m, n = rows.shape
    values = rows.ravel()
    if values.size == 0:
        return b"\n" * m
    if not (values.min() >= _FAST_LOW and values.max() < _FAST_HIGH):
        template = (b",".join([b"%.17g"] * n) + b"\n") * m
        return template % tuple(values.tolist())
    scaled, exp_class = _scaled_digits(values)
    digits, last = _digit_words(scaled)
    if exp_class.min() == 0:
        # "d.ddde-05": the digits move down 4 bytes
        low = exp_class == 0
        digits[low] = _moved_down(digits, 4)[low]
    integer = np.flatnonzero(exp_class >= 6)
    if integer.size:
        # exponents 1 to 15: digits 1 to exponent move down one byte
        part = digits[integer]
        moving = part & np.take(_MOVE, exp_class[integer], axis=0)
        digits[integer] = part ^ moving ^ _moved_down(moving, 1)
    # one slot more for the "\n" that ends the last row
    slots = np.zeros((values.size + 1, 3), dtype=np.int64)
    np.bitwise_or(digits, np.take(_TEXT, _DIGITS * exp_class + last, axis=0), out=slots[:-1])
    slots[n::n, 0] ^= ord(",") ^ ord("\n")
    slots[0, 0] ^= ord(",")
    slots[-1, 0] = ord("\n")
    return slots.tobytes().translate(None, b"\0")
