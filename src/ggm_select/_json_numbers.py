"""The number arrays of a JSON text, converted in array code.

:func:`cut_number_arrays` is the reverse of :mod:`._csv`: it takes the
UTF-8 bytes of a JSON file and finds every array, outside strings, whose
elements are all JSON numbers of at most 15 digits and a net power of ten
within +-22.  It converts them all at once and returns the text with each
such array replaced by the string ``"\\u0000<k>"``, together with a dict
from each such string (as ``json.loads`` decodes it) to the float64 array
it stands for.  Every other array (one holding a 17-digit repr, ``NaN``, a
boolean or another array, or an empty one) stays in the text.

A number is converted as Clinger's exact case ("How to read floating
point numbers accurately", PLDI 1990): its digits form an integer M below
10**15, which a double holds exactly, and 10**p is exact for |p| <= 22, so
``M * 10**p`` or ``M / 10**-p`` is one correctly rounded operation and
equals ``float(token)`` bit for bit.  A token without a fraction or an
exponent is a JSON integer, and reads as ``float(int(token))``, so ``-0``
gives +0.0 as ``json`` and :func:`._inputs.number_array` give it.

How the tokens are read, in the spirit of the bulk number scanning of
Langdale & Lemire ("Parsing gigabytes of JSON per second", VLDB J. 2019):

- a quote opens or closes a string, because the text holds no backslash;
  a bracket after an even number of quotes is outside strings, and an
  ``[`` followed by a ``]`` is an array holding no other array;
- the text is translated to one class code per byte (digits to their
  value, other bytes to a class in the high nibble), and each token, the
  bytes between two separators, is read as the two 64-bit words of codes
  that end at its closing separator;
- the class nibbles of those 16 bytes, with the bytes before the token
  marked, are the token's shape; shapes are hashed into a table, and each
  distinct shape is checked against the JSON number grammar once;
- the digits are summed eight bytes at a time with three multiplications
  (Lemire's SWAR method), the decimal point is taken out of the sum, and
  the sign, the power of ten and the integer rule come from the shape.

A token longer than 16 bytes after its leading whitespace, or whose shape
lands on a hash slot another shape holds, makes its array stay in the text.
"""

from __future__ import annotations

import re
import threading

import numpy as np

__all__ = ["cut_number_arrays"]

# tokens converted per call of _convert: its temporaries stay near 2 MB
_BLOCK = 1 << 15
_WIDTH = 16  # bytes of a token's window, two 64-bit words
_MAX_DIGITS = 15  # below 10**15, and so below 2**53
_MAX_POWER = 22  # 10**22 is the largest exact power of ten

# one code per byte: a digit's value, or a class in the high nibble
_POINT, _MINUS, _PLUS, _EXPONENT, _SPACE, _SEPARATOR, _OTHER = 0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70
_CODES = bytearray([_OTHER]) * 256
_CODES[ord("0"):ord("9") + 1] = bytes(range(10))
for _chars, _code in ((b".", _POINT), (b"-", _MINUS), (b"+", _PLUS), (b"eE", _EXPONENT),
                      (b" \t\n\r", _SPACE), (b',[]"', _SEPARATOR)):
    for _char in _chars:
        _CODES[_char] = _code
_CODES = bytes(_CODES)
_OUTSIDE = 0xF  # the class nibble of a window byte before its token; no code has it

_U = np.uint64
_ALL = 2**64 - 1
_CLASS = _U(0xF0F0F0F0F0F0F0F0)
# A token's key holds the class nibbles of its window, byte b of the key
# the class of window byte b (low nibble) and of byte b + 8 (high nibble);
# _BEFORE[L] marks the window bytes before a token of length L (17: longer);
# an empty or longer token gets one byte of class "other", so that no key
# has 0xF in every nibble and _EMPTY can mark a slot without a key
_BEFORE = np.array([sum(_OUTSIDE << (4 * (p >= 8) + 8 * (p % 8)) for p in range(_WIDTH - min(length, _WIDTH)))
                    if 0 < length <= _WIDTH else _ALL ^ 0x9 for length in range(_WIDTH + 2)], dtype=_U)


def _bytes(first: int, end: int, word: int) -> int:
    """The value nibbles of window bytes ``first`` to ``end`` (exclusive) in word ``word``."""
    return sum(0xF << 8 * (p - 8 * word) for p in range(max(first, 8 * word), min(end, 8 * word + 8)))


_HASH = _U(0x9E3779B97F4A7C15)
_SLOTS = 1 << 16
_EMPTY = _U(_ALL)  # no key has it
_POW10 = 10.0 ** np.arange(_MAX_POWER + 1)

# a token's classes as text: "0" any digit, "e" e or E, " " JSON whitespace
_SHAPE_CHARS = {**dict(zip(range(8), "0.-+e ??")), _OUTSIDE: ""}
_GRAMMAR = re.compile(r"( *)(-?)(0+)(?:\.(0+))?(?:e([-+]?)(0+))?( *)")


def _shape(key: int):
    """What the tokens of one key need, or None if they are not numbers this module reads.

    A plain token's mantissa (at most 8 bytes, one integer digit, a point
    and fraction digits or none) ends its window.  Of its window's second
    word, the bytes ``stay`` hold the digits after the point (all digits
    without one) and the byte ``move`` the digit before it, which moves up
    into the point's byte; its value is the mantissa divided by ``scale``,
    its sign times 10 to its fraction digits.  Any other token is read
    again from the window that ends at its mantissa, which then starts at
    ``first``:
    ``end`` is the mantissa's end in the token's own window, the exponent
    ends ``trail`` bytes before the token, a mantissa below ``least`` has a
    leading zero, and ``zero`` is added to the value: +0.0 turns the -0.0
    of ``-0`` into +0.0 as ``int`` does, -0.0 changes nothing.
    """
    nibbles = [(key >> 8 * (p % 8) + 4 * (p >= 8)) & 0xF for p in range(_WIDTH)]
    text = "".join(_SHAPE_CHARS[nibble] for nibble in nibbles)
    match = _GRAMMAR.fullmatch(text)
    if not match:
        return None
    lead, minus, whole, fraction, exp_sign, exponent, trail = (group or "" for group in match.groups())
    digits = len(whole) + len(fraction)
    if digits > _MAX_DIGITS or len(exponent) > 3:
        return None
    first = _WIDTH - len(text) + len(lead) + len(minus)
    point = first + len(whole)
    end = point + (len(fraction) + 1 if fraction else 0)
    integer = not (fraction or exponent)
    scale = (-1.0 if minus else 1.0) * 10.0 ** len(fraction)
    plain = end == _WIDTH and first >= 8 and len(whole) == 1 and not (integer and minus)
    move = _bytes(first, point, 1) if fraction else 0
    return dict(plain=plain, stay=_bytes(first, end, 1) & ~move & ~_bytes(point, point + 1, 1), move=move,
                scale=scale, divisor=10 ** len(fraction) if fraction else 10**16,
                first=first + _WIDTH - end, end=end,
                digits=len(fraction), exp_sign=-1 if exp_sign == "-" else 1, exp_digits=len(exponent),
                trail=len(trail), least=10 ** (digits - 1) if len(whole) > 1 else 0, zero=0.0 if integer else -0.0)


# what a key that is not a number reads as: no token of it is taken
_NO_SHAPE = dict(_shape(int(_BEFORE[1])), plain=None)  # the shape of "0"


class _Slots:
    """Token keys hashed into ``_SLOTS`` slots, each slot holding the shape of one key.

    Row ``s`` of ``plain`` holds the key of slot ``s`` if its tokens are
    plain numbers (see :func:`_shape`), then their ``stay`` and ``move``
    masks and the bits of their ``scale``; ``other[s]`` is the key if they
    are other numbers, whose shape is ``shapes[ids[s]]``.  A token whose
    key is in neither is not read here: not a number, or a key whose slot
    holds another key.
    """

    _OTHER_FIELDS = ("divisor", "scale", "first", "end", "digits", "exp_sign", "exp_digits", "trail",
                     "least", "zero")

    def __init__(self):
        self.plain = np.full((_SLOTS, 4), _EMPTY)
        self.read, self.other = np.full((2, _SLOTS), _EMPTY)
        self.ids = np.zeros(_SLOTS, np.intp)
        self.shapes, self.known, self.columns = [None], {}, None

    @staticmethod
    def slots(keys):
        return (keys * _HASH >> _U(48)).view(np.intp)

    def learn(self, keys, slots) -> bool:
        """Read the shape of each key its slot does not hold; the last key for a slot wins it."""
        new = self.read[slots] != keys
        if not new.any():
            return False
        self.read[slots[new]] = keys[new]
        for slot in np.unique(slots[new]).tolist():
            key = int(self.read[slot])
            if key not in self.known:
                self.known[key] = len(self.shapes)
                self.shapes.append(_shape(key))
                self.columns = None
            shape = self.shapes[self.known[key]] or _NO_SHAPE
            self.ids[slot] = self.known[key]
            scale = np.float64(shape["scale"]).view(_U)
            self.plain[slot] = (key if shape["plain"] else _EMPTY, shape["stay"], shape["move"], scale)
            self.other[slot] = key if shape["plain"] is False else _EMPTY
        return True

    def other_columns(self, slots):
        """The other-shape fields of :func:`_shape` for the tokens of ``slots``."""
        if self.columns is None:
            shapes = [shape or _NO_SHAPE for shape in self.shapes]
            self.columns = [np.array([shape[f] for shape in shapes]) for f in self._OTHER_FIELDS]
        ids = self.ids[slots]
        return [column[ids] for column in self.columns]


# one table per thread, kept across the files a thread reads: a table is
# 3.5 MB to allocate, and a dump's files share their shapes (about 40 for
# the benchmark dump); keys and strings add shapes too, so a table that has
# learned more than _MAX_SHAPES is replaced rather than kept growing
_LOCAL = threading.local()
_MAX_SHAPES = 1 << 12


def _slots() -> _Slots:
    """This thread's shape table."""
    slots = getattr(_LOCAL, "slots", None)
    if slots is None or len(slots.shapes) > _MAX_SHAPES:
        slots = _LOCAL.slots = _Slots()
    return slots


_FROM = np.array([[_bytes(p, _WIDTH, word) for word in range(2)] for p in range(_WIDTH + 1)], dtype=_U)
_TOP = np.array([_bytes(_WIDTH - n, _WIDTH, 1) for n in range(9)], dtype=_U)


def _keys(windows, codes, starts, ends):
    """The windows of the tokens ``starts``-``ends`` (two words a row) and their keys.

    A key holds the class nibbles of its token's window with the bytes
    before the token marked.  A token longer than its window has its
    leading whitespace stepped over, in ``starts``.
    """
    lengths = ends - starts
    long = np.flatnonzero(lengths > _WIDTH)
    while long.size:
        long = long[codes[starts[long] + _WIDTH] == _SPACE]
        starts[long] += 1
        lengths[long] -= 1
        long = long[lengths[long] > _WIDTH]
    window = windows[ends].view("<u8").reshape(-1, 2)
    keys = window[:, 0] & _CLASS
    keys >>= _U(4)
    keys |= window[:, 1] & _CLASS
    keys |= np.take(_BEFORE, np.minimum(lengths, _WIDTH + 1))
    return window, keys


def _eight_digits(words):
    """The integer whose decimal digits are the value nibbles of each word, byte 0 first; in place."""
    for factor, shift, mask in ((2561, 8, 0x00FF00FF00FF00FF), (6553601, 16, 0x0000FFFF0000FFFF),
                                (42949672960001, 32, 0xFFFFFFFF)):
        words *= _U(factor)
        words >>= _U(shift)
        words &= _U(mask)
    return words


def _convert(windows, codes, separators, store: _Slots):
    """The value of each plain token between consecutive ``separators``, and whether it is one."""
    window, keys = _keys(windows, codes, separators[:-1] + 1, separators[1:])
    slots = store.slots(keys)
    shape = np.take(store.plain, slots, 0)
    ok = shape[:, 0] == keys
    if not ok.all() and store.learn(keys[~ok], slots[~ok]):
        shape = np.take(store.plain, slots, 0)
        ok = shape[:, 0] == keys
    low = window[:, 1].copy()
    # the point's byte gives way to the integer digit below it
    digits = low & shape[:, 1]
    low &= shape[:, 2]
    low <<= _U(8)
    digits |= low
    values = _eight_digits(digits).astype(float)
    values /= shape[:, 3].view(float)
    return values, ok


def _other_values(windows, words, codes, starts, ends, store: _Slots):
    """Values of the tokens ``starts``-``ends`` of other shapes (see :func:`_shape`), and whether each is one."""
    _, keys = _keys(windows, codes, starts, ends)
    slots = store.slots(keys)
    divisor, scale, first, end, digits, exp_sign, exp_digits, trail, least, zero = store.other_columns(slots)
    parts = _eight_digits(windows[ends - (_WIDTH - end)].view("<u8").reshape(-1, 2) & np.take(_FROM, first, 0))
    total = parts[:, 0] * _U(100_000_000) + parts[:, 1]
    fraction = total % divisor.astype(_U)  # the point's byte sums as a zero digit
    mantissa = (total - fraction) // _U(10) + fraction
    exponent = _eight_digits(words[ends - trail + 8] & _TOP[exp_digits]).view(np.intp)
    power = exp_sign * exponent - digits
    ok = (np.abs(power) <= _MAX_POWER) & (mantissa >= least.astype(_U)) & (store.other[slots] == keys)
    power = np.clip(power, -_MAX_POWER, _MAX_POWER)
    values = mantissa.astype(float) * _POW10[np.maximum(power, 0)]
    values /= np.sign(scale) * _POW10[np.maximum(-power, 0)]
    return values + zero, ok


def _arrays(text: np.ndarray, separators: np.ndarray):
    """Where each array outside strings that holds no other array opens and closes in ``separators``."""
    marks = np.flatnonzero(text[separators] != ord(","))
    kinds = text[separators[marks]]
    quotes = separators[marks[kinds == ord('"')]]
    brackets = marks[kinds != ord('"')]
    brackets = brackets[np.searchsorted(quotes, separators[brackets]) % 2 == 0]
    opens = text[separators[brackets]] == ord("[")
    first = np.flatnonzero(opens[:-1] & ~opens[1:])
    opens, closes = brackets[first], brackets[first + 1]
    # a string stands where a value or a key stands; an array only where a value does
    after = separators[closes] + 1
    while True:
        space = np.flatnonzero(after < text.size)
        space = space[np.isin(text[after[space]], (0x20, 0x09, 0x0A, 0x0D))]
        if not space.size:
            break
        after[space] += 1
    value = text[np.minimum(after, text.size - 1)] != ord(":")
    return opens[value], closes[value]


def cut_number_arrays(data: bytes):
    """``(text, arrays)``: the text of ``data`` with its number arrays cut out, and those arrays.

    ``text`` is ``data`` decoded as UTF-8 with each array this module reads
    replaced by the JSON string ``"\\u0000<k>"``; ``arrays`` maps each such
    string, as ``json.loads`` reads it, to its float64 array.  Raises
    ValueError for bytes holding a backslash, where quotes no longer tell
    strings apart, and UnicodeDecodeError for text that is not UTF-8.
    Without a backslash, no string of the text can read as U+0000, since
    ``json`` refuses a raw control character in a string, so a string that
    starts with U+0000 is one of these.
    """
    if b"\\" in data:
        raise ValueError("the text holds a backslash")
    codes = bytes([_OTHER]) * _WIDTH + data.translate(_CODES)
    code_bytes = np.frombuffer(codes, np.uint8)
    separators = np.flatnonzero(code_bytes == _SEPARATOR) - _WIDTH
    opens, closes = _arrays(np.frombuffer(data, np.uint8), separators)
    # token i lies between separators i and i + 1; array k holds tokens opens[k] to closes[k] - 1
    windows = np.ndarray((len(codes) - 15,), "V16", codes, strides=(1,))
    values, ok = np.empty(separators.size), np.zeros(separators.size, bool)
    store = _slots()
    for at in range(0, separators.size - 1, _BLOCK):
        block = slice(at, min(at + _BLOCK, separators.size - 1))
        values[block], ok[block] = _convert(windows, code_bytes, separators[at:at + _BLOCK + 1], store)
    other = np.flatnonzero(~ok[:-1])
    array = np.searchsorted(opens, other, "right") - 1  # the array each token may lie in
    other = other[(array >= 0) & (other < closes[array])]
    if other.size:
        words = np.ndarray((len(codes) - 7,), "<u8", codes, strides=(1,))
        values[other], ok[other] = _other_values(windows, words, code_bytes, separators[other] + 1,
                                                 separators[other + 1], store)
    bad = np.add.reduceat(~ok, np.stack([opens, closes], 1).ravel())[::2] if opens.size else opens
    pieces, arrays, end = [], {}, 0
    for k in np.flatnonzero(bad == 0).tolist():
        pieces += [data[end:separators[opens[k]]], b'"\\u0000%d"' % k]
        arrays["\0%d" % k] = values[opens[k]:closes[k]]
        end = separators[closes[k]] + 1
    pieces.append(data[end:])
    return b"".join(pieces).decode("utf-8"), arrays
