"""Data-CSV text in numpy, a block of rows at a time, with every byte as
Python writes it: a float as ``repr``, an int as ``str``.

``repr`` writes a float's shortest digits that read back to it, in fixed
notation where 1e-4 <= |v| < 1e16.  There, four steps do the same work
for a whole block:

1. Digits.  With 10**e <= |v| < 10**(e + 1), X = |v| * 10**(16 - e) is
   held exactly as a pair of floats, Dekker's product of two exact
   factors (10**k is exact for k <= 22).  So F = floor(X), and where
   X's fraction lies against 0 and 1/2, are exact.  D_p, the p-digit
   number nearest |v|, comes from rounding F's remainder and that
   fraction.  It reads back to v exactly when it lies strictly inside
   v's rounding interval, half a unit in the last place either side.
   No D_p of 16 digits or fewer lies on an end: below 2**53 an end
   takes 17 digits or more, and from 2**53 on it is an odd integer,
   where D_16 is v itself and shorter D_p are even.  A two-sum of the
   pair and the candidate compares the two exactly.  repr's digits are
   D_p for the least p that reads back; D_17 always does.  The test
   goes down from p = 16 and stops at the first miss: when D_p reads
   back, so does D_p+1, which lies as near v.
2. ASCII.  Each cell's integer part and fraction become bytes through a
   table of the 10,000 four-digit groups.
3. Layout.  The cells of one array take a fixed width: a sign, as many
   four-digit groups as its longest integer part needs, a point, 20
   fraction digits if it holds floats, a separator.  A mask, looked up
   by the cell's sign, point position and digit count, marks the bytes
   its text keeps.
4. Separators.  One mask compress of the block gives its text, commas
   and line ends included.

Every cell outside that proof is written by ``repr`` itself: ±0.0,
|v| < 1e-4, |v| >= 1e16, non-finite values, a significand field of zero
(its rounding interval is narrower below than above), and a D_p that
lies exactly halfway between two p-digit numbers.  Ints, over all of
int64, take the same table and layout and need no fallback.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

# Cells a block formats at once.  A cell's slab, mask, key and
# temporaries take about 150 bytes, so a block's stay near 1 MB; twice
# as many cells save a few percent of numpy call overhead and add about
# 2 MB to a resample's peak RSS.
_CELLS = 1 << 13

# Rows of a mask table: a float's by sign, digits before the point
# (-3 to 16) and digit count (1 to 17); an int's by sign and digit count
# (1 to 20); a text's that repr wrote, by its length.
_INT_KEYS = 2 * 20 * 17
_TEXT_KEYS = _INT_KEYS + 2 * 20

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for doubles
_SIGNIFICAND = np.uint64((1 << 52) - 1)


class _Tables(NamedTuple):
    ascii: np.ndarray  # the four ASCII bytes of each of 0000-9999, as a uint32
    tens: np.ndarray  # 10**k as a float, k = 0-22, all exact
    high: np.ndarray  # their Veltkamp halves
    low: np.ndarray
    pow10: np.ndarray  # 10**k as int64, k = 0-18


@functools.cache
def _tables() -> _Tables:
    groups = np.arange(10_000)
    text = np.empty((10_000, 4), np.uint8)
    for j in range(4):
        text[:, 3 - j] = ord("0") + groups // 10**j % 10
    tens = np.array([float(10**k) for k in range(23)])
    c = _SPLIT * tens
    high = c - (c - tens)
    return _Tables(
        text.view(np.uint32)[:, 0], tens, high, tens - high, 10 ** np.arange(19)
    )


@functools.cache
def _masks(groups: int, fraction: bool):
    """The slab layout with ``groups`` four-digit groups before the point
    and, if ``fraction``, 20 digits after it: each key's mask of the
    bytes it keeps."""
    digits = 4 * groups
    width = 3 + digits + 20 * fraction
    masks = np.zeros((_TEXT_KEYS + width - 1, width), bool)
    masks[:, -1] = True
    whole = np.arange(digits)
    if fraction:
        sign, point, count = (
            k.reshape(-1, 1)
            for k in np.meshgrid(range(2), range(-3, 17), range(1, 18), indexing="ij")
        )
        floats = masks[:_INT_KEYS]
        floats[:, :1] = sign
        floats[:, 1 : 1 + digits] = whole >= digits - np.maximum(point, 1)
        floats[:, 1 + digits] = True
        place = np.arange(20)
        floats[:, 2 + digits : -1] = (place >= 3 + np.minimum(point, 0)) & (
            place < 3 + np.maximum(count - np.maximum(point, 0), 1)
        )
    sign, count = (
        k.reshape(-1, 1) for k in np.meshgrid(range(2), range(1, 21), indexing="ij")
    )
    ints = masks[_INT_KEYS:_TEXT_KEYS]
    ints[:, :1] = sign
    ints[:, 1 : 1 + digits] = whole >= digits - count
    masks[_TEXT_KEYS:, :-1] = np.arange(width - 1) < np.arange(width - 1)[:, None]
    return masks


def _ascii(values: np.ndarray, groups: int) -> np.ndarray:
    """Zero-padded decimal digits of non-negative ints below
    10**(4 * groups), as an (n, 4 * groups) uint8 array of ASCII."""
    quads = np.empty((len(values), groups), np.intp)
    for j in range(groups - 1, 0, -1):
        high = values // 10_000
        quads[:, j] = values - high * 10_000
        values = high
    quads[:, 0] = values
    return _tables().ascii[quads].view(np.uint8)


def _scaled(w: np.ndarray, e: np.ndarray):
    """X = w * 10**(16 - e) exactly as hi + lo: lo, floor(lo), and
    floor(X) as int64."""
    t = _tables()
    k = 16 - e
    hi = w * t.tens[k]
    c = _SPLIT * w
    wh = c - (c - w)
    wl = w - wh
    lo = ((wh * t.high[k] - hi) + wh * t.low[k] + wl * t.high[k]) + wl * t.low[k]
    floor = np.floor(lo)
    return lo, floor, hi.astype(np.int64) + floor.astype(np.int64)


def _digits(w: np.ndarray):
    """For floats 1e-4 <= w < 1e16 with a nonzero significand field:
    repr's digits scaled to 17 places, how many they are, the exponent
    e of the leading one, and whether the last was an exact tie."""
    t = _tables()
    e = np.floor(np.log10(w)).astype(np.intp)
    lo, floor, big = _scaled(w, e)
    off = (big >= 10**17).astype(np.intp) - (big < 10**16)
    if off.any():  # log10 rounded across a power of ten, by one at most
        e += off
        lo, floor, big = _scaled(w, e)
    half = np.spacing(w) * 0.5 * t.tens[16 - e]  # exact: 2**k * 10**j
    # 4X rounded down, plus two bits of its fraction: bit 1 says it is
    # at least 1/2, bit 0 that it is neither 0 nor 1/2
    mid = floor + 0.5
    quad = 4 * big + 2 * (lo >= mid) + ((lo != floor) & (lo != mid))

    count = np.full(len(w), 17)  # D_17, X rounded, is always inside
    live = np.arange(len(w))  # the cells whose D_p+1 was inside
    q = quad
    for p in range(16, 0, -1):
        unit = 10 ** (17 - p)
        rest = q - q // (4 * unit) * (4 * unit)
        # X - D_p * 10**(17 - p): an exact int (|.| < 2**53) less
        # floor(lo), plus lo, in one rounding; so comparing the result
        # with half is exact, but for equality, where a two-sum's error
        # term, never 0 here, decides
        exact = (rest >> 2) - (rest > 2 * unit) * unit - floor
        gap = exact + lo
        inside = np.abs(gap) < half
        for i in np.flatnonzero(np.abs(gap) == half):
            b = gap[i] - exact[i]
            inside[i] = ((exact[i] - (gap[i] - b)) + (lo[i] - b)) * gap[i] < 0
        kept = np.flatnonzero(inside)
        if not len(kept):
            break
        live = live[kept]
        count[live] = p
        q, floor, lo, half = q[kept], floor[kept], lo[kept], half[kept]

    unit = t.pow10[17 - count]
    high = quad // (4 * unit)
    rest = quad - high * (4 * unit)
    return (high + (rest > 2 * unit)) * unit, count, e, rest == 2 * unit


class _Cells(NamedTuple):
    head: np.ndarray  # each cell's integer part, or an int's magnitude
    fraction: np.ndarray | None  # a float's digits after the point, to 17
    keys: np.ndarray  # each cell's mask key
    texts: dict  # repr of each cell the kernel leaves to it, by index


def _floats(v: np.ndarray) -> _Cells:
    """The float cells v, 1-D."""
    t = _tables()
    v = v.astype(np.float64, copy=False)
    bits = v.view(np.uint64)
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e16) & (bits & _SIGNIFICAND != 0)
    digits, count, e, tie = _digits(np.where(fast, a, 1.5))

    # a carry to 10**17 comes from D_1 = 10 only; its point moves on one
    carry = digits == 10**17
    digits[carry] = 10**16
    point = e + 1 + carry  # digits before the point, -3 to 16
    whole = np.maximum(point, 0)
    split = t.pow10[17 - whole]
    head = digits // split
    fraction = (digits - head * split) * t.pow10[whole]
    keys = (np.signbit(v) * 20 + point + 3) * 17 + count - 1
    slow = np.flatnonzero(~fast | tie)
    return _Cells(head, fraction, keys, dict(zip(slow, map(repr, v[slow].tolist()))))


def _ints(v: np.ndarray) -> _Cells:
    """The int cells v, 1-D."""
    v = v.astype(np.int64, copy=False)
    negative = v < 0
    magnitude = v.astype(np.uint64)
    magnitude[negative] = 0 - magnitude[negative]  # int64's least too
    count = np.searchsorted(_tables().pow10[1:].astype(np.uint64), magnitude, "right")
    return _Cells(magnitude, None, _INT_KEYS + 20 * negative + count, {})


def _groups(head: int) -> int:
    """Four-digit groups an integer part up to ``head`` takes."""
    return (len(str(head)) + 3) // 4


def _slab(blocks):
    """A block of rows, their cells the columns of each 2-D array in
    ``blocks`` in turn, as a uint8 slab and a bool mask of its shape:
    the bytes of the slab that the mask keeps are the rows' text, cells
    separated by commas and each row ended by a line end.  The
    cells of one array take the same width: a sign, as many four-digit
    groups as its longest integer part needs, a point, 20 digits if it
    holds floats, a separator."""
    rows = len(blocks[0])
    cells = [
        (_ints if np.issubdtype(b.dtype, np.integer) else _floats)(b.reshape(-1))
        for b in blocks
    ]
    groups = [_groups(int(c.head.max(initial=0))) for c in cells]
    masks = [_masks(g, c.fraction is not None) for g, c in zip(groups, cells)]
    spans = [b.shape[1] * m.shape[1] for b, m in zip(blocks, masks)]
    slab = np.empty((rows, sum(spans)), np.uint8)
    keep = np.empty(slab.shape, bool)
    first = 0
    for block, c, g, m, span in zip(blocks, cells, groups, masks, spans):
        shape = (rows, block.shape[1])
        part = slab[:, first : first + span].reshape(*shape, -1)
        digits = 4 * g
        part[..., 0] = ord("-")
        part[..., 1 : 1 + digits] = _ascii(c.head, g).reshape(*shape, -1)
        part[..., 1 + digits] = ord(".")
        if c.fraction is not None:
            part[..., 2 + digits : -1] = _ascii(c.fraction, 5).reshape(*shape, -1)
        part[..., -1] = ord(",")
        keys = c.keys.reshape(shape)
        if c.texts:
            at = np.unravel_index(list(c.texts), shape)
            texts = [text.encode() for text in c.texts.values()]
            padded = b"".join(text.ljust(m.shape[1] - 1) for text in texts)
            part[(*at, slice(-1))] = np.frombuffer(padded, np.uint8).reshape(len(texts), -1)
            keys[at] = _TEXT_KEYS + np.array([len(text) for text in texts])
        keep[:, first : first + span] = np.take(m, keys, axis=0).reshape(rows, span)
        first += span
    slab[:, -1] = ord("\n")
    return slab, keep


def _step(blocks) -> int:
    """Rows per block: ``_CELLS`` cells, one row at least."""
    return max(1, _CELLS // sum(b.shape[1] for b in blocks))


def lines(blocks, rows=None):
    """The text of rows, their cells the columns of each 2-D array in
    ``blocks`` in turn, as ASCII bytes, one bytes object per block of
    rows.  With ``rows``, row i's first cells are row rows[i] of the
    first array, gathered a block at a time."""
    step = _step(blocks)
    for lo in range(0, len(blocks[0] if rows is None else rows), step):
        block = [b[lo : lo + step] for b in blocks]
        if rows is not None:
            block[0] = blocks[0][rows[lo : lo + step]]
        slab, keep = _slab(block)
        yield slab[keep].tobytes()
