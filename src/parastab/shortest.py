"""Shortest round-trip decimals of float64 blocks, byte for byte as repr.

Blocks spells a block of float64 cells as CSV text: each cell exactly as
Python's repr spells it, each followed by a comma or, at the end of a
table row, a newline. Its numpy kernel handles every normal value v =
m 2**e (m a 53-bit integer) with e in -89..-2, that is 2**-37 <= |v| <
2**51 (7.3e-12 to 2.3e15):

- It scales by 10**k with k = ceil(-e log10 2) in 1..27, so that v 10**k
  = m 5**k / 2**s with a binary shift s = -e - k in 1..62. The value and
  both ends of its round-trip interval, v +- half a gap (the gap below a
  power of two is half the gap above), are formed over 2**(s + 2) as
  128-bit products of the 32-bit limbs of m and 5**k < 2**63, held in
  pairs of uint64 arrays. Their integer parts fit 64 bits.
- An end is never a whole number at this scale: it is an odd number over
  2**(s + 1) or more. So the integers inside the interval run from the
  end below rounded up to the end above rounded down, and whether
  round-half-even would read an end back as v never matters.
- It takes the largest power of ten 10**j that has a multiple inside the
  interval and rounds v 10**k to the nearest such multiple. The quotient
  d is the shortest digit string that reads back as v, and of those the
  closest, as repr's digits are.
- It lays the cell out by repr's rules: fixed notation when the decimal
  point position decpt (v = 0.d1d2... 10**decpt) is in -3..16, otherwise
  d.ddde-XX, and ".0" on an integer value.

Every other cell is spelled by fallback_cell, which is repr: zero,
subnormal, nan and inf, a magnitude outside the range, and an exact tie
between two nearest multiples. So the bytes equal repr's by construction.
Of the README and benchmark forward fields, only the cells below 2**-37
fall back, such as the column at x = 1/2 whose cells are near 1e-17.

A block holds at most CELLS cells, so the kernel's working arrays stay
small. Blocks allocates them once and every block reuses them, as the
solver's levels reuse theirs: arrays freed and allocated again each block
cost page faults that take longer than the arithmetic on them, and leave
the heap larger for the rest of the run.
"""
from __future__ import annotations

import numpy as np

# Cells per block: each working array of the kernel is 64 kB.
CELLS = 8192

_LOW32 = np.uint64(0xFFFFFFFF)
_MANTISSA = np.uint64((1 << 52) - 1)
_HIDDEN = np.uint64(1 << 52)
_POW10 = 10 ** np.arange(20, dtype=np.uint64)


def _ascii_words(prefix: bytes, digits: int) -> np.ndarray:
    """prefix, then the digits of 0 .. 10**digits - 1 zero-padded, as one
    4-byte word each: copying a word writes its text in byte order."""
    text = np.empty((10,) * digits + (4,), dtype=np.uint8)
    text[..., :len(prefix)] = np.frombuffer(prefix, dtype=np.uint8)
    for place in range(digits):
        text[..., len(prefix) + place] = np.arange(48, 58).reshape(
            (10,) + (1,) * (digits - 1 - place))
    return text.view(np.uint32).ravel()


# "0000".."9999" and "e-00".."e-99", one word each
_QUAD = _ascii_words(b"", 4)
_EXP_WORD = _ascii_words(b"e-", 2)


def _exponent_tables():
    """Per biased exponent: spelled by the kernel, k, 5**k and the shift
    s + 2. A cell that falls back gets the entries of 0.5, so the kernel's
    arithmetic on it stays in bounds."""
    e = np.arange(2048) - 1075
    ok = (e >= -89) & (e <= -2)
    e = np.where(ok, e, -53)
    k = -((e * 78913) >> 18)                      # ceil(-e log10 2)
    return ok, k, 5 ** k.astype(np.uint64), (-e - k + 2).astype(np.uint64)


_IN_RANGE, _K, _FIVE, _SHIFT = _exponent_tables()


# Byte columns of one cell. N is d, times 10**(decpt - nd) for an integer
# value, right-aligned in 20 digits and written twice: A keeps its leading
# digits (the integer part, or the first digit in e-notation), B its
# trailing ones (the fraction, zero-padded on the left). "0" before A and
# "0" after the point stand for an empty integer part or fraction. A
# fallback cell's text is written over B and the exponent.
_WIDTH = 56
_SIGN, _LEAD, _A, _POINT, _ZERO, _B, _EXP, _SEP = 0, 1, 4, 24, 25, 28, 48, 52


def _layout_masks():
    """Columns kept, as 7 words per row: rows (decpt + 3) * 18 + nd for
    fixed notation, 360 + nd for e-notation, nd the digits of d."""
    col = np.arange(_WIDTH)
    row = np.arange(378)[:, None]
    fixed = row < 360
    decpt = np.where(fixed, row // 18 - 3, 1)
    nd = np.where(fixed, row % 18, row - 360)
    width = np.where(fixed, np.maximum(nd, decpt), nd)    # digits of N
    whole = np.where(fixed, decpt, 1)                     # kept from A
    start = _A + 20 - width
    keep = ((col == _LEAD) & fixed & (decpt <= 0)
            | (col >= start) & (col < start + whole)
            | (col == _POINT) & (fixed | (nd > 1))
            | (col == _ZERO) & fixed & (width <= whole)
            | (col >= _B + 20 - (width - whole)) & (col < _B + 20)
            | (col >= _EXP) & (col < _EXP + 4) & ~fixed
            | (col == _SEP))
    return keep.view(np.uint64)


_LAYOUT = _layout_masks()
# a fallback text of each length 0..24, then the separator
_FALLBACK_LAYOUT = ((np.arange(_WIDTH) >= _B)
                    & (np.arange(_WIDTH) < _B + np.arange(25)[:, None])
                    | (np.arange(_WIDTH) == _SEP))


def fallback_cell(value: float) -> str:
    """The text of a cell the kernel does not spell: repr itself."""
    return repr(value)


def _over(hi, lo, t, up, spare) -> None:
    """hi becomes the integer part of (hi, lo) / 2**t, up = 64 - t."""
    hi <<= up
    np.right_shift(lo, t, out=spare)
    hi |= spare


class Blocks:
    """Working arrays for blocks of up to `cells` cells; spell() returns
    the text of one block, valid until the next call."""

    def __init__(self, cells: int):
        # three allocations, not one per working array
        work = np.empty((23, cells), dtype=np.uint64)
        self.u64, self.i64 = work[:13], work[13:19].view(np.int64)
        self.values, self.real = work[19:21].view(np.float64)
        self.flags = work[21].view(bool).reshape(8, cells)[:5]
        self.word = work[22].view(np.uint32)[:cells]
        self.chars, keep = np.zeros((2, cells, _WIDTH), dtype=np.uint8)
        self.keep = keep.view(bool)
        self.text = np.empty(cells * 25, dtype=np.uint8)
        self.chars[:, _SIGN] = ord("-")
        self.chars[:, _LEAD] = ord("0")
        self.chars[:, _POINT] = ord(".")
        self.chars[:, _ZERO] = ord("0")

    def spell(self, block: np.ndarray, ends_rows: bool) -> np.ndarray:
        """The cells of a 2-D block row by row, each followed by a comma,
        or by a newline at the end of each row when ends_rows."""
        rows, cols = block.shape
        n = rows * cols
        x = self.values[:n]
        np.copyto(x.reshape(rows, cols), block)
        chars, keep = self.chars[:n], self.keep[:n]
        bits = x.view(np.uint64)
        ex, c, t, m, a0, a1, a2, lo, hi, ulo, uhi, llo, lhi = self.u64[:, :n]
        k, j, nd, dp, g, key = self.i64[:, :n]
        ok, f1, f2, f3, fixed = self.flags[:, :n]
        real, word = self.real[:n], self.word[:n]

        # exponent: range, k, 5**k, t = s + 2; mantissa m
        np.right_shift(bits, 52, out=ex)
        ex &= 0x7FF
        np.take(_IN_RANGE, ex, out=ok)
        np.take(_K, ex, out=k)
        np.take(_FIVE, ex, out=c)
        np.take(_SHIFT, ex, out=t)
        np.bitwise_and(bits, _MANTISSA, out=m)
        np.equal(m, 0, out=f1)                 # a power of two
        m |= _HIDDEN

        # (hi, lo) = m 5**k from the 32-bit limbs of m and of 5**k
        np.bitwise_and(m, _LOW32, out=a0)
        m >>= 32
        np.bitwise_and(c, _LOW32, out=a1)
        np.right_shift(c, 32, out=a2)
        np.multiply(a0, a1, out=lo)
        a0 *= a2
        a1 *= m
        a0 += a1
        np.right_shift(lo, 32, out=a1)
        a0 += a1                               # the middle limb
        np.multiply(m, a2, out=hi)
        np.right_shift(a0, 32, out=a1)
        hi += a1
        lo &= _LOW32
        a0 <<= 32
        lo |= a0

        # times 4, and the ends 4 m 5**k + 2 5**k and 4 m 5**k - 2 5**k
        # (- 5**k below a power of two), all over 2**t
        hi <<= 2
        np.right_shift(lo, 62, out=a0)
        hi |= a0
        lo <<= 2
        c <<= 1
        np.add(lo, c, out=ulo)
        np.less(ulo, lo, out=f2)
        np.add(hi, f2, out=uhi)
        c >>= f1
        np.subtract(lo, c, out=llo)
        np.less(lo, c, out=f2)
        np.subtract(hi, f2, out=lhi)

        # integer parts over 2**t (numpy shifts a uint64 by 64 to 0), the
        # integer range [bottom, top] inside the interval and v's fraction
        np.left_shift(1, t, out=a1)
        a1 -= 1                                # 2**t - 1
        np.subtract(64, t, out=a2)
        top, bottom, v, rest = uhi, lhi, hi, lo
        _over(uhi, ulo, t, a2, a0)
        _over(lhi, llo, t, a2, a0)
        bottom += 1
        _over(hi, lo, t, a2, a0)
        rest &= a1
        np.less_equal(bottom, top, out=f2)
        ok &= f2

        # j: the largest power of ten with a multiple in [bottom, top],
        # counted up while any cell has one (a multiple of 10**(j + 1) is
        # a multiple of 10**j)
        j.fill(0)
        for p in _POW10[1:19]:
            np.floor_divide(top, p, out=a0)
            a0 *= p
            np.greater_equal(a0, bottom, out=f2)
            f2 &= ok
            if not f2.any():
                break
            j += f2

        # round v to the nearest multiple of p = 10**j: r2 is twice the
        # remainder, rounded down, and f1 says whether that dropped a part
        p, q, r2 = c, ulo, a0
        np.take(_POW10, j, out=p)
        np.floor_divide(v, p, out=q)
        q *= p
        np.subtract(v, q, out=r2)
        r2 <<= 1
        np.subtract(t, 1, out=llo)
        np.right_shift(rest, llo, out=llo)
        r2 += llo
        a1 >>= 1
        a1 &= rest
        np.not_equal(a1, 0, out=f1)
        np.equal(r2, p, out=f2)
        np.greater(r2, p, out=f3)
        np.logical_and(f2, f1, out=fixed)
        f3 |= fixed                            # nearer the multiple above
        np.logical_not(f1, out=f1)
        f2 &= f1                               # an exact tie: fall back
        np.logical_not(f2, out=f2)
        ok &= f2
        # the nearer multiple unless it lies outside; then the other one
        np.add(q, p, out=a1)
        np.less_equal(a1, top, out=f2)
        f3 &= f2
        np.less(q, bottom, out=f2)
        f3 |= f2
        np.multiply(p, f3, out=a1)
        q += a1
        d = q
        d //= p

        # nd: the digits of d (float log10 can round up below a power of
        # ten, which the comparison corrects); decpt = nd + j - k
        np.copyto(real, d, casting="unsafe")
        np.log10(real, out=real)
        np.copyto(nd, real, casting="unsafe")
        np.take(_POW10, nd, out=a1)
        np.greater_equal(d, a1, out=f2)
        nd += f2
        np.add(nd, j, out=dp)
        dp -= k
        np.greater(dp, -4, out=fixed)
        np.less_equal(dp, 16, out=f2)
        fixed &= f2

        # digits of N into A and B, four at a time, and the exponent word
        np.subtract(dp, nd, out=g)
        np.maximum(g, 0, out=g)
        np.minimum(g, 16, out=g)
        np.take(_POW10, g, out=a1)
        num = a0
        np.multiply(d, a1, out=num)
        words = chars.view(np.uint32)
        for col in (5, 4, 3, 2, 1):
            np.floor_divide(num, 10000, out=a1)
            np.multiply(a1, 10000, out=a2)
            num -= a2
            np.take(_QUAD, num, out=word)
            words[:, col] = word
            words[:, col + 6] = word
            num, a1 = a1, num
        # e-notation in the kernel's range is below 1e-4: "e-", 1 - decpt
        np.subtract(1, dp, out=g)
        np.maximum(g, 0, out=g)
        np.minimum(g, 99, out=g)
        np.take(_EXP_WORD, g, out=word)
        words[:, _EXP // 4] = word

        # the columns each cell keeps: rows (decpt + 3) * 18 + nd of _LAYOUT
        np.multiply(dp, 18, out=key)
        key += nd
        key += 54
        np.add(nd, 360, out=g)
        np.logical_not(fixed, out=f2)
        np.copyto(key, g, where=f2)
        np.logical_not(ok, out=f2)
        np.copyto(key, 0, where=f2)
        np.take(_LAYOUT, key, axis=0, out=keep.view(np.uint64))
        np.right_shift(bits, 63, out=a0)
        keep[:, _SIGN] = a0
        chars[:, _SEP] = ord(",")
        if ends_rows:
            chars[cols - 1::cols, _SEP] = ord("\n")
        # repr's text of every other cell, over B and the exponent
        fall = np.flatnonzero(f2)
        if fall.size:
            texts = [fallback_cell(value) for value in x[fall].tolist()]
            keep[fall] = _FALLBACK_LAYOUT[[len(s) for s in texts]]
            chars[fall, _B:_B + 24] = np.frombuffer(
                "".join(s.ljust(24) for s in texts).encode("ascii"),
                dtype=np.uint8).reshape(-1, 24)
        return np.compress(keep.ravel(), chars.ravel(),
                           out=self.text[:np.count_nonzero(keep)])
