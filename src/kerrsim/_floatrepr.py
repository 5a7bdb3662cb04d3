"""The text ``repr`` gives float64 values, found with numpy array arithmetic.

``format_rows`` lays out the CSV rows ``prefix + repr(x) + CRLF`` of a chunk of
x values, bit for bit as ``repr``, for the sample writer (``homodyne``), which
imports this module only when it writes a CSV, so that ``import kerrsim`` does
not compile it, and lets go of the 80 kB table of ``digit_words`` once the
file is written.  The array arithmetic covers 1e-4 <= |x| < 100, where every
sampled x lies (the sampler's grid ends at +-6); ``repr`` formats the rest.
"""

from __future__ import annotations

import functools

import numpy as np

# 10**k is exact in float64 for k <= 22; Veltkamp's split (2**27 + 1) cuts a float64 into two
# halves of 26 bits, whose products Dekker's two-product adds up exactly (Numer. Math. 18, 1971)
_SPLITTER = 2.0**27 + 1
_TEN = 10.0 ** np.arange(23)
_TEN_HI = _TEN * _SPLITTER - (_TEN * _SPLITTER - _TEN)
_TEN_LO = _TEN - _TEN_HI
_K = np.arange(23)
# the fraction's digits R / 10**k as two 10-digit halves: R // _FRAC_DIV and
# R % _FRAC_DIV * _FRAC_LO; below 100, k >= 12, so the first half never needs padding
_FRAC_DIV = 10 ** np.maximum(_K - 10, 0)
_FRAC_LO = 10 ** (20 - np.clip(_K, 10, 20))
_GROUP = 10**4  # a 4-digit group of characters is one uint32 of digit_words
_EXPONENT = 0x7FF << 52


@functools.cache
def digit_words() -> np.ndarray:
    """The 4-byte words the formatter lays rows out in, as uint32, NUL where nothing is.

    Word g + i * _GROUP is the 4-digit group g (0 <= g < 10**4): i = 0 zero-padded, 1
    without its trailing zeros.  Then CRLF, and at _HEAD + s * 100 + w the sign s, the
    whole part w < 100 and the point of a number, right-aligned.
    """
    g = np.arange(_GROUP)
    digits = (g[:, None] // 10 ** np.arange(3, -1, -1) % 10).astype(np.uint8)
    text = digits + ord("0")
    trail = np.cumsum(digits[:, ::-1], axis=1)[:, ::-1] == 0
    w = np.arange(100)
    head = np.zeros((2, 100, 4), np.uint8)
    head[:, :, 3] = ord(".")
    head[:, :, 2] = w % 10 + ord("0")
    head[:, 10:, 1] = w[10:] // 10 + ord("0")
    head[1, :10, 1] = head[1, 10:, 0] = ord("-")
    words = [text, np.where(trail, 0, text), np.frombuffer(b"\r\n\0\0", np.uint8)[None],
             head.reshape(200, 4)]
    return np.concatenate(words).view(np.uint32).ravel()


_CRLF = 2 * _GROUP
_HEAD = 2 * _GROUP + 1
# the words a row's number takes, a word for its sign, whole part and point and five for its
# fraction; repr's text of any other float64 fits them too (24 bytes, "-2.2250738585072014e-308")
_BODY = 6


def _nearest(frac, frac_hi, frac_lo, k, half_ulp):
    """For y = frac * 10**k: whether the integer m nearest y is nearer than the bound
    ulp(x) * 10**k / 2, with ``half_ulp`` ulp(x) / 2; and m.

    ``frac`` is x's fraction, a multiple of ulp(x) = 2**q, and ``frac_hi + frac_lo`` its
    Veltkamp split.  y = p + err exactly, and d = y - rint(p) is rounded once, by at most
    2**-54, as |d| < 1.  y - m is a multiple of u = 2**(q + k) and the bound, 5**k * u / 2,
    an odd multiple of u / 2, so the two are never equal and are u / 2 >= 2**-51 apart
    (1e-4 <= |x| and k >= n - 2 - log10|x| give q + k >= -50.3): each comparison decides as
    it would on exact values, and needs no branch for a distance equal to the bound.  At a
    tie, y = m +- 1/2, m is the even neighbour, as in repr's correctly rounded digits: below
    2**52, p = y and rint(p) rounds half to even; above, p is even and rint(d) rounds the
    half-integer d = y - p to even.
    """
    ten = _TEN[k]
    p = frac * ten
    # Dekker's two-product, a ufunc a step, so that no step is contracted into an FMA
    err = frac_hi * _TEN_HI[k]
    err -= p
    lo = _TEN_LO[k]
    err += frac_hi * lo
    hi = _TEN_HI[k]
    err += frac_lo * hi
    err += frac_lo * lo
    whole = np.rint(p)
    d = p - whole
    d += err
    step = np.rint(d)
    d -= step
    np.abs(d, out=d)
    ten *= half_ulp
    return d < ten, whole.astype(np.int64) + step.astype(np.int64)


def _shortest(xs: np.ndarray) -> tuple[np.ndarray, ...]:
    """The digits of ``repr(x)`` for each x of ``xs`` with array arithmetic, where found:
    whether they were, |x|'s whole part, and the fraction's digits as the integer nearest
    frac(|x|) * 10**k, k of them, 1 <= k <= 20.

    ``repr(x)`` is the shortest decimal that rounds back to x, the nearest to x
    of its length.  For 1e-4 <= |x| < 100 it is x's whole part and a
    fraction, n significant digits in all, n the least that round-trips: with
    k = n - 1 - floor(log10|x|), the integer m nearest |x| * 10**k, whose
    distance to it is compared exactly (see _nearest), must be nearer than
    ulp(x) * 10**k / 2.  The least passing n of 17, 16 and 15 is the shortest
    where n - 1 fails, so 14 is tested where 15 passes; as that test settles
    the length, an estimate of floor(log10|x|) one off changes no digit.  A
    power of two, whose rounding interval below it is half as wide, needs no
    exception: none of the 20 in the range has its shortest decimal in that
    half (the tests format them all).  The digits are not found for x outside
    that range, for x of 14 digits or fewer, and where none of 17, 16 and 15
    digits passes (an estimate one too high).
    """
    ax = np.abs(xs)
    with np.errstate(invalid="ignore"):  # NaN
        found = (ax >= 1e-4) & (ax < 100)
    np.copyto(ax, 1.5, where=~found)  # any value in the range, so that no step overflows
    k = 16 - np.floor(np.log10(ax)).astype(np.intp)
    whole = np.floor(ax)
    frac = ax - whole
    split = frac * _SPLITTER
    frac_hi = split - (split - frac)
    frac_lo = frac - frac_hi
    half_ulp = ((ax.view(np.int64) & _EXPONENT) - (53 << 52)).view(np.float64)
    ok, nearest = _nearest(frac, frac_hi, frac_lo, k, half_ulp)
    shorter = np.where(ok, 0, -1)  # digits fewer than 17, -1 where none passes
    for fewer in (1, 2):
        ok, fewer_nearest = _nearest(frac, frac_hi, frac_lo, k - fewer, half_ulp)
        nearest = np.where(ok, fewer_nearest, nearest)
        shorter = np.where(ok, fewer, shorter)
    k -= shorter
    least = np.flatnonzero(shorter == 2)
    if least.size:
        ok = _nearest(frac[least], frac_hi[least], frac_lo[least], k[least] - 1, half_ulp[least])[0]
        shorter[least[ok]] = -1
    found &= shorter >= 0
    np.clip(k, 1, 20, out=k)  # a row not found may hold any k
    return found, whole, k, nearest


def format_rows(prefix: bytes, xs: np.ndarray) -> bytes:
    """``b"".join(prefix + repr(x).encode() + b"\r\n" for x in xs)`` for a non-empty ``xs``,
    with array arithmetic.

    _shortest finds the digits of 99.4 % of normal draws.  The sign, whole
    part and point (one word) and the fraction's 20 digit places are laid
    out in fixed columns of 4-byte words (digit_words), NUL where a row has
    no character; the other rows get ``repr(x)`` in those columns.  One
    ``bytes.translate`` drops the NULs, and the prefix goes in after each
    line end.  At the writer's 4096 values (homodyne._CSV_CHUNK_ROWS) the
    temporaries peak at 0.9 MB (tracemalloc).
    """
    found, whole, k, nearest = _shortest(xs)
    div = _FRAC_DIV[k]
    upper = nearest // div
    lower = ((nearest - upper * div) * _FRAC_LO[k]).astype(np.float64)
    upper = upper.astype(np.float64)
    index = np.empty((_BODY + 1, xs.size))
    head = index[0]
    np.multiply(xs < 0, 100, out=head)
    head += whole
    head += _HEAD
    # the fraction's five groups: the upper half's digits 1-4, 5-8 and 9-10, the lower's
    # 1-2 and the rest; each zero-padded but the group of the last digit (k), and after it
    fraction = index[1:_BODY]
    np.floor(upper / 1e6, out=fraction[0])
    rest = upper - fraction[0] * 1e6
    np.floor(rest / 100, out=fraction[1])
    rest -= fraction[1] * 100
    np.floor(lower / 1e8, out=fraction[2])
    lower -= fraction[2] * 1e8
    fraction[2] += rest * 100
    np.floor(lower / 1e4, out=fraction[3])
    np.subtract(lower, fraction[3] * 1e4, out=fraction[4])
    last = (k - 1) >> 2
    for i in range(5):
        fraction[i] += (last <= i) * _GROUP
    index[-1] = _CRLF
    index = index.T.astype(np.intp, order="C")
    # a row whose digits were not found may index anywhere; repr overwrites it
    table = digit_words().take(index, mode="clip")
    del index  # each stage's arrays let go, to keep the peak low
    others = np.flatnonzero(~found)
    if others.size:
        text = b"".join(repr(x).encode().ljust(4 * _BODY, b"\0") for x in xs[others].tolist())
        table[others, :_BODY] = np.frombuffer(text, np.uint32).reshape(others.size, _BODY)
    # each row ends in the one LF, which is followed by the prefix of the next
    text = table.tobytes().translate(None, b"\0")
    del table
    return prefix + text.replace(b"\n", b"\n" + prefix)[:-len(prefix)]
