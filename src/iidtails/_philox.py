"""Philox4x64-10 and bounded integers in Python ints.

Stream(key) draws what numpy's Generator(Philox(key)) draws, call for call,
for the two methods the corpus uses: integers(low, high, size=None) and
choice(seq).  Philox4x64-10 is Salmon, Moraes, Dror and Shaw, "Parallel
random numbers: as easy as 1, 2, 3" (SC 2011); bounded draws are Lemire's,
"Fast random integer generation in an interval" (2019).  Both follow
numpy's C code step for step:

- the 256-bit counter starts at 0 and is bumped before each block, and a
  block is four 64-bit outputs, used in order;
- a 32-bit draw takes the low half of a 64-bit output and keeps the high
  half for the next 32-bit draw; 64-bit draws pass it by;
- a range of at most 2**32 values draws 32-bit words, a larger one 64-bit
  words, and a range of one value draws nothing.  numpy takes one word as
  is for a range of exactly 2**32 or 2**64 values, because its fixed-width
  Lemire cannot hold the range; in Python ints Lemire's threshold there is
  0, so it takes that one word as is too.
"""

from __future__ import annotations

KEY_LIMIT = 2 ** 128

_MASK256 = 2 ** 256 - 1
_MASK64 = 2 ** 64 - 1
_MASK32 = 2 ** 32 - 1
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B


def _round_keys(key: int) -> "list[tuple[int, int]]":
    """The ten round keys of a 128-bit key, split as numpy splits it into
    little-endian 64-bit words; each round after the first bumps the words
    by (_W0, _W1)."""
    k0, k1 = key & _MASK64, key >> 64
    return [((k0 + r * _W0) & _MASK64, (k1 + r * _W1) & _MASK64)
            for r in range(10)]


def _block(counter: int, keys) -> "list[int]":
    """The four 64-bit outputs of Philox4x64 at a 256-bit counter."""
    c0, c1 = counter & _MASK64, (counter >> 64) & _MASK64
    c2, c3 = (counter >> 128) & _MASK64, counter >> 192
    for k0, k1 in keys:
        p0, p1 = _M0 * c0, _M1 * c2
        c0, c1, c2, c3 = ((p1 >> 64) ^ c1 ^ k0, p1 & _MASK64,
                          (p0 >> 64) ^ c3 ^ k1, p0 & _MASK64)
    return [c0, c1, c2, c3]


def _lemire(draw, bits: int, span: int) -> int:
    """A uniform int in [0, span), 1 <= span <= 2**bits, from uniform
    bits-bit words draw(): the high word of draw() * span, drawn again
    while the low word is below 2**bits % span (Lemire)."""
    mask = (1 << bits) - 1
    threshold = (1 << bits) % span
    m = draw() * span
    while m & mask < threshold:
        m = draw() * span
    return m >> bits


class Stream:
    """One Philox4x64-10 stream: numpy's Generator(Philox(key)) for keys
    in [0, 2**128)."""

    def __init__(self, key: int):
        if not 0 <= key < KEY_LIMIT:
            raise ValueError(f"key must be in [0, 2**128), got {key}")
        self._keys = _round_keys(key)
        self._counter = 0
        self._buffer: "list[int]" = []
        self._pos = 4
        self._half: "int | None" = None

    def _next64(self) -> int:
        pos = self._pos
        if pos == 4:
            self._counter = (self._counter + 1) & _MASK256
            self._buffer = _block(self._counter, self._keys)
            pos = 0
        self._pos = pos + 1
        return self._buffer[pos]

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _MASK32

    def integers(self, low: int, high: int, size: "int | None" = None):
        """A uniform int in [low, high), or a list of size of them."""
        span = high - low
        if span < 1:
            raise ValueError(f"low >= high: {low} >= {high}")
        if span > 2 ** 64:
            raise ValueError(f"[{low}, {high}) has more than 2**64 values")
        if span == 1:
            return low if size is None else [low] * size
        draw, bits = (self._next32, 32) if span <= 2 ** 32 \
            else (self._next64, 64)
        if size is None:
            return low + _lemire(draw, bits, span)
        return [low + _lemire(draw, bits, span) for _ in range(size)]

    def choice(self, seq):
        """A uniform item of the nonempty sequence seq."""
        return seq[self.integers(0, len(seq))]
