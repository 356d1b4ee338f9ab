"""Seeded random sampling on a counter-based PRNG.

The generator is SplitMix64 used in counter mode, so the stream is a pure
function of ``(seed, counter)`` and can be reproduced bit-exactly in any
language. The full recipe, for porting:

- word ``i`` of the raw stream is ``mix64(seed + (i + 1) * GAMMA) mod 2**64``
  where ``GAMMA = 0x9E3779B97F4A7C15`` and ``mix64`` is the SplitMix64
  finalizer (xor-shift 30, multiply ``0xBF58476D1CE4E5B9``, xor-shift 27,
  multiply ``0x94D049BB133111EB``, xor-shift 31);
- a uniform double in ``[0, 1)`` is the top 53 bits of a word divided by
  ``2**53``;
- standard normals come from Box-Muller pairs: pair ``i`` of a call uses
  the call's uniform words ``2i`` and ``2i+1`` (0-indexed) as ``u1, u2``,
  with ``radius = sqrt(-2 * log(1 - u1))`` and outputs
  ``(radius * cos(2*pi*u2), radius * sin(2*pi*u2))``. A request for ``n``
  normals consumes exactly ``2 * ceil(n / 2)`` uniform words (an odd ``n``
  discards the trailing sine draw), so splitting one request into chunks of
  even length reproduces the unsplit stream bit-exactly; odd-length chunks
  do not;
- ``integers(n, bound)`` scales uniforms: ``min(floor(u * bound), bound - 1)``;
- a shuffle of ``n`` items is Fisher-Yates from the back and consumes exactly
  ``n - 1`` words (none for ``n <= 1``): word ``k`` of the call
  (``k = 0 .. n-2``) swaps position ``i = n - 1 - k`` with
  ``j = min(floor(u_k * (n - k)), n - 1 - k)``.

Uniforms are computed in blocks of at least ``_BLOCK`` (256) words and
buffered per stream, and a shuffle draws all its words in one call. ``counter`` still counts the
words handed out, and buffering never changes which word it points at, so
every stream is the same as one drawn a word at a time.

Named substreams derive a child seed as ``mix64(seed XOR fnv1a64(label))``,
which keeps every consumer of the root seed independent and reorderable.
"""

from __future__ import annotations

import math

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)

_BLOCK = 256  # fewest words a refill of the uniform buffer computes


def _mix64(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * _MIX1
        x = (x ^ (x >> np.uint64(27))) * _MIX2
        return x ^ (x >> np.uint64(31))


def _fnv1a64(label: str) -> np.uint64:
    h = _FNV_OFFSET
    with np.errstate(over="ignore"):
        for byte in label.encode("utf-8"):
            h = (h ^ np.uint64(byte)) * _FNV_PRIME
    return h


class Rng:
    """Deterministic random stream addressed by (seed, counter).

    Identical seeds yield bit-identical streams; the counter advances by the
    number of 64-bit words each call consumes.
    """

    def __init__(self, seed: int):
        self.seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self.counter = 0
        # uniforms for words [_block_start, _block_start + len(_block))
        self._block = np.empty(0, dtype=np.float64)
        self._block_start = 0

    def substream(self, label: str) -> "Rng":
        """Independent child stream for `label`; does not advance this one."""
        with np.errstate(over="ignore"):
            child = _mix64(np.uint64(self.seed ^ _fnv1a64(label)))
        return Rng(int(child))

    def _words(self, n: int) -> np.ndarray:
        if n == 0:
            return np.empty(0, dtype=np.uint64)
        idx = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        with np.errstate(over="ignore"):
            return _mix64(self.seed + idx * _GAMMA)

    def uniform(self, n: int) -> np.ndarray:
        """`n` doubles uniform on [0, 1), 53-bit resolution."""
        offset = self.counter - self._block_start
        if not 0 <= offset <= len(self._block) - n:
            start = self.counter
            words = self._words(max(n, _BLOCK))
            self._block = (words >> np.uint64(11)).astype(np.float64) / float(1 << 53)
            self._block_start, self.counter, offset = start, start, 0
        self.counter += n
        # a view into the buffer; the words it covers are never handed out again
        return self._block[offset:offset + n]

    def normal(self, n: int) -> np.ndarray:
        """`n` i.i.d. standard normal doubles via Box-Muller.

        Pairs draw interleaved uniforms so even-sized chunked requests
        reproduce the stream of one large request.
        """
        if n == 0:
            return np.empty(0, dtype=np.float64)
        pairs = (n + 1) // 2
        uniforms = self.uniform(2 * pairs)
        u1 = uniforms[0::2]
        u2 = uniforms[1::2]
        radius = np.sqrt(-2.0 * np.log1p(-u1))
        angle = 2.0 * math.pi * u2
        out = np.empty(2 * pairs, dtype=np.float64)
        out[0::2] = radius * np.cos(angle)
        out[1::2] = radius * np.sin(angle)
        return out[:n]

    def integers(self, n: int, bound: int) -> np.ndarray:
        """`n` ints uniform on [0, bound) by scaling the 53-bit uniforms."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return np.minimum((self.uniform(n) * bound).astype(np.int64), bound - 1)

    def shuffle(self, items: list) -> list:
        """Fisher-Yates shuffle; returns a new list, input untouched."""
        out = list(items)
        n = len(out)
        if n < 2:
            return out
        bounds = np.arange(n, 1, -1, dtype=np.int64)
        picks = np.minimum((self.uniform(n - 1) * bounds).astype(np.int64), bounds - 1)
        for i, j in zip(range(n - 1, 0, -1), picks.tolist()):
            out[i], out[j] = out[j], out[i]
        return out

    def choice_weighted(self, weights: np.ndarray) -> int:
        """Index drawn proportionally to nonnegative `weights`."""
        total = float(np.sum(weights))
        if total <= 0:
            raise ValueError("weights must have positive sum")
        cum = np.cumsum(weights) / total
        u = float(self.uniform(1)[0])
        return int(np.searchsorted(cum, u, side="right"))
