"""Deterministic seed derivation and a small portable PRNG.

All randomness flows from a single global seed. Per-stage seeds are derived
by folding the stage name into the seed; event-level seeds additionally fold
integer keys (stay id, channel index, hour). Keyed derivation makes every
random choice independent of iteration order and input file ordering, so
re-runs and parallel runs agree bit for bit.

The generator is splitmix64 (Steele, Lea and Flood's 64-bit mixing step),
chosen because it is tiny, well documented, and trivially portable. It is
plain wrapping uint64 arithmetic, so ``derive_seed_many`` and
``leading_uniforms`` compute it with numpy for many keys at once, bit for bit
equal to the scalar functions. ``Pcg64`` is numpy's PCG64 stream, drawn
without ``numpy.random``. Only the vector functions import numpy, so a
process that uses the scalar half alone never loads it.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_M32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def splitmix64(x: int) -> int:
    """One splitmix64 step: advance by the golden-ratio increment and mix."""
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix(acc: int, value: int) -> int:
    return splitmix64(acc ^ (value & _MASK64))


def derive_seed(root: int, *parts: int | str) -> int:
    """Derive a child seed from a root seed and a sequence of keys.

    Integer keys are folded directly; string keys are folded as their UTF-8
    bytes in 8-byte little-endian chunks. The result is a 64-bit seed that is
    a pure function of (root, parts).
    """
    acc = splitmix64(root & _MASK64)
    for part in parts:
        if isinstance(part, str):
            data = part.encode("utf-8")
            for i in range(0, len(data), 8):
                acc = _mix(acc, int.from_bytes(data[i : i + 8], "little"))
        else:
            acc = _mix(acc, int(part))
    return acc


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    import numpy as np

    # uint64 array arithmetic wraps modulo 2**64, as the scalar masks do.
    z = x + np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def derive_seed_many(root: int, *prefix: int | str, keys) -> np.ndarray:
    """``derive_seed(root, *prefix, k)`` for every integer k in ``keys``.

    The prefix is folded once; the keys are folded as one uint64 array, so
    negative keys wrap to their two's complement exactly as the scalar
    ``value & _MASK64`` does. Returns a uint64 array shaped like ``keys``.
    """
    import numpy as np

    keys = np.asarray(keys)
    if keys.size == 0:
        keys = keys.astype(np.int64)
    if keys.dtype.kind == "i":
        keys = keys.astype(np.int64).view(np.uint64)
    elif keys.dtype.kind == "u":
        keys = keys.astype(np.uint64)
    else:
        raise TypeError(f"keys must be integers, got dtype {keys.dtype}")
    acc = np.uint64(derive_seed(root, *prefix))
    return _splitmix64_array(keys ^ acc)


def leading_uniforms(seeds: np.ndarray, k: int) -> np.ndarray:
    """The first k ``SplitMix64(seed).uniform()`` draws for every seed.

    Returns a float64 array of shape ``seeds.shape + (k,)``; entry j is the
    (j+1)-th draw of the stream seeded with that seed.
    """
    import numpy as np

    seeds = np.asarray(seeds, dtype=np.uint64)
    steps = np.arange(k, dtype=np.uint64) * np.uint64(_GOLDEN)
    bits = _splitmix64_array(seeds[..., None] + steps) >> np.uint64(11)
    return bits.astype(np.float64) * (2.0**-53)


class SplitMix64:
    """Sequential splitmix64 stream with uniform integer helpers."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        z = splitmix64(self._state)
        self._state = (self._state + _GOLDEN) & _MASK64
        return z

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) via rejection sampling (unbiased)."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = _MASK64 - (_MASK64 + 1) % n
        while True:
            u = self.next_u64()
            if u <= limit:
                return u % n

    def uniform(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0**-53)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle driven by this stream."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]


def _affine(mult: int, add: int, hi: np.ndarray, lo: np.ndarray) -> tuple:
    """(mult s + add) mod 2**128 for each s = hi 2**64 + lo, in uint64 halves;
    ``mulhi``, the high half of a_lo lo, is summed from 32-bit limbs."""
    import numpy as np

    m32, s32 = np.uint64(_M32), np.uint64(32)
    (a_hi, a_lo), (c_hi, c_lo) = (map(np.uint64, divmod(v, 2**64)) for v in (mult, add))
    a0, a1, b0, b1 = a_lo & m32, a_lo >> s32, lo & m32, lo >> s32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> s32) + (p01 & m32) + (p10 & m32)
    mulhi = a1 * b1 + (p01 >> s32) + (p10 >> s32) + (mid >> s32)
    new_lo = a_lo * lo + c_lo
    return mulhi + a_lo * hi + a_hi * lo + c_hi + (new_lo < c_lo), new_lo


class Pcg64:
    """``np.random.default_rng(seed).uniform`` bit for bit, call after call:
    the XSL-RR of each new 128-bit LCG state, a call's states found by doubling."""

    def __init__(self, seed: int):
        # numpy's SeedSequence(seed) hashes the seed's 32-bit words into a pool
        # of four, then out as 4 uint64 words (even word high): state, stream.
        if seed < 0:
            raise ValueError("seed must be a non-negative integer")
        entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
        const = 0x43B0D7E5

        def hashmix(value: int, mult: int = 0x931E8875) -> int:
            nonlocal const
            value ^= const
            const = const * mult & _M32
            value = value * const & _M32
            return value ^ value >> 16
        pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
        for src in range(max(len(entropy), 4)):
            for dst in [d for d in range(4) if d != src]:
                value = hashmix(pool[src] if src < 4 else entropy[src])
                value = (0xCA01F9DD * pool[dst] - 0x4973F715 * value) & _M32
                pool[dst] = value ^ value >> 16
        const = 0x8B51F9DD
        w = [hashmix(pool[i % 4], 0x58F38DED) for i in range(8)]
        init = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
        self._inc = (w[5] << 97 | w[4] << 65 | w[7] << 33 | w[6] << 1 | 1) & _MASK128
        self._state = (self._inc + init) * _PCG_MULT + self._inc & _MASK128

    def uniform(self, low: float, high: float, size: int | tuple) -> np.ndarray:
        import numpy as np

        n = int(np.prod(size))
        states = np.empty((2, 1 << max(n - 1, 0).bit_length()), dtype=np.uint64)
        states[:, 0] = divmod(self._state * _PCG_MULT + self._inc & _MASK128, 1 << 64)
        # Doubling: the first m states, each m steps on, are the next m.
        mult, add, m = _PCG_MULT, self._inc, 1
        while m < states.shape[1]:
            states[:, m : 2 * m] = _affine(mult, add, *states[:, :m])
            mult, add, m = mult * mult & _MASK128, (mult + 1) * add & _MASK128, 2 * m
        hi, lo = states[:, :n]
        self._state = int(hi[-1]) << 64 | int(lo[-1]) if n else self._state
        x, rot = hi ^ lo, hi >> np.uint64(58)
        out = x >> rot | x << (-rot & np.uint64(63))
        unit = (out >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return (low + (high - low) * unit).reshape(size)
