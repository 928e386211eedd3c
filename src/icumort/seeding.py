"""Deterministic seed derivation and a small portable PRNG.

All randomness flows from a single global seed. Per-stage seeds are derived
by folding the stage name into the seed; event-level seeds additionally fold
integer keys (stay id, channel index, hour). Keyed derivation makes every
random choice independent of iteration order and input file ordering, so
re-runs and parallel runs agree bit for bit.

The generator is splitmix64 (Steele, Lea and Flood's 64-bit mixing step),
chosen because it is tiny, well documented, and trivially portable. Every
draw outside synth's numpy event generator uses it: the anomaly-injection
coins, the split and epoch shuffles, the featurize picks and the initial
LSTM weights. It is plain wrapping uint64 arithmetic, so
``derive_seed_many`` and ``leading_uniforms`` compute it with numpy for many
keys at once, bit for bit equal to the scalar functions. Only the vector
functions import numpy, so a process that uses the scalar half alone never
loads it.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


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
