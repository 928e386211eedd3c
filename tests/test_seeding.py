import numpy as np
import pytest

from icumort.seeding import (
    SplitMix64,
    derive_seed,
    derive_seed_many,
    leading_uniforms,
    splitmix64,
)


def test_splitmix64_reference_values():
    # Frozen outputs of the documented algorithm; guards against regressions.
    rng = SplitMix64(1234567)
    seq = [rng.next_u64() for _ in range(3)]
    assert seq == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_splitmix64_pure_function():
    assert splitmix64(42) == splitmix64(42)
    assert splitmix64(42) != splitmix64(43)


def test_derive_seed_deterministic_and_key_sensitive():
    a = derive_seed(7, "featurize", 1001, 3)
    assert a == derive_seed(7, "featurize", 1001, 3)
    assert a != derive_seed(7, "featurize", 1001, 4)
    assert a != derive_seed(7, "featurize", 1002, 3)
    assert a != derive_seed(8, "featurize", 1001, 3)
    assert derive_seed(7, "ab") != derive_seed(7, "ba")


def test_randbelow_bounds_and_determinism():
    rng = SplitMix64(99)
    draws = [rng.randbelow(10) for _ in range(200)]
    assert all(0 <= d < 10 for d in draws)
    rng2 = SplitMix64(99)
    assert draws == [rng2.randbelow(10) for _ in range(200)]
    with pytest.raises(ValueError):
        rng.randbelow(0)


def test_uniform_in_unit_interval():
    rng = SplitMix64(5)
    draws = [rng.uniform() for _ in range(100)]
    assert all(0.0 <= u < 1.0 for u in draws)
    assert len(set(draws)) > 90


def test_shuffle_is_permutation_and_seeded():
    items = list(range(50))
    a = items[:]
    SplitMix64(3).shuffle(a)
    assert sorted(a) == items
    assert a != items
    b = items[:]
    SplitMix64(3).shuffle(b)
    assert a == b


_EDGE_KEYS = [0, 1, -1, 2**63 - 1, -(2**63), 200001, -200001]


@pytest.mark.parametrize("prefix", [
    (),
    ("inject",),
    ("inject", "CHARTEVENTS"),
    ("inject", "LABEVENTS"),
    ("a-prefix-longer-than-eight-bytes", 17, -3),
    ("", "é"),
])
def test_derive_seed_many_matches_scalar(prefix):
    rng = np.random.default_rng(5)
    keys = np.concatenate([
        np.array(_EDGE_KEYS, dtype=np.int64),
        rng.integers(-(2**63), 2**63 - 1, size=500, dtype=np.int64),
        rng.integers(0, 10**6, size=500),
    ])
    for root in (0, 7, 2**64 - 1, -5):
        got = derive_seed_many(root, *prefix, keys=keys)
        assert got.dtype == np.uint64
        assert got.tolist() == [derive_seed(root, *prefix, int(k)) for k in keys]


def test_derive_seed_many_accepts_unsigned_and_python_ints():
    big = [0, 2**63, 2**64 - 1]
    assert derive_seed_many(3, "x", keys=np.array(big, dtype=np.uint64)).tolist() == [
        derive_seed(3, "x", k) for k in big
    ]
    assert derive_seed_many(3, "x", keys=[5, -5]).tolist() == [
        derive_seed(3, "x", 5), derive_seed(3, "x", -5)
    ]
    assert derive_seed_many(3, "x", keys=[]).shape == (0,)
    with pytest.raises(TypeError):
        derive_seed_many(3, "x", keys=[1.5])


def test_leading_uniforms_match_sequential_stream():
    seeds = derive_seed_many(11, "inject", keys=np.arange(-50, 300))
    got = leading_uniforms(seeds, 4)
    assert got.shape == (350, 4)
    for seed, row in zip(seeds.tolist(), got.tolist()):
        stream = SplitMix64(seed)
        assert row == [stream.uniform() for _ in range(4)]

