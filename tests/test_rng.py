"""Stream determinism and distribution sanity for the counter PRNG."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from moerec.data import SynthSpec, generate_synthetic, split_records
from moerec.rng import _BLOCK, Rng, _fnv1a64, _mix64


def _splitmix_reference(seed, count):
    # Independent pure-Python SplitMix64, masked to 64 bits.
    mask = (1 << 64) - 1
    out = []
    for i in range(1, count + 1):
        z = (seed + i * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def test_words_match_pure_python_reference():
    rng = Rng(123456789)
    got = rng._words(16)
    expected = _splitmix_reference(123456789, 16)
    assert [int(w) for w in got] == expected


def test_same_seed_bit_identical():
    a = Rng(42).normal(257)
    b = Rng(42).normal(257)
    assert a.tobytes() == b.tobytes()


def test_different_seeds_differ():
    assert Rng(1).uniform(8).tolist() != Rng(2).uniform(8).tolist()


def test_uniform_range():
    u = Rng(7).uniform(10000)
    assert u.min() >= 0.0 and u.max() < 1.0


def test_normal_moments_million_draws():
    z = Rng(2024).normal(1_000_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.02


def test_normal_empty():
    assert Rng(0).normal(0).shape == (0,)


def test_normal_even_chunks_reproduce_stream():
    whole = Rng(9).normal(64)
    rng = Rng(9)
    parts = np.concatenate([rng.normal(16) for _ in range(4)])
    assert whole.tobytes() == parts.tobytes()


def test_substream_independent_and_stable():
    root = Rng(99)
    a1 = root.substream("data").uniform(4)
    a2 = Rng(99).substream("data").uniform(4)
    b = Rng(99).substream("init").uniform(4)
    assert a1.tolist() == a2.tolist()
    assert a1.tolist() != b.tolist()
    # deriving substreams does not advance the parent counter
    assert root.counter == 0


def test_fnv_label_hash_known_value():
    # FNV-1a 64-bit of "data" per the published constants.
    h = 0xCBF29CE484222325
    for byte in b"data":
        h = ((h ^ byte) * 0x100000001B3) & ((1 << 64) - 1)
    assert int(_fnv1a64("data")) == h


def test_integers_bounds():
    draws = Rng(5).integers(5000, 7)
    assert draws.min() >= 0 and draws.max() <= 6
    assert set(np.unique(draws)) == set(range(7))


def test_shuffle_is_permutation_and_deterministic():
    items = list(range(20))
    s1 = Rng(11).shuffle(items)
    s2 = Rng(11).shuffle(items)
    assert s1 == s2
    assert sorted(s1) == items
    assert items == list(range(20))


def test_mix64_vectorized_matches_scalar():
    xs = np.array([1, 2, 2**63, 2**64 - 1], dtype=np.uint64)
    out = _mix64(xs.copy())
    for x, o in zip(xs, out):
        mask = (1 << 64) - 1
        z = int(x)
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z = z ^ (z >> 31)
        assert int(o) == z


class ReferenceRng(Rng):
    """The stream drawn a word at a time: every `uniform` call converts its
    own `_words`, and Fisher-Yates draws one bounded integer per position."""

    def uniform(self, n):
        return (self._words(n) >> np.uint64(11)).astype(np.float64) / float(1 << 53)

    def shuffle(self, items):
        out = list(items)
        for i in range(len(out) - 1, 0, -1):
            j = int(self.integers(1, i + 1)[0])
            out[i], out[j] = out[j], out[i]
        return out


SIZES = [0, 1, 2, 3, 7, 255, _BLOCK, 257, 300, 511, 513, 1000]


def _draw(rng, op, size, bound):
    if op == "uniform":
        return rng.uniform(size)
    if op == "normal":
        return rng.normal(size)
    if op == "integers":
        return rng.integers(size, bound)
    if op == "shuffle":
        return np.array(rng.shuffle(list(range(size))), dtype=np.int64)
    return np.array([rng.choice_weighted(np.arange(1.0, size + 2.0))])


@pytest.mark.parametrize("seed", range(50))
def test_blocked_stream_matches_word_at_a_time_reference(seed):
    plan = np.random.default_rng(seed)
    ops = ["uniform", "normal", "integers", "shuffle", "choice_weighted"]
    fast, slow = Rng(seed), ReferenceRng(seed)
    for _ in range(40):
        op = ops[plan.integers(len(ops))]
        size = int(plan.choice(SIZES))
        bound = int(plan.integers(1, 1000))
        got, want = _draw(fast, op, size, bound), _draw(slow, op, size, bound)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (op, size)
        assert fast.counter == slow.counter, (op, size)


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def _rows(records):
    return [dataclasses.asdict(r) for r in records]


def test_synthetic_corpus_and_split_are_pinned():
    # sha256 of the seed-7 default corpus and its split, as drawn a word at a
    # time; any drift of the stream changes them
    records, labels = generate_synthetic(SynthSpec(seed=7))
    assert _digest([_rows(records), labels]) == (
        "44761a3fbc9157e5ef5ad6ecc0ca201b1ccb4df7b1b7763d3273dff1d83de10d")
    split = split_records(records, 7)
    assert _digest([_rows(split.train), _rows(split.valid), _rows(split.test),
                    split.user_index, split.item_index]) == (
        "0f968700d6f1df2ee2329e989a0df71866068e5a6e1a5f0c10d81f6da28ee945")
