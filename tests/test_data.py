"""Dataset loading, splitting, bucketing, and the planted synthetic corpus."""

import json

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from moerec.data import (
    CLUSTER_LEXICONS,
    CLUSTER_RATING_BIAS,
    FAVORITES_PER_USER,
    NOISE_RATE,
    RATING_NOISE,
    InteractionRecord,
    SynthSpec,
    check_rating,
    cluster_signature,
    corpus_stats,
    generate_synthetic,
    load_labels,
    load_records,
    save_labels,
    save_records,
    render_explanation,
    sparsity_buckets,
    split_records,
)
from moerec.errors import DataError
from moerec.rng import Rng


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def record_line(user="u1", item="i1", rating=4.0, features=("thai",),
                explanation="good thai"):
    return json.dumps({"user": user, "item": item, "rating": rating,
                       "features": list(features), "explanation": explanation})


def test_load_well_formed(tmp_path):
    path = tmp_path / "data.jsonl"
    write_lines(path, [record_line(user=f"u{i}") for i in range(3)])
    records = load_records(path)
    assert len(records) == 3
    assert records[0].rating == 4.0


def test_load_rejects_zero_rating_with_line_number(tmp_path):
    path = tmp_path / "data.jsonl"
    write_lines(path, [record_line(), record_line(rating=0.0)])
    with pytest.raises(DataError) as err:
        load_records(path)
    assert "line 2" in str(err.value)


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400])
def test_load_rejects_non_finite_rating_with_line_number(tmp_path, value):
    path = tmp_path / "data.jsonl"
    bad = record_line().replace('"rating": 4.0', f'"rating": {value}')
    write_lines(path, [record_line(), bad])
    with pytest.raises(DataError) as err:
        load_records(path)
    assert "line 2" in str(err.value)
    assert "finite" in str(err.value)


@pytest.mark.parametrize("value", ["5.5", "9", "1e300"])
def test_load_rejects_a_rating_above_the_scale_with_line_number(tmp_path, value):
    path = tmp_path / "data.jsonl"
    bad = record_line().replace('"rating": 4.0', f'"rating": {value}')
    write_lines(path, [record_line(rating=5.0), bad])
    with pytest.raises(DataError) as err:
        load_records(path)
    message = str(err.value)
    assert "line 2" in message and "line 1" not in message and "R_MAX" in message


def test_check_rating_takes_the_five_star_scale_top_included():
    assert check_rating(5, "here") == 5.0 and check_rating(0.25, "here") == 0.25
    for rating in (5.000001, 9, 1e308):
        with pytest.raises(DataError, match=r"here: .*R_MAX=5\.0"):
            check_rating(rating, "here")


def test_load_rejects_missing_field(tmp_path):
    path = tmp_path / "data.jsonl"
    bad = json.dumps({"user": "u", "item": "i", "rating": 3.0, "features": []})
    write_lines(path, [bad])
    with pytest.raises(DataError) as err:
        load_records(path)
    assert "line 1" in str(err.value)


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "data.jsonl"
    write_lines(path, [record_line(), "{not json"])
    with pytest.raises(DataError) as err:
        load_records(path)
    assert "line 2" in str(err.value)


def test_load_reports_every_bad_line(tmp_path):
    path = tmp_path / "data.jsonl"
    write_lines(path, [record_line(rating=0.0), record_line(), "nope"])
    with pytest.raises(DataError) as err:
        load_records(path)
    message = str(err.value)
    assert "line 1" in message and "line 3" in message


def test_load_empty_file_ok(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text("", encoding="utf-8")
    assert load_records(path) == []


def test_save_load_roundtrip(tmp_path):
    records = [InteractionRecord(f"u{i}", f"i{i}", 0.5 + i, ["a", "b"], "text here")
               for i in range(5)]
    path = tmp_path / "data.jsonl"
    save_records(records, path)
    assert load_records(path) == records


def test_labels_roundtrip(tmp_path):
    labels = {"u1": 0, "u2": 2}
    path = tmp_path / "labels.tsv"
    save_labels(labels, path)
    assert load_labels(path) == labels


def make_records(n, users=None):
    users = users or [f"u{i % 7}" for i in range(n)]
    return [InteractionRecord(users[i], f"i{i % 5}", 1.0 + (i % 5), ["x"], "t")
            for i in range(n)]


def test_split_100_records():
    split = split_records(make_records(100), seed=3)
    assert (len(split.train), len(split.valid), len(split.test)) == (80, 10, 10)


def test_split_10_records():
    split = split_records(make_records(10), seed=3)
    assert (len(split.train), len(split.valid), len(split.test)) == (8, 1, 1)


def test_split_remainder_goes_to_train():
    split = split_records(make_records(99), seed=1)
    assert (len(split.train), len(split.valid), len(split.test)) == (81, 9, 9)


def test_split_partitions_exactly():
    records = make_records(57)
    split = split_records(records, seed=9)
    rebuilt = split.train + split.valid + split.test
    assert sorted(map(id, rebuilt)) == sorted(map(id, records))


def test_split_deterministic():
    records = make_records(40)
    a = split_records(records, seed=5)
    b = split_records(records, seed=5)
    assert [r.user for r in a.train] == [r.user for r in b.train]
    assert [r.item for r in a.test] == [r.item for r in b.test]


def test_split_too_few():
    with pytest.raises(DataError):
        split_records(make_records(9), seed=0)


def test_split_id_maps_cover_all_and_sorted():
    split = split_records(make_records(30), seed=2)
    assert list(split.user_index.values()) == list(range(split.n_users))
    assert sorted(split.user_index) == list(split.user_index)
    unk = split.n_users
    ids = split.user_ids([InteractionRecord("stranger", "i0", 1.0, [], "t")])
    assert ids[0] == unk


def test_buckets_nine_distinct():
    train = []
    for i, user in enumerate(["a", "b", "c", "d", "e", "f", "g", "h", "j"]):
        train += [InteractionRecord(user, "i", 1.0, [], "t")] * (9 - i)
    test = [InteractionRecord(u, "i", 1.0, [], "t")
            for u in ["a", "b", "c", "d", "e", "f", "g", "h", "j"]]
    ds1, ds2, ds3 = sparsity_buckets(test, train)
    assert [len(ds1), len(ds2), len(ds3)] == [3, 3, 3]
    assert [r.user for r in ds1] == ["a", "b", "c"]
    assert [r.user for r in ds3] == ["g", "h", "j"]


def test_buckets_tie_break_lexicographic():
    train = [InteractionRecord(u, "i", 1.0, [], "t") for u in ["b", "a", "c"]]
    test = [InteractionRecord(u, "i", 1.0, [], "t") for u in ["c", "b", "a"]]
    ds1, ds2, ds3 = sparsity_buckets(test, train)
    assert (ds1[0].user, ds2[0].user, ds3[0].user) == ("a", "b", "c")


def test_buckets_unseen_user_falls_last():
    train = [InteractionRecord("a", "i", 1.0, [], "t")] * 3
    test = [InteractionRecord(u, "i", 1.0, [], "t") for u in ["ghost", "a", "a"]]
    ds1, ds2, ds3 = sparsity_buckets(test, train)
    assert ds3[0].user == "ghost"


def test_buckets_sizes_differ_by_at_most_one():
    train = make_records(50)
    test = make_records(10)
    sizes = [len(b) for b in sparsity_buckets(test, train)]
    assert max(sizes) - min(sizes) <= 1 and sum(sizes) == 10


def test_buckets_monotone_frequencies():
    train = make_records(61)
    test = make_records(23)
    freq = {}
    for r in train:
        freq[r.user] = freq.get(r.user, 0) + 1
    ds = sparsity_buckets(test, train)
    mins_maxes = [([freq.get(r.user, 0) for r in b]) for b in ds]
    assert min(mins_maxes[0]) >= max(mins_maxes[1])
    assert min(mins_maxes[1]) >= max(mins_maxes[2])


# --- synthetic corpus ---

def test_synthetic_default_arithmetic():
    records, labels = generate_synthetic(SynthSpec())
    assert len(records) == 6000
    stats = corpus_stats(records)
    assert stats["users"] == 300 and stats["records"] == 6000
    assert stats["items"] <= 100
    assert len(labels) == 300
    assert set(labels.values()) == {0, 1, 2}
    # slotted records that share one string per distinct explanation
    assert not hasattr(records[0], "__dict__")
    assert len({id(r.explanation) for r in records}) == len({r.explanation for r in records})


def test_synthetic_noiseless_features_stay_in_lexicon():
    # one planted cluster has no other cluster's tokens to swap a feature for
    records, labels = generate_synthetic(SynthSpec(planted_clusters=1, n_users=30,
                                                   n_items=10, records_per_user=5))
    for rec in records:
        lexicon = set(CLUSTER_LEXICONS[labels[rec.user]])
        assert set(rec.features) <= lexicon


def test_synthetic_deterministic():
    a, la = generate_synthetic(SynthSpec(seed=9))
    b, lb = generate_synthetic(SynthSpec(seed=9))
    assert a == b and la == lb
    c, _ = generate_synthetic(SynthSpec(seed=10))
    assert a != c


def test_synthetic_ratings_in_range_and_cluster_separated():
    records, labels = generate_synthetic(SynthSpec(n_users=60, records_per_user=10))
    means = {}
    for rec in records:
        assert 1.0 <= rec.rating <= 5.0
        means.setdefault(labels[rec.user], []).append(rec.rating)
    centers = sorted(np.mean(v) for v in means.values())
    assert centers[1] - centers[0] > 0.8 and centers[2] - centers[1] > 0.8


def test_synthetic_lexicons_disjoint():
    for i in range(len(CLUSTER_LEXICONS)):
        for j in range(i + 1, len(CLUSTER_LEXICONS)):
            assert not set(CLUSTER_LEXICONS[i]) & set(CLUSTER_LEXICONS[j])


def test_synthetic_explanations_are_deterministic_given_fields():
    from moerec.data import render_explanation
    records, labels = generate_synthetic(SynthSpec(n_users=30, records_per_user=5))
    for rec in records[:50]:
        bucket = int(np.clip(round(rec.rating), 1, 5))
        assert rec.explanation == render_explanation(
            labels[rec.user], bucket, rec.features[0], rec.features[1])


# --- the block generator against the word-at-a-time one ---

def reference_generate_synthetic(spec):
    """The generator as it drew its stream one scalar Rng call at a time."""
    rng = Rng(spec.seed).substream("synth")
    k = spec.planted_clusters
    users = [f"u{idx:04d}" for idx in range(spec.n_users)]
    items = [f"i{idx:04d}" for idx in range(spec.n_items)]
    labels = {user: idx % k for idx, user in enumerate(users)}

    item_effect = {item: float(rng.uniform(1)[0] * 0.5 - 0.25) for item in items}
    favorites = {}
    for user in users:
        lex = cluster_signature(labels[user])
        favorites[user] = rng.shuffle(lex)[:FAVORITES_PER_USER]

    other_tokens = {
        c: [tok for cc in range(k) if cc != c for tok in CLUSTER_LEXICONS[cc]]
        for c in range(k)
    }

    records = []
    for user in users:
        cluster = labels[user]
        for _ in range(spec.records_per_user):
            item = items[int(rng.integers(1, spec.n_items)[0])]
            favs = favorites[user]
            first = int(rng.integers(1, len(favs))[0])
            second = int(rng.integers(1, len(favs) - 1)[0])
            picks = [favs[first], [f for i, f in enumerate(favs) if i != first][second]]
            feats = []
            for tok in picks:
                noisy = k > 1 and float(rng.uniform(1)[0]) < NOISE_RATE
                if noisy:
                    pool = other_tokens[cluster]
                    feats.append(pool[int(rng.integers(1, len(pool))[0])])
                else:
                    feats.append(tok)
            rating = min(max(
                CLUSTER_RATING_BIAS[cluster] + item_effect[item]
                + float(rng.normal(1)[0]) * RATING_NOISE, 1.0), 5.0)
            rating = round(rating, 2)
            bucket = min(max(round(rating), 1), 5)
            records.append(InteractionRecord(
                user=user, item=item, rating=rating, features=feats,
                explanation=render_explanation(cluster, bucket, feats[0], feats[1])))
    return records, labels


ORACLE_SPECS = {
    "default.seed0": SynthSpec(),
    "default.seed1": SynthSpec(seed=1),
    "demo": SynthSpec(n_users=90, n_items=40, records_per_user=12, seed=7),
    "bench-smoke": SynthSpec(n_users=12, n_items=8, records_per_user=6, seed=7),
    "ci-smoke": SynthSpec(planted_clusters=2, n_users=24, n_items=12, records_per_user=6,
                          seed=5),
    "one-cluster": SynthSpec(planted_clusters=1, n_users=60, seed=2),
    "five-clusters": SynthSpec(planted_clusters=5, n_users=60, seed=6),
    "one-item": SynthSpec(n_items=1, n_users=30, seed=8),
    "one-record": SynthSpec(n_users=1, records_per_user=1, seed=9),
    "large-seed": SynthSpec(n_users=30, seed=2**64 - 1),
}


@pytest.mark.parametrize("name", list(ORACLE_SPECS))
def test_block_generator_equals_the_word_at_a_time_reference(name):
    spec = ORACLE_SPECS[name]
    assert generate_synthetic(spec) == reference_generate_synthetic(spec)


@settings(max_examples=40, deadline=None)
@given(spec=st.builds(
    SynthSpec, planted_clusters=st.integers(1, len(CLUSTER_LEXICONS)),
    n_users=st.integers(1, 9), n_items=st.integers(1, 9), records_per_user=st.integers(1, 6),
    seed=st.integers(0, 2**64 - 1)))
def test_block_generator_equals_the_reference_on_any_valid_spec(spec):
    assert generate_synthetic(spec) == reference_generate_synthetic(spec)
