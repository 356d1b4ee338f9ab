"""Metric semantics against frozen hand-worked values and naive oracles."""

import math

import numpy as np
import pytest

from moerec.data import InteractionRecord
from moerec.errors import DataError, MetricError
from moerec.metrics import (
    MetricReport,
    adjusted_rand_index,
    bleu_n,
    cluster_purity,
    corpus_bleu,
    distinct_n,
    evaluate_model,
    rmse,
    rouge_scores,
    _lcs_length,
    _text_metrics,
)
from moerec.verify import (
    ari_pair_enumeration,
    lcs_reference,
    lcs_table,
    naive_bleu,
    naive_distinct,
    naive_rmse,
    naive_rouge,
    verify_metrics,
)


# --- BLEU ---

def test_bleu_identical_is_one():
    toks = "a man walks into a bar".split()
    assert bleu_n(toks, toks, 4) == pytest.approx(1.0, abs=1e-12)


def test_bleu_empty_candidate_zero():
    assert bleu_n([], "the reference".split(), 1) == 0.0


def test_bleu_brevity_penalty_worked_case():
    # precision 3/3 = 1, brevity e^(1 - 4/3)
    got = bleu_n("the cat sat".split(), "the cat sat down".split(), 1)
    assert got == pytest.approx(math.exp(1.0 - 4.0 / 3.0), abs=1e-12)
    assert got == pytest.approx(0.7165313105737893, abs=1e-12)


def test_bleu_empty_reference_error():
    with pytest.raises(MetricError):
        bleu_n("a".split(), [], 1)


def test_bleu_clipping():
    # candidate repeats "the"; clipped count is 1 of 3
    got = bleu_n("the the the".split(), "the cat".split(), 1)
    assert got == pytest.approx((1.0 / 3.0) * 1.0, abs=1e-12)


def test_bleu_smoothing_keeps_bleu4_positive():
    got = bleu_n("a b".split(), "a b".split(), 4)
    assert 0.0 < got < 1.0


def test_corpus_bleu_micro_average():
    pairs = [("a b".split(), "a b".split()), ("c d".split(), "x y".split())]
    # order 1: clipped 2+0=2, total 4; corpus BP=1 → (2/4)
    assert corpus_bleu(pairs, 1) == pytest.approx(0.5, abs=1e-12)


# --- ROUGE ---

def test_rouge_identical():
    toks = "the food was great".split()
    assert rouge_scores(toks, toks) == (pytest.approx(1.0), pytest.approx(1.0))


def test_rouge_disjoint():
    assert rouge_scores("a b".split(), "c d".split()) == (0.0, 0.0)


def test_rouge_worked_case():
    r1, rl = rouge_scores("a b c d".split(), "a c b d".split())
    assert r1 == pytest.approx(1.0, abs=1e-12)
    assert rl == pytest.approx(0.75, abs=1e-12)


# --- distinct ---

def test_distinct_repeated_unigrams():
    assert distinct_n(["a b a b".split()], 1) == pytest.approx(0.5)


def test_distinct_all_unique():
    assert distinct_n(["a b c".split(), "d e".split()], 1) == pytest.approx(1.0)


def test_distinct_pools_across_texts():
    # two identical bigram texts: 1 unique / 2 total
    assert distinct_n(["a b".split(), "a b".split()], 2) == pytest.approx(0.5)


def test_distinct_zero_ngrams_defined_as_zero():
    assert distinct_n([[]], 2) == 0.0


# --- rmse / ARI ---

def test_rmse_basics():
    assert rmse([0.1, 0.9], [0.1, 0.9]) == 0.0
    assert rmse([0.5], [0.9]) == pytest.approx(0.4, abs=1e-12)
    with pytest.raises(MetricError):
        rmse([0.1], [0.1, 0.2])


def test_ari_identical_and_permuted():
    labels = [0, 0, 1, 1, 2, 2]
    assert adjusted_rand_index(labels, labels) == pytest.approx(1.0)
    permuted = [2, 2, 0, 0, 1, 1]
    assert adjusted_rand_index(permuted, labels) == pytest.approx(1.0)


def test_ari_constant_prediction_is_zero():
    assert adjusted_rand_index([0] * 6, [0, 0, 1, 1, 2, 2]) == pytest.approx(0.0)


def test_ari_six_point_contingency_case():
    pred = [0, 0, 1, 1, 1, 2]
    true = [0, 1, 1, 1, 2, 2]
    assert adjusted_rand_index(pred, true) == pytest.approx(
        ari_pair_enumeration(pred, true), abs=1e-12)


def test_purity():
    assert cluster_purity([0, 0, 1, 1], [5, 5, 7, 7]) == 1.0
    assert cluster_purity([0, 0, 0, 0], [1, 1, 2, 2]) == 0.5


# --- oracle sweeps (50 random cases per metric) ---

def test_metrics_match_naive_references_sweep():
    results = verify_metrics(cases=50)
    failed = [r for r in results if not r.passed]
    assert not failed, failed


def test_naive_references_disagree_with_wrong_values():
    # sanity that the oracles are not vacuous
    assert naive_bleu("a b".split(), "a b".split(), 1) == pytest.approx(1.0)
    assert naive_rouge("a b".split(), "b a".split())[1] == pytest.approx(0.5)
    assert naive_distinct(["a a".split()], 1) == pytest.approx(0.5)
    assert naive_rmse([0.0], [1.0]) == pytest.approx(1.0)
    assert ari_pair_enumeration([0, 1], [1, 0]) == pytest.approx(1.0)


@pytest.mark.parametrize("seed", range(6))
def test_text_metrics_equal_the_public_metrics(seed):
    # seeded random token pairs over a small vocabulary, so that n-grams
    # repeat, with empty candidates among them, and pairs longer than 64
    # tokens, so that the bit-parallel LCS runs past one machine word
    rng = np.random.default_rng(seed)
    words = list("abcdef")
    pairs = [([words[i] for i in rng.integers(0, 6, rng.integers(0, 9))],
              [words[i] for i in rng.integers(0, 6, rng.integers(1, 9))])
             for _ in range(int(rng.integers(1, 40)))]
    pairs += [([words[i] for i in rng.integers(0, 6, rng.integers(65, 150))],
               [words[i] for i in rng.integers(0, 6, rng.integers(lo, 150))])
              for lo in (1, 65)]
    pairs.append(([], list("ab")))
    rouge = [rouge_scores(c, r) for c, r in pairs]
    assert _text_metrics(pairs) == {
        "bleu1": corpus_bleu(pairs, 1),
        "bleu4": corpus_bleu(pairs, 4),
        "rouge1": float(np.mean([r1 for r1, _ in rouge])),
        "rougeL": float(np.mean([rl for _, rl in rouge])),
        "distinct1": distinct_n([c for c, _ in pairs], 1),
        "distinct2": distinct_n([c for c, _ in pairs], 2),
    }
    for (c, r), scores in zip(pairs, rouge):
        assert _lcs_length(c, r) == lcs_reference(c, r) == lcs_table(c, r)
        assert _lcs_length(r, c) == lcs_reference(r, c) == lcs_table(r, c)
        assert scores == pytest.approx(naive_rouge(c, r), rel=1e-12)
        for n in range(1, 5):
            assert bleu_n(c, r, n) == pytest.approx(naive_bleu(c, r, n), rel=1e-12)


# --- evaluate_model ---

class EchoBundle:
    """Echoes each reference, gates record i to i % 3 and predicts the
    normalized rating exactly; counts the batch calls it receives. Its
    prompts are empty and render as the empty string."""

    clusters = 3
    gates_count = 3

    def __init__(self):
        self.calls = {"explain": 0, "predict_norm_ratings": 0}

    def text(self, record):
        return record.explanation

    def prompts(self, records):
        return [[] for _ in records]

    def prompt_text(self, prompt):
        return ""

    def explain(self, records, prompts=None):
        self.calls["explain"] += 1
        gates = np.arange(len(records)) % 3
        return [self.text(r) for r in records], gates, np.eye(3)[gates]

    def predict_norm_ratings(self, records):
        self.calls["predict_norm_ratings"] += 1
        return np.array([r.rating / 5.0 for r in records])


def records_fixture(n=9):
    out = []
    for i in range(n):
        out.append(InteractionRecord(
            user=f"u{i % 3}", item=f"i{i}", rating=1.0 + (i % 5),
            features=["x"], explanation=f"text number {i} reads well"))
    return out


def test_evaluate_echo_model_perfect_scores():
    report, rows = evaluate_model(EchoBundle(), records_fixture())
    assert report.values["bleu1"] == pytest.approx(1.0)
    assert report.values["rouge1"] == pytest.approx(1.0)
    assert report.values["rmse"] == pytest.approx(0.0)
    assert set(report.values) == {"bleu1", "bleu4", "rouge1", "rougeL",
                                  "distinct1", "distinct2", "rmse"}
    assert len(rows) == 9


def test_evaluate_bucket_mode_rows():
    records = records_fixture(9)
    train = records_fixture(9)
    report, _ = evaluate_model(EchoBundle(), records, train_records=train,
                               buckets=True)
    assert set(report.buckets) >= {"ds1", "ds2", "ds3"}
    sizes = [report.buckets[k]["count"] for k in ("ds1", "ds2", "ds3")]
    assert max(sizes) - min(sizes) <= 1
    assert "bleu4_ratio_ds3_ds1" in report.buckets


@pytest.mark.parametrize("n,train,needle", [
    (1, records_fixture(9), "at least 3 test records, one per bucket, have 1"),
    (2, records_fixture(9), "at least 3 test records, one per bucket, have 2"),
    (9, None, "needs the training records"),
])
def test_bucket_inputs_are_checked_before_any_decoding(n, train, needle):
    bundle = EchoBundle()
    with pytest.raises(MetricError, match=needle):
        evaluate_model(bundle, records_fixture(n), train_records=train, buckets=True)
    assert bundle.calls == {"explain": 0, "predict_norm_ratings": 0}
    # three records fill one bucket each
    report, _ = evaluate_model(bundle, records_fixture(3), train_records=records_fixture(9),
                               buckets=True)
    assert [report.buckets[k]["count"] for k in ("ds1", "ds2", "ds3")] == [1, 1, 1]


def test_report_percent_formatting():
    report = MetricReport(values={"bleu1": 0.21370, "rmse": 0.5}, count=3)
    table = report.to_table()
    assert "21.370" in table and "0.5000" in table
    assert "n/a" not in table
    payload = report.to_json()
    assert "21.37" in payload
    perfect = MetricReport(values={"bleu1": 1.0}, count=1)
    assert "100.000" in perfect.to_table()


def test_evaluate_rows_carry_prompt_when_available():
    # each row renders the prompt that explain was handed, built once
    class PromptedEcho(EchoBundle):
        def prompts(self, records):
            self.built = [["asking", "about", record.item] for record in records]
            return self.built

        def prompt_text(self, prompt):
            return " ".join(prompt)

        def explain(self, records, prompts=None):
            assert prompts is self.built
            return super().explain(records)

    _, rows = evaluate_model(PromptedEcho(), records_fixture(3))
    assert [row["prompt"] for row in rows] == [f"asking about i{i}" for i in range(3)]


def test_evaluate_scores_the_bundle_texts():
    class ConstantBundle(EchoBundle):
        def text(self, record):
            return "constant words"

    report, _ = evaluate_model(ConstantBundle(), records_fixture(6))
    assert report.values["bleu1"] < 0.5


def test_evaluate_hands_the_batch_to_the_bundle_once():
    bundle = EchoBundle()
    _, rows = evaluate_model(bundle, records_fixture(7))
    assert bundle.calls == {"explain": 1, "predict_norm_ratings": 1}
    assert [row["gate"] for row in rows] == [0, 1, 2, 0, 1, 2, 0]
    assert all(type(row["gate"]) is int and list(row)[-1] == "gate" for row in rows)


def test_evaluate_rejects_a_rating_above_r_max():
    records = records_fixture(3)
    records[1].rating = 5.5
    with pytest.raises(DataError, match="R_MAX"):
        evaluate_model(EchoBundle(), records)


def test_evaluate_empty_test_set_errors():
    with pytest.raises(MetricError):
        evaluate_model(EchoBundle(), [])
