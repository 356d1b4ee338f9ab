"""Text-generation metrics, rating error, clustering agreement, reports.

All metrics operate on token sequences (see ``moerec.moe.tokenize`` for the
canonical lowercase/whitespace/punctuation rule) and return raw values in
[0, 1]; the human-readable report multiplies by 100. BLEU is corpus-level
by default and micro-averages clipped n-gram counts over all pairs;
Distinct pools n-grams across the whole corpus. BERTScore is out of scope
and not reported.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .errors import MetricError
from .data import InteractionRecord, normalized_ratings, sparsity_buckets
from .moe import tokenize

BLEU_EPSILON = 1e-9


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _clipped_counts(candidate: Sequence[str], reference: Sequence[str],
                    n: int) -> tuple:
    cand = _ngrams(candidate, n)
    ref = _ngrams(reference, n)
    clipped = sum(min(count, ref[gram]) for gram, count in cand.items())
    return clipped, sum(cand.values())


def bleu_n(candidate: Sequence[str], reference: Sequence[str], n: int) -> float:
    """Sentence BLEU-n: the corpus BLEU-n of the one pair."""
    return corpus_bleu([(candidate, reference)], n)


def corpus_bleu(pairs: Sequence[tuple], n: int) -> float:
    """Corpus BLEU-n: clipped n-gram counts of orders 1..n summed over all
    pairs, the geometric mean of their precisions with epsilon smoothing of
    zero counts, and the brevity penalty on total lengths."""
    if not 1 <= n <= 4:
        raise MetricError(f"BLEU order must be in 1..4, got {n}")
    if not pairs:
        raise MetricError("corpus BLEU needs at least one pair")
    clipped = [0] * n
    totals = [0] * n
    cand_len = ref_len = 0
    for candidate, reference in pairs:
        if len(reference) == 0:
            raise MetricError("BLEU needs a non-empty reference")
        cand_len += len(candidate)
        ref_len += len(reference)
        for order in range(1, n + 1):
            c, t = _clipped_counts(candidate, reference, order)
            clipped[order - 1] += c
            totals[order - 1] += t
    if cand_len == 0:
        return 0.0
    log_sum = 0.0
    for order in range(n):
        num = clipped[order] if clipped[order] > 0 else BLEU_EPSILON
        log_sum += math.log(num / max(totals[order], 1))
    geo = math.exp(log_sum / n)
    brevity = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    return brevity * geo


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    table = np.zeros((len(a) + 1, len(b) + 1), dtype=np.int64)
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i, j] = table[i - 1, j - 1] + 1
            else:
                table[i, j] = max(table[i - 1, j], table[i, j - 1])
    return int(table[len(a), len(b)])


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def rouge_scores(candidate: Sequence[str], reference: Sequence[str]) -> tuple:
    """(ROUGE-1 F1, ROUGE-L F1): clipped unigram overlap and longest common
    subsequence, both harmonic-mean of precision and recall."""
    if len(reference) == 0:
        raise MetricError("ROUGE needs a non-empty reference")
    if len(candidate) == 0:
        return 0.0, 0.0
    overlap, _ = _clipped_counts(candidate, reference, 1)
    rouge1 = _f1(overlap / len(candidate), overlap / len(reference))
    lcs = _lcs_length(candidate, reference)
    rouge_l = _f1(lcs / len(candidate), lcs / len(reference))
    return rouge1, rouge_l


def distinct_n(texts: Sequence[Sequence[str]], n: int) -> float:
    """Unique n-grams over total n-grams, pooled across the corpus."""
    if n not in (1, 2):
        raise MetricError(f"distinct order must be 1 or 2, got {n}")
    pooled: Counter = Counter()
    for text in texts:
        pooled.update(_ngrams(text, n))
    total = sum(pooled.values())
    return len(pooled) / total if total else 0.0


def rmse(predicted: Sequence[float], truth: Sequence[float]) -> float:
    predicted = np.asarray(predicted, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if predicted.shape != truth.shape or predicted.size == 0:
        raise MetricError(
            f"rmse needs equal non-empty vectors, have {predicted.shape} vs {truth.shape}")
    return float(np.sqrt(np.mean((predicted - truth) ** 2)))


def adjusted_rand_index(pred: Sequence[int], truth: Sequence[int]) -> float:
    """Chance-corrected pair-counting agreement between two labelings."""
    pred = list(pred)
    truth = list(truth)
    if len(pred) != len(truth):
        raise MetricError("label vectors must have equal length")
    n = len(pred)
    if n == 0:
        raise MetricError("cannot score empty labelings")
    cells: Counter = Counter(zip(pred, truth))
    pred_sizes: Counter = Counter(pred)
    true_sizes: Counter = Counter(truth)
    sum_cells = sum(math.comb(c, 2) for c in cells.values())
    sum_pred = sum(math.comb(c, 2) for c in pred_sizes.values())
    sum_true = sum(math.comb(c, 2) for c in true_sizes.values())
    pairs = math.comb(n, 2)
    if pairs == 0:
        return 1.0
    expected = sum_pred * sum_true / pairs
    maximum = 0.5 * (sum_pred + sum_true)
    if maximum == expected:
        return 1.0
    return (sum_cells - expected) / (maximum - expected)


def cluster_purity(pred: Sequence[int], truth: Sequence[int]) -> float:
    """Fraction of points whose predicted cluster's majority label matches."""
    if len(pred) != len(truth) or not pred:
        raise MetricError("purity needs equal non-empty labelings")
    by_cluster: Dict[int, Counter] = {}
    for p, t in zip(pred, truth):
        by_cluster.setdefault(p, Counter())[t] += 1
    hits = sum(counts.most_common(1)[0][1] for counts in by_cluster.values())
    return hits / len(pred)


@dataclass
class MetricReport:
    """Scalar metrics in [0, 1], optional per-bucket rows, and provenance."""

    values: Dict[str, float]
    count: int
    buckets: Optional[Dict[str, Dict[str, float]]] = None
    clusters: Optional[int] = None
    gates: Optional[int] = None

    METRIC_ORDER = ("bleu1", "bleu4", "rouge1", "rougeL",
                    "distinct1", "distinct2", "rmse")

    def to_json(self) -> str:
        payload = {
            "count": self.count,
            "values": self.values,
            "values_percent": {
                k: round(v * 100.0, 4) for k, v in self.values.items() if k != "rmse"
            },
            "buckets": self.buckets,
            "clusters": self.clusters,
            "gates": self.gates,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @staticmethod
    def _fmt(value: float, percent: bool) -> str:
        return f"{value * 100.0:.3f}" if percent else f"{value:.4f}"

    def to_table(self) -> str:
        lines = []
        header = f"{'metric':<12}{'value':>10}"
        lines.append(header)
        lines.append("-" * len(header))
        for name in self.METRIC_ORDER:
            if name in self.values:
                lines.append(f"{name:<12}{self._fmt(self.values[name], name != 'rmse'):>10}")
        if self.clusters is not None:
            lines.append(f"{'clusters':<12}{self.clusters:>10}")
        if self.gates is not None:
            lines.append(f"{'gates':<12}{self.gates:>10}")
        lines.append(f"{'records':<12}{self.count:>10}")
        if self.buckets:
            lines.append("")
            cols = ["bucket", "count", "bleu1", "bleu4", "rouge1", "rougeL"]
            lines.append("".join(f"{c:>10}" for c in cols))
            for name in ("ds1", "ds2", "ds3"):
                row = self.buckets[name]
                lines.append("".join([
                    f"{name:>10}", f"{int(row['count']):>10}",
                    f"{row['bleu1'] * 100:>10.3f}", f"{row['bleu4'] * 100:>10.3f}",
                    f"{row['rouge1'] * 100:>10.3f}", f"{row['rougeL'] * 100:>10.3f}",
                ]))
            ratio = self.buckets.get("bleu4_ratio_ds3_ds1")
            if ratio is not None:
                lines.append(f"bleu4 ds3/ds1 ratio: {ratio:.4f}")
        return "\n".join(lines)


def _text_metrics(pairs: List[tuple], corpus_level: bool) -> Dict[str, float]:
    candidates = [c for c, _ in pairs]
    if corpus_level:
        bleu1 = corpus_bleu(pairs, 1)
        bleu4 = corpus_bleu(pairs, 4)
    else:
        bleu1 = float(np.mean([bleu_n(c, r, 1) for c, r in pairs]))
        bleu4 = float(np.mean([bleu_n(c, r, 4) for c, r in pairs]))
    rouge_pairs = [rouge_scores(c, r) for c, r in pairs]
    return {
        "bleu1": bleu1,
        "bleu4": bleu4,
        "rouge1": float(np.mean([r1 for r1, _ in rouge_pairs])),
        "rougeL": float(np.mean([rl for _, rl in rouge_pairs])),
        "distinct1": distinct_n(candidates, 1),
        "distinct2": distinct_n(candidates, 2),
    }


def evaluate_model(
    bundle,
    test_records: Sequence[InteractionRecord],
    train_records: Optional[Sequence[InteractionRecord]] = None,
    buckets: bool = False,
    corpus_level: bool = True,
) -> tuple:
    """Generate an explanation for every test record and score the lot.

    `bundle` hands over the whole batch in two calls:
    ``explain(records) -> (texts, gates, responsibilities)`` and
    ``predict_norm_ratings(records) -> (B,) array``. It may also expose
    ``prompt_text(record)``, ``r_max`` and the clusters/gates_count
    provenance. Returns (MetricReport, per-record rows); the last key of
    each row is the record's gate.
    """
    if not test_records:
        raise MetricError("no test records to evaluate")
    generated, gates, _ = bundle.explain(test_records)

    prompt_of = getattr(bundle, "prompt_text", lambda rec: "")
    rows = []
    pairs = []
    for rec, text, gate in zip(test_records, generated, gates):
        cand = tokenize(text)
        ref = tokenize(rec.explanation)
        pairs.append((cand, ref))
        rows.append({"user": rec.user, "item": rec.item,
                     "prompt": prompt_of(rec), "generated": text,
                     "reference": rec.explanation, "gate": int(gate)})

    values = _text_metrics(pairs, corpus_level)
    truth = normalized_ratings(test_records, getattr(bundle, "r_max", 5.0))
    values["rmse"] = rmse(bundle.predict_norm_ratings(test_records), truth)

    bucket_rows = None
    if buckets:
        if train_records is None:
            raise MetricError("bucket evaluation needs the training records")
        generated_by_id = {id(rec): pair for rec, pair in zip(test_records, pairs)}
        bucket_rows = {}
        split = sparsity_buckets(test_records, train_records)
        for name, group in zip(("ds1", "ds2", "ds3"), split):
            group_pairs = [generated_by_id[id(rec)] for rec in group]
            stats = _text_metrics(group_pairs, corpus_level)
            stats["count"] = len(group)
            bucket_rows[name] = stats
        if bucket_rows["ds1"]["bleu4"] > 0:
            bucket_rows["bleu4_ratio_ds3_ds1"] = (
                bucket_rows["ds3"]["bleu4"] / bucket_rows["ds1"]["bleu4"])
        else:
            bucket_rows["bleu4_ratio_ds3_ds1"] = None

    report = MetricReport(
        values=values, count=len(test_records), buckets=bucket_rows,
        clusters=getattr(bundle, "clusters", None),
        gates=getattr(bundle, "gates_count", None),
    )
    return report, rows
