"""Dataset ingestion, splitting, sparsity bucketing, and synthetic corpora.

File formats:

- dataset: UTF-8 JSON-lines, one object per line with exactly the fields
  ``user`` (string), ``item`` (string), ``rating`` (a number in (0, 5], on
  the five-star scale ``R_MAX``), ``features`` (array of strings),
  ``explanation`` (string);
- cluster-label sidecar: lines ``user<TAB>cluster_index`` — evaluation-only
  ground truth for synthetic corpora, never part of the training stream.

The synthetic generator plants user clusters with disjoint signature
lexicons, cluster-dependent rating levels, and fully deterministic
explanation templates, so cluster recovery and explanation fidelity have a
known answer at desk scale. Its words come from the ``"synth"`` substream of
``Rng(seed)`` in this order, one uniform each; a pick among ``n`` scales one
as ``min(floor(u * n), n - 1)``:

- one per item, its rating effect ``u * 0.5 - 0.25``;
- 7 per user, in user order: the Fisher-Yates shuffle of the cluster's
  lexicon, whose first ``FAVORITES_PER_USER`` (3) tokens are the favorites;
- per record, user by user, 5 words, or 7 plus one per noisy feature with
  more than one cluster: the item, the first favorite, the second (of the
  rest); with more than one cluster, each feature's noise flag
  ``u < NOISE_RATE`` (0.1), followed when set by an other-cluster token;
  then a Box-Muller pair whose cosine output scales ``RATING_NOISE`` (0.3).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import DataError
from .rng import Rng

DATASET_FIELDS = ("user", "item", "rating", "features", "explanation")
R_MAX = 5.0                 # top of the rating scale: one to five stars


@dataclass(slots=True)
class InteractionRecord:
    user: str
    item: str
    rating: float
    features: List[str]
    explanation: str


@dataclass
class DatasetSplit:
    train: List[InteractionRecord]
    valid: List[InteractionRecord]
    test: List[InteractionRecord]
    user_index: Dict[str, int]
    item_index: Dict[str, int]

    @property
    def n_users(self) -> int:
        return len(self.user_index)

    @property
    def n_items(self) -> int:
        return len(self.item_index)

    def user_ids(self, records: Sequence[InteractionRecord]) -> np.ndarray:
        return index_ids(self.user_index, [r.user for r in records])

    def item_ids(self, records: Sequence[InteractionRecord]) -> np.ndarray:
        return index_ids(self.item_index, [r.item for r in records])


def index_ids(index: Dict[str, int], keys: Sequence[str]) -> np.ndarray:
    """Embedding-table rows of `keys`; a key missing from `index` maps to
    the shared fallback row, one past the map."""
    unk = len(index)
    return np.array([index.get(k, unk) for k in keys], dtype=np.int64)


def check_rating(rating, where: str) -> float:
    """`rating` as a float; DataError unless it is a finite number in
    (0, R_MAX]."""
    if (not isinstance(rating, (int, float)) or isinstance(rating, bool)
            or not 0 < rating <= R_MAX):
        raise DataError(f"{where}: rating must be a finite number in (0, R_MAX={R_MAX}], "
                        f"got {rating!r}")
    return float(rating)


def normalized_ratings(records: Sequence[InteractionRecord]) -> np.ndarray:
    """Ratings divided by `R_MAX`; DataError if one exceeds it."""
    ratings = np.array([rec.rating for rec in records], dtype=np.float64)
    if ratings.size and ratings.max() > R_MAX:
        raise DataError(f"rating {ratings.max()} exceeds the scale's top R_MAX={R_MAX}")
    return ratings / R_MAX


def rating_bucket(rating: float) -> int:
    """The star `rating` rounds to, within [1, R_MAX]."""
    return min(max(int(round(rating)), 1), int(R_MAX))


def _validate_record(obj: dict, line_no: int) -> InteractionRecord:
    if not isinstance(obj, dict) or set(obj) != set(DATASET_FIELDS):
        missing = set(DATASET_FIELDS) - set(obj) if isinstance(obj, dict) else DATASET_FIELDS
        raise DataError(f"line {line_no}: record fields wrong (missing/extra: {missing})")
    if not isinstance(obj["user"], str) or not isinstance(obj["item"], str):
        raise DataError(f"line {line_no}: user and item must be strings")
    rating = check_rating(obj["rating"], f"line {line_no}")
    feats = obj["features"]
    if not isinstance(feats, list) or not all(isinstance(f, str) for f in feats):
        raise DataError(f"line {line_no}: features must be an array of strings")
    if not isinstance(obj["explanation"], str):
        raise DataError(f"line {line_no}: explanation must be a string")
    return InteractionRecord(obj["user"], obj["item"], rating,
                             list(feats), obj["explanation"])


def _read_lines(path, kind: str) -> list:
    """(line number, line) for each nonblank line of a UTF-8 text file; a
    file that cannot be read raises DataError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as err:
        raise DataError(f"cannot read {kind} file {path}: {err}") from None
    return [(line_no, line) for line_no, line in enumerate(lines, start=1) if line.strip()]


def load_records(path) -> List[InteractionRecord]:
    """Parse a JSON-lines dataset; reports every malformed line by number."""
    records = []
    problems = []
    for line_no, line in _read_lines(path, "data"):
        try:
            obj = json.loads(line)
            records.append(_validate_record(obj, line_no))
        except json.JSONDecodeError:
            problems.append(f"line {line_no}: not valid JSON")
        except DataError as err:
            problems.append(str(err))
    if problems:
        raise DataError("; ".join(problems))
    return records


def save_records(records: Sequence[InteractionRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps({
                "user": rec.user,
                "item": rec.item,
                "rating": rec.rating,
                "features": rec.features,
                "explanation": rec.explanation,
            }) + "\n")


def load_labels(path) -> Dict[str, int]:
    labels = {}
    for line_no, line in _read_lines(path, "label"):
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 2:
            raise DataError(f"{path} line {line_no}: expected user<TAB>cluster")
        try:
            labels[parts[0]] = int(parts[1])
        except ValueError:
            raise DataError(f"{path} line {line_no}: cluster {parts[1]!r} "
                            f"is not an integer") from None
    return labels


def save_labels(labels: Dict[str, int], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for user in sorted(labels):
            fh.write(f"{user}\t{labels[user]}\n")


def split_records(records: Sequence[InteractionRecord], seed: int) -> DatasetSplit:
    """Seeded shuffle, then 80/10/10 by record count (remainder to train).

    Id maps cover train+valid+test so evaluation-time entities resolve; the
    reserved unknown index is one past the map size.
    """
    if len(records) < 10:
        raise DataError(f"need at least 10 records to split, have {len(records)}")
    shuffled = Rng(seed).substream("split").shuffle(list(records))
    n = len(shuffled)
    n_valid = n // 10
    n_test = n // 10
    n_train = n - n_valid - n_test
    train = shuffled[:n_train]
    valid = shuffled[n_train:n_train + n_valid]
    test = shuffled[n_train + n_valid:]
    users = sorted({r.user for r in shuffled})
    items = sorted({r.item for r in shuffled})
    return DatasetSplit(
        train=train, valid=valid, test=test,
        user_index={u: i for i, u in enumerate(users)},
        item_index={it: i for i, it in enumerate(items)},
    )


def sparsity_buckets(
    test_records: Sequence[InteractionRecord],
    train_records: Sequence[InteractionRecord],
) -> Tuple[List[InteractionRecord], List[InteractionRecord], List[InteractionRecord]]:
    """Split test records into three near-equal groups by how often each
    record's user appears in training: bucket 1 holds the most frequent
    users, bucket 3 the least (users unseen in training count as zero).
    Frequency ties break by user id, lexicographically.
    """
    if not test_records:
        raise DataError("cannot bucket an empty test set")
    freq: Dict[str, int] = {}
    for rec in train_records:
        freq[rec.user] = freq.get(rec.user, 0) + 1
    ranked = sorted(test_records, key=lambda r: (-freq.get(r.user, 0), r.user))
    n = len(ranked)
    sizes = [n // 3 + (1 if i < n % 3 else 0) for i in range(3)]
    first = ranked[: sizes[0]]
    second = ranked[sizes[0]: sizes[0] + sizes[1]]
    third = ranked[sizes[0] + sizes[1]:]
    return first, second, third


# --- synthetic corpus with planted structure ---

SENTIMENT_WORDS = {1: "awful", 2: "weak", 3: "decent", 4: "great", 5: "superb"}

CLUSTER_LEXICONS = [
    ["noodles", "curry", "dumplings", "sushi", "tacos", "falafel", "ramen", "paella"],
    ["staff", "seating", "lighting", "music", "decor", "patio", "hosts", "ambience"],
    ["parking", "prices", "portions", "deals", "view", "rooftop", "location", "wifi"],
    ["trails", "guides", "maps", "gear", "summit", "campsite", "rapids", "lookout"],
    ["screens", "sound", "seats", "snacks", "lobby", "tickets", "aisles", "previews"],
]

CLUSTER_TEMPLATES = [
    "the {f1} with {f2} tasted {sentiment}",
    "the {f1} and {f2} made it feel {sentiment}",
    "with {f1} and {f2} the value felt {sentiment}",
    "the {f1} near the {f2} looked {sentiment}",
    "the {f1} before the {f2} sounded {sentiment}",
]

CLUSTER_RATING_BIAS = [2.2, 3.5, 4.8, 1.6, 3.0]
NOISE_RATE = 0.1            # chance that a feature flips to an other-cluster token
RATING_NOISE = 0.3          # standard deviation of a rating around its level
FAVORITES_PER_USER = 3      # signature tokens each user draws its two features from


@dataclass
class SynthSpec:
    # Fields that became constants, with their values: read_fields drops one
    # an old spec file sets at that value and refuses any other.
    RETIRED_FIELDS = {"noise_rate": NOISE_RATE, "rating_noise": RATING_NOISE,
                      "favorites_per_user": FAVORITES_PER_USER}

    planted_clusters: int = 3
    n_users: int = 300
    n_items: int = 100
    records_per_user: int = 20
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.planted_clusters <= len(CLUSTER_LEXICONS):
            raise DataError(
                f"planted_clusters must be in [1, {len(CLUSTER_LEXICONS)}]")
        for name in ("n_users", "n_items", "records_per_user"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be at least 1, got {getattr(self, name)}")


def cluster_signature(cluster: int) -> List[str]:
    """The signature feature tokens planted for one cluster (disjoint
    across clusters)."""
    return list(CLUSTER_LEXICONS[cluster])


def render_explanation(cluster: int, bucket: int, f1: str, f2: str) -> str:
    """Deterministic explanation for (cluster, rating bucket, features)."""
    return CLUSTER_TEMPLATES[cluster].format(
        f1=f1, f2=f2, sentiment=SENTIMENT_WORDS[bucket])


def generate_synthetic(spec: SynthSpec) -> Tuple[List[InteractionRecord], Dict[str, int]]:
    """Planted-cluster corpus plus the user -> cluster ground-truth labels.

    Users are assigned clusters round-robin. Each record draws two distinct
    features from the user's `FAVORITES_PER_USER` favorite signature tokens;
    each feature flips to a random other-cluster token with probability
    `NOISE_RATE`. Ratings are the cluster's level plus Gaussian noise of
    deviation `RATING_NOISE`, clipped to [1, 5]. Explanations are a pure
    function of (cluster, rating bucket, features). The labels never enter
    the record stream.
    """
    k, n_items, n_favs = spec.planted_clusters, spec.n_items, FAVORITES_PER_USER
    noise_rate, rating_noise = NOISE_RATE, RATING_NOISE
    users = [f"u{idx:04d}" for idx in range(spec.n_users)]
    items = [f"i{idx:04d}" for idx in range(n_items)]
    labels = {user: idx % k for idx, user in enumerate(users)}
    swaps = len(CLUSTER_LEXICONS[0]) - 1
    span = spec.records_per_user * (9 if k > 1 else 5)   # most words one user's records take
    rng = Rng(spec.seed).substream("synth")
    item_effect = (rng.uniform(n_items) * 0.5 - 0.25).tolist()
    bounds = np.arange(swaps + 1, 1, -1)
    shuffles = rng.uniform(spec.n_users * swaps).reshape(-1, swaps)
    picks = np.minimum((shuffles * bounds).astype(np.int64), bounds - 1).tolist()
    other_tokens = [[tok for cc in range(k) if cc != c for tok in CLUSTER_LEXICONS[cc]]
                    for c in range(k)]
    records, block, start = [], np.empty(0), 0
    texts = {}                  # one string per distinct explanation in the corpus
    for user, user_picks in zip(users, picks):
        cluster = labels[user]
        favs = list(CLUSTER_LEXICONS[cluster])
        for i, j in zip(range(swaps, 0, -1), user_picks):
            favs[i], favs[j] = favs[j], favs[i]
        pool = other_tokens[cluster]
        if len(block) - start < span:
            # 64 KiB: freeing a draw over 128 KiB raises glibc's mmap threshold, slowing training
            block, start = np.concatenate([block[start:], rng.uniform(max(span, 8192))]), 0
        user_block = block[start:start + span]
        u = user_block.tolist()
        at, drawn, pairs = 0, [], []
        for _ in range(spec.records_per_user):
            item = min(int(u[at] * n_items), n_items - 1)
            first = min(int(u[at + 1] * n_favs), n_favs - 1)
            second = min(int(u[at + 2] * (n_favs - 1)), n_favs - 2)
            feats = [favs[first], favs[second + (second >= first)]]
            at += 3
            for slot in range(2 if k > 1 else 0):
                at += 1
                if u[at - 1] < noise_rate:
                    feats[slot] = pool[min(int(u[at] * len(pool)), len(pool) - 1)]
                    at += 1
            drawn.append((items[item], item_effect[item], feats))
            pairs.append(at)
            at += 2
        start += at
        u1, u2 = user_block[pairs], user_block[np.add(pairs, 1)]
        normals = (np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * math.pi * u2)).tolist()
        for (item, effect, feats), z in zip(drawn, normals):
            rating = round(min(max(CLUSTER_RATING_BIAS[cluster] + effect
                                   + z * rating_noise, 1.0), 5.0), 2)
            key = (cluster, rating_bucket(rating), *feats)
            text = texts.get(key)
            if text is None:
                text = texts[key] = render_explanation(*key)
            records.append(InteractionRecord(
                user=user, item=item, rating=rating, features=feats, explanation=text))
    return records, labels


def corpus_stats(records: Sequence[InteractionRecord]) -> Dict[str, int]:
    features = {f for rec in records for f in rec.features}
    return {
        "users": len({r.user for r in records}),
        "items": len({r.item for r in records}),
        "records": len(records),
        "features": len(features),
    }
