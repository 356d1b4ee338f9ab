"""Cluster-gated mixture-of-experts transformer for explanation text.

A small decoder-only transformer whose feed-forward sublayer is a bank of
fine-grained experts shared across K routing gates. Each user-item pair is
assigned one gate (its latent cluster) before generation starts, and that
gate's routing matrix scores the experts at every block; only the top-k
experts run per position, combined with their raw softmax scores.

Splitting each of N experts of hidden width d into r slimmer experts of
width d/r leaves the expert weight-parameter count unchanged
(N*d == rN * d/r) while letting the router compose finer specializations.
Input-side expert biases also keep their total count (rN * d/r == N*d);
output-side biases grow by the factor r (rN vs N of width model_dim).

Prompts are token sequences of the form
    <bos> U: u:<id> I: i:<id> R: r:<bucket> F: <feature words...> EXP:
and the model is trained to continue after EXP: with the explanation.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .data import R_MAX, rating_bucket
from .errors import ConfigError, ContextLimitError, DataError, ShapeError
from .rng import Rng
from . import tensor as T
from .tensor import Tensor

PAD, BOS, EOS, UNK = 0, 1, 2, 3
RESERVED = ["<pad>", "<bos>", "<eos>", "<unk>", "U:", "I:", "R:", "F:", "EXP:"]
MARK_U, MARK_I, MARK_R, MARK_F, MARK_EXP = 4, 5, 6, 7, 8

_WORD_RE = re.compile(r"\w+|[^\w\s]")


def tokenize(text: str) -> List[str]:
    """Lowercase, split on whitespace, punctuation becomes its own token."""
    return _WORD_RE.findall(text.lower())


class Vocab:
    """Bijective token/id map with fixed reserved tokens up front."""

    def __init__(self, tokens: Sequence[str]):
        if list(tokens[:9]) != RESERVED:
            raise ConfigError("vocabulary must start with the reserved tokens")
        self.tokens = list(tokens)
        self.index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ConfigError("vocabulary contains duplicate tokens")
        # ids only a prompt holds: the reserved tokens but <eos>, and the id tokens
        self.prompt_only = np.array(
            [i for i, tok in enumerate(self.tokens)
             if (i < len(RESERVED) and i != EOS) or tok.startswith(("u:", "i:", "r:"))],
            dtype=np.int64)

    def __len__(self) -> int:
        return len(self.tokens)

    @staticmethod
    def user_token(user: str) -> str:
        return f"u:{user}"

    @staticmethod
    def item_token(item: str) -> str:
        return f"i:{item}"

    @staticmethod
    def rating_token(bucket: int) -> str:
        return f"r:{bucket}"

    @classmethod
    def build(cls, records, users: Sequence[str], items: Sequence[str]) -> "Vocab":
        """Reserved tokens, then id tokens for every known user/item, rating
        buckets, and (sorted) words from the given training records."""
        words = set()
        for rec in records:
            words.update(tokenize(rec.explanation))
            for feat in rec.features:
                words.update(tokenize(feat))
        tokens = list(RESERVED)
        tokens += [cls.user_token(u) for u in sorted(set(users))]
        tokens += [cls.item_token(i) for i in sorted(set(items))]
        tokens += [cls.rating_token(b) for b in range(1, int(R_MAX) + 1)]
        tokens += sorted(words)
        return cls(tokens)

    def encode(self, token: str) -> int:
        return self.index.get(token, UNK)

    def decode(self, ids: Sequence[int]) -> str:
        return " ".join(self.tokens[i] for i in ids)


def build_prompt(vocab: Vocab, user: str, item: str, rating: float,
                 features: Sequence[str]) -> List[int]:
    """Token ids for the structured prompt; unknown words map to <unk>.

    An empty feature list drops the F: section entirely.
    """
    ids = [BOS, MARK_U, vocab.encode(Vocab.user_token(user)),
           MARK_I, vocab.encode(Vocab.item_token(item)),
           MARK_R, vocab.encode(Vocab.rating_token(rating_bucket(rating)))]
    feature_words = [w for feat in features for w in tokenize(feat)]
    if feature_words:
        ids.append(MARK_F)
        ids.extend(vocab.encode(w) for w in feature_words)
    ids.append(MARK_EXP)
    return ids


def prompt_features(prompt: Sequence[int]) -> List[int]:
    """The feature words of a prompt: the tokens after its F: marker but
    the last, EXP:; none without the marker."""
    prompt = list(prompt)
    return prompt[prompt.index(MARK_F) + 1:-1] if MARK_F in prompt else []


# --- draft table ---

# draft tokens a lone greedy row feeds after its last token, at most: on the
# demo checkpoint a one-request `moerec generate` took 0.68, 0.66, 0.62, 0.58
# and 0.57 of its zero-draft time at 3, 4, 6, 8 and 12 (medians of 400 paired
# requests; most texts are 8 tokens with <eos>)
DRAFT_TOKENS = 8


class DraftTable:
    """Guesses for draft-and-verify decoding (:meth:`LanguageModel.generate`):
    `table` maps two consecutive tokens to the token guessed to follow
    them, a token id, or ``~slot`` (below 0) for the feature word at
    `slot` of the prompt's F: section, so that a guess copies the
    request's own features (prompt lookup, Saxena 2023). The table is a
    guess only: the model checks every drafted token, so what it holds
    changes no greedy text."""

    def __init__(self, table: Dict[Tuple[int, int], int]):
        self.table = table

    @classmethod
    def build(cls, sequences) -> "DraftTable":
        """From (prompt + reference + <eos> tokens, prompt length) pairs:
        each pair of tokens, from the one ending at the prompt's last token
        on, to the token that follows it most often, ties to the lowest
        value stored; a successor that is one of the record's own feature
        words counts as its slot."""
        triples: Counter = Counter()
        for seq, length in sequences:
            seq = seq.tolist()
            features = prompt_features(seq[:length])
            nexts = [~features.index(nxt) if nxt in features else nxt for nxt in seq[length:]]
            triples.update(zip(seq[length - 2:], seq[length - 1:], nexts))
        table: Dict[Tuple[int, int], int] = {}
        # by pair, then the commonest successor first, then the lowest
        for (a, b, nxt), _ in sorted(triples.items(), key=lambda t: (t[0][:2], -t[1], t[0][2])):
            table.setdefault((a, b), nxt)
        return cls(table)

    @classmethod
    def from_list(cls, flat, vocab_size: int, context: int) -> "DraftTable":
        """The table of a flat list of (first, second, next) triples
        (:meth:`to_list`), for a vocabulary of `vocab_size` tokens and a
        model of `context` positions. DataError unless it is a list of
        ints whose length is a multiple of 3, each pair holds two
        vocabulary ids and appears once, and each next token is an id or a
        slot below ``context - 10``: a prompt with features holds 9 tokens
        besides them, and one position must stay free to decode."""
        if not isinstance(flat, list) or len(flat) % 3 or not set(map(type, flat)) <= {int}:
            raise DataError("checkpoint manifest field extra.draft must be a list of ints, "
                            "three per entry")
        pairs = flat[0::3] + flat[1::3]
        if pairs and (min(pairs) < 0 or max(pairs) >= vocab_size):
            raise DataError(f"checkpoint manifest field extra.draft holds a token id outside "
                            f"the vocabulary of {vocab_size}")
        nexts = flat[2::3]
        if nexts and (min(nexts) < 10 - context or max(nexts) >= vocab_size):
            raise DataError(f"checkpoint manifest field extra.draft guesses a token outside "
                            f"the vocabulary of {vocab_size} or a feature slot past "
                            f"{context - 11}")
        table = dict(zip(zip(flat[0::3], flat[1::3]), nexts))
        if len(table) != len(nexts):
            raise DataError("checkpoint manifest field extra.draft holds a token pair twice")
        return cls(table)

    def to_list(self) -> List[int]:
        return [v for (a, b), nxt in self.table.items() for v in (a, b, nxt)]

    def propose(self, prompt: List[int], emitted: List[int], count: int) -> List[int]:
        """Up to `count` tokens guessed to follow `prompt` and the tokens
        `emitted` after it: the chain of the table's successors of their
        last two tokens, each slot read as that feature word of the
        prompt. The chain stops at a pair the table lacks, or at a slot
        past the prompt's features."""
        features = prompt_features(prompt)
        out = (prompt[-2:] + emitted)[-2:]
        while 1 < len(out) < count + 2:             # one token alone makes no pair
            nxt = self.table.get((out[-2], out[-1]))
            if nxt is None or ~nxt >= len(features):
                break
            out.append(nxt if nxt >= 0 else features[~nxt])
        return out[2:]


# --- expert decomposition and routing ---

@dataclass(frozen=True)
class MoeLayerConfig:
    base_experts: int          # expert count before splitting
    base_hidden: int           # hidden width before splitting
    factor: int                # how many slices each expert splits into
    active: int                # experts evaluated per position (top-k)
    gates: int                 # routing matrices, one per latent cluster

    @property
    def expert_count(self) -> int:
        return self.factor * self.base_experts

    @property
    def expert_hidden(self) -> int:
        return self.base_hidden // self.factor


def expert_weight_count(model_dim: int, n_experts: int, hidden: int) -> int:
    """Weight-matrix parameters across a bank (biases excluded)."""
    return n_experts * (model_dim * hidden + hidden * model_dim)


def decompose_experts(base_experts: int, base_hidden: int, factor: int,
                      active: int = 2, gates: int = 1) -> MoeLayerConfig:
    """Validate and build the fine-grained expert layout.

    Requires factor >= 1 dividing the base hidden width; the resulting bank
    keeps the exact weight-parameter count of the undecomposed one.
    """
    if factor < 1:
        raise ConfigError(f"decomposition factor must be >= 1, got {factor}")
    if gates < 1:
        raise ConfigError(f"gate count must be >= 1, got {gates}")
    if base_hidden % factor != 0:
        raise ConfigError(
            f"decomposition factor {factor} does not divide hidden width {base_hidden}")
    cfg = MoeLayerConfig(base_experts, base_hidden, factor, active, gates)
    if not 1 <= active <= cfg.expert_count:
        raise ConfigError(
            f"active experts {active} outside [1, {cfg.expert_count}]")
    assert (base_experts * base_hidden
            == cfg.expert_count * cfg.expert_hidden), "parameter identity broken"
    return cfg


class ExpertBank:
    """Shared two-layer experts stored as stacked tensors: `w1` (E, m, h),
    `b1` (E, h), `w2` (E, h, m), `b2` (E, m). `eval_count` tallies
    (position, expert) evaluations so routing sparsity is observable.
    Without an `rng`, the tensors are stand-ins (:func:`~moerec.tensor._parameter`)."""

    def __init__(self, model_dim: int, cfg: MoeLayerConfig, rng: Optional[Rng]):
        self.cfg = cfg
        m, h, count = model_dim, cfg.expert_hidden, cfg.expert_count
        # expert e draws w1[e] then w2[e]; normal() rounds each request up to
        # an even count, so one draw of the padded rows is the same stream
        size = m * h
        draws = (None if rng is None else
                 rng.normal(2 * count * (size + size % 2)).reshape(count, 2, -1)[..., :size])
        self.w1 = T._parameter(rng, (count, m, h),
                               lambda shape: draws[:, 0].reshape(shape) / math.sqrt(m))
        self.b1 = T._parameter(rng, (count, h), np.zeros)
        self.w2 = T._parameter(rng, (count, h, m),
                               lambda shape: draws[:, 1].reshape(shape) / math.sqrt(h))
        self.b2 = T._parameter(rng, (count, m), np.zeros)
        self.eval_count = 0

    def run(self, h: Tensor, selected: np.ndarray, router: "GateRouter", gain: Tensor,
            norm: tuple, route: tuple) -> Tensor:
        """The MoE sublayer of rows `h` as one fused
        :func:`~moerec.tensor.moe_sublayer`, on the row-major (n*k,) experts
        `selected` by the `route` (:meth:`GateRouter.scores`) of the rows
        normed by `gain` (`norm`); it checks `selected` once."""
        out = T.moe_sublayer(h, gain, router.weights, self.w1, self.b1, self.w2, self.b2,
                             selected, self.cfg.active, norm, route)
        self.eval_count += len(selected)
        return out


class GateRouter:
    """One routing matrix per gate, stacked as `weights` (G, m, E); scores
    are a softmax over all experts."""

    def __init__(self, model_dim: int, cfg: MoeLayerConfig, rng: Optional[Rng]):
        self.cfg = cfg
        self.weights = T._parameter(
            rng, (cfg.gates, model_dim, cfg.expert_count), lambda shape: np.stack([
                rng.normal(model_dim * cfg.expert_count).reshape(shape[1:]) / math.sqrt(model_dim)
                for _ in range(cfg.gates)]))

    def scores(self, gates: np.ndarray, rows: np.ndarray) -> tuple:
        """(n, E) softmax scores of the (n, m) array `rows`, row i under gate
        `gates[i]`, with their backward rule
        (:func:`~moerec.tensor._router_parts`); a gate outside the range
        raises ConfigError."""
        gates = T._row_ids(gates, self.cfg.gates, ConfigError)
        if gates.shape != rows.shape[:1]:
            raise ShapeError(f"{gates.shape} gates for {rows.shape[:1]} rows")
        return T._router_parts(rows, self.weights.data, gates)


def top_k_select(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores, ascending; ties go to lower indices."""
    scores = np.asarray(scores)
    if k > scores.shape[-1]:
        raise ConfigError(f"k={k} exceeds {scores.shape[-1]} experts")
    top = (-scores).argsort(axis=-1, kind="stable")[..., :k]
    top.sort(axis=-1)
    return top


def _moe_rows(bank: ExpertBank, router: GateRouter, gain: Tensor, gates: np.ndarray,
              h: Tensor) -> Tensor:
    """The MoE sublayer of a block over (n, m) rows `h`, row i routed by
    gate `gates[i]`: ``h`` plus the top-k expert mixture of
    ``rms_norm(h, gain)``. The norm, the router and the top-k run on
    arrays, then the bank records the sublayer as one op. Dropless grouping
    (MegaBlocks, Gale et al. 2023): the n*k (row, expert) pairs are
    stable-sorted by expert, run through the bank in one call, and each
    row's k outputs, weighted by the raw softmax scores, are summed back
    into it. Gradients reach the selected experts and, through the full
    softmax, every routing logit of the row's gate."""
    norm = T._rms_parts(h.data, gain.data)
    T._check_finite(norm[0], "rms_norm")
    route = router.scores(gates, norm[0])                            # (n, E) scores, rule
    selected = top_k_select(route[0], bank.cfg.active).reshape(-1)   # (n*k,), row-major
    return bank.run(h, selected, router, gain, norm, route)


# --- transformer ---

@dataclass
class LmConfig:
    vocab_size: int
    model_dim: int
    blocks: int
    heads: int
    context: int
    moe: MoeLayerConfig

    def __post_init__(self):
        if self.model_dim % self.heads != 0:
            raise ConfigError(
                f"heads {self.heads} must divide model_dim {self.model_dim}")


class TransformerBlock:
    """Pre-norm causal attention followed by a pre-norm MoE feed-forward."""

    def __init__(self, config: LmConfig, rng: Optional[Rng]):
        m = config.model_dim
        self.config = config
        s = 1.0 / math.sqrt(m)

        def weight(shape):
            return rng.normal(m * m).reshape(shape) * s

        self.norm1_g = T._parameter(rng, (m,), np.ones)
        self.wq = T._parameter(rng, (m, m), weight)
        self.wk = T._parameter(rng, (m, m), weight)
        self.wv = T._parameter(rng, (m, m), weight)
        self.wo = T._parameter(rng, (m, m), weight)
        self.norm2_g = T._parameter(rng, (m,), np.ones)
        self.bank = ExpertBank(m, config.moe, rng)
        self.router = GateRouter(m, config.moe, rng)

    def forward(self, rows: Tensor, batch: int, length: int, gates: np.ndarray,
                cache: tuple = None, offset: int = 0, start: int = 0) -> Tensor:
        """One block over `batch` sequences of `length` rows each, sequence
        `b` routed by `gates[b]`: the fused attention sublayer, then the
        MoE sublayer of :func:`_moe_rows`. `cache` is this block's (keys,
        values) buffers of a :class:`KVCache`, holding `offset` positions.
        With `start`, the block returns only positions ``start..length-1``
        of each sequence: every position still gives its key and value, but
        the queries, the router and the experts run only from `start` on."""
        h = T.attention_sublayer(rows, self.norm1_g, self.wq, self.wk, self.wv, self.wo,
                                 self.config.heads, batch, cache, offset, start)
        return _moe_rows(self.bank, self.router, self.norm2_g,
                         gates.repeat(length - start), h)


class KVCache:
    """Keys and values of the positions already fed, head-major: per
    block, a pair of buffers, keys (batch, heads, head_dim, positions),
    already transposed, and values (batch, heads, positions, head_dim).
    They are made on the first forward and written in place, and their
    first `length` positions are filled; the attention multiplies views of
    them, uncopied (:func:`~moerec.tensor.attention_sublayer`).
    `positions` defaults to the model's context; a forward past it raises
    ContextLimitError.

    Passed to :meth:`LanguageModel.forward_rows`, it makes the forward
    incremental: the new tokens sit at positions offset by `length` and
    attend over every cached key, while the prefix is not recomputed. Each
    step of :meth:`LanguageModel.generate`'s one loop feeds the tokens the
    cache lacks; the first, on a fresh cache, is the prefill of the whole
    prompts. Cached forwards are for inference only; under a recording tape
    they raise TapeError. :meth:`keep` drops the sequences that have ended.
    A drafted step sets `length` back to the positions it keeps; the ones
    past it are never read, and the next forward writes over them.
    """

    def __init__(self, blocks: int, batch: int = 1, positions: int = None):
        self.length = 0
        self.batch = batch
        self.positions = positions
        self.blocks = [None] * blocks

    def keep(self, rows: np.ndarray) -> None:
        """Keep only the sequences `rows` (indices), in that order: one row
        gather per buffer."""
        self.blocks = [(keys.take(rows, axis=0), values.take(rows, axis=0))
                       for keys, values in self.blocks]
        self.batch = len(rows)


class LanguageModel:
    """Decoder-only transformer with cluster-gated MoE feed-forward layers.
    Without an `rng`, every parameter is a stand-in that a checkpoint's
    array replaces (:func:`~moerec.tensor._parameter`)."""

    def __init__(self, config: LmConfig, rng: Optional[Rng]):
        self.config = config
        m = config.model_dim

        def normal(shape):
            return rng.normal(shape[0] * m).reshape(shape) * 0.1

        self.embed = T._parameter(rng, (config.vocab_size, m), normal)
        self.pos = T._parameter(rng, (config.context, m), normal)
        self.blocks = [TransformerBlock(config,
                                        None if rng is None else rng.substream(f"block{b}"))
                       for b in range(config.blocks)]
        self.norm_f_g = T._parameter(rng, (m,), np.ones)
        self.head = T._parameter(rng, (m, config.vocab_size),
                                 lambda shape: rng.normal(m * shape[1]).reshape(shape)
                                 / math.sqrt(m))

    def params(self) -> dict:
        out = {"lm.embed": self.embed, "lm.pos": self.pos,
               "lm.norm_f.g": self.norm_f_g, "lm.head": self.head}
        for b, blk in enumerate(self.blocks):
            out[f"lm.block{b}.norm1.g"] = blk.norm1_g
            out[f"lm.block{b}.attn.wq"] = blk.wq
            out[f"lm.block{b}.attn.wk"] = blk.wk
            out[f"lm.block{b}.attn.wv"] = blk.wv
            out[f"lm.block{b}.attn.wo"] = blk.wo
            out[f"lm.block{b}.norm2.g"] = blk.norm2_g
            for part in ("w1", "b1", "w2", "b2"):
                out[f"lm.block{b}.moe.{part}"] = getattr(blk.bank, part)
            out[f"lm.block{b}.router"] = blk.router.weights
        return out

    def reset_eval_counters(self) -> None:
        for blk in self.blocks:
            blk.bank.eval_count = 0

    def expert_evaluations(self) -> int:
        return sum(blk.bank.eval_count for blk in self.blocks)

    def forward_rows(self, tokens: np.ndarray, gates: np.ndarray,
                     cache: KVCache = None, rows: np.ndarray = None) -> Tensor:
        """Logits for a (batch, length) token matrix; one gate per sequence.

        Returns a (batch*length, vocab) tensor, rows in sequence-major
        order. Strictly causal: position t sees tokens at positions <= t.
        With a `cache`, the tokens continue the cached sequences and the
        cache grows by `length` positions. With `rows`, indices into those
        batch*length rows, the result has one row per index, and nothing
        is computed that no selected row reads: the last block runs its
        queries, router and experts only from the smallest selected
        position `p0` on (keys and values still cover every position, and
        enter the cache), and only the selected rows go through the final
        norm and the head.
        """
        tokens = T._row_ids(tokens)             # their range is add_rows' to check
        if tokens.ndim > 2:
            raise ShapeError(f"token matrix of shape {tokens.shape}: one sequence per row")
        batch, length = tokens.shape if tokens.ndim > 1 else (1, tokens.size)
        offset = 0 if cache is None else cache.length
        if cache is not None and (cache.batch != batch
                                  or len(cache.blocks) != len(self.blocks)):
            raise ShapeError(
                f"cache holds {cache.batch} sequences over {len(cache.blocks)} "
                f"blocks; have {batch} sequences over {len(self.blocks)}")
        if offset + length > self.config.context:
            raise ContextLimitError(
                f"sequence length {offset + length} exceeds context {self.config.context}")
        if cache is not None and cache.positions is not None and offset + length > cache.positions:
            raise ContextLimitError(f"sequence length {offset + length} exceeds the cache's "
                                    f"{cache.positions} positions")
        if tokens.size == 0:
            raise ShapeError(f"no tokens to run: token matrix of shape {tokens.shape}")
        gates = T._row_ids(gates)
        if gates.size != batch:
            raise ShapeError(f"{gates.size} gates for {batch} sequences")
        gates = gates.reshape(batch)
        start = 0
        if rows is not None:
            rows = T._row_ids(rows, batch * length)
            if rows.size and self.blocks:
                start = int((rows % length).min())
                rows = rows // length * (length - start) + rows % length - start
        flat = tokens.reshape(-1)
        pos_ids = np.arange(batch * length) % length + offset
        x = T.add_rows(self.embed, flat, self.pos, pos_ids)
        if cache is not None and cache.length == 0:
            shape = (batch, cache.positions or self.config.context, x.shape[1], self.config.heads)
            cache.blocks = [T._kv_buffers(*shape, x.data.dtype) for _ in cache.blocks]
        last = len(self.blocks) - 1
        for b, blk in enumerate(self.blocks):
            x = blk.forward(x, batch, length, gates,
                            None if cache is None else cache.blocks[b], offset,
                            start if b == last else 0)
        if cache is not None:
            cache.length += length
        if rows is not None:
            x = T.take_rows(x, rows)
        return T.rms_norm(x, self.norm_f_g) @ self.head

    def generate(self, prompts, gates: np.ndarray, max_len: int = 16,
                 mode: str = "greedy", temperature: float = 1.0,
                 seed: int = 0, banned: np.ndarray = None,
                 draft: DraftTable = None) -> List[List[int]]:
        """One continuation of at most `max_len` (at least 1) tokens per
        prompt of a (B, L) matrix of equal-length prompts (else ShapeError),
        prompt b under gate `gates[b]`, decoded in lockstep (iteration-level
        batching, Orca, Yu et al., OSDI 2022) into a :class:`KVCache` sized
        to the request. One (B, L + width) token matrix holds each row's
        prompt, then its text; each step is one forward over the rows still
        running, each fed the tokens its cache lacks. The first step is the
        prefill of the whole prompts, whose last positions alone reach the
        last block's queries and experts and the head (a prompt that fills
        the context raises ContextLimitError); every later step feeds each
        row its last token. A row ends at <eos>, at `max_len` tokens or at
        the context; one that emits <eos> leaves the batch and the cache.

        Greedy mode is deterministic. With a `draft` table, a greedy step
        that has one row left, the prefill of a lone prompt included, also
        feeds up to ``DRAFT_TOKENS`` tokens the table guesses to follow its
        last token (speculative decoding, Leviathan et al., ICML 2023, with
        a model-free draft): the row keeps the longest prefix of the guess
        that its own argmax matches position by position, and the token it
        chose after that prefix, and the cache drops the positions past
        them. The multi-position forward rounds otherwise than one-position
        steps do, so the texts, not the logits, equal those of no draft.

        Sampling is seeded, at a nonnegative finite `temperature`, and each
        row draws from its own ``Rng(seed)`` stream, so a sampled text does
        not depend on its batch: every row still running at step t has
        drawn t - 1 values, so one draw per step is the next value of each
        one's stream. The `banned` token ids get no probability in either
        mode.
        """
        if max_len < 1:
            raise ConfigError(f"max_len must be at least 1, got {max_len}")
        if mode not in ("greedy", "sample"):
            raise ConfigError(f"unknown generation mode {mode!r}")
        if mode == "sample" and not 0.0 <= temperature < math.inf:
            raise ConfigError(f"sampling temperature must be nonnegative and finite, "
                              f"got {temperature}")
        if banned is not None:
            banned = T._row_ids(banned, self.config.vocab_size)
        gates = T._row_ids(gates).reshape(-1)
        try:
            prompts = T._row_ids(prompts)
        except ValueError:                  # numpy refuses a ragged matrix
            raise ShapeError("generate takes prompts of one length") from None
        if prompts.ndim != 2:
            raise ShapeError(f"prompts of shape {prompts.shape}: one prompt per row")
        batch, length = prompts.shape
        context = self.config.context
        if length >= context:
            raise ContextLimitError(
                f"prompt of {length} tokens fills context {context}; nothing can be generated")
        width = min(max_len, context - length)
        cache = KVCache(len(self.blocks), batch, min(context, length + max_len - 1))
        # a temperature past the logits' range divides as their largest value:
        # cast to their dtype it would read inf, and every probability NaN
        divisor = min(max(temperature, 1e-8), float(np.finfo(self.head.data.dtype).max))
        tokens = np.full((batch, length + width), EOS)  # a row's text ends at its first <eos>
        tokens[:, :length] = prompts
        emitted = tokens[:, length:]
        live = np.arange(batch)                         # the rows still running, in order
        rng = Rng(seed)
        at = 0                                          # tokens each live row has emitted
        while at < width:
            drafted = 0                                 # guesses fed after the last token
            if draft is not None and live.size == 1 and mode == "greedy":
                row = live[0]
                guess = draft.propose(prompts[row].tolist(), emitted[row, :at].tolist(),
                                      min(DRAFT_TOKENS, width - at - 1))
                emitted[row, at:at + len(guess)] = guess
                drafted = len(guess)
            fed = tokens[live, cache.length:length + at + drafted]
            # the prefill's head reads each row's last 1 + drafted positions
            rows = None if at else ((np.arange(1, batch + 1) * fed.shape[1])[:, None]
                                    + np.arange(-1 - drafted, 0)).reshape(-1)
            logits = self.forward_rows(fed, gates, cache, rows).data
            if banned is not None:
                logits[:, banned] = -np.inf
            if mode == "greedy":
                nxt = logits.argmax(axis=1)
            else:
                # ndarray.max's and ndarray.sum's reductions, without their Python wrappers
                top = np.maximum.reduce(logits, axis=1, keepdims=True)
                p = np.exp((logits - top) / divisor)
                p /= np.add.reduce(p, axis=1, keepdims=True)
                # the count of cumulative sums at or below the draw is searchsorted's right side
                nxt = np.minimum((p.cumsum(axis=1) <= rng.uniform(1)).sum(axis=1), p.shape[1] - 1)
            if drafted:
                # the guesses sit in `emitted` after the row's last token
                agree = (nxt[:-1] == emitted[live[0], at:at + drafted]).tolist() + [False]
                nxt = nxt[None, :agree.index(False) + 1]
                cache.length -= drafted + 1 - nxt.size
            nxt = nxt.reshape(live.size, -1)            # (rows, 1), or (1, kept) after a guess
            emitted[live, at:at + nxt.shape[1]] = nxt
            at += nxt.shape[1]
            going = (nxt != EOS).all(axis=1).nonzero()[0]
            if going.size < live.size:
                if not going.size or at >= width:
                    break
                live, gates = live[going], gates[going]
                cache.keep(going)
        return [row[:row.index(EOS)] if EOS in row else row for row in emitted.tolist()]

    def batched_nll(self, sequences: List[np.ndarray], prompt_lens: List[int],
                    gates: np.ndarray) -> Tensor:
        """Mean over records of each record's mean continuation NLL.

        Sequences already include the trailing <eos>; they are right-padded
        to a common length. Only the loss rows, the positions from the last
        prompt token to the one before <eos>, go through the head, and one
        fused :func:`~moerec.tensor.weighted_nll` scores them; the logits of
        the other prompt positions and of the padding are never made, and
        the last block's query side starts at the shortest prompt's last
        token (see :meth:`forward_rows`). The arrays that drive this come
        from the concatenated sequences in whole-array ops, none per record.
        """
        lengths = np.array([len(s) for s in sequences], dtype=np.int64)
        starts = np.array(prompt_lens, dtype=np.int64) - 1     # each prompt's last token
        if (not lengths.size or starts.shape != lengths.shape
                or np.minimum.reduce(np.minimum(starts, lengths - starts - 2)) < 0):
            raise ShapeError(f"{lengths.size} sequences of lengths {lengths.tolist()} with "
                             f"prompts {list(prompt_lens)}: each prompt needs 1 to length-1 tokens")
        flat = T._row_ids(np.concatenate(sequences))
        batch, width = lengths.size, int(np.maximum.reduce(lengths))
        positions = np.arange(width)
        # one right-padded row per sequence, and the mask of its loss rows
        tokens = np.full((batch, width), PAD, dtype=np.int64)
        tokens[positions < lengths[:, None]] = flat
        loss = (positions[:-1] >= starts[:, None]) & (positions[:-1] < lengths[:, None] - 1)
        rows, targets = loss.reshape(-1).nonzero()[0], tokens[:, 1:][loss]
        counts = lengths - starts - 1
        weights = (1.0 / (counts * batch)).repeat(counts)
        logits = self.forward_rows(tokens[:, :-1], gates, rows=rows)
        return T.weighted_nll(logits, targets, weights)
