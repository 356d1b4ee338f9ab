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
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .errors import ConfigError, ContextLimitError, ShapeError
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


def rating_bucket(rating: float, r_max: float = 5.0) -> int:
    return min(max(int(round(rating)), 1), int(math.ceil(r_max)))


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
    def build(cls, records, users: Sequence[str], items: Sequence[str],
              r_max: float = 5.0) -> "Vocab":
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
        tokens += [cls.rating_token(b) for b in range(1, int(math.ceil(r_max)) + 1)]
        tokens += sorted(words)
        return cls(tokens)

    def encode(self, token: str) -> int:
        return self.index.get(token, UNK)

    def decode(self, ids: Sequence[int]) -> str:
        return " ".join(self.tokens[i] for i in ids)


def build_prompt(vocab: Vocab, user: str, item: str, rating: float,
                 features: Sequence[str], r_max: float = 5.0) -> List[int]:
    """Token ids for the structured prompt; unknown words map to <unk>.

    An empty feature list drops the F: section entirely.
    """
    ids = [BOS, MARK_U, vocab.encode(Vocab.user_token(user)),
           MARK_I, vocab.encode(Vocab.item_token(item)),
           MARK_R, vocab.encode(Vocab.rating_token(rating_bucket(rating, r_max)))]
    feature_words = [w for feat in features for w in tokenize(feat)]
    if feature_words:
        ids.append(MARK_F)
        ids.extend(vocab.encode(w) for w in feature_words)
    ids.append(MARK_EXP)
    return ids


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
    (position, expert) evaluations so routing sparsity is observable."""

    def __init__(self, model_dim: int, cfg: MoeLayerConfig, rng: Rng):
        self.cfg = cfg
        m, h, count = model_dim, cfg.expert_hidden, cfg.expert_count
        # expert e draws w1[e] then w2[e]; normal() rounds each request up to
        # an even count, so one draw of the padded rows is the same stream
        size = m * h
        draws = rng.normal(2 * count * (size + size % 2)).reshape(count, 2, -1)[..., :size]
        self.w1 = Tensor(draws[:, 0].reshape(count, m, h) / math.sqrt(m), requires_grad=True)
        self.b1 = Tensor(np.zeros((count, h)), requires_grad=True)
        self.w2 = Tensor(draws[:, 1].reshape(count, h, m) / math.sqrt(h), requires_grad=True)
        self.b2 = Tensor(np.zeros((count, m)), requires_grad=True)
        self.eval_count = 0

    def run(self, experts: np.ndarray, rows: Tensor, scores: Tensor,
            order: np.ndarray, residual: Tensor, renormalize: bool = False) -> Tensor:
        """Row i through expert `experts[i]`, weighted by the router's
        `scores` and mixed into `residual`, in one fused
        :func:`~moerec.tensor.routed_experts`; rows sorted by expert are
        sliced rather than gathered."""
        self.eval_count += rows.shape[0]
        return T.routed_experts(residual, rows, self.w1, self.b1, self.w2, self.b2,
                                experts, scores, order, renormalize)


class GateRouter:
    """One routing matrix per gate, stacked as `weights` (G, m, E); scores
    are a softmax over all experts."""

    def __init__(self, model_dim: int, cfg: MoeLayerConfig, rng: Rng):
        self.cfg = cfg
        self.weights = Tensor(np.stack([
            rng.normal(model_dim * cfg.expert_count)
            .reshape(model_dim, cfg.expert_count) / math.sqrt(model_dim)
            for _ in range(cfg.gates)]), requires_grad=True)

    def scores(self, gates, rows: Tensor) -> Tensor:
        """(n, E) scores for (n, m) rows, row i under gate `gates[i]`; one
        int routes every row through the same gate."""
        gates = np.zeros(rows.shape[:1], dtype=np.int64) + gates
        if gates.size and (gates.min() < 0 or gates.max() >= self.cfg.gates):
            raise ConfigError(f"gate index outside [0, {self.cfg.gates})")
        return T.softmax(T.grouped_matmul(rows, self.weights, gates), axis=-1)


def top_k_select(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores, ascending; ties go to lower indices."""
    scores = np.asarray(scores)
    if k > scores.shape[-1]:
        raise ConfigError(f"k={k} exceeds {scores.shape[-1]} experts")
    order = np.argsort(-scores, axis=-1, kind="stable")
    return np.sort(order[..., :k], axis=-1)


def _moe_rows(bank: ExpertBank, router: GateRouter, gates, rows: Tensor,
              k: int, renormalize: bool = False, residual: Tensor = None) -> Tensor:
    """Top-k expert mixture of (n, m) rows, each routed by its own gate,
    added to `residual` (zeros by default).

    Dropless grouping (MegaBlocks, Gale et al. 2023): the n*k (row, expert)
    pairs are stable-sorted by expert, run through the bank in one call, and
    added back to their rows in one weighted scatter. Outputs are weighted
    by the raw softmax scores unless `renormalize` rescales each row's k
    scores to sum to one. Gradients reach the selected experts and, through
    the full softmax, every routing logit of the row's gate.
    """
    scores = router.scores(gates, rows)                     # (n, E)
    selected = top_k_select(scores.data, k).reshape(-1)     # (n*k,), row-major
    order = np.argsort(selected, kind="stable")
    residual = Tensor(np.zeros_like(rows.data)) if residual is None else residual
    return bank.run(selected[order], rows[order // k], scores, order, residual, renormalize)


# --- transformer ---

@dataclass
class LmConfig:
    vocab_size: int
    model_dim: int = 64
    blocks: int = 2
    heads: int = 2
    context: int = 64
    moe: MoeLayerConfig = None
    renormalize_topk: bool = False

    def __post_init__(self):
        if self.moe is None:
            self.moe = decompose_experts(6, 128, 2, active=2, gates=1)
        if self.model_dim % self.heads != 0:
            raise ConfigError(
                f"heads {self.heads} must divide model_dim {self.model_dim}")


class TransformerBlock:
    """Pre-norm causal attention followed by a pre-norm MoE feed-forward."""

    def __init__(self, config: LmConfig, rng: Rng):
        m = config.model_dim
        self.config = config
        s = 1.0 / math.sqrt(m)
        self.norm1_g = Tensor(np.ones(m), requires_grad=True)
        self.wq = Tensor(rng.normal(m * m).reshape(m, m) * s, requires_grad=True)
        self.wk = Tensor(rng.normal(m * m).reshape(m, m) * s, requires_grad=True)
        self.wv = Tensor(rng.normal(m * m).reshape(m, m) * s, requires_grad=True)
        self.wo = Tensor(rng.normal(m * m).reshape(m, m) * s, requires_grad=True)
        self.norm2_g = Tensor(np.ones(m), requires_grad=True)
        self.bank = ExpertBank(m, config.moe, rng)
        self.router = GateRouter(m, config.moe, rng)

    def forward(self, rows: Tensor, batch: int, length: int,
                gates: np.ndarray, cache: list = None, offset: int = 0) -> Tensor:
        """One block over `batch` sequences of `length` rows each, sequence
        `b` routed by `gates[b]`: the fused attention sublayer, then the
        norm, the router and the fused routed experts. `cache` is this
        block's entry of a :class:`KVCache` holding `offset` positions."""
        if cache is not None and cache[0] is None:
            shape = (batch, self.config.context, rows.shape[1])
            cache[:] = [np.empty(shape, rows.data.dtype) for _ in range(2)]
        h = T.attention_sublayer(rows, self.norm1_g, self.wq, self.wk, self.wv, self.wo,
                                 self.config.heads, batch, cache, offset)
        return _moe_rows(self.bank, self.router, np.repeat(gates, length),
                         T.rms_norm(h, self.norm2_g), self.config.moe.active,
                         self.config.renormalize_topk, residual=h)


class KVCache:
    """Keys and values of the positions already fed: per block, a
    [keys, values] pair of (batch, context, model_dim) buffers, made on the
    first forward and written in place, whose first `length` positions are
    filled; heads are split only inside :func:`~moerec.tensor.attention_sublayer`.

    Passed to :meth:`LanguageModel.forward_rows`, it makes the forward
    incremental: the new tokens sit at positions offset by `length` and
    attend over every cached key, while the prefix is not recomputed. The
    first call on a fresh cache is the prefill. Cached forwards are for
    inference only; under a recording tape they raise TapeError.
    """

    def __init__(self, blocks: int, batch: int = 1):
        self.length = 0
        self.batch = batch
        self.blocks = [[None, None] for _ in range(blocks)]


class LanguageModel:
    """Decoder-only transformer with cluster-gated MoE feed-forward layers."""

    def __init__(self, config: LmConfig, rng: Rng):
        self.config = config
        m = config.model_dim
        self.embed = Tensor(rng.normal(config.vocab_size * m).reshape(-1, m) * 0.1,
                            requires_grad=True)
        self.pos = Tensor(rng.normal(config.context * m).reshape(-1, m) * 0.1,
                          requires_grad=True)
        self.blocks = [TransformerBlock(config, rng.substream(f"block{b}"))
                       for b in range(config.blocks)]
        self.norm_f_g = Tensor(np.ones(m), requires_grad=True)
        self.head = Tensor(rng.normal(m * config.vocab_size).reshape(m, -1)
                           / math.sqrt(m), requires_grad=True)

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
        batch*length rows, only the selected rows of the last block's
        output go through the final norm and the head, and the result has
        one row per index.
        """
        tokens = np.atleast_2d(np.asarray(tokens, dtype=np.int64))
        batch, length = tokens.shape
        offset = 0 if cache is None else cache.length
        if cache is not None and (cache.batch != batch
                                  or len(cache.blocks) != len(self.blocks)):
            raise ShapeError(
                f"cache holds {cache.batch} sequences over {len(cache.blocks)} "
                f"blocks; have {batch} sequences over {len(self.blocks)}")
        if offset + length > self.config.context:
            raise ContextLimitError(
                f"sequence length {offset + length} exceeds context {self.config.context}")
        if tokens.size == 0:
            raise ShapeError(f"no tokens to run: token matrix of shape {tokens.shape}")
        if tokens.min() < 0 or tokens.max() >= self.config.vocab_size:
            raise ShapeError("token id outside the vocabulary")
        gates = np.asarray(gates, dtype=np.int64).reshape(batch)
        flat = tokens.reshape(-1)
        pos_ids = np.tile(np.arange(offset, offset + length), batch)
        x = T.take_rows(self.embed, flat) + T.take_rows(self.pos, pos_ids)
        for b, blk in enumerate(self.blocks):
            x = blk.forward(x, batch, length, gates,
                            None if cache is None else cache.blocks[b], offset)
        if cache is not None:
            cache.length += length
        if rows is not None:
            x = T.take_rows(x, rows)
        return T.rms_norm(x, self.norm_f_g) @ self.head

    def generate(self, prompt: Sequence[int], gate: int, max_len: int = 16,
                 mode: str = "greedy", temperature: float = 1.0,
                 seed: int = 0, banned: np.ndarray = None) -> List[int]:
        """Autoregressive continuation after the prompt, until <eos> or
        max_len; greedy mode is deterministic, sampling is seeded at a
        nonnegative finite `temperature`. The `banned` token ids get no
        probability in either mode.

        The prompt is prefilled once into a :class:`KVCache`; each later
        step feeds only the token just emitted.
        """
        if mode not in ("greedy", "sample"):
            raise ConfigError(f"unknown generation mode {mode!r}")
        if mode == "sample" and not 0.0 <= temperature < math.inf:
            raise ConfigError(f"sampling temperature must be nonnegative and finite, "
                              f"got {temperature}")
        if len(prompt) >= self.config.context:
            raise ContextLimitError(
                f"prompt of {len(prompt)} tokens fills context "
                f"{self.config.context}; nothing can be generated")
        rng = Rng(seed)
        cache = KVCache(len(self.blocks))
        new = list(prompt)
        out: List[int] = []
        while len(out) < max_len and cache.length + len(new) < self.config.context:
            logits = self.forward_rows(np.asarray(new)[None, :], np.array([gate]),
                                       cache).data[-1]
            if banned is not None:
                logits[banned] = -np.inf
            if mode == "greedy":
                nxt = int(np.argmax(logits))
            else:
                z = (logits - logits.max()) / max(temperature, 1e-8)
                p = np.exp(z)
                p /= p.sum()
                nxt = int(np.searchsorted(np.cumsum(p), rng.uniform(1)[0], side="right"))
                nxt = min(nxt, len(p) - 1)
            if nxt == EOS:
                break
            out.append(nxt)
            new = [nxt]
        return out

    def batched_nll(self, sequences: List[np.ndarray], prompt_lens: List[int],
                    gates: np.ndarray) -> Tensor:
        """Mean over records of each record's mean continuation NLL.

        Sequences already include the trailing <eos>; they are right-padded
        to a common length. Only the loss rows, the positions from the last
        prompt token to the one before <eos>, go through the head, and one
        fused :func:`~moerec.tensor.weighted_nll` scores them; the logits of
        the other prompt positions and of the padding are never made.
        """
        batch = len(sequences)
        width = max(len(s) for s in sequences)
        tokens = np.full((batch, width), PAD, dtype=np.int64)
        for i, s in enumerate(sequences):
            tokens[i, : len(s)] = s
        rows, targets, weights = [], [], []
        for i, s in enumerate(sequences):
            span = np.arange(prompt_lens[i] - 1, len(s) - 1)
            rows.append(i * (width - 1) + span)
            targets.append(np.asarray(s)[span + 1])
            weights.append(np.full(span.shape, 1.0 / (span.size * batch)))
        logits = self.forward_rows(tokens[:, :-1], gates, rows=np.concatenate(rows))
        return T.weighted_nll(logits, np.concatenate(targets), np.concatenate(weights))
