"""Self-contained verification sweeps with independent reference oracles.

Each suite returns a list of named check results; the CLI `verify`
subcommand exits nonzero if any check fails. The reference implementations
here are deliberately naive (brute-force counting, exhaustive subsequence
search, quadratic pair enumeration, Monte Carlo integration) so they share
no code path with the implementations they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .gradcheck import grad_check
from .metrics import (
    adjusted_rand_index,
    bleu_n,
    distinct_n,
    rmse,
    rouge_scores,
)
from .moe import (
    BOS,
    EOS,
    PAD,
    ExpertBank,
    GateRouter,
    KVCache,
    LanguageModel,
    LmConfig,
    TransformerBlock,
    _moe_rows,
    decompose_experts,
    expert_weight_count,
    top_k_select,
)
from .rng import Rng
from . import tensor as T
from .tensor import Tensor
from .vae import (
    LOG_2PI,
    LOG_VAR_MAX,
    LOG_VAR_MIN,
    PRIOR_VAR_FLOOR,
    GmmPrior,
    VaeConfig,
    VaeGmm,
    _log_normal_diag_np,
    elbo_loss,
    gmm_posterior_batch,
    kl_closed_form_batch,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


# --- naive reference implementations ---

def naive_bleu(candidate: List[str], reference: List[str], n: int) -> float:
    """BLEU by explicit lists and loops (no Counter machinery)."""
    if len(candidate) == 0:
        return 0.0
    log_sum = 0.0
    for order in range(1, n + 1):
        cand_grams = [tuple(candidate[i:i + order])
                      for i in range(len(candidate) - order + 1)]
        ref_grams = [tuple(reference[i:i + order])
                     for i in range(len(reference) - order + 1)]
        clipped = 0
        for gram in set(cand_grams):
            clipped += min(cand_grams.count(gram), ref_grams.count(gram))
        num = clipped if clipped > 0 else 1e-9
        log_sum += math.log(num / max(len(cand_grams), 1))
    geo = math.exp(log_sum / n)
    bp = 1.0 if len(candidate) >= len(reference) else math.exp(
        1.0 - len(reference) / len(candidate))
    return bp * geo


def lcs_reference(a: List[str], b: List[str]) -> int:
    """Longest common subsequence by exhaustive subsequence enumeration for
    short inputs, falling back to memoized recursion."""
    if len(a) <= 12:
        def is_subseq(sub, seq):
            pos = 0
            for tok in seq:
                if pos < len(sub) and sub[pos] == tok:
                    pos += 1
            return pos == len(sub)

        best = 0
        for bits in range(1 << len(a)):
            sub = [a[i] for i in range(len(a)) if bits >> i & 1]
            if len(sub) > best and is_subseq(sub, b):
                best = len(sub)
        return best

    from functools import lru_cache

    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + rec(i + 1, j + 1)
        return max(rec(i + 1, j), rec(i, j + 1))

    return rec(0, 0)


def naive_rouge(candidate: List[str], reference: List[str]) -> tuple:
    if len(candidate) == 0:
        return 0.0, 0.0
    hits = 0
    remaining = list(reference)
    for tok in candidate:
        if tok in remaining:
            remaining.remove(tok)
            hits += 1

    def f1(p, r):
        return 0.0 if p + r == 0 else 2 * p * r / (p + r)

    r1 = f1(hits / len(candidate), hits / len(reference))
    lcs = lcs_reference(candidate, reference)
    rl = f1(lcs / len(candidate), lcs / len(reference))
    return r1, rl


def naive_distinct(texts: List[List[str]], n: int) -> float:
    seen = []
    total = 0
    for text in texts:
        for i in range(len(text) - n + 1):
            gram = tuple(text[i:i + n])
            total += 1
            if gram not in seen:
                seen.append(gram)
    return len(seen) / total if total else 0.0


def naive_rmse(predicted, truth) -> float:
    total = 0.0
    for p, t in zip(predicted, truth):
        total += (p - t) * (p - t)
    return math.sqrt(total / len(predicted))


def ari_pair_enumeration(pred, truth) -> float:
    """ARI from first principles: count agreeing/disagreeing pairs."""
    n = len(pred)
    a = b = c = d = 0  # same/same, same/diff, diff/same, diff/diff
    for i in range(n):
        for j in range(i + 1, n):
            same_pred = pred[i] == pred[j]
            same_true = truth[i] == truth[j]
            if same_pred and same_true:
                a += 1
            elif same_pred:
                b += 1
            elif same_true:
                c += 1
            else:
                d += 1
    total = a + b + c + d
    if total == 0:
        return 1.0
    expected = (a + b) * (a + c) / total
    maximum = 0.5 * ((a + b) + (a + c))
    if maximum == expected:
        return 1.0
    return (a - expected) / (maximum - expected)


def kl_closed_form(mu: Tensor, log_var: Tensor, gamma: np.ndarray,
                   prior: GmmPrior) -> Tensor:
    """Single-sample :func:`moerec.vae.kl_closed_form_batch` (a scalar tensor)."""
    return kl_closed_form_batch(mu.reshape(1, -1), log_var.reshape(1, -1),
                                np.atleast_2d(gamma), prior).sum()


def mc_kl_estimate(mu: np.ndarray, log_var: np.ndarray, prior: GmmPrior,
                   rng: Rng, n_samples: int,
                   gamma: Optional[np.ndarray] = None) -> tuple:
    """Monte Carlo estimate of the KL of :func:`kl_closed_form`, with its
    standard error.

    Samples z from N(mu, diag var) and averages
        log q(z) + sum_c gamma_c [log gamma_c - log pi_c - log N(z | c)].
    When `gamma` is omitted it is evaluated at the posterior of the mean,
    which is also what callers comparing against the closed form should
    pass there. Returns (estimate, standard_error).
    """
    if n_samples < 1000:
        raise ValueError("use at least 1e3 samples for a usable standard error")
    mu = np.asarray(mu, dtype=np.float64)
    log_var = np.clip(np.asarray(log_var, dtype=np.float64), LOG_VAR_MIN, LOG_VAR_MAX)
    var = np.exp(log_var)
    if gamma is None:
        gamma = gmm_posterior_batch(prior, mu[None, :])[0]
    dims = mu.shape[0]

    eps = rng.normal(n_samples * dims).reshape(n_samples, dims)
    z = mu[None, :] + eps * np.sqrt(var)[None, :]

    log_q = -0.5 * (LOG_2PI * dims + log_var.sum() + (eps * eps).sum(axis=1))
    log_pz = _log_normal_diag_np(z, prior.mu.data, prior.var())     # (n, K)
    with np.errstate(divide="ignore", invalid="ignore"):
        g_log_g = np.where(gamma > 0, gamma * np.log(np.maximum(gamma, 1e-300)), 0.0)
    const = g_log_g.sum() - float(gamma @ prior.log_pi())
    ratios = log_q + const - log_pz @ gamma
    estimate = float(ratios.mean())
    stderr = float(ratios.std(ddof=1) / math.sqrt(n_samples))
    return estimate, stderr


# --- the op chains that the fused tensor ops replace ---

def reference_rms_norm(x: Tensor, gain: Tensor) -> Tensor:
    """:func:`moerec.tensor.rms_norm` as a chain of elementwise ops."""
    scale = T.sqrt((x * x).mean(axis=-1, keepdims=True) + 1e-6)
    return x / scale * gain


def reference_attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
                        offset: int) -> Tensor:
    """:func:`moerec.tensor.attention` as reshapes, permutes, two batched
    matmuls and a softmax over a (batch, heads, queries, keys) score tensor."""
    batch, length, m = q.shape
    keys = k.shape[1]
    dh = m // heads

    def split(t: Tensor, rows: int) -> Tensor:
        return T.permute(t.reshape(batch, rows, heads, dh), (0, 2, 1, 3))

    mask = np.triu(np.full((length, keys), -1e9), k=offset + 1)
    scores = (T.bmm(split(q, length), T.permute(split(k, keys), (0, 1, 3, 2)))
              * (1.0 / math.sqrt(dh)) + Tensor(mask))
    mixed = T.bmm(T.softmax(scores, axis=-1), split(v, keys))
    return T.permute(mixed, (0, 2, 1, 3)).reshape(batch * length, m)


def reference_attention_sublayer(x: Tensor, gain: Tensor, wq: Tensor, wk: Tensor,
                                 wv: Tensor, wo: Tensor, heads: int, batch: int) -> Tensor:
    """:func:`moerec.tensor.attention_sublayer` without a cache, as the chain
    it replaces: an RMSNorm, three projections split into (batch, L, m), the
    fused attention, `wo` and the residual add."""
    n, m = x.shape
    normed = T.rms_norm(x, gain)
    q, k, v = ((normed @ w).reshape(batch, n // batch, m) for w in (wq, wk, wv))
    return x + T.attention(q, k, v, heads, 0) @ wo


def reference_routed_experts(x, rows: Tensor, w1: Tensor, b1: Tensor, w2: Tensor,
                             b2: Tensor, experts: np.ndarray, scores: Tensor,
                             order: np.ndarray, renormalize: bool = False) -> Tensor:
    """:func:`moerec.tensor.routed_experts` as the chain it replaces: a pick
    of each pair's score (renormalized by a row-major pick, a sum, a
    division and a reorder), the fused expert FFN, a product, a scatter of
    the pairs into their rows and the residual add."""
    n = scores.shape[0]
    k = len(order) // n
    pair_rows = np.repeat(np.arange(n), k)
    by_row = pair_rows[order]
    if renormalize:
        selected = np.empty_like(experts)
        selected[order] = experts
        picked = T.gather_pairs(scores, pair_rows, selected).reshape(n, k)
        weight = T.take_rows((picked / picked.sum(axis=1, keepdims=True)).reshape(-1), order)
    else:
        weight = T.gather_pairs(scores, by_row, experts)
    out = T.expert_ffn(rows, w1, b1, w2, b2, experts) * weight.reshape(-1, 1)
    mixed = T.scatter_rows(out, by_row, n)
    return mixed if x is None else x + mixed


def reference_block(blk: TransformerBlock, rows: Tensor, batch: int, length: int,
                    gates: np.ndarray) -> Tensor:
    """:meth:`moerec.moe.TransformerBlock.forward`, without a cache, with its
    fused sublayers replaced by the chains above."""
    cfg = blk.config
    h = reference_attention_sublayer(rows, blk.norm1_g, blk.wq, blk.wk, blk.wv, blk.wo,
                                     cfg.heads, batch)
    normed = T.rms_norm(h, blk.norm2_g)
    scores = blk.router.scores(np.repeat(gates, length), normed)
    k = cfg.moe.active
    selected = top_k_select(scores.data, k).reshape(-1)
    order = np.argsort(selected, kind="stable")
    bank = blk.bank
    return reference_routed_experts(h, normed[order // k], bank.w1, bank.b1, bank.w2,
                                    bank.b2, selected[order], scores, order,
                                    cfg.renormalize_topk)


def fused_block_mismatches(lm: LanguageModel, tokens: np.ndarray, gates: np.ndarray,
                           seed: int = 0) -> List[str]:
    """Names of what differs, bit for bit, between each block of `lm` and
    :func:`reference_block`: the output, the input's gradient or a
    parameter's, under one random linear loss. The blocks run in turn on
    the embedded (batch, length) `tokens`, one gate per sequence; an empty
    list means every array is equal."""
    batch, length = tokens.shape
    x = lm.embed.data[tokens.reshape(-1)] + lm.pos.data[np.tile(np.arange(length), batch)]
    bad = []
    for b, blk in enumerate(lm.blocks):
        params = [p for name, p in lm.params().items() if name.startswith(f"lm.block{b}.")]
        results = []
        for forward in (TransformerBlock.forward, reference_block):
            rows = Tensor(x, requires_grad=True)
            out, grads = taped_run(lambda: forward(blk, rows, batch, length, gates),
                                   [rows] + params, seed + b)
            results.append([out] + grads)
        names = ["output", "input grad"] + [
            f"{name} grad" for name in lm.params() if name.startswith(f"lm.block{b}.")]
        bad += [f"block {b} {name}" for name, fused, chain in zip(names, *results)
                if not np.array_equal(fused, chain)]
        x = results[0][0]
    return bad


def reference_expert_ffn(rows: Tensor, w1: Tensor, b1: Tensor, w2: Tensor,
                         b2: Tensor, experts: np.ndarray) -> Tensor:
    """:func:`moerec.tensor.expert_ffn` as two grouped matmuls, two bias
    gathers and a tanh."""
    hidden = T.tanh(T.grouped_matmul(rows, w1, experts) + T.take_rows(b1, experts))
    return T.grouped_matmul(hidden, w2, experts) + T.take_rows(b2, experts)


def reference_weighted_nll(logits: Tensor, targets: np.ndarray,
                           weights: np.ndarray) -> Tensor:
    """:func:`moerec.tensor.weighted_nll` as a log-softmax, a pick of one
    target per row, a product with the weights, a sum and a negation."""
    picked = T.gather_pairs(T.log_softmax(logits, axis=-1), np.arange(len(targets)), targets)
    return -(picked * Tensor(weights)).sum()


def reference_batched_nll(lm: LanguageModel, sequences: List[np.ndarray],
                          prompt_lens: List[int], gates: np.ndarray) -> Tensor:
    """:meth:`moerec.moe.LanguageModel.batched_nll` through the full head:
    logits for every padded position, a log-softmax over all of them, then
    a pick of the loss rows' targets and their weighted sum."""
    batch = len(sequences)
    width = max(len(s) for s in sequences)
    tokens = np.full((batch, width), PAD, dtype=np.int64)
    for i, s in enumerate(sequences):
        tokens[i, : len(s)] = s
    logp = T.log_softmax(lm.forward_rows(tokens[:, :-1], gates), axis=-1)
    rows, targets, weights = [], [], []
    for i, s in enumerate(sequences):
        span = np.arange(prompt_lens[i] - 1, len(s) - 1)
        rows.append(i * (width - 1) + span)
        targets.append(np.asarray(s)[span + 1])
        weights.append(np.full(span.shape, 1.0 / (span.size * batch)))
    picked = T.gather_pairs(logp, np.concatenate(rows), np.concatenate(targets))
    return -(picked * Tensor(np.concatenate(weights))).sum()


def reference_mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """:func:`moerec.tensor.mlp` as two matmuls, two bias adds and a tanh."""
    return T.tanh(x @ w1 + b1) @ w2 + b2


def reference_concat_rows(a: Tensor, rows_a: np.ndarray, b: Tensor,
                          rows_b: np.ndarray) -> Tensor:
    """:func:`moerec.tensor.concat_rows` as two row gathers and a concat."""
    return T.concat([T.take_rows(a, rows_a), T.take_rows(b, rows_b)], axis=1)


def reference_gaussian_sample(mu: Tensor, log_var: Tensor, eps: np.ndarray,
                              lo: float, hi: float) -> Tensor:
    """:func:`moerec.tensor.gaussian_sample` as a clip, a scale, an exp, a
    product with the noise and a sum."""
    return mu + Tensor(eps) * T.exp(T.clip(log_var, lo, hi) * 0.5)


def reference_bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """:func:`moerec.tensor.bce_with_logits` as a column slice, a softplus,
    a product, a difference and a mean."""
    x = logits[:, 0]
    return (T.softplus(x) - x * Tensor(targets)).mean()


def reference_kl_closed_form_batch(mu: Tensor, log_var: Tensor, gamma: np.ndarray,
                                   prior: GmmPrior) -> Tensor:
    """:func:`moerec.vae.kl_closed_form_batch` as the chain of elementwise
    ops, matmuls and reductions that :func:`moerec.tensor.mixture_kl`
    replaces."""
    gamma = np.atleast_2d(gamma)
    dims = mu.shape[1]
    gamma_t = Tensor(gamma)

    prior_log_var = T.clip(prior.log_var, math.log(PRIOR_VAR_FLOOR), LOG_VAR_MAX)
    inv_var = T.exp(-prior_log_var)
    var = T.exp(log_var)

    sum_log_vbar = prior_log_var.sum(axis=1)                     # (K,)
    ratio = var @ inv_var.T                                      # (B,K)
    m_iv = prior.mu * inv_var
    maha = ((mu * mu) @ inv_var.T
            - (mu @ m_iv.T) * 2.0
            + (prior.mu * m_iv).sum(axis=1))                     # (B,K)
    comp = (gamma_t * (ratio + maha + sum_log_vbar)).sum(axis=1) * 0.5

    with np.errstate(divide="ignore", invalid="ignore"):
        g_log_g = np.where(gamma > 0, gamma * np.log(np.maximum(gamma, 1e-300)), 0.0)
    log_pi = T.log_softmax(prior.pi_logits, axis=-1)
    cat = Tensor(g_log_g.sum(axis=1)) - (gamma_t @ log_pi.reshape(-1, 1))[:, 0]

    entropy = log_var.sum(axis=1) * -0.5
    return comp + cat + entropy - 0.5 * dims


def reference_elbo_loss(model: VaeGmm, users, items, ratings_norm, beta: float, rng: Rng,
                        eps_override=None, gamma_override=None) -> Tensor:
    """:func:`moerec.vae.elbo_loss` as the op chains above, drawing the same
    noise from `rng`; the clamped log-variance feeds both the sample and
    the KL term, as it did before the draw became one op."""
    u_emb = T.take_rows(model.tables.user, np.atleast_1d(users))
    i_emb = T.take_rows(model.tables.item, np.atleast_1d(items))
    enc, dec, latent = model.encoder, model.decoder, model.config.latent_dim
    out = reference_mlp(T.concat([u_emb, i_emb], axis=1), enc.w1, enc.b1, enc.w2, enc.b2)
    mu, log_var = out[:, :latent], out[:, latent:]
    clamped = T.clip(log_var, LOG_VAR_MIN, LOG_VAR_MAX)
    if eps_override is None:
        eps = rng.normal(mu.size).reshape(mu.shape)
    else:
        eps = np.broadcast_to(np.asarray(eps_override, dtype=np.float64), mu.shape).copy()
    z = mu + Tensor(eps) * T.exp(clamped * 0.5)
    bce = reference_bce_with_logits(reference_mlp(z, dec.w1, dec.b1, dec.w2, dec.b2),
                                    np.asarray(ratings_norm, dtype=np.float64))
    if beta == 0.0:
        return bce
    gamma = (gamma_override if gamma_override is not None
             else gmm_posterior_batch(model.prior, z.data))
    return bce + beta * reference_kl_closed_form_batch(mu, clamped, gamma, model.prior).mean()


# the fused ops of each model, by the names fused_cases gives them
FUSED_OPS = {"moe": ("rms_norm", "attention", "expert_ffn", "weighted_nll",
                     "attention_sublayer", "routed_experts"),
             "vae": ("mlp", "concat_rows", "gaussian_sample", "bce_with_logits", "mixture_kl")}


def fused_cases(seed: int) -> dict:
    """name -> (fused op, its reference chain, input arrays). The layouts
    cover several rows; two sequences of three queries, after no cached
    keys and after two, under 1, 2 and 4 heads; expert groups in no order,
    one of the four experts getting no rows; repeated table rows; and
    log-variances on both sides of their clamps, with a zero
    responsibility."""
    rng = Rng(seed)

    def normal(*shape) -> np.ndarray:
        return rng.normal(math.prod(shape)).reshape(shape)

    cases = {"rms_norm": (T.rms_norm, reference_rms_norm, [normal(5, 8) * 3.0, normal(8)])}
    for heads in (1, 2, 4):
        for offset in (0, 2):
            cases[f"attention.h{heads}.o{offset}"] = (
                lambda q, k, v, h=heads, o=offset: T.attention(q, k, v, h, o),
                lambda q, k, v, h=heads, o=offset: reference_attention(q, k, v, h, o),
                [normal(2, 3, 8), normal(2, offset + 3, 8), normal(2, offset + 3, 8)])
    experts = np.array([2, 0, 2, 3, 0, 3])
    cases["expert_ffn"] = (
        lambda *stacks: T.expert_ffn(*stacks, experts),
        lambda *stacks: reference_expert_ffn(*stacks, experts),
        [normal(6, 4), normal(4, 4, 3), normal(4, 3), normal(4, 3, 4), normal(4, 4)])
    for heads in (1, 2):
        cases[f"attention_sublayer.h{heads}"] = (
            lambda x, gain, *w, h=heads: T.attention_sublayer(x, gain, *w, h, 2),
            lambda x, gain, *w, h=heads: reference_attention_sublayer(x, gain, *w, h, 2),
            [normal(6, 4), normal(4)] + [normal(4, 4) * 0.6 for _ in range(4)])
    # three rows pick two of four experts each, expert 1 none; row 0 holds expert 0
    selected = np.array([[0, 3], [2, 3], [0, 2]]).reshape(-1)
    order = np.argsort(selected, kind="stable")
    for renormalize in (False, True):
        cases[f"routed_experts.r{int(renormalize)}"] = (
            lambda x, rows, *rest, r=renormalize: T.routed_experts(
                x, rows, *rest[:4], selected[order], rest[4], order, r),
            lambda x, rows, *rest, r=renormalize: reference_routed_experts(
                x, rows, *rest[:4], selected[order], rest[4], order, r),
            [normal(3, 4), normal(6, 4), normal(4, 4, 3), normal(4, 3), normal(4, 3, 4),
             normal(4, 4), np.exp(normal(3, 4))])
    # rows 0 and 3 share a target; row 4 weighs nothing
    picks, weights = np.array([3, 0, 5, 3, 1]), np.array([0.5, 0.25, 1.5, 0.125, 0.0])
    cases["weighted_nll"] = (
        lambda logits: T.weighted_nll(logits, picks, weights),
        lambda logits: reference_weighted_nll(logits, picks, weights),
        [normal(5, 6) * 2.0])

    cases["mlp"] = (T.mlp, reference_mlp,
                    [normal(5, 4), normal(4, 6), normal(6), normal(6, 3), normal(3)])
    rows_a, rows_b = np.array([0, 2, 0, 3, 2]), np.array([1, 0, 1, 2, 0])
    cases["concat_rows"] = (
        lambda a, b: T.concat_rows(a, rows_a, b, rows_b),
        lambda a, b: reference_concat_rows(a, rows_a, b, rows_b),
        [normal(4, 3), normal(3, 2)])
    eps = normal(5, 3)
    cases["gaussian_sample"] = (
        lambda mu, log_var: T.gaussian_sample(mu, log_var, eps, -1.0, 1.0),
        lambda mu, log_var: reference_gaussian_sample(mu, log_var, eps, -1.0, 1.0),
        [normal(5, 3), normal(5, 3) * 1.5])
    targets = rng.uniform(6)
    cases["bce_with_logits"] = (
        lambda logits: T.bce_with_logits(logits, targets),
        lambda logits: reference_bce_with_logits(logits, targets),
        [normal(6, 1) * 2.0])
    scores = np.exp(normal(4, 3))
    scores[1, 2] = 0.0
    gamma = scores / scores.sum(axis=1, keepdims=True)
    floor = math.log(PRIOR_VAR_FLOOR)
    log_vars = normal(3, 3) * 0.3
    log_vars[2, 1] = floor - 0.5

    cases["mixture_kl"] = (
        lambda mu, log_var, *mix: T.mixture_kl(mu, log_var, gamma, *mix, floor, LOG_VAR_MAX),
        lambda mu, log_var, *mix: reference_kl_closed_form_batch(mu, log_var, gamma,
                                                                 GmmPrior(*mix)),
        [normal(4, 3) * 0.8, normal(4, 3) * 0.4, normal(3), normal(3, 3), log_vars])
    return cases


def taped_run(fn, leaves: List[Tensor], weight_seed: Optional[int] = None) -> tuple:
    """(output array, gradient of each of `leaves`) of one call of `fn` on a
    fresh tape, the leaves' gradients cleared first. The loss is the output
    itself or, given `weight_seed`, its sum weighted by normal draws of that
    seed. A leaf the loss does not reach reads -1 everywhere."""
    T.zero_grad(leaves)
    with T.Tape() as tape:
        out = fn()
        if weight_seed is not None:
            weight = Tensor(Rng(weight_seed).normal(out.size).reshape(out.shape))
            tape.backward((out * weight).sum())
        else:
            tape.backward(out)
    return out.data, [np.full_like(p.data, -1.0) if p.grad is None else p.grad
                      for p in leaves]


def fused_gap(fused, reference, inputs: list, seed: int = 0) -> tuple:
    """(forwards equal bit for bit, largest gradient gap over every input)
    between a fused op and its reference chain, under one random linear
    loss."""
    outs, grads = [], []
    for fn in (fused, reference):
        leaves = [Tensor(a, requires_grad=True) for a in inputs]
        out, leaf_grads = taped_run(lambda: fn(*leaves), leaves, seed)
        outs.append(out)
        grads.append(leaf_grads)
    gap = max(float(np.max(np.abs(a - b))) for a, b in zip(*grads))
    return bool(np.array_equal(*outs)), gap


def fused_grad_error(fused, inputs: list, wrt: int, seed: int = 0) -> float:
    """grad_check of a fused op with respect to input `wrt`, the other
    inputs held constant, under one random linear loss."""
    args = [Tensor(a) for a in inputs]
    shape = fused(*args).shape
    weight = Tensor(Rng(seed).normal(math.prod(shape)).reshape(shape))

    def loss(x: Tensor) -> Tensor:
        return (fused(*args[:wrt], x, *args[wrt + 1:]) * weight).sum()

    return grad_check(loss, Tensor(np.array(inputs[wrt])))


# --- suites ---

def _random_tokens(rng: Rng, min_len=0, max_len=12, alphabet=6) -> List[str]:
    length = int(rng.integers(1, max_len - min_len + 1)[0]) + min_len
    letters = "abcdef"
    return [letters[int(i)] for i in rng.integers(length, alphabet)]


def verify_metrics(cases: int = 50, seed: int = 202) -> List[CheckResult]:
    results = []
    rng = Rng(seed)

    worst = {"bleu1": 0.0, "bleu4": 0.0, "rouge1": 0.0, "rougeL": 0.0,
             "distinct1": 0.0, "distinct2": 0.0, "rmse": 0.0, "ari": 0.0}
    for _ in range(cases):
        cand = _random_tokens(rng)
        ref = _random_tokens(rng, min_len=1)
        worst["bleu1"] = max(worst["bleu1"], abs(bleu_n(cand, ref, 1) - naive_bleu(cand, ref, 1)))
        worst["bleu4"] = max(worst["bleu4"], abs(bleu_n(cand, ref, 4) - naive_bleu(cand, ref, 4)))
        r1, rl = rouge_scores(cand, ref)
        n1, nl = naive_rouge(cand, ref)
        worst["rouge1"] = max(worst["rouge1"], abs(r1 - n1))
        worst["rougeL"] = max(worst["rougeL"], abs(rl - nl))
        texts = [_random_tokens(rng) for _ in range(4)]
        texts = [t if t else ["a"] for t in texts]
        worst["distinct1"] = max(worst["distinct1"],
                                 abs(distinct_n(texts, 1) - naive_distinct(texts, 1)))
        worst["distinct2"] = max(worst["distinct2"],
                                 abs(distinct_n(texts, 2) - naive_distinct(texts, 2)))
        size = int(rng.integers(1, 8)[0]) + 2
        pred_v = rng.uniform(size)
        true_v = rng.uniform(size)
        worst["rmse"] = max(worst["rmse"], abs(rmse(pred_v, true_v) - naive_rmse(pred_v, true_v)))
        labels_a = [int(x) for x in rng.integers(size + 4, 3)]
        labels_b = [int(x) for x in rng.integers(size + 4, 3)]
        worst["ari"] = max(worst["ari"],
                           abs(adjusted_rand_index(labels_a, labels_b)
                               - ari_pair_enumeration(labels_a, labels_b)))
    for name, err in worst.items():
        results.append(CheckResult(f"metrics.{name}.vs_naive", err <= 1e-9,
                                   f"max |diff| {err:.2e} over {cases} cases"))

    # frozen worked examples
    brevity_case = bleu_n("the cat sat".split(), "the cat sat down".split(), 1)
    results.append(CheckResult(
        "metrics.bleu.brevity_case",
        abs(brevity_case - math.exp(1.0 - 4.0 / 3.0)) <= 1e-12,
        f"got {brevity_case:.10f}"))
    r1, rl = rouge_scores("a b c d".split(), "a c b d".split())
    results.append(CheckResult("metrics.rouge.worked_case",
                               abs(r1 - 1.0) <= 1e-12 and abs(rl - 0.75) <= 1e-12,
                               f"got ({r1}, {rl})"))
    pooled = distinct_n(["a b".split(), "a b".split()], 2)
    results.append(CheckResult("metrics.distinct.pooling_case",
                               abs(pooled - 0.5) <= 1e-12, f"got {pooled}"))
    return results


def verify_kl(configs: int = 10, samples: int = 100_000,
              seed: int = 77) -> List[CheckResult]:
    results = []
    layouts = [(1, 2), (2, 2), (3, 4), (5, 8), (3, 8),
               (2, 8), (4, 4), (5, 2), (3, 2), (1, 8)][:configs]
    for case, (clusters, dim) in enumerate(layouts):
        rng = Rng(seed + case)
        prior = GmmPrior(rng.normal(clusters),
                         rng.normal(clusters * dim).reshape(clusters, dim),
                         rng.normal(clusters * dim).reshape(clusters, dim) * 0.3)
        mu = rng.normal(dim) * 0.8
        log_var = rng.normal(dim) * 0.4
        gamma = gmm_posterior_batch(prior, mu[None, :])[0]
        closed = kl_closed_form(Tensor(mu), Tensor(log_var), gamma, prior).item()
        est, se = mc_kl_estimate(mu, log_var, prior, Rng(seed + 500 + case),
                                 samples, gamma=gamma)
        gap = abs(closed - est)
        results.append(CheckResult(
            f"kl.closed_vs_mc.k{clusters}d{dim}", gap <= 3 * se,
            f"closed {closed:.5f} vs mc {est:.5f} (3se {3 * se:.5f})"))
    return results


def verify_grads(seeds: int = 20) -> List[CheckResult]:
    results = []
    worst = 0.0
    for seed in range(seeds):
        rng = Rng(3000 + seed)
        c6 = Tensor(rng.normal(6))
        c32 = Tensor(rng.normal(6).reshape(3, 2))
        cases = {
            "softmax": lambda x: (T.softmax(x) * c6).sum(),
            "log_softmax": lambda x: (T.log_softmax(x) * c6).sum(),
            "matmul": lambda x: (x.reshape(2, 3) @ c32).sum(),
            "exp_log": lambda x: T.log(T.exp(x) + 1.0).sum(),
            "tanh": lambda x: T.tanh(x).sum(),
            "sigmoid": lambda x: T.sigmoid(x).mean(),
            "softplus": lambda x: T.softplus(x).sum(),
            "composite": lambda x: -(T.log_softmax(x.reshape(2, 3) @ c32, axis=-1)
                                     * Tensor(np.array([[1, 0], [0, 1.0]]))).sum(),
        }
        for name, f in cases.items():
            err = grad_check(f, Tensor(Rng(seed).normal(6) * 0.7))
            worst = max(worst, err)
    results.append(CheckResult("grads.op_sweep", worst <= 1e-4,
                               f"max relative error {worst:.2e} over {seeds} seeds"))

    rng = Rng(3100)
    c6, c32, c22 = (Tensor(rng.normal(n)) for n in (6, 6, 4))
    shaped = {
        "bmm": lambda x: (T.bmm(x.reshape(1, 2, 3), c32.reshape(1, 3, 2))
                          * c22.reshape(1, 2, 2)).sum(),
        "permute": lambda x: (T.permute(x.reshape(3, 1, 2), (2, 0, 1)).reshape(2, 3)
                              * c6.reshape(2, 3)).sum(),
        # group 1 of three gets no rows, so its stack slice gets no gradient
        "grouped_matmul": lambda x: (T.grouped_matmul(
            x.reshape(3, 2), Tensor(np.arange(12.0).reshape(3, 2, 2) / 7.0),
            np.array([2, 0, 2])) * c32.reshape(3, 2)).sum(),
        "grouped_matmul.stack": lambda x: (T.grouped_matmul(
            c6.reshape(3, 2), x.reshape(3, 2, 1), np.array([2, 0, 2]))
            * c22[:3].reshape(3, 1)).sum(),
    }
    for name, f in shaped.items():
        err = max(grad_check(f, Tensor(Rng(seed).normal(6) * 0.7)) for seed in range(seeds))
        results.append(CheckResult(f"grads.{name}", err <= 1e-4,
                                   f"max relative error {err:.2e} over {seeds} seeds"))

    for op in FUSED_OPS["moe"] + FUSED_OPS["vae"]:
        cases = [case for name, case in fused_cases(3200).items()
                 if name.split(".")[0] == op]
        err = max(fused_grad_error(fused, inputs, wrt)
                  for fused, _, inputs in cases for wrt in range(len(inputs)))
        results.append(CheckResult(f"grads.{op}", err <= 1e-4,
                                   f"max relative error {err:.2e} over every input, "
                                   f"{len(cases)} layout(s)"))

    moe_cfg = decompose_experts(2, 4, 2, active=2, gates=2)
    bank = ExpertBank(4, moe_cfg, Rng(11))
    router = GateRouter(4, moe_cfg, Rng(12))
    weights = Tensor(Rng(13).normal(12).reshape(3, 4))

    def moe_loss(x):
        return (_moe_rows(bank, router, np.array([1, 0, 1]), x.reshape(3, 4), k=2)
                * weights).sum()

    err = grad_check(moe_loss, Tensor(Rng(14).normal(12)))
    results.append(CheckResult("grads.grouped_moe", err <= 1e-4,
                               f"relative error {err:.2e}"))
    return results


def verify_moe(random_configs: int = 5, seed: int = 55) -> List[CheckResult]:
    results = []
    cfg = decompose_experts(6, 4096, 2)
    ok = (cfg.expert_count == 12 and cfg.expert_hidden == 2048
          and expert_weight_count(4096, 6, 4096) == expert_weight_count(4096, 12, 2048))
    results.append(CheckResult("moe.identity.reference", ok,
                               f"{cfg.expert_count} experts of width {cfg.expert_hidden}"))

    rng = Rng(seed)
    all_ok = True
    details = []
    for _ in range(random_configs):
        n = int(rng.integers(1, 8)[0]) + 1
        r = int(rng.integers(1, 4)[0]) + 1
        d = r * (int(rng.integers(1, 64)[0]) + 1)
        c = decompose_experts(n, d, r, active=1)
        same = expert_weight_count(32, n, d) == expert_weight_count(
            32, c.expert_count, c.expert_hidden)
        all_ok &= same and n * d == c.expert_count * c.expert_hidden
        details.append(f"({n},{d},{r})")
    results.append(CheckResult("moe.identity.random", all_ok, " ".join(details)))

    # exactly-k evaluation counter and the grouped mixture against the loop
    gap, evals_ok = 0.0, True
    for case, (gates, k, renormalize) in enumerate(
            [(1, 1, False), (2, 2, False), (3, 2, True), (3, 4, False), (2, 6, True)]):
        mcfg = decompose_experts(3, 8, 2, active=k, gates=gates)
        bank = ExpertBank(5, mcfg, Rng(1 + case))
        router = GateRouter(5, mcfg, Rng(20 + case))
        rows = Rng(40 + case).normal(9 * 5).reshape(9, 5)
        row_gates = np.arange(9) % gates
        bank.eval_count = 0
        grouped = _moe_rows(bank, router, row_gates, Tensor(rows), k, renormalize).data
        evals_ok &= bank.eval_count == 9 * k
        gap = max(gap, float(np.max(np.abs(
            grouped - loop_moe_rows(bank, router, row_gates, rows, k, renormalize)))))
    results.append(CheckResult("moe.exactly_k_evaluations", evals_ok,
                               "n*k expert evaluations over 5 layouts, k 1 to 6"))
    results.append(CheckResult("moe.grouped_matches_loop", gap <= 1e-12,
                               f"max gap {gap:.1e} over 5 layouts, mixed gates"))

    results.append(_fused_ops_check("moe", seed))

    bad = []
    for case, (gates, k, heads, renormalize) in enumerate(
            [(1, 1, 2, False), (2, 2, 2, False), (3, 2, 4, True), (2, 4, 1, True)]):
        moe = decompose_experts(2, 8, 2, active=k, gates=gates)
        lm = LanguageModel(LmConfig(vocab_size=24, model_dim=8, blocks=2, heads=heads,
                                    context=16, moe=moe, renormalize_topk=renormalize),
                           Rng(seed + case))
        tokens = Rng(seed + 10 + case).integers(3 * 6, 20).reshape(3, 6) + 4
        bad += fused_block_mismatches(lm, tokens, np.arange(3) % gates, seed + case)
    results.append(CheckResult("moe.fused_sublayers_match_chain", not bad,
                               "outputs and every gradient equal bit for bit over 4 "
                               "two-block layouts, 3 sequences, mixed gates"
                               if not bad else "differ: " + ", ".join(bad[:4])))

    logits = Rng(9).normal(12)
    shift_ok = np.array_equal(top_k_select(logits, 4), top_k_select(logits + 1e6, 4))
    results.append(CheckResult("moe.topk_shift_invariance", shift_ok, "shift 1e6"))

    gap = max(_kv_cache_gap(gates, renormalize, seed + gates)
              for gates in (1, 2, 3) for renormalize in (False, True))
    results.append(CheckResult("moe.kv_cache_matches_recompute", gap <= 1e-10,
                               f"max logit gap {gap:.1e} over every decode step"))

    gaps = [loss_rows_gap(seed + case) for case in range(4)]
    loss_gap, grad_gap = (max(g[i] for g in gaps) for i in (0, 1))
    results.append(CheckResult("moe.loss_rows_match_full_head",
                               loss_gap <= 1e-12 and grad_gap <= 1e-10,
                               f"loss gap {loss_gap:.1e}, max gradient gap {grad_gap:.1e} "
                               f"over every parameter, 4 padded batches"))
    return results


def loss_rows_gap(seed: int) -> tuple:
    """(loss gap, largest gradient gap over every parameter) between
    :meth:`~moerec.moe.LanguageModel.batched_nll` and
    :func:`reference_batched_nll` on one batch of a small three-gate model.
    The seven records mix prompt lengths from 1 token up and sequence
    lengths from 3 tokens to the context, so most are padded; the model
    follows the default dtype."""
    rng = Rng(seed)
    moe = decompose_experts(2, 8, 2, active=2, gates=3)
    lm = LanguageModel(LmConfig(vocab_size=64, model_dim=16, blocks=2, heads=2,
                                context=16, moe=moe), rng.substream("init"))
    sequences, prompt_lens = [], []
    for length in (3, 17, 9, 5, 12, 4, 16):
        sequences.append(np.concatenate([[BOS], rng.integers(length - 2, 60) + 4, [EOS]]))
        prompt_lens.append(int(rng.integers(1, length - 1)[0]) + 1)
    gates = rng.integers(len(sequences), 3)
    losses, grads = [], []
    for fn in (LanguageModel.batched_nll, reference_batched_nll):
        loss, param_grads = taped_run(lambda: fn(lm, sequences, prompt_lens, gates),
                                      list(lm.params().values()))
        losses.append(loss.item())
        grads.append(param_grads)
    gap = max(float(np.max(np.abs(a - b))) for a, b in zip(*grads))
    return abs(losses[0] - losses[1]), gap


def _fused_ops_check(model: str, seed: int) -> CheckResult:
    """Each fused op of `model` against its reference chain, on two seeds."""
    exact, gap = True, 0.0
    for case_seed in (seed, seed + 1):
        for name, (fused, reference, inputs) in fused_cases(case_seed).items():
            if name.split(".")[0] in FUSED_OPS[model]:
                same, case_gap = fused_gap(fused, reference, inputs, case_seed)
                exact &= same
                gap = max(gap, case_gap)
    return CheckResult(f"{model}.fused_ops_match_reference", exact and gap <= 1e-12,
                       f"forwards {'equal' if exact else 'differ'}, max gradient gap {gap:.1e}")


def fused_elbo_gap(seed: int, beta: float) -> tuple:
    """(losses equal bit for bit, largest gradient gap over every parameter)
    between :func:`moerec.vae.elbo_loss` and :func:`reference_elbo_loss` on
    one batch of a small model with a three-component prior; one
    posterior log-variance is pushed past its clamp."""
    rng = Rng(seed)
    model = VaeGmm(VaeConfig(n_users=7, n_items=5, d_emb=4, latent_dim=3, hidden=6,
                             clusters=3), rng.substream("init"))
    model.prior = GmmPrior(rng.normal(3), rng.normal(9).reshape(3, 3),
                           rng.normal(9).reshape(3, 3) * 0.3)
    model.encoder.b2.data[4] = 20.0          # log-variance column 1 sits above 10
    users, items = np.array([0, 3, 6, 3, 1, 7]), np.array([4, 0, 2, 2, 5, 1])
    ratings = rng.uniform(6)
    losses, grads = [], []
    for fn in (elbo_loss, reference_elbo_loss):
        # with beta = 0 the prior gets no gradient, which reads -1 on both sides
        loss, param_grads = taped_run(lambda: fn(model, users, items, ratings, beta,
                                                 Rng(seed + 1)),
                                      list(model.params().values()))
        losses.append(loss)
        grads.append(param_grads)
    gap = max(float(np.max(np.abs(a - b))) for a, b in zip(*grads))
    return bool(np.array_equal(*losses)), gap


def verify_vae(seed: int = 71) -> List[CheckResult]:
    results = [_fused_ops_check("vae", seed)]
    exact, gap = True, 0.0
    for case_seed in (seed, seed + 1):
        for beta in (0.0, 0.1, 1.0):
            same, case_gap = fused_elbo_gap(case_seed, beta)
            exact &= same
            gap = max(gap, case_gap)
    results.append(CheckResult("vae.fused_elbo_matches_reference", exact and gap <= 1e-12,
                               f"losses {'equal' if exact else 'differ'}, max gradient gap "
                               f"{gap:.1e} over every parameter, beta 0, 0.1 and 1"))
    return results


def loop_moe_rows(bank: ExpertBank, router: GateRouter, gates: np.ndarray,
                  rows: np.ndarray, k: int, renormalize: bool) -> np.ndarray:
    """The mixture one gate and one expert at a time, in plain numpy."""
    out = np.zeros_like(rows)
    for gate in sorted(set(gates.tolist())):
        members = np.nonzero(gates == gate)[0]
        logits = rows[members] @ router.weights.data[gate]
        scores = np.exp(logits - logits.max(axis=1, keepdims=True))
        scores /= scores.sum(axis=1, keepdims=True)
        picked = top_k_select(scores, k)
        mass = (np.take_along_axis(scores, picked, axis=1).sum(axis=1) if renormalize
                else np.ones(len(members)))
        for e in range(bank.cfg.expert_count):
            hit = (picked == e).any(axis=1)
            hidden = np.tanh(rows[members[hit]] @ bank.w1.data[e] + bank.b1.data[e])
            expert_out = hidden @ bank.w2.data[e] + bank.b2.data[e]
            out[members[hit]] += (scores[hit, e] / mass[hit])[:, None] * expert_out
    return out


def _kv_cache_gap(gates: int, renormalize: bool, seed: int) -> float:
    """Largest logit gap between decoding from a KV cache and recomputing
    the whole prefix, over a greedy decode that fills the context."""
    moe = decompose_experts(2, 8, 2, active=2, gates=gates)
    lm = LanguageModel(LmConfig(vocab_size=24, model_dim=8, blocks=2, heads=2,
                                context=16, moe=moe, renormalize_topk=renormalize),
                       Rng(seed))
    gap = 0.0
    for gate in range(gates):
        cache = KVCache(lm.config.blocks)
        seq = [1, 4 + gate, 9, 13]
        new = seq
        while len(seq) < lm.config.context:
            cached = lm.forward_rows(np.array([new]), np.array([gate]), cache).data[-1]
            full = lm.forward_rows(np.array([seq]), np.array([gate])).data[-1]
            gap = max(gap, float(np.max(np.abs(cached - full))))
            new = [int(np.argmax(full))]
            seq = seq + new
    return gap


SUITES = {
    "grads": verify_grads,
    "kl": verify_kl,
    "moe": verify_moe,
    "metrics": verify_metrics,
    "vae": verify_vae,
}


def run_suites(names: List[str]) -> List[CheckResult]:
    results = []
    for name in names:
        results.extend(SUITES[name]())
    return results
