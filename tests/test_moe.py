"""Expert decomposition, routing contracts, causality, and dense equivalence."""

import math
import sys
import warnings

import numpy as np
import pytest

from moerec import Tape, Tensor, grad_check
from moerec.errors import ConfigError, ContextLimitError, NumericError, ShapeError, TapeError
from moerec.data import rating_bucket
from moerec.rng import Rng
from moerec import moe as moe_module
from moerec import tensor as T
from moerec.verify import fused_block_mismatches, loss_rows_gap, reference_expert_ffn
from moerec.moe import (
    BOS,
    EOS,
    MARK_EXP,
    MARK_F,
    PAD,
    RESERVED,
    UNK,
    DraftTable,
    ExpertBank,
    GateRouter,
    KVCache,
    LanguageModel,
    LmConfig,
    MoeLayerConfig,
    Vocab,
    build_prompt,
    _moe_rows,
    decompose_experts,
    expert_weight_count,
    tokenize,
    top_k_select,
)


def tiny_lm(seed=0, vocab_size=20, gates=2, active=2, **overrides) -> LanguageModel:
    moe = decompose_experts(2, 8, 2, active=active, gates=gates)
    cfg = LmConfig(vocab_size=vocab_size, model_dim=8, blocks=2, heads=2,
                   context=16, moe=moe)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return LanguageModel(cfg, Rng(seed))


def forward_lm(lm: LanguageModel, tokens, gate: int) -> Tensor:
    """Next-token logits for one sequence: (length, vocab)."""
    return lm.forward_rows(np.asarray(tokens)[None, :], np.array([gate]))


def generate_one(lm: LanguageModel, prompt, gate: int, **options) -> list:
    """The tokens that `generate` writes for one prompt, as a batch of one."""
    out, = lm.generate([prompt], [gate], **options)
    return out


# --- decomposition ---

def test_decompose_reference_instance():
    cfg = decompose_experts(6, 4096, 2)
    assert cfg.expert_count == 12 and cfg.expert_hidden == 2048
    m = 4096
    assert expert_weight_count(m, 6, 4096) == expert_weight_count(m, 12, 2048)


def test_decompose_identity_factor():
    cfg = decompose_experts(4, 8, 1, active=1)
    assert cfg.expert_count == 4 and cfg.expert_hidden == 8


def test_decompose_three_by_ten():
    cfg = decompose_experts(3, 10, 2)
    assert cfg.expert_count == 6 and cfg.expert_hidden == 5
    for m in (7, 64):
        assert 3 * (m * 10 + 10 * m) == 6 * (m * 5 + 5 * m) == expert_weight_count(m, 6, 5)


def test_decompose_rejects_nondivisor():
    with pytest.raises(ConfigError):
        decompose_experts(3, 10, 3)


@pytest.mark.parametrize("gates", [0, -1])
def test_decompose_rejects_gate_count_below_one(gates):
    with pytest.raises(ConfigError, match="gate count"):
        decompose_experts(2, 8, 2, gates=gates)


def test_decompose_random_configs_identity():
    rng = Rng(77)
    for _ in range(5):
        n = int(rng.integers(1, 8)[0]) + 1
        r = int(rng.integers(1, 4)[0]) + 1
        d = r * (int(rng.integers(1, 64)[0]) + 1)
        cfg = decompose_experts(n, d, r, active=1)
        assert n * d == cfg.expert_count * cfg.expert_hidden
        assert expert_weight_count(16, n, d) == expert_weight_count(
            16, cfg.expert_count, cfg.expert_hidden)


# --- routing ---

def route(router, gate, x):
    """Scores of one vector under one gate."""
    return router.scores(np.array([gate]), x.data.reshape(1, -1))[0][0]


def test_route_uniform_for_zero_weights():
    cfg = decompose_experts(2, 8, 2, active=2, gates=2)
    router = GateRouter(4, cfg, Rng(0))
    router.weights.data[0] = 0.0
    scores = route(router, 0, Tensor(Rng(1).normal(4)))
    assert np.allclose(scores, np.full(4, 0.25), atol=1e-15)


def test_route_scores_sum_to_one():
    cfg = decompose_experts(3, 6, 2, active=2, gates=2)
    router = GateRouter(5, cfg, Rng(2))
    for seed in range(100):
        s = route(router, seed % 2, Tensor(Rng(seed).normal(5)))
        assert abs(s.sum() - 1.0) <= 1e-12


def test_route_gates_differ_for_same_input():
    cfg = decompose_experts(2, 8, 2, active=2, gates=3)
    router = GateRouter(6, cfg, Rng(3))
    x = Tensor(Rng(4).normal(6))
    assert not np.allclose(route(router, 0, x), route(router, 1, x))


def test_route_rejects_bad_gate():
    cfg = decompose_experts(2, 8, 2, active=2, gates=2)
    router = GateRouter(4, cfg, Rng(0))
    with pytest.raises(ConfigError):
        route(router, 2, Tensor(np.zeros(4)))
    with pytest.raises(ConfigError):
        router.scores(np.array([0, -1]), np.zeros((2, 4)))
    with pytest.raises(ShapeError):
        router.scores(np.array([0, 1, 0]), np.zeros((2, 4)))


def test_router_scores_each_row_under_its_own_gate():
    cfg = decompose_experts(2, 8, 2, active=2, gates=3)
    router = GateRouter(5, cfg, Rng(5))
    rows = Tensor(Rng(6).normal(6 * 5).reshape(6, 5))
    gates = np.array([2, 0, 1, 2, 2, 0])
    mixed, _ = router.scores(gates, rows.data)
    for i, gate in enumerate(gates):
        alone = route(router, int(gate), rows[i:i + 1])
        assert np.max(np.abs(mixed[i] - alone)) <= 1e-15


def test_top_k_select_cases():
    assert top_k_select(np.array([0.5, 0.3, 0.15, 0.05]), 2).tolist() == [0, 1]
    assert top_k_select(np.array([0.1, 0.4, 0.4, 0.1]), 1).tolist() == [1]
    assert top_k_select(np.array([0.25, 0.25, 0.25, 0.25]), 2).tolist() == [0, 1]
    assert top_k_select(np.array([0.2, 0.3, 0.5]), 3).tolist() == [0, 1, 2]
    with pytest.raises(ConfigError):
        top_k_select(np.array([1.0]), 2)


def test_top_k_shift_invariance():
    logits = Rng(9).normal(12)
    base = top_k_select(logits, 4)
    shifted = top_k_select(logits + 1e6, 4)
    assert np.array_equal(base, shifted)


# --- the grouped mixture on single rows ---

def moe_forward(bank, router, gate, x, gain=None):
    """The mixture of one vector under one gate: the MoE sublayer's output
    less its residual. The default gain undoes the norm, up to rounding, so
    the experts see `x` itself."""
    h = x.reshape(1, -1)
    if gain is None:
        gain = Tensor(np.full(h.shape[1], math.sqrt(np.mean(h.data * h.data) + 1e-6)))
    return (_moe_rows(bank, router, gain, np.array([gate]), h) - h).reshape(-1)


def rigged_router(scores_row, model_dim):
    cfg = decompose_experts(len(scores_row), 2, 1, active=2, gates=1)
    router = GateRouter(model_dim, cfg, Rng(0))
    w = np.zeros((model_dim, len(scores_row)))
    w[0, :] = np.log(scores_row)
    router.weights.data[0] = w
    return router


@pytest.mark.parametrize("model_dim, base_hidden", [(4, 8), (5, 6)])
def test_expert_bank_draws_each_expert_in_turn(model_dim, base_hidden):
    """One padded draw gives every expert's w1 then w2 as drawn in turn,
    for an odd m*h too, and leaves the stream where those draws end."""
    cfg = decompose_experts(3, base_hidden, 2, active=2, gates=1)
    m, h = model_dim, cfg.expert_hidden
    rng, reference = Rng(21), Rng(21)
    rng.normal(3)
    reference.normal(3)
    bank = ExpertBank(m, cfg, rng)
    for e in range(cfg.expert_count):
        w1 = reference.normal(m * h).reshape(m, h) / math.sqrt(m)
        w2 = reference.normal(h * m).reshape(h, m) / math.sqrt(h)
        assert bank.w1.data[e].tobytes() == w1.tobytes()
        assert bank.w2.data[e].tobytes() == w2.tobytes()
    assert rng.counter == reference.counter


def test_moe_forward_scalar_experts_oracle():
    # experts act as x*1, x*2, x*3; softmax scores pinned to [0.2, 0.5, 0.3]
    scores = [0.2, 0.5, 0.3]
    router = rigged_router(scores, 2)
    cfg = router.cfg
    bank = ExpertBank(2, cfg, Rng(0))
    x = np.array([1.0, 0.0])  # picks out the log-score row of W
    bank.w2.data[...] = 0.0   # expert e outputs its bias, (e + 1) * x
    bank.b2.data[...] = (np.arange(3) + 1.0)[:, None] * x

    out = moe_forward(bank, router, 0, Tensor(x))

    # enumerate-all-subsets oracle: best-2 subset by score, then weighted sum
    best = max(
        ([i, j] for i in range(3) for j in range(i + 1, 3)),
        key=lambda ij: scores[ij[0]] + scores[ij[1]],
    )
    expected = sum(scores[i] * (i + 1) * x for i in best)
    assert best == [1, 2]
    assert np.allclose(out.data, expected, atol=1e-12)
    assert np.allclose(out.data, 1.9 * x, atol=1e-12)


def test_moe_forward_identical_experts_factorize():
    cfg = decompose_experts(2, 4, 2, active=3, gates=1)
    bank = ExpertBank(3, cfg, Rng(5))
    for part in ("w1", "b1", "w2", "b2"):
        stack = getattr(bank, part).data
        stack[1:] = stack[0]
    router = GateRouter(3, cfg, Rng(6))
    x = Tensor(Rng(7).normal(3))
    out = moe_forward(bank, router, 0, x)
    scores = route(router, 0, x)
    sel = top_k_select(scores, 3)
    single = reference_expert_ffn(x.reshape(1, -1), bank.w1, bank.b1, bank.w2, bank.b2,
                                  np.array([0])).data[0]
    assert np.allclose(out.data, scores[sel].sum() * single, atol=1e-12)


def test_moe_forward_full_k_equals_dense_mixture():
    cfg = decompose_experts(2, 4, 2, active=4, gates=1)
    bank = ExpertBank(6, cfg, Rng(8))
    router = GateRouter(6, cfg, Rng(9))
    x = Tensor(Rng(10).normal(6))
    out = moe_forward(bank, router, 0, x)
    scores = route(router, 0, x)
    dense = sum(scores[e] * reference_expert_ffn(x.reshape(1, -1), bank.w1, bank.b1,
                                                 bank.w2, bank.b2, np.array([e])).data[0]
                for e in range(4))
    assert np.allclose(out.data, dense, atol=1e-12)


def test_moe_forward_evaluates_exactly_k_experts():
    cfg = decompose_experts(3, 8, 2, active=2, gates=2)
    bank = ExpertBank(5, cfg, Rng(11))
    router = GateRouter(5, cfg, Rng(12))
    bank.eval_count = 0
    moe_forward(bank, router, 0, Tensor(Rng(13).normal(5)))
    assert bank.eval_count == 2
    # batched, mixed gates: exactly k per row, in one bank call that takes
    # the row-major selection, each row's k experts ascending
    calls = []
    run = bank.run
    bank.run = lambda h, selected, *front: calls.append(selected) or run(h, selected, *front)
    bank.eval_count = 0
    rows = Tensor(Rng(14).normal(7 * 5).reshape(7, 5))
    _moe_rows(bank, router, Tensor(np.ones(5)), np.array([0, 1, 1, 0, 1, 0, 0]), rows)
    assert bank.eval_count == 2 * 7
    assert len(calls) == 1 and calls[0].shape == (2 * 7,)
    assert np.all(np.diff(calls[0].reshape(7, 2), axis=1) > 0)


def test_moe_forward_gradients():
    cfg = decompose_experts(2, 4, 2, active=2, gates=1)
    bank = ExpertBank(4, cfg, Rng(30))
    router = GateRouter(4, cfg, Rng(31))

    gain = Tensor(Rng(33).normal(4))

    def f(x):
        return (moe_forward(bank, router, 0, x, gain)
                * Tensor(np.array([1.0, -0.5, 2.0, 0.3]))).sum()

    assert grad_check(f, Tensor(Rng(32).normal(4))) <= 1e-4

    def f_router(w):
        router.weights = w
        x = Tensor(np.array([0.3, -0.8, 1.1, 0.2]))
        return (moe_forward(bank, router, 0, x, gain) * 2.0).sum()

    original = router.weights
    assert grad_check(f_router, Tensor(original.data.copy())) <= 1e-4
    router.weights = original


def test_moe_sublayer_boundary_errors():
    cfg = decompose_experts(3, 4, 1, active=2, gates=2)
    bank, router = ExpertBank(4, cfg, Rng(40)), GateRouter(4, cfg, Rng(41))
    h, gain = Tensor(Rng(42).normal(12).reshape(3, 4)), Tensor(np.ones(4))
    gates = np.array([1, 0, 1])
    with pytest.raises(ConfigError):                    # gate 2 of two
        _moe_rows(bank, router, gain, np.array([1, 2, 0]), h)
    norm = T._rms_parts(h.data, gain.data)
    front = (router, gain, norm, router.scores(gates, norm[0]))
    bank.eval_count = 0
    bank.run(h, np.array([0, 2, 1, 2, 0, 1]), *front)
    # a float id, expert 3 of three, and 5, 8 or no ids for 3 rows of k = 2
    for bad in ([0.0, 2, 1, 2, 0, 1], [0, 2, 1, 3, 0, 1], [0, 2, 1, 2, 0],
                [0, 2, 1, 2, 0, 1, 1, 2], np.zeros(0, dtype=np.int64)):
        with pytest.raises(ShapeError):
            bank.run(h, np.array(bad), *front)
    assert bank.eval_count == 6                         # a refused run evaluates nothing
    router.weights.data[0, 1, 2] = np.inf               # row 1 is under gate 0
    with pytest.raises(NumericError):
        _moe_rows(bank, router, gain, gates, h)


# --- prompt and vocab ---

def sample_records():
    class Rec:
        def __init__(self, explanation, features):
            self.explanation = explanation
            self.features = features

    return [Rec("the thai curry was great", ["thai", "cozy"]),
            Rec("parking was easy", ["parking"])]


def test_vocab_reserved_layout_and_bijection():
    vocab = Vocab.build(sample_records(), ["3", "9"], ["7"])
    assert vocab.tokens[:9] == RESERVED
    assert vocab.index["<pad>"] == PAD == 0
    assert vocab.index["<unk>"] == UNK == 3
    assert vocab.index["EXP:"] == 8
    assert len(set(vocab.tokens)) == len(vocab.tokens)
    for tok, idx in vocab.index.items():
        assert vocab.tokens[idx] == tok


def test_vocab_prompt_only_ids_are_the_reserved_and_id_tokens():
    vocab = Vocab.build(sample_records(), ["3", "9"], ["7"])
    got = [vocab.tokens[i] for i in vocab.prompt_only]
    assert got == [t for t in RESERVED if t != "<eos>"] + [
        "u:3", "u:9", "i:7", "r:1", "r:2", "r:3", "r:4", "r:5"]
    words = [t for i, t in enumerate(vocab.tokens) if i not in set(vocab.prompt_only)]
    assert words[0] == "<eos>" and "thai" in words and ":" not in "".join(words[1:])


def test_generate_never_emits_a_banned_token():
    lm = tiny_lm(seed=12)
    banned = np.array([0, 1, 3, 4, 5, 6, 7, 8, 9, 10, 11])
    free = [generate_one(lm, [BOS, 4], 0, max_len=12, mode="sample",
                         temperature=2.0, seed=seed) for seed in range(12)]
    assert set(banned) & {t for out in free for t in out}    # untrained: all appear
    for seed in range(12):
        for mode in ("greedy", "sample"):
            out = generate_one(lm, [BOS, 4], 0, max_len=12, mode=mode,
                               temperature=2.0, seed=seed, banned=banned)
            assert not set(banned) & set(out)


@pytest.mark.parametrize("temperature", [0.0, 1e-3, 1.0, 50.0])
def test_sampling_never_emits_a_banned_token_at_any_temperature(temperature):
    lm = tiny_lm(seed=13)
    banned = np.array([0, 1, 3, 4, 5, 6, 7, 8, 19])
    for seed in range(8):
        out = generate_one(lm, [BOS, 4], seed % 2, max_len=12, mode="sample",
                           temperature=temperature, seed=seed, banned=banned)
        assert not set(banned.tolist()) & set(out), (seed, out)


def test_float32_sampling_past_the_dtype_range_divides_by_its_largest_value():
    # cast to float32, a temperature above its max reads inf, every
    # probability reads NaN and each step picks id 0, the banned <pad>
    banned, top = np.array([0, 1, 3, 4, 5, 6, 7, 8, 19]), float(np.finfo(np.float32).max)
    T.set_default_dtype("float32")
    try:
        lm = tiny_lm(seed=13)
        texts = []
        for seed in range(6):
            options = dict(max_len=12, mode="sample", seed=seed, banned=banned)
            want = generate_one(lm, [BOS, 4], seed % 2, temperature=top, **options)
            for temperature in (1e39, 1e308):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = generate_one(lm, [BOS, 4], seed % 2, temperature=temperature,
                                       **options)
                assert got == want, (seed, temperature)
            texts.append(want)
    finally:
        T.set_default_dtype("float64")
    assert lm.head.data.dtype == np.float32
    assert any(texts) and not set(banned.tolist()) & {t for text in texts for t in text}


@pytest.mark.parametrize("temperature", [math.nan, math.inf, -0.5])
def test_generate_rejects_a_bad_sampling_temperature(temperature):
    lm = tiny_lm(seed=13)
    with pytest.raises(ConfigError, match="temperature"):
        generate_one(lm, [BOS, 4], 0, mode="sample", temperature=temperature)
    assert len(generate_one(lm, [BOS, 4], 0, max_len=3, temperature=temperature)) <= 3


def test_empty_prompt_or_token_matrix_raises_shape_error():
    lm = tiny_lm(seed=13)
    with pytest.raises(ShapeError, match="no tokens"):
        generate_one(lm, [], 0)
    for tokens in (np.zeros((1, 0), dtype=np.int64), np.zeros((0, 3), dtype=np.int64)):
        with pytest.raises(ShapeError, match="no tokens"):
            lm.forward_rows(tokens, np.zeros(tokens.shape[0], dtype=np.int64))


def test_build_prompt_structure():
    vocab = Vocab.build(sample_records(), ["3"], ["7"])
    ids = build_prompt(vocab, "3", "7", 4.0, ["thai", "cozy"])
    toks = [vocab.tokens[i] for i in ids]
    assert toks == ["<bos>", "U:", "u:3", "I:", "i:7", "R:", "r:4", "F:",
                    "thai", "cozy", "EXP:"]


def test_build_prompt_empty_features_drops_section():
    vocab = Vocab.build(sample_records(), ["3"], ["7"])
    toks = [vocab.tokens[i] for i in build_prompt(vocab, "3", "7", 2.0, [])]
    assert toks == ["<bos>", "U:", "u:3", "I:", "i:7", "R:", "r:2", "EXP:"]
    assert "F:" not in toks


def test_build_prompt_unknown_feature_becomes_unk():
    vocab = Vocab.build(sample_records(), ["3"], ["7"])
    ids = build_prompt(vocab, "3", "7", 4.0, ["swimming"])
    assert ids[-2] == UNK


def test_tokenize_rules():
    assert tokenize("Great, food!") == ["great", ",", "food", "!"]
    assert tokenize("  a  B ") == ["a", "b"]


def test_rating_bucket_bounds():
    assert rating_bucket(4.4) == 4
    assert rating_bucket(0.2) == 1
    assert rating_bucket(9.0) == 5


# --- transformer forward ---

def test_forward_lm_single_token_shape():
    lm = tiny_lm()
    out = forward_lm(lm, [BOS], gate=0)
    assert out.shape == (1, 20)


def test_forward_lm_causality():
    lm = tiny_lm(seed=3)
    tokens = [1, 5, 7, 9, 11, 13]
    base = forward_lm(lm, tokens, gate=0).data
    permuted = list(tokens)
    permuted[4], permuted[5] = permuted[5], permuted[4]
    after = forward_lm(lm, permuted, gate=0).data
    assert np.allclose(base[:4], after[:4], atol=1e-12)
    assert not np.allclose(base[4:], after[4:], atol=1e-9)


def test_forward_lm_gates_differ():
    lm = tiny_lm(seed=4, gates=3)
    tokens = [1, 4, 6, 8]
    out0 = forward_lm(lm, tokens, gate=0).data
    out1 = forward_lm(lm, tokens, gate=1).data
    assert not np.allclose(out0, out1)


def test_forward_lm_context_limit():
    lm = tiny_lm()
    with pytest.raises(ContextLimitError):
        forward_lm(lm, [1] * 17, gate=0)


def test_generate_refuses_prompts_of_several_lengths():
    lm = tiny_lm(seed=13)
    with pytest.raises(ShapeError, match="one length"):
        lm.generate([[BOS, 4, 5], [BOS, 4]], np.array([0, 1]), max_len=4)


def test_generate_rejects_full_context_prompt():
    lm = tiny_lm()
    with pytest.raises(ContextLimitError):
        generate_one(lm, [1] * 16, 0)


def test_forward_rows_matches_per_sequence():
    lm = tiny_lm(seed=6, gates=2)
    a = np.array([1, 4, 6, 8])
    b = np.array([2, 5, 7, 9])
    batch = lm.forward_rows(np.stack([a, b]), np.array([0, 1])).data
    alone_a = forward_lm(lm, a, gate=0).data
    alone_b = forward_lm(lm, b, gate=1).data
    assert np.allclose(batch[:4], alone_a, atol=1e-9)
    assert np.allclose(batch[4:], alone_b, atol=1e-9)


def rig_identity_blocks(lm):
    """Zero block norm gains so every block passes its input through, then
    make position t's hidden state the unit direction e_t."""
    for blk in lm.blocks:
        blk.norm1_g.data[...] = 0.0
        blk.norm2_g.data[...] = 0.0
    lm.embed.data[...] = 0.0
    lm.pos.data[...] = 0.0
    for t in range(min(lm.config.context, lm.config.model_dim)):
        lm.pos.data[t, t] = 1.0
    lm.norm_f_g.data[...] = 1.0
    lm.head.data[...] = 0.0


def test_generate_rigged_logits_constant_token():
    lm = tiny_lm(seed=8)
    rig_identity_blocks(lm)
    lm.head.data[:, 9] = 50.0  # any position's logits favor token 9
    out = generate_one(lm, [BOS, 5], 0, max_len=4)
    assert out == [9, 9, 9, 9]


def test_generate_greedy_deterministic():
    lm = tiny_lm(seed=9)
    a = generate_one(lm, [BOS, 4, 6], 1, max_len=6)
    b = generate_one(lm, [BOS, 4, 6], 1, max_len=6)
    assert a == b


def test_generate_sampling_seeded():
    lm = tiny_lm(seed=10)
    a = generate_one(lm, [BOS, 4], 0, max_len=6, mode="sample", temperature=1.5, seed=7)
    b = generate_one(lm, [BOS, 4], 0, max_len=6, mode="sample", temperature=1.5, seed=7)
    c = generate_one(lm, [BOS, 4], 0, max_len=6, mode="sample", temperature=1.5, seed=8)
    assert a == b
    assert a != c or len(a) == 0


def test_generate_stops_at_eos():
    lm = tiny_lm(seed=11)
    lm.head.data[...] = 0.0
    lm.head.data[:, EOS] = 10.0
    assert generate_one(lm, [BOS, 5], 0, max_len=8) == []


# --- cached decoding oracle ---

def reference_generate(lm: LanguageModel, prompt, gate, max_len=16, mode="greedy",
                       temperature=1.0, seed=0):
    """The slow path: re-run forward_lm over the whole prefix at every step.

    Returns the generated tokens and the next-token logits of each step.
    """
    rng = Rng(seed)
    seq = list(prompt)
    out, step_logits = [], []
    while len(out) < max_len and len(seq) < lm.config.context:
        logits = forward_lm(lm, seq, gate).data[-1]
        step_logits.append(logits)
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
        seq.append(nxt)
    return out, step_logits


def record_forward_rows(lm: LanguageModel) -> list:
    """Shadow lm.forward_rows so every call's tokens and logits are kept."""
    calls = []
    original = lm.forward_rows

    def recording(tokens, gates, cache=None, rows=None):
        logits = original(tokens, gates, cache, rows)
        calls.append((np.atleast_2d(tokens), logits.data))
        return logits

    lm.forward_rows = recording
    return calls


def suppress_eos(lm: LanguageModel) -> None:
    """Greedy decoding never picks <eos>: its logit is pinned at 0 while one
    of two opposite head columns always scores at least 0."""
    lm.head.data[:, EOS] = 0.0
    lm.head.data[:, -1] = -lm.head.data[:, -2]


CACHE_VARIANTS = [
    dict(seed=21, gates=1, active=1),
    dict(seed=22, gates=2, active=2),
    dict(seed=23, gates=3, active=2),
    dict(seed=24, gates=2, active=4, heads=4),
    dict(seed=25, gates=2, active=3, heads=1),
]
PROMPTS = [[BOS, 4], [BOS, 4, 6, 9, 11], [BOS, 17, 3, 12, 5, 8, 13, 2, 14]]


@pytest.mark.parametrize("variant", CACHE_VARIANTS)
def test_cached_logits_match_full_recompute_every_step(variant):
    lm = tiny_lm(**variant)
    suppress_eos(lm)  # long generations, up to the context limit
    for gate in range(variant["gates"]):
        for prompt in PROMPTS:
            calls = record_forward_rows(lm)
            cached = generate_one(lm, prompt, gate, max_len=16)
            del lm.forward_rows
            ref, ref_logits = reference_generate(lm, prompt, gate, max_len=16)
            assert cached == ref
            assert len(cached) == lm.config.context - len(prompt)
            assert len(calls) == len(ref_logits)
            for (_, logits), expected in zip(calls, ref_logits):
                assert np.max(np.abs(logits[-1] - expected)) <= 1e-10


@pytest.mark.parametrize("variant", CACHE_VARIANTS)
def test_cached_sampling_reproduces_reference(variant):
    lm = tiny_lm(**variant)
    for seed in range(4):
        for prompt in PROMPTS:
            got = generate_one(lm, prompt, 0, max_len=10, mode="sample",
                               temperature=1.5, seed=seed)
            want, _ = reference_generate(lm, prompt, 0, max_len=10, mode="sample",
                                         temperature=1.5, seed=seed)
            assert got == want


@pytest.mark.parametrize("variant", CACHE_VARIANTS)
def test_cached_generation_evaluates_each_position_once(variant):
    lm = tiny_lm(**variant)
    per_position = lm.config.blocks * lm.config.moe.active
    for prompt, max_len in ((PROMPTS[1], 6), (PROMPTS[2], 16), ([BOS] * 15, 4)):
        lm.reset_eval_counters()
        calls = record_forward_rows(lm)
        out = generate_one(lm, prompt, 0, max_len=max_len)
        del lm.forward_rows
        fed = sum(tokens.size for tokens, _ in calls)
        assert calls[0][0].size == len(prompt)
        assert all(tokens.size == 1 for tokens, _ in calls[1:])
        assert fed == len(prompt) + len(calls) - 1
        # the prefill reads one row, so the last block routes only that one
        skipped = (len(prompt) - 1) * lm.config.moe.active
        assert lm.expert_evaluations() == fed * per_position - skipped


def test_cache_overflow_raises_context_limit():
    lm = tiny_lm(seed=27)
    cache = KVCache(lm.config.blocks)
    lm.forward_rows(np.array([[BOS] + [4] * 9]), np.array([0]), cache)
    with pytest.raises(ContextLimitError):
        lm.forward_rows(np.array([[5] * 7]), np.array([0]), cache)
    assert cache.length == 10
    lm.forward_rows(np.array([[5] * 6]), np.array([0]), cache)
    assert cache.length == lm.config.context
    with pytest.raises(ContextLimitError):
        lm.forward_rows(np.array([[5]]), np.array([0]), cache)


def test_cache_rejects_mismatched_batch():
    lm = tiny_lm(seed=28)
    cache = KVCache(lm.config.blocks)
    with pytest.raises(ShapeError):
        lm.forward_rows(np.array([[BOS, 4], [BOS, 5]]), np.array([0, 1]), cache)


def test_batched_cache_matches_per_sequence_forward():
    lm = tiny_lm(seed=29, gates=2)
    a = np.array([1, 4, 6, 8, 10, 12])
    b = np.array([2, 5, 7, 9, 11, 13])
    cache = KVCache(lm.config.blocks, batch=2)
    gates = np.array([0, 1])
    head = lm.forward_rows(np.stack([a[:4], b[:4]]), gates, cache).data
    tail = lm.forward_rows(np.stack([a[4:], b[4:]]), gates, cache).data
    for rows, seq, gate in ((np.vstack([head[:4], tail[:2]]), a, 0),
                            (np.vstack([head[4:], tail[2:]]), b, 1)):
        assert np.max(np.abs(rows - forward_lm(lm, seq, gate).data)) <= 1e-10


def test_cached_forward_under_a_recording_tape_raises_tape_error():
    lm = tiny_lm(seed=30)
    cache = KVCache(lm.config.blocks)
    with Tape():
        with pytest.raises(TapeError, match="inference-only"):
            lm.forward_rows(np.array([[BOS, 4]]), np.array([0]), cache)
        with pytest.raises(TapeError):
            generate_one(lm, [BOS, 4], 0)
    assert cache.length == 0
    # frozen parameters record nothing, so the cache may run under a tape
    for p in lm.params().values():
        p.requires_grad = False
    with Tape() as tape:
        out = generate_one(lm, [BOS, 4], 0, max_len=4)
    assert tape.records == [] and out == generate_one(tiny_lm(seed=30), [BOS, 4], 0, max_len=4)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("variant", CACHE_VARIANTS)
def test_fused_sublayers_equal_their_chains_bit_for_bit(variant, dtype):
    # a padded batch of three sequences under mixed gates; every block's
    # output and every gradient, the block input's included, must be equal,
    # also with the last block's query side cut to positions 3 and later
    T.set_default_dtype(dtype)
    try:
        lm = tiny_lm(**variant)
        tokens = padded_batch(lm, [6, 2, 5], seed=variant["seed"])
        bad = [name for start in (0, 3) for name in fused_block_mismatches(
            lm, tokens, np.arange(3) % variant["gates"], seed=variant["seed"], start=start)]
    finally:
        T.set_default_dtype("float64")
    assert not bad, bad


def test_decode_step_and_teacher_forced_batch_op_counts(monkeypatch):
    # a two-block model: the fused RMSNorm, attention and expert ops took a
    # decode step from 106 ops to 49 and a batch of 16 from 107 tape
    # records to 50, the fused loss to 47; the fused attention and
    # routed-experts sublayers took them to 17 and 19, and the pair gather
    # folded into the routed experts to 15 and 17; the fused MoE sublayer
    # and the fused embedding sum took them to 7 and 9 (the embedding; per
    # block, the attention and MoE sublayers; the final norm and the head;
    # and, for the batch, the row pick and the loss)
    lm = tiny_lm(seed=30)
    calls = []
    make = T._make
    monkeypatch.setattr(T, "_make", lambda *args: calls.append(args[1]) or make(*args))
    cache = KVCache(lm.config.blocks)
    lm.forward_rows(np.array([[BOS, 4, 5, 6]]), np.array([0]), cache)
    calls.clear()
    lm.forward_rows(np.array([[7]]), np.array([0]), cache)
    assert len(calls) <= 7, calls
    monkeypatch.undo()
    rng = Rng(31)
    sequences = [np.concatenate([[BOS], rng.integers(5 + i % 4, 15) + 4, [EOS]])
                 for i in range(16)]
    with Tape() as tape:
        lm.batched_nll(sequences, [3] * 16, np.arange(16) % 2)
    assert len(tape.records) <= 9
    head = tape.records[-2]                  # the head matmul, before the loss
    assert head.inputs[1] is lm.head
    assert head.out.shape == (sum(len(s) - 3 for s in sequences), lm.config.vocab_size)


FRAMES_OF_A_DRAFTED_STEP = 95     # moerec's frames in one cached step of five positions


def test_decode_step_runs_no_numpy_python_wrapper():
    # the interpreter cost of one cached one-token step of a two-block
    # model, counted in Python frames, which do not depend on the hardware:
    # no numpy function with a Python-level wrapper runs (ndarray methods
    # and ufunc reductions instead), and moerec's own frames are pinned at
    # 99, down from 139 with 22 numpy frames beside them for one row, and
    # from 137, numpy's among them, for 12 (Python 3.11; 3.12 inlines
    # comprehensions, so it counts fewer); numpy >= 1.25 dispatches
    # __array_function__ in C, where older numpy ran a wrapper. Lockstep
    # steps of 12 and 20 rows under mixed gates take _group_parts' numpy
    # path: the routers' gate ids are unsorted, and 20 rows give each bank
    # 40 expert ids, more than it groups in plain Python. A drafted step,
    # one row fed five positions, builds its causal mask from ufuncs
    lm = tiny_lm(seed=30, gates=3)
    for rows in (1, 12, 20):
        cache = KVCache(lm.config.blocks, batch=rows)
        gates = np.arange(rows) % 3
        lm.forward_rows(Rng(rows).integers(rows * 4, 16).reshape(rows, 4) + 4, gates, cache)
        token = Rng(rows + 1).integers(rows, 16).reshape(rows, 1) + 4
        modules = []
        sys.setprofile(lambda frame, event, arg: event == "call"
                       and modules.append(frame.f_globals.get("__name__", "")))
        try:
            lm.forward_rows(token, gates, cache)
        finally:
            sys.setprofile(None)
        assert not [m for m in modules if m.split(".")[0] != "moerec"], sorted(set(modules))
        assert len(modules) <= 99, (rows, len(modules))
    # a drafted step: one row fed its last token and four guesses
    cache = KVCache(lm.config.blocks)
    lm.forward_rows(np.array([[BOS, 4, 5, 6]]), np.array([1]), cache)
    modules = []
    sys.setprofile(lambda frame, event, arg: event == "call"
                   and modules.append(frame.f_globals.get("__name__", "")))
    try:
        lm.forward_rows(np.array([[7, 8, 9, 10, 11]]), np.array([1]), cache)
    finally:
        sys.setprofile(None)
    assert not [m for m in modules if m.split(".")[0] != "moerec"], sorted(set(modules))
    assert len(modules) <= FRAMES_OF_A_DRAFTED_STEP, len(modules)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_a_cached_step_reads_the_cache_in_place(monkeypatch, dtype):
    # each block's attention multiplies views of its head-major cache
    # buffers, uncopied, and gets the bits that contiguous copies of them
    # give; a prefill's logits (the rows of each prompt's last position, as
    # generate's first step asks) are the uncached forward's rows bit for
    # bit. A cached step's products run on fewer rows than the uncached
    # forward's (a one-row product takes a matrix-vector kernel), so its
    # logits meet those rows within a few units in the last place
    T.set_default_dtype(dtype)
    try:
        lm = tiny_lm(seed=36, gates=2)                   # two blocks, two heads
        prompts, gates = np.array([[BOS, 4, 6, 9], [BOS, 11, 5, 7]]), np.array([0, 1])
        last = np.array([1, 2]) * prompts.shape[1] - 1
        cache = KVCache(lm.config.blocks, 2, prompts.shape[1] + 7)
        logits = lm.forward_rows(prompts, gates, cache, rows=last).data
        assert np.array_equal(logits, lm.forward_rows(prompts, gates, rows=last).data)
        multiplied = []
        attention = T._attention_parts

        def spy(q, keys, values, offset):
            out, back = attention(q, keys, values, offset)
            copied, _ = attention(q, np.ascontiguousarray(keys), np.ascontiguousarray(values),
                                  offset)
            multiplied.append((keys, values, np.array_equal(out, copied)))
            return out, back

        monkeypatch.setattr(T, "_attention_parts", spy)
        seqs = prompts
        for _ in range(4):
            token = logits.argmax(axis=1)[:, None]
            seqs = np.hstack([seqs, token])
            multiplied.clear()
            logits = lm.forward_rows(token, gates, cache).data
            for (keys, values, same), (block_keys, block_values) in zip(multiplied, cache.blocks,
                                                                        strict=True):
                assert np.shares_memory(keys, block_keys) and same
                assert np.shares_memory(values, block_values)
            last = np.array([1, 2]) * seqs.shape[1] - 1
            gap = np.max(np.abs(logits - lm.forward_rows(seqs, gates, rows=last).data))
            assert gap <= (1e-13 if dtype == "float64" else 1e-5), gap
            assert all(same for _, _, same in multiplied)
    finally:
        T.set_default_dtype("float64")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_loss_rows_match_the_full_head_in_float32(seed):
    # the float64 case is moe.loss_rows_match_full_head of `moerec verify`;
    # behind 10-token prompts the last block keeps 7 of the 16 positions
    T.set_default_dtype("float32")
    try:
        gaps = [loss_rows_gap(seed)] + [loss_rows_gap(seed, blocks, prompt=10)
                                        for blocks in (2, 1)]
    finally:
        T.set_default_dtype("float64")
    for loss_gap, grad_gap in gaps:
        assert loss_gap <= 1e-6 and grad_gap <= 1e-5, (loss_gap, grad_gap)


def test_forward_rows_selects_rows_of_the_full_forward():
    tokens = np.array([[BOS, 4, 5, 6, 7], [BOS, 8, 9, PAD, PAD]])
    gates = np.array([1, 0])
    for blocks in (2, 1):
        lm = tiny_lm(seed=32, gates=2, blocks=blocks)
        full = lm.forward_rows(tokens, gates).data
        last = lm.blocks[-1].bank
        # early rows, then late rows only: the last block's query side starts
        # at the smallest selected position, 3 of 5 for the late rows
        for rows, start in ((np.array([7, 1, 2, 2]), 1), (np.array([9, 3, 8, 4, 9]), 3)):
            last.eval_count = 0
            picked = lm.forward_rows(tokens, gates, rows=rows).data
            assert picked.shape == (rows.size, lm.config.vocab_size)
            assert np.max(np.abs(picked - full[rows])) <= 1e-12
            assert last.eval_count == 2 * (5 - start) * lm.config.moe.active


@pytest.mark.parametrize("variant", CACHE_VARIANTS[:3])
def test_cut_prefill_fills_the_cache_like_the_full_prefill(variant):
    # a prefill that asks only for its last row cuts the last block to that
    # position, but every block still caches every position's key and value
    lm = tiny_lm(**variant)
    prompt = np.array([[BOS, 4, 6, 9, 11, 5, 7]])
    gate = np.array([variant["gates"] - 1])
    caches, texts = [], []
    for rows in (None, np.array([prompt.size - 1])):
        cache = KVCache(lm.config.blocks)
        logits = lm.forward_rows(prompt, gate, cache, rows=rows).data[-1]
        out = []
        while cache.length < lm.config.context:
            out.append(int(np.argmax(logits)))
            logits = lm.forward_rows(np.array([out[-1:]]), gate, cache).data[-1]
        caches.append(cache)
        texts.append(out)
    assert texts[0] == texts[1] and len(texts[0]) == lm.config.context - prompt.size
    for full, cut in zip(caches[0].blocks, caches[1].blocks):
        for a, b in zip(full, cut):
            assert np.max(np.abs(a - b)) <= 1e-12


def test_generate_sizes_its_cache_to_the_request(monkeypatch):
    # the prompt and all but the last emitted token are fed, at most; a
    # request that reaches the context still stops at it
    lm = tiny_lm(seed=35)
    suppress_eos(lm)
    made = []
    monkeypatch.setattr(moe_module, "KVCache",
                        lambda *args, **kw: made.append(KVCache(*args, **kw)) or made[-1])
    for prompt, max_len, want in (([BOS, 4, 6], 5, 7), ([BOS] * 9, 16, 16), ([BOS, 4], 1, 2)):
        made.clear()
        out = generate_one(lm, prompt, 0, max_len=max_len)
        assert len(out) == min(max_len, lm.config.context - len(prompt))
        assert made[0].positions == want
        assert all(keys.shape == (1, 2, 4, want) and values.shape == (1, 2, want, 4)
                   for keys, values in made[0].blocks)
    monkeypatch.undo()
    with pytest.raises(ContextLimitError):
        generate_one(lm, [BOS] * lm.config.context, 0)
    cache = KVCache(lm.config.blocks, positions=4)
    lm.forward_rows(np.array([[BOS, 4, 5]]), np.array([0]), cache)
    with pytest.raises(ContextLimitError, match="4 positions"):
        lm.forward_rows(np.array([[6, 7]]), np.array([0]), cache)
    assert cache.length == 3


# --- draft-and-verify decoding ---

def test_draft_table_keeps_the_commonest_successor_and_copies_feature_slots():
    # prompt, reference, <eos>: a successor that is one of the record's own
    # feature words (after F:, before EXP:) counts as its slot, ~slot
    records = [([BOS, MARK_F, 20, 21, MARK_EXP], [30, 20, 31]),
               ([BOS, MARK_F, 22, 21, MARK_EXP], [30, 22, 32]),
               ([BOS, MARK_F, 23, 21, MARK_EXP], [30, 31, 33]),
               ([BOS, MARK_F, 20, 21, MARK_EXP], [30, 20, 29])]
    draft = DraftTable.build([(np.array(p + r + [EOS]), len(p)) for p, r in records])
    assert draft.table == {(21, MARK_EXP): 30, (MARK_EXP, 30): ~0, (30, 20): 29,
                           (20, 31): EOS, (30, 22): 32, (22, 32): EOS, (30, 31): 33,
                           (31, 33): EOS, (20, 29): EOS}
    assert list(draft.table) == sorted(draft.table)      # ties went to 29, below 31
    flat = draft.to_list()
    assert flat[:3] == [MARK_EXP, 30, ~0] and DraftTable.from_list(flat, 40, 16).table == draft.table
    # a chain of successors, a slot read from the asking prompt's own features;
    # it stops at a pair the table lacks, at a slot past the features, at `count`
    assert draft.propose([BOS, MARK_F, 24, 21, MARK_EXP], [], 5) == [30, 24]
    assert draft.propose([BOS, MARK_F, 20, 21, MARK_EXP], [], 9) == [30, 20, 29, EOS]
    assert draft.propose([BOS, MARK_F, 20, 21, MARK_EXP], [], 2) == [30, 20]
    assert draft.propose([BOS, MARK_F, 20, 21, MARK_EXP], [30, 20], 9) == [29, EOS]
    assert draft.propose([BOS, 21, MARK_EXP], [], 9) == [30]
    assert draft.propose([MARK_EXP], [], 9) == []


def oracle_draft(lm: LanguageModel, prompts, **options) -> DraftTable:
    """A table of the pairs of each prompt's zero-draft greedy text under
    gate 0: its guesses are the tokens that decoding emits, so a drafted
    step keeps its whole guess, but where a pair recurs with another
    successor."""
    table = {}
    for prompt in prompts:
        seq = list(prompt[-2:]) + generate_one(lm, prompt, 0, **options) + [EOS]
        for a, b, nxt in zip(seq, seq[1:], seq[2:]):
            table.setdefault((a, b), nxt)
    return DraftTable(table)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_drafted_steps_stay_inside_the_cache_and_keep_the_texts(dtype):
    # a lone greedy row fed its last token and its guesses: every forward fits
    # the cache, at max_len 1 and 2 and for prompts that reach the context's
    # edge (16 positions), and each text is the zero-draft one, in fewer forwards
    T.set_default_dtype(dtype)
    try:
        lm = tiny_lm(seed=37)
        suppress_eos(lm)                            # texts run to max_len or the context
        prompts = [[BOS, 4, 6], [BOS, 5] * 6 + [7], [BOS] + [9] * 13, [BOS, 8] * 7 + [4]]
        forward, fed = lm.forward_rows, []

        def checked(tokens, gates, cache=None, rows=None):
            assert cache.length + tokens.shape[1] <= cache.positions <= lm.config.context
            fed.append(tokens.shape[1])
            return forward(tokens, gates, cache, rows)

        for max_len in (1, 2, 5, 16):
            draft = oracle_draft(lm, prompts, max_len=max_len)
            for prompt in prompts:
                want = generate_one(lm, prompt, 0, max_len=max_len)
                lm.forward_rows, fed = checked, []
                try:
                    got = generate_one(lm, prompt, 0, max_len=max_len, draft=draft)
                finally:
                    del lm.forward_rows
                assert got == want
                assert len(fed) == 1 or len(fed) < len(want), (max_len, len(prompt), fed)
        # 13 tokens: the prefill feeds 8 guesses, and a step after it guesses too
        lm.forward_rows, fed = checked, []
        try:
            assert len(generate_one(lm, prompts[0], 0, max_len=16, draft=draft)) == 13
        finally:
            del lm.forward_rows
        assert fed[0] == 3 + 8 and max(fed[1:]) > 1, fed
    finally:
        T.set_default_dtype("float64")


def test_sampling_and_lockstep_rows_feed_no_draft():
    # a table that guesses a token after every pair: sampled rows, and greedy
    # rows while another runs beside them, feed one token a step
    lm = tiny_lm(seed=38)
    lm.head.data[:, EOS] += 1.0
    always = DraftTable({(a, b): 5 for a in range(20) for b in range(20)})
    prompts = Rng(38).integers(3 * 4, 16).reshape(3, 4) + 4
    for options in (dict(mode="sample", seed=3, temperature=1.5), dict()):
        calls = record_forward_rows(lm)
        texts = lm.generate(prompts, [0, 1, 0], draft=always, **options)
        del lm.forward_rows
        assert texts == lm.generate(prompts, [0, 1, 0], **options)
        widths = [tokens.shape[1] for tokens, _ in calls[1:]]
        if options:
            assert widths == [1] * len(widths)
        else:                                       # the last running row drafts
            live = [len(tokens) for tokens, _ in calls[1:]]
            assert all(w == 1 for w, n in zip(widths, live) if n > 1)


@pytest.mark.parametrize("variant", CACHE_VARIANTS[1:3])
def test_one_token_prompts_decode_as_the_reference_batched_alone_and_drafted(variant):
    # a [BOS] prompt makes generate's first step, the prefill, one position
    # wide, like every later step: greedy and sampled, as a batch of 3 and
    # alone, with a table that always guesses and without one, each text is
    # reference_generate's
    lm = tiny_lm(**variant)
    lm.head.data[:, EOS] += 0.5
    gates = np.arange(3) % variant["gates"]
    always = DraftTable({(a, b): 5 for a in range(20) for b in range(20)})
    for options in (dict(), dict(mode="sample", temperature=1.5, seed=3)):
        refs = [reference_generate(lm, [BOS], gate, **options)[0] for gate in gates]
        assert min(map(len, refs)) > 1                # texts of 4 to 15 tokens
        for draft in (None, always):
            assert lm.generate([[BOS]] * 3, gates, draft=draft, **options) == refs
            calls = record_forward_rows(lm)
            alone = [generate_one(lm, [BOS], gate, draft=draft, **options) for gate in gates]
            del lm.forward_rows
            assert alone == refs
            # a lone greedy row drafts once it has a pair of tokens to look up
            drafted = max(tokens.shape[1] for tokens, _ in calls) > 1
            assert drafted == (draft is not None and not options), (draft, options)


def test_generate_refuses_a_max_len_below_one():
    # with no token to emit, no step would run the prompts and gates
    # through a forward
    lm = tiny_lm(seed=13)
    for max_len in (0, -3):
        with pytest.raises(ConfigError, match="max_len must be at least 1"):
            generate_one(lm, [BOS, 4], 0, max_len=max_len)
    assert len(generate_one(lm, [BOS, 4], 0, max_len=1)) <= 1


def lockstep_and_reference(lm: LanguageModel, prompts, gates, **options) -> tuple:
    """(generate's texts, each of its forwards' tokens and logits, its expert
    evaluations, reference_generate's (tokens, step logits) per prompt)."""
    calls = record_forward_rows(lm)
    lm.reset_eval_counters()
    texts = lm.generate(prompts, gates, **options)
    evaluations = lm.expert_evaluations()
    del lm.forward_rows
    refs = [reference_generate(lm, prompt, gate, **options)
            for prompt, gate in zip(prompts, gates)]
    return texts, calls, evaluations, refs


LOCKSTEP_OPTIONS = [dict(max_len=6), dict(max_len=16),
                    dict(max_len=16, mode="sample", temperature=1.5, seed=3)]


@pytest.mark.parametrize("variant", CACHE_VARIANTS)
def test_lockstep_matches_the_per_record_reference(variant):
    # six 5-token prompts under mixed gates, and a batch of one; raising the
    # <eos> logit makes rows end at different steps: at <eos>, at max_len
    # (6) and at the context (16 - 5 = 11 tokens)
    prompts = Rng(variant["seed"]).integers(6 * 5, 16).reshape(6, 5) + 4
    gates = np.arange(6) % variant["gates"]
    ends = set()
    for boost in (0.5, 1.5):
        lm = tiny_lm(**variant)
        lm.head.data[:, EOS] += boost
        k, blocks = lm.config.moe.active, lm.config.blocks
        for rows in (slice(None), slice(2, 3)):
            for options in LOCKSTEP_OPTIONS:
                texts, calls, evaluations, refs = lockstep_and_reference(
                    lm, prompts[rows], gates[rows], **options)
                assert texts == [out for out, _ in refs]
                steps = [len(logits) for _, logits in refs]
                assert len(calls) == max(steps)
                for t, (tokens, logits) in enumerate(calls):
                    running = [r for r, n in enumerate(steps) if n > t]
                    assert tokens.shape == (len(running), 5 if t == 0 else 1)
                    assert logits.shape[0] == len(running)
                    for row, r in zip(logits, running):
                        assert np.max(np.abs(row - refs[r][1][t])) <= 1e-10
                # every fed position once through every block, but the last
                # block of the prefill, which routes each prompt's last row only
                assert evaluations == k * (blocks * sum(5 + n - 1 for n in steps)
                                           - len(steps) * (5 - 1))
                ends |= {"eos" if len(out) < n else "max_len" if n == options["max_len"]
                         else "context" for out, n in zip(texts, steps)}
    assert ends == {"eos", "max_len", "context"}


@pytest.mark.parametrize("variant", CACHE_VARIANTS)
def test_lockstep_tokens_equal_the_per_record_reference_in_float32(variant):
    T.set_default_dtype("float32")
    try:
        lm = tiny_lm(**variant)
        lm.head.data[:, EOS] += 0.5
        prompts = Rng(variant["seed"]).integers(6 * 5, 16).reshape(6, 5) + 4
        gates = np.arange(6) % variant["gates"]
        for options in LOCKSTEP_OPTIONS:
            texts = lm.generate(prompts, gates, **options)
            assert texts == [reference_generate(lm, prompt, gate, **options)[0]
                             for prompt, gate in zip(prompts, gates)]
    finally:
        T.set_default_dtype("float64")
    assert lm.head.data.dtype == np.float32


def test_token_arrays_of_three_dimensions_raise_shape_error():
    lm = tiny_lm(seed=13)
    with pytest.raises(ShapeError, match="one sequence per row"):
        lm.forward_rows(np.full((2, 1, 3), BOS), np.array([0, 1]))
    for prompts in (np.full((2, 1, 3), BOS), [BOS, 4, 5]):
        with pytest.raises(ShapeError, match="one prompt per row"):
            lm.generate(prompts, [0, 1])


# --- explanation NLL ---

def explanation_nll(lm, prompt, reference, gate):
    """Mean continuation NLL of one record (reference plus <eos>)."""
    seq = np.array(list(prompt) + list(reference) + [EOS])
    return lm.batched_nll([seq], [len(prompt)], np.array([gate]))


def test_nll_uniform_logits_is_log_vocab():
    lm = tiny_lm(seed=12)
    lm.head.data[...] = 0.0  # uniform next-token distribution everywhere
    nll = explanation_nll(lm, [BOS, 4, 5], [6, 7, 8], gate=0)
    assert nll.item() == pytest.approx(math.log(20), abs=1e-12)


def test_nll_confident_model_is_zero():
    # per-position head wiring puts probability ~1 on each continuation
    # token, including the final <eos>
    lm = tiny_lm(seed=13, vocab_size=12)
    rig_identity_blocks(lm)
    prompt, reference = [BOS, 4], [6, 7]
    seq = prompt + reference + [EOS]
    for pos in range(len(seq) - 1):
        lm.head.data[pos, seq[pos + 1]] = 200.0
    nll = explanation_nll(lm, prompt, reference, gate=0)
    assert nll.item() == pytest.approx(0.0, abs=1e-9)


def test_nll_matches_hand_rolled_log_softmax():
    lm = tiny_lm(seed=14)
    prompt = [BOS, 4, 5, 9]
    reference = [6, 7, 8, 10, 11, 6, 7, 8, 10, 11]
    nll = explanation_nll(lm, prompt, reference, gate=1).item()

    seq = prompt + reference + [EOS]
    logits = forward_lm(lm, np.array(seq[:-1]), gate=1).data
    total = 0.0
    for pos in range(len(prompt) - 1, len(seq) - 1):
        row = logits[pos]
        row = row - row.max()
        logp = row - np.log(np.exp(row).sum())
        total -= logp[seq[pos + 1]]
    expected = total / (len(reference) + 1)
    assert nll == pytest.approx(expected, abs=1e-10)


def test_nll_rejects_empty_reference():
    from moerec.data import InteractionRecord
    from moerec.errors import DataError
    from moerec.training import prepare_sequence
    vocab = Vocab.build(sample_records(), ["3"], ["7"])
    with pytest.raises(DataError):
        prepare_sequence(vocab, InteractionRecord("3", "7", 4.0, ["thai"], " "), 32)


@pytest.mark.parametrize("prompt_lens", [[0, 2], [2, 5], [2, 9], [2], [2, 2, 2]])
def test_batched_nll_refuses_prompts_that_leave_no_loss_row(prompt_lens):
    # each prompt needs 1 to length-1 tokens, one per sequence; a prompt of 0
    # once scored the previous record's last row, one of the whole sequence
    # divided by zero
    lm = tiny_lm(seed=15, gates=2)
    seqs = [np.array([BOS, 4, 5, 6, 7, EOS]), np.array([BOS, 9, 10, 11, EOS])]
    with pytest.raises(ShapeError, match="each prompt needs"):
        lm.batched_nll(seqs, prompt_lens, np.array([0, 1]))
    with pytest.raises(ShapeError, match="each prompt needs"):
        lm.batched_nll([], [], np.array([], np.int64))


def test_batched_nll_matches_single_records():
    lm = tiny_lm(seed=15, gates=2)
    seqs = [np.array([BOS, 4, 5, 6, 7, EOS]), np.array([BOS, 9, 10, 11, EOS])]
    prompt_lens = [2, 2]
    gates = np.array([0, 1])
    batched = lm.batched_nll(seqs, prompt_lens, gates).item()
    singles = []
    for seq, plen, gate in zip(seqs, prompt_lens, gates):
        singles.append(explanation_nll(lm, seq[:plen], seq[plen:-1], int(gate)).item())
    assert batched == pytest.approx(np.mean(singles), abs=1e-10)


# --- dense equivalence oracle ---

def dense_reference_forward(lm: LanguageModel, tokens, gate):
    """Independent numpy re-implementation with a full (dense) expert mix."""
    cfg = lm.config
    tokens = np.asarray(tokens)
    length = len(tokens)
    x = lm.embed.data[tokens] + lm.pos.data[:length]

    def rms(v, g):
        return v / np.sqrt((v * v).mean(axis=-1, keepdims=True) + 1e-6) * g

    for blk in lm.blocks:
        n1 = rms(x, blk.norm1_g.data)
        heads = cfg.heads
        dh = cfg.model_dim // heads
        q, k, v = n1 @ blk.wq.data, n1 @ blk.wk.data, n1 @ blk.wv.data
        outs = []
        for hh in range(heads):
            cols = slice(hh * dh, (hh + 1) * dh)
            scores = q[:, cols] @ k[:, cols].T / math.sqrt(dh)
            scores += np.triu(np.full((length, length), -1e9), k=1)
            scores -= scores.max(axis=-1, keepdims=True)
            w = np.exp(scores)
            w /= w.sum(axis=-1, keepdims=True)
            outs.append(w @ v[:, cols])
        x = x + np.concatenate(outs, axis=1) @ blk.wo.data

        n2 = rms(x, blk.norm2_g.data)
        logits = n2 @ blk.router.weights.data[gate]
        logits -= logits.max(axis=-1, keepdims=True)
        gsc = np.exp(logits)
        gsc /= gsc.sum(axis=-1, keepdims=True)
        mix = np.zeros_like(n2)
        bank = blk.bank
        for e in range(bank.cfg.expert_count):
            h = np.tanh(n2 @ bank.w1.data[e] + bank.b1.data[e])
            mix += gsc[:, e:e + 1] * (h @ bank.w2.data[e] + bank.b2.data[e])
        x = x + mix
    return rms(x, lm.norm_f_g.data) @ lm.head.data


def test_dense_equivalence_single_gate_full_k():
    moe = decompose_experts(3, 8, 2, active=6, gates=1)  # k = every expert
    cfg = LmConfig(vocab_size=18, model_dim=8, blocks=2, heads=2, context=16, moe=moe)
    lm = LanguageModel(cfg, Rng(44))
    tokens = [1, 4, 7, 9, 12, 15]
    ours = forward_lm(lm, tokens, gate=0).data
    ref = dense_reference_forward(lm, tokens, gate=0)
    assert np.max(np.abs(ours - ref)) <= 1e-9


def test_param_names_cover_contract():
    lm = tiny_lm(gates=3)
    names = set(lm.params())
    assert "lm.embed" in names and "lm.head" in names
    assert "lm.block0.attn.wq" in names
    assert "lm.block1.moe.w2" in names and "lm.block0.router" in names
    assert not any(".expert" in name or ".gate" in name for name in names)
    blk = lm.blocks[1]
    assert names == {"lm.embed", "lm.pos", "lm.norm_f.g", "lm.head"} | {
        f"lm.block{b}.{part}" for b in range(2)
        for part in ("norm1.g", "attn.wq", "attn.wk", "attn.wv", "attn.wo", "norm2.g",
                     "moe.w1", "moe.b1", "moe.w2", "moe.b2", "router")}
    assert lm.params()["lm.block1.moe.w1"].shape == (4, 8, 4)
    assert lm.params()["lm.block1.moe.b2"].shape == (4, 8)
    assert lm.params()["lm.block1.router"].shape == (3, 8, 4) == blk.router.weights.shape


# --- batched block against the per-sequence, per-head, per-expert loops ---

def reference_block_forward(blk, x, batch, length, gates):
    """One block the slow way, in numpy: attention one sequence and one head
    at a time, then the mixture one gate and one expert at a time."""
    from moerec.verify import loop_moe_rows
    cfg = blk.config
    dh = cfg.model_dim // cfg.heads

    def rms(v, g):
        return v / np.sqrt((v * v).mean(axis=-1, keepdims=True) + 1e-6) * g

    n1 = rms(x, blk.norm1_g.data)
    attended = np.zeros_like(x)
    for b in range(batch):
        rows = slice(b * length, (b + 1) * length)
        q, k, v = n1[rows] @ blk.wq.data, n1[rows] @ blk.wk.data, n1[rows] @ blk.wv.data
        outs = []
        for hh in range(cfg.heads):
            cols = slice(hh * dh, (hh + 1) * dh)
            scores = q[:, cols] @ k[:, cols].T / math.sqrt(dh)
            scores += np.triu(np.full((length, length), -1e9), k=1)
            w = np.exp(scores - scores.max(axis=-1, keepdims=True))
            outs.append(w / w.sum(axis=-1, keepdims=True) @ v[:, cols])
        attended[rows] = np.concatenate(outs, axis=1) @ blk.wo.data
    h = x + attended
    return h + loop_moe_rows(blk.bank, blk.router, np.repeat(gates, length),
                             rms(h, blk.norm2_g.data), cfg.moe.active)


# each layout on two padded batches: the longest row first, and two full
# rows behind a short one
BLOCK_VARIANTS = [dict(gates=gates, active=k, heads=heads, lengths=lengths)
                  for gates, heads in ((1, 2), (3, 4), (2, 1))
                  for k in (1, 2, 3, 4) for lengths in ([7, 3, 5, 1], [2, 6, 6, 4])]


def padded_batch(lm, lengths, seed):
    """Right-padded token matrix with random real tokens."""
    tokens = np.full((len(lengths), max(lengths)), PAD, dtype=np.int64)
    rng = Rng(seed)
    for i, n in enumerate(lengths):
        tokens[i, :n] = rng.integers(n, lm.config.vocab_size - 4) + 4
    return tokens


@pytest.mark.parametrize("variant", BLOCK_VARIANTS)
def test_batched_block_matches_loops_on_padded_mixed_gate_batch(variant):
    lm = tiny_lm(seed=31, gates=variant["gates"], active=variant["active"],
                 heads=variant["heads"])
    tokens = padded_batch(lm, variant["lengths"], seed=32)
    batch, length = tokens.shape
    gates = np.arange(batch) % variant["gates"]
    x = T.take_rows(lm.embed, tokens.reshape(-1)) + T.take_rows(
        lm.pos, np.tile(np.arange(length), batch))
    for blk in lm.blocks:
        blk.bank.eval_count = 0
        out = blk.forward(x, batch, length, gates)
        ref = reference_block_forward(blk, x.data, batch, length, gates)
        assert np.max(np.abs(out.data - ref)) <= 1e-12
        assert blk.bank.eval_count == batch * length * variant["active"]
        x = out
    # the real positions of each row equal that sequence run alone
    logits = lm.forward_rows(tokens, gates).data.reshape(batch, length, -1)
    for i, n in enumerate(variant["lengths"]):
        alone = forward_lm(lm, tokens[i, :n], int(gates[i])).data
        assert np.max(np.abs(logits[i, :n] - alone)) <= 1e-12


@pytest.mark.parametrize("variant", BLOCK_VARIANTS[::3])
def test_batched_block_with_cache_matches_loops(variant):
    lm = tiny_lm(seed=33, gates=variant["gates"], active=variant["active"],
                 heads=variant["heads"])
    tokens = padded_batch(lm, [8, 8], seed=34)
    gates = np.array([0, variant["gates"] - 1])
    x = Tensor(lm.embed.data[tokens] + lm.pos.data[:8])          # (2, 8, m)
    blk = lm.blocks[0]
    ref = reference_block_forward(blk, x.data.reshape(16, -1), 2, 8, gates).reshape(2, 8, -1)
    # preallocated head-major buffers, as forward_rows makes them: keys
    # (batch, heads, head_dim, positions), values (batch, heads, positions, head_dim)
    heads, context = variant["heads"], lm.config.context
    cache = (np.empty((2, heads, 8 // heads, context)), np.empty((2, heads, context, 8 // heads)))
    start = 0
    for size in (3, 1, 2, 1, 1):
        chunk = Tensor(x.data[:, start:start + size].reshape(2 * size, -1))
        blk.bank.eval_count = 0
        out = blk.forward(chunk, 2, size, gates, cache, start).data.reshape(2, size, -1)
        assert np.max(np.abs(out - ref[:, start:start + size])) <= 1e-12
        assert blk.bank.eval_count == 2 * size * variant["active"]
        start += size
    normed = T.rms_norm(x.reshape(16, 8), blk.norm1_g).data
    keys, values = ((normed @ w.data).reshape(2, 8, heads, 8 // heads) for w in (blk.wk, blk.wv))
    assert np.max(np.abs(cache[0][..., :start] - keys.transpose(0, 2, 3, 1))) <= 1e-12
    assert np.max(np.abs(cache[1][:, :, :start] - values.transpose(0, 2, 1, 3))) <= 1e-12
