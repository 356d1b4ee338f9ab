"""Two-stage training: accumulation equivalence, decoupling, determinism."""

import contextlib
import dataclasses
import functools
import json
import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from moerec.config import RunConfig, StageConfig
from moerec.data import (
    InteractionRecord,
    SynthSpec,
    generate_synthetic,
    normalized_ratings,
    split_records,
)
from moerec import tensor, training
from moerec.checkpoint import read_manifest
from moerec.errors import ConfigError, ContextLimitError, DataError, TrainingError
from moerec.moe import EOS, KVCache, LanguageModel, Vocab, build_prompt
from moerec.optim import AdamW, clip_grad_norm
from moerec.rng import Rng
from moerec.tensor import Tape
from moerec.training import (
    ExplainerBundle,
    _stage2_loss,
    lm_config_from,
    load_bundle,
    prepare_sequence,
    save_bundle,
    train_stage1,
    train_stage2,
    vae_config_from,
)
from moerec.vae import GmmPrior, VaeGmm, elbo_loss, init_gmm_prior


def small_corpus(seed=0, users=24, items=12, per_user=6):
    spec = SynthSpec(n_users=users, n_items=items, records_per_user=per_user,
                     seed=seed)
    records, labels = generate_synthetic(spec)
    return split_records(records, seed=seed), labels


def small_run(**overrides) -> RunConfig:
    run = RunConfig(d_emb=8, latent_dim=4, clusters=2, enc_hidden=12,
                    model_dim=16, blocks=1, heads=2, context=32,
                    base_experts=2, base_hidden=16, factor=2, active_experts=2,
                    s1_epochs=3, s1_warmup_epochs=2, s1_batch=32,
                    s2_epochs=1, s2_batch=8)
    for key, value in overrides.items():
        setattr(run, key, value)
    return run.validate()


def test_normalized_ratings_validation():
    split, _ = small_corpus()
    values = normalized_ratings(split.train)
    assert values.min() >= 0.0 and values.max() <= 1.0
    with pytest.raises(DataError, match="R_MAX"):       # above the five-star scale
        normalized_ratings([*split.train, InteractionRecord("u0", "i0", 5.5, [], "ok")])


def test_gradient_accumulation_equivalence():
    split, _ = small_corpus()
    run = small_run()
    users = split.user_ids(split.train)[:16]
    items = split.item_ids(split.train)[:16]
    ratings = normalized_ratings(split.train)[:16]

    def grads_with(accum):
        model = VaeGmm(vae_config_from(run, split), Rng(3))
        eps_rng = Rng(8).substream("eps")
        n = 16
        step = n // accum
        for p in model.params().values():
            p.grad = None
        for micro in range(accum):
            lo, hi = micro * step, (micro + 1) * step
            with Tape() as tape:
                loss = elbo_loss(model, users[lo:hi], items[lo:hi],
                                 ratings[lo:hi], 0.1, eps_rng)
                tape.backward(loss * (1.0 / accum))
        return {k: p.grad.copy() for k, p in model.params().items()
                if p.grad is not None}

    one = grads_with(1)
    four = grads_with(4)
    assert set(one) == set(four)
    for name in one:
        assert np.max(np.abs(one[name] - four[name])) <= 1e-9, name


def test_stage1_loss_decreases_and_occupancy_reported():
    split, _ = small_corpus()
    run = small_run(s1_epochs=6)
    vae, manifest = train_stage1(split, vae_config_from(run, split), run.stage1())
    rows = manifest["epochs"]
    assert rows[-1]["loss"] < rows[0]["loss"]
    assert all(len(r["occupancy"]) in (1, 2) for r in rows)
    joint = [r for r in rows if r["phase"] == "joint"]
    assert len(joint[0]["occupancy"]) == 2
    assert sum(joint[-1]["occupancy"]) == len(split.train)


def test_stage1_determinism_bit_identical():
    split, _ = small_corpus()
    run = small_run()
    a, _ = train_stage1(split, vae_config_from(run, split), run.stage1())
    b, _ = train_stage1(split, vae_config_from(run, split), run.stage1())
    for name, pa in a.params().items():
        assert np.array_equal(pa.data, b.params()[name].data), name


def test_stage1_empty_dataset_errors():
    split, _ = small_corpus()
    split.train = []
    run = small_run()
    with pytest.raises(DataError):
        train_stage1(split, vae_config_from(run, split), run.stage1())


def test_beta_ablation_reconstruction_report(capsys):
    # with beta=0 the reconstruction term should fit at least as tightly as
    # with beta=0.1; reported rather than asserted as a hard bound
    split, _ = small_corpus()
    run = small_run(s1_epochs=4)
    recon = {}
    for beta in (0.0, 0.1):
        run_b = small_run(s1_epochs=4, beta=beta)
        vae, _ = train_stage1(split, vae_config_from(run_b, split), run_b.stage1())
        users = split.user_ids(split.train)
        items = split.item_ids(split.train)
        ratings = normalized_ratings(split.train)
        loss = elbo_loss(vae, users, items, ratings, 0.0, Rng(1), eps_override=0.0)
        recon[beta] = loss.item()
    print(f"reconstruction-only loss: beta=0 {recon[0.0]:.5f}, "
          f"beta=0.1 {recon[0.1]:.5f}")
    assert np.isfinite(recon[0.0]) and np.isfinite(recon[0.1])


def test_prepare_sequence_structure_and_truncation():
    split, _ = small_corpus()
    run = small_run()
    from moerec.moe import Vocab
    vocab = Vocab.build(split.train, list(split.user_index),
                        list(split.item_index))
    rec = split.train[0]
    seq, plen = prepare_sequence(vocab, rec, run.context)
    assert seq[-1] == EOS
    assert plen < len(seq) - 1
    tight, plen2 = prepare_sequence(vocab, rec, plen + 3)
    assert len(tight) == plen2 + 3  # reference truncated to fit + eos


def trained_pair(seed=0, **run_overrides):
    split, labels = small_corpus(seed=seed)
    run = small_run(**run_overrides)
    vae, _ = train_stage1(split, vae_config_from(run, split), run.stage1())
    bundle, manifest = train_stage2(split, vae, run, run.stage2())
    return split, labels, run, bundle, manifest


def test_stage2_trains_and_reports():
    split, _, run, bundle, manifest = trained_pair()
    assert len(manifest["epochs"]) == 1
    assert np.isfinite(manifest["epochs"][0]["loss"])
    text = bundle.generate_explanation(split.test[0])
    assert isinstance(text, str)


def test_stage2_alpha_one_never_touches_lm():
    split, _ = small_corpus()
    run = small_run(alpha=1.0)
    vae, _ = train_stage1(split, vae_config_from(run, split), run.stage1())
    cfg = run.stage2()
    from moerec.moe import LanguageModel, Vocab
    from moerec.training import lm_config_from
    vocab = Vocab.build(split.train, list(split.user_index), list(split.item_index))
    lm = LanguageModel(lm_config_from(run, len(vocab)), Rng(5))
    bundle = ExplainerBundle(vae, lm, vocab, split.user_index, split.item_index)

    users = split.user_ids(split.train)[:6]
    items = split.item_ids(split.train)[:6]
    ratings = normalized_ratings(split.train)[:6]
    prepared = [prepare_sequence(vocab, r, run.context) for r in split.train[:6]]
    with Tape() as tape:
        loss = _stage2_loss(bundle, users, items, ratings, prepared, cfg, Rng(9))
        tape.backward(loss)
    for name, p in lm.params().items():
        assert p.grad is None or np.all(p.grad == 0.0), name
    assert any(p.grad is not None and np.any(p.grad != 0.0)
               for p in vae.params().values())


@pytest.mark.parametrize("precision", ["float64", "float32"])
@pytest.mark.parametrize("alpha", [0.1, 0.3])
def test_stage2_loss_equals_the_operator_chain_bit_for_bit(alpha, precision):
    # the alpha mix is one weighted_means record, 19 per step at two blocks;
    # it equals elbo * alpha + nll * (1 - alpha) on Tensor's operators, which
    # records a product, a product and a sum, in the loss and every gradient
    split, _ = small_corpus()
    run = small_run(blocks=2, alpha=alpha)
    caller = tensor.default_dtype().name
    tensor.set_default_dtype(precision)
    try:
        vae = VaeGmm(vae_config_from(run, split), Rng(3))
        rng = Rng(4)
        vae.prior = GmmPrior(rng.normal(2), rng.normal(8).reshape(2, 4),
                             rng.normal(8).reshape(2, 4) * 0.3)
        vocab = Vocab.build(split.train, list(split.user_index), list(split.item_index))
        lm = LanguageModel(lm_config_from(run, len(vocab)), Rng(5))
        bundle = ExplainerBundle(vae, lm, vocab, split.user_index, split.item_index)
        records = split.train[:8]
        users, items = split.user_ids(records), split.item_ids(records)
        ratings = normalized_ratings(records)
        prepared = [prepare_sequence(vocab, r, run.context) for r in records]
        gates = vae.gates(users, items)
        cfg = run.stage2()

        def chain():
            elbo = elbo_loss(vae, users, items, ratings, cfg.beta, Rng(9))
            nll = lm.batched_nll([seq for seq, _ in prepared], [n for _, n in prepared], gates)
            return elbo * cfg.alpha + nll * (1.0 - cfg.alpha)

        params = bundle.params()
        runs = []
        for loss_fn in (lambda: _stage2_loss(bundle, users, items, ratings, prepared,
                                             cfg, Rng(9)), chain):
            tensor.zero_grad(params.values())
            with Tape() as tape:
                loss = loss_fn()
                tape.backward(loss)
            runs.append((len(tape.records), np.asarray(loss.data).tobytes(),
                         {name: p.grad.tobytes() for name, p in params.items()}))
    finally:
        tensor.set_default_dtype(caller)
    (fused_records, *fused), (chain_records, *chained) = runs
    assert (fused_records, chain_records) == (19, 21)
    assert fused == chained


def test_stage2_alpha_zero_never_touches_rating_decoder():
    split, _ = small_corpus()
    run = small_run(alpha=0.0)
    vae, _ = train_stage1(split, vae_config_from(run, split), run.stage1())
    cfg = run.stage2()
    from moerec.moe import LanguageModel, Vocab
    from moerec.training import lm_config_from
    vocab = Vocab.build(split.train, list(split.user_index), list(split.item_index))
    lm = LanguageModel(lm_config_from(run, len(vocab)), Rng(5))
    bundle = ExplainerBundle(vae, lm, vocab, split.user_index, split.item_index)

    users = split.user_ids(split.train)[:6]
    items = split.item_ids(split.train)[:6]
    ratings = normalized_ratings(split.train)[:6]
    prepared = [prepare_sequence(vocab, r, run.context) for r in split.train[:6]]
    with Tape() as tape:
        loss = _stage2_loss(bundle, users, items, ratings, prepared, cfg, Rng(9))
        tape.backward(loss)
    for name in ("vae.decoder.w1", "vae.decoder.b1", "vae.decoder.w2", "vae.decoder.b2"):
        p = vae.params()[name]
        assert p.grad is None or np.all(p.grad == 0.0), name
    assert any(p.grad is not None and np.any(p.grad != 0.0)
               for p in lm.params().values())


# --- the stage-2 step that encodes once, against the step that encoded twice ---

def two_encode_batches(bundle, run, cfg, split, records, rng):
    """`training._explainer_batches` as it was before the step encoded once:
    each batch takes its gates from an untaped ``VaeGmm.gates``, and its loss
    tapes the language model's NLL, then an ELBO that encodes the pairs again."""
    users, items = split.user_ids(records), split.item_ids(records)
    ratings = normalized_ratings(records)
    prepared = [prepare_sequence(bundle.vocab, rec, run.context) for rec in records]

    def batch(idx):
        gates = bundle.vae.gates(users[idx], items[idx])

        def loss():
            nll = bundle.lm.batched_nll([prepared[i][0] for i in idx],
                                        [prepared[i][1] for i in idx], gates)
            elbo = elbo_loss(bundle.vae, users[idx], items[idx], ratings[idx], cfg.beta, rng)
            return tensor.weighted_means((elbo, nll), (cfg.alpha, 1.0 - cfg.alpha))
        return loss
    return batch


class SummedFiniteAdamW(AdamW):
    """`AdamW.step` as it was before one pass of squares served both of its
    checks: a sum of the gradient row proves every gradient finite, then
    `clip_grad_norm` squares each gradient again for the norm it clips to."""

    def step(self, clip_norm=None):
        self._adopt()
        with np.errstate(over="ignore"):
            finite = math.isfinite(self._store[1].sum())
        if not finite:
            bad = [n for n, g in zip(self._names, self._grads) if not np.isfinite(g).all()]
            if bad:
                raise TrainingError(f"non-finite gradient on parameter {bad[0]!r}")
        scale = 1.0
        if clip_norm is not None:
            scale = clip_grad_norm(self._grads, clip_norm, [self._store[1]])
        super().step(None)                      # the update of the clipped gradients
        return scale


class StepsDone(Exception):
    pass


def default_stage2_run(monkeypatch, precision: str, steps: int, reference: bool) -> tuple:
    """(losses, gates of every step, final store bytes) of the first `steps`
    stage-2 steps of the default run config on the default corpus, from an
    untrained preference model with a three-component prior; with
    `reference`, through the two-encode batches and the summed finiteness
    proof. Each step's gates are checked against ``VaeGmm.gates`` of its
    pairs, taken before the step's update."""
    run = RunConfig(precision=precision).validate()
    split = split_records(generate_synthetic(SynthSpec(seed=1))[0], seed=1)
    caller = tensor.default_dtype().name
    tensor.set_default_dtype(precision)
    try:
        vae = VaeGmm(vae_config_from(run, split), Rng(3))
        rng, k, d = Rng(4), run.clusters, run.latent_dim
        vae.prior = GmmPrior(rng.normal(k), rng.normal(k * d).reshape(k, d),
                             rng.normal(k * d).reshape(k, d) * 0.3)
    finally:
        tensor.set_default_dtype(caller)
    losses, gates, built = [], [], []
    users, items = split.user_ids(split.train), split.item_ids(split.train)
    real_batches, real_backward, real_nll = (training._explainer_batches, tensor.backward,
                                             LanguageModel.batched_nll)

    def batches(bundle, *args):
        batch = (two_encode_batches if reference else real_batches)(bundle, *args)

        def gated(idx):
            gates.append(bundle.vae.gates(users[idx], items[idx]))
            return batch(idx)
        return gated

    def nll(lm, sequences, prompt_lens, step_gates):
        assert np.array_equal(step_gates, gates[-1]), len(gates)
        return real_nll(lm, sequences, prompt_lens, step_gates)

    class Counted(SummedFiniteAdamW if reference else AdamW):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

        def step(self, *args, **kwargs):
            scale = super().step(*args, **kwargs)
            if self.step_count == steps:
                raise StepsDone
            return scale

    monkeypatch.setattr(training, "_explainer_batches", batches)
    monkeypatch.setattr(training, "AdamW", Counted)
    monkeypatch.setattr(tensor, "backward", lambda tape, loss: losses.append(
        np.asarray(loss.data).tobytes()) or real_backward(tape, loss))
    monkeypatch.setattr(LanguageModel, "batched_nll", nll)
    try:
        with pytest.raises(StepsDone):
            train_stage2(split, vae, run, run.stage2())
    finally:
        monkeypatch.undo()
    (opt,) = built
    return losses, gates, opt._store.tobytes()


@pytest.mark.parametrize("precision", ["float32", "float64"])
def test_a_stage2_step_that_encodes_once_equals_the_two_encode_step(monkeypatch, precision):
    # the gates come from the step's own taped encode, the ELBO reuses it,
    # and one pass of squares proves the gradients finite and clips them:
    # every step's gates are VaeGmm.gates of its pairs, and the losses and
    # the final store, values, grads and moments, are the reference's bytes
    ours = default_stage2_run(monkeypatch, precision, 30, reference=False)
    theirs = default_stage2_run(monkeypatch, precision, 30, reference=True)
    assert len(ours[0]) == len(ours[1]) == 30
    assert ours[0] == theirs[0]
    assert all(np.array_equal(a, b) for a, b in zip(ours[1], theirs[1]))
    assert ours[2] == theirs[2]


def test_a_stage2_batch_above_the_chunk_bound_gates_as_vae_gates(monkeypatch):
    # above INFERENCE_ROWS, VaeGmm.gates runs its chunked mean path; the
    # step's one-pass encode gives the same gates
    from moerec.vae import INFERENCE_ROWS
    split, _ = small_corpus(users=120, per_user=6)
    run = small_run()
    records = split.train[:INFERENCE_ROWS + 40]
    assert len(records) == INFERENCE_ROWS + 40
    users, items = split.user_ids(records), split.item_ids(records)
    vae = VaeGmm(vae_config_from(run, split), Rng(3))
    vae.prior = init_gmm_prior(vae.latent_mu(users, items), 2, Rng(4))
    vocab = Vocab.build(split.train, list(split.user_index), list(split.item_index))
    bundle = ExplainerBundle(vae, LanguageModel(lm_config_from(run, len(vocab)), Rng(5)), vocab,
                             split.user_index, split.item_index)
    seen = []
    nll = LanguageModel.batched_nll
    monkeypatch.setattr(LanguageModel, "batched_nll",
                        lambda lm, seqs, lens, gates: seen.append(gates) or nll(lm, seqs, lens, gates))
    with Tape():
        _stage2_loss(bundle, users, items, normalized_ratings(records),
                     [prepare_sequence(vocab, r, run.context) for r in records],
                     run.stage2(), Rng(9))
    want = vae.gates(users, items)
    assert len(set(want.tolist())) == 2 and np.array_equal(seen[0], want)


# Python frames of one tiny stage-2 step: 646 when the gates took their own
# encode and batched_nll built its arrays record by record (Python 3.11;
# 3.12 inlines comprehensions, so it counts fewer)
FRAMES_OF_A_STAGE2_STEP = 500


def test_a_stage2_step_encodes_once_and_batches_with_whole_array_ops(monkeypatch):
    # the machine-free cost of one stage-2 step as _fit runs it, on a tiny
    # config: one taped encode serves the gates and the ELBO, batched_nll
    # makes as many numpy calls for 8 records as for 4 (outside the
    # forward), and the step's Python frames are pinned
    split, _ = small_corpus()
    run = small_run(s2_batch=8)
    vae = VaeGmm(vae_config_from(run, split), Rng(3))
    vae.prior = init_gmm_prior(vae.latent_mu(split.user_ids(split.train),
                                             split.item_ids(split.train)), 2, Rng(4))
    vocab = Vocab.build(split.train, list(split.user_index), list(split.item_index))
    bundle = ExplainerBundle(vae, LanguageModel(lm_config_from(run, len(vocab)), Rng(5)), vocab,
                             split.user_index, split.item_index)
    cfg = run.stage2()
    opt = AdamW(bundle.params(), lr=cfg.lr)
    batch = training._explainer_batches(bundle, run, cfg, split, split.train, Rng(6))
    encodes = []
    encode = VaeGmm.encode
    monkeypatch.setattr(VaeGmm, "encode", lambda *args: encodes.append(1) or encode(*args))

    def profiled_step(idx):
        events = []

        def hook(frame, event, arg):
            if event == "call":
                events.append(("call", frame.f_code.co_name))
            elif event == "c_call" and (
                    isinstance(getattr(arg, "__self__", None), (np.ndarray, np.ufunc))
                    or (getattr(arg, "__module__", None) or "").startswith("numpy")):
                events.append(("c_call", arg.__name__))
        sys.setprofile(hook)
        try:
            compute = batch(idx)
            with Tape() as tape:
                loss = compute()
                tape.backward(loss)
            opt.step(clip_norm=cfg.clip_norm)
            opt.zero_grad()
        finally:
            sys.setprofile(None)
        return events

    def nll_numpy_calls(events):
        # the numpy calls and the frames of batched_nll before its forward_rows
        start = events.index(("call", "batched_nll"))
        return events[start:events.index(("call", "forward_rows"), start)]

    profiled_step(np.arange(8))                                  # warm-up
    encodes.clear()
    calls = {}
    for size in (4, 8):
        events = profiled_step(np.arange(size))
        calls[size] = nll_numpy_calls(events)
    assert len(encodes) == 2                                      # one a step
    assert calls[4] == calls[8], calls
    frames = sum(kind == "call" for kind, _ in events)
    assert frames <= FRAMES_OF_A_STAGE2_STEP, frames


def test_stage2_determinism_bit_identical():
    a = trained_pair(seed=3)[3]
    b = trained_pair(seed=3)[3]
    for name, pa in a.params().items():
        assert np.array_equal(pa.data, b.params()[name].data), name


def test_stage2_validates_its_run_config():
    split, _ = small_corpus()
    run = small_run()
    vae, _ = train_stage1(split, vae_config_from(run, split), run.stage1())
    _, manifest = train_stage2(split, vae, run, run.stage2())
    assert manifest["config"]["clusters"] == run.clusters
    assert "gates" not in manifest["config"]
    bad = RunConfig(**(run.to_dict() | {"heads": 3}))
    with pytest.raises(ConfigError, match="heads"):
        train_stage2(split, vae, bad, bad.stage2())


@pytest.mark.parametrize("warmup", [0, 1])
@pytest.mark.parametrize("epochs", [1, 2, 3])
@pytest.mark.parametrize("stage", [1, 2])
def test_training_loop_policy(monkeypatch, stage, epochs, warmup):
    """Per epoch, one step clipped at the stage's norm per micro-batch, a
    short last one included, each backward seeded with the micro-batch loss
    itself, unscaled; every epoch of the budget runs, with or without a
    warm-up phase, and its row holds only the phase, the epoch, the mean
    loss and the occupancy; the warm-up never moves the prior."""
    split, _ = small_corpus()
    batches = math.ceil(len(split.train) / 17)
    assert len(split.train) % 17 and batches == 7     # a short last batch
    run = small_run(s1_batch=17, s2_batch=17, s1_warmup_beta=0.1, s1_clip=0.2,
                    s2_clip=0.4, s1_epochs=epochs, s2_epochs=epochs,
                    s1_warmup_epochs=warmup)
    events, computed, warmup_checks, models = [], [], [], []
    real_step, real_backward = AdamW.step, tensor.backward
    real_batches, real_fit_prior = training._epoch_batches, training.init_gmm_prior

    def counting_step(opt, *args, **kwargs):
        events.append(("step", kwargs["clip_norm"]))
        return real_step(opt, *args, **kwargs)

    def recording_backward(tape, loss):
        events.append(loss)
        return real_backward(tape, loss)

    def epoch_batches(*args):
        events.append("epoch")
        return real_batches(*args)

    def recording(loss_fn):
        def loss(*args, **kwargs):
            computed.append(loss_fn(*args, **kwargs))
            return computed[-1]
        return loss

    class Recording(VaeGmm):
        def __init__(self, *args):
            super().__init__(*args)
            self.initial_prior = {k: p.data.copy() for k, p in self.params().items()
                                  if k.startswith("vae.gmm.")}
            models.append(self)

    def fit_prior(*args, **kwargs):
        model = models[-1]
        for name, data in model.initial_prior.items():
            warmup_checks.append(np.array_equal(model.params()[name].data, data))
        return real_fit_prior(*args, **kwargs)

    monkeypatch.setattr(AdamW, "step", counting_step)
    monkeypatch.setattr(tensor, "backward", recording_backward)
    monkeypatch.setattr(training, "_epoch_batches", epoch_batches)
    monkeypatch.setattr(training, "VaeGmm", Recording)
    monkeypatch.setattr(training, "init_gmm_prior", fit_prior)
    monkeypatch.setattr(training, "elbo_loss", recording(elbo_loss))
    vae, manifest = train_stage1(split, vae_config_from(run, split), run.stage1())
    assert warmup_checks == [True, True, True]
    cfg, keys = run.stage1(), {"phase", "epoch", "loss", "occupancy"}
    if stage == 2:
        events.clear()
        computed.clear()
        monkeypatch.setattr(training, "elbo_loss", elbo_loss)
        monkeypatch.setattr(training, "_stage2_loss", recording(_stage2_loss))
        _, manifest = train_stage2(split, vae, run, run.stage2())
        cfg, keys = run.stage2(), {"epoch", "loss", "occupancy"}
    rows = manifest["epochs"]
    assert len(rows) == cfg.epochs + (cfg.warmup_epochs if stage == 1 else 0)
    assert all(set(row) == keys for row in rows)
    epochs = []                                       # (step clip norms, backward seeds)
    for event in events:
        if event == "epoch":
            epochs.append([[], []])
        elif isinstance(event, tuple):
            epochs[-1][0].append(event[1])
        else:
            epochs[-1][1].append(event)
    assert len(epochs) == len(rows)
    seeds = [loss for _, losses in epochs for loss in losses]
    assert len(seeds) == len(computed) and all(a is b for a, b in zip(seeds, computed))
    for (clips, losses), row in zip(epochs, rows):
        assert clips == [cfg.clip_norm] * batches
        assert len(losses) == batches
        assert np.mean([loss.item() for loss in losses]) == row["loss"]


def _train_both_stages(tmp_path, name):
    split, _ = small_corpus(seed=2)
    run = small_run()
    vae, m1 = train_stage1(split, vae_config_from(run, split), run.stage1())
    save_bundle(tmp_path / f"{name}.s1", ExplainerBundle(vae, None, None, split.user_index,
                                                         split.item_index), run, m1)
    bundle, m2 = train_stage2(split, vae, run, run.stage2())
    save_bundle(tmp_path / f"{name}.s2", bundle, run, m2)
    return ([(tmp_path / f"{name}.{s}").read_bytes() for s in ("s1", "s2")],
            [m["epochs"] for m in (m1, m2)])


def test_resident_heap_leaves_checkpoints_and_losses_unchanged(tmp_path, monkeypatch):
    resident = _train_both_stages(tmp_path, "resident")
    monkeypatch.setattr(training, "_MALLOPT", None)
    assert _train_both_stages(tmp_path, "plain") == resident


class _Foreign(Exception):
    """Stands for an exception from outside moerec that ends training, as a
    benchmark's step budget does."""


@pytest.mark.parametrize("failure", [None, TrainingError("non-finite gradient"), _Foreign()])
def test_fit_raises_the_heap_pad_once_and_always_restores_it(monkeypatch, failure):
    split, _ = small_corpus()
    run = small_run()
    vae = VaeGmm(vae_config_from(run, split), Rng(0))
    events = []
    real_step = AdamW.step

    def step(opt, *args, **kwargs):
        events.append("step")
        result = real_step(opt, *args, **kwargs)
        if failure is not None and events.count("step") == 3:
            raise failure
        return result

    monkeypatch.setattr(AdamW, "step", step)
    monkeypatch.setattr(training, "_MALLOPT", lambda param, value: events.append((param, value)))
    if failure is None:
        train_stage2(split, vae, run, run.stage2())
    else:
        with pytest.raises(type(failure)):
            train_stage2(split, vae, run, run.stage2())
    steps = events.count("step")
    assert steps == 3 if failure is not None else steps > 3
    assert events == [(-2, 64 << 20)] + ["step"] * steps + [(-2, 128 << 10)]


@pytest.mark.parametrize("failure", [False, True], ids=["return", "exception"])
@pytest.mark.parametrize("caller", ["float64", "float32"])
def test_training_runs_in_its_precision_and_restores_the_callers_dtype(monkeypatch,
                                                                      caller, failure):
    split, _ = small_corpus()
    run = small_run(precision="float32" if caller == "float64" else "float64")
    monkeypatch.setattr(tensor, "_default_dtype", tensor._default_dtype)   # restored at teardown
    tensor.set_default_dtype(caller)
    seen, real_step = [], AdamW.step

    def step(opt, *args, **kwargs):
        seen.append(tensor.default_dtype().name)
        if failure:
            raise TrainingError("non-finite gradient")
        return real_step(opt, *args, **kwargs)

    monkeypatch.setattr(AdamW, "step", step)
    with pytest.raises(TrainingError) if failure else contextlib.nullcontext():
        vae, _ = train_stage1(split, vae_config_from(run, split), run.stage1())
        assert vae.encoder.w1.data.dtype == np.dtype(run.precision)
    assert tensor.default_dtype() == np.dtype(caller)
    vae = VaeGmm(vae_config_from(run, split), Rng(0))         # in the caller's dtype
    with pytest.raises(TrainingError) if failure else contextlib.nullcontext():
        train_stage2(split, vae, run, run.stage2())
    assert tensor.default_dtype() == np.dtype(caller)
    # stage 2 cast the stage-1 model to its precision, in place
    assert all(p.data.dtype == np.dtype(run.precision) for p in vae.params().values())
    assert seen and set(seen) == {run.precision}


def test_stage2_refuses_a_stage1_model_beyond_float32():
    split, _ = small_corpus()
    run = small_run(precision="float32")
    vae = VaeGmm(vae_config_from(run, split), Rng(0))
    vae.decoder.b2.data = vae.decoder.b2.data + 1e300
    with pytest.raises(DataError, match="beyond float32"):
        train_stage2(split, vae, run, run.stage2())
    assert tensor.default_dtype() == np.float64


_FAULTS_PER_STEP = """
import json, resource, sys
from moerec import optim, training
from moerec.config import RunConfig
from moerec.data import SynthSpec, generate_synthetic, split_records
from moerec.rng import Rng
from moerec.vae import VaeGmm

if sys.argv[1] == "plain":
    training._MALLOPT = None
run = RunConfig().validate()
split = split_records(generate_synthetic(SynthSpec(n_users=40, seed=1))[0], run.seed)
vae = VaeGmm(training.vae_config_from(run, split), Rng(run.seed))
faults, real_step = [], optim.AdamW.step

class Stop(Exception):
    pass

def step(opt, *args, **kwargs):
    result = real_step(opt, *args, **kwargs)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    if len(faults) == 26:
        raise Stop
    return result

optim.AdamW.step = step
try:
    training.train_stage2(split, vae, run, run.stage2())
except Stop:
    pass
per_step = sorted(b - a for a, b in zip(faults[4:], faults[5:]))
print(json.dumps(per_step[len(per_step) // 2]))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc" or training._MALLOPT is None,
                    reason="the heap pad is a glibc setting")
def test_resident_heap_cuts_the_page_faults_of_a_stage2_step():
    """Median minor faults per default stage-2 step over steps 5-25 of the
    first epoch, each mode in a fresh process, because earlier tests shape
    this one's heap."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "OPENBLAS_NUM_THREADS": "1"}
    procs = {mode: subprocess.Popen([sys.executable, "-c", _FAULTS_PER_STEP, mode], env=env,
                                    stdout=subprocess.PIPE, text=True)
             for mode in ("resident", "plain")}
    faults = {mode: json.loads(proc.communicate()[0]) for mode, proc in procs.items()}
    assert all(proc.returncode == 0 for proc in procs.values())
    assert faults["plain"] > 100 and faults["resident"] * 10 <= faults["plain"], faults


def test_save_load_roundtrip_stage1(tmp_path):
    split, _ = small_corpus()
    run = small_run()
    vae, manifest = train_stage1(split, vae_config_from(run, split), run.stage1())
    path = tmp_path / "s1.ckpt"
    save_bundle(path, ExplainerBundle(vae, None, None, split.user_index, split.item_index),
                run, manifest)
    loaded, _, _ = load_bundle(path, None)
    assert loaded.lm is None and loaded.vocab is None
    assert loaded.user_index == split.user_index and loaded.item_index == split.item_index
    for name, p in vae.params().items():
        assert np.array_equal(p.data, loaded.params()[name].data), name


def test_save_load_roundtrip_bundle(tmp_path):
    split, _, run, bundle, manifest = trained_pair()
    path = tmp_path / "s2.ckpt"
    save_bundle(path, bundle, run, manifest)
    loaded, _, _ = load_bundle(path, None)
    assert loaded.vocab.tokens == bundle.vocab.tokens
    for name, p in bundle.params().items():
        assert np.array_equal(p.data, loaded.params()[name].data), name
    rec = split.test[0]
    assert loaded.generate_explanation(rec) == bundle.generate_explanation(rec)


@pytest.mark.parametrize("precision", ["float32", "float64"])
def test_a_runs_precision_is_its_payload_and_a_resave_keeps_the_bytes(tmp_path, precision):
    split, _, run, bundle, manifest = trained_pair(precision=precision)
    s1, s2, again = tmp_path / "s1.ckpt", tmp_path / "s2.ckpt", tmp_path / "again.ckpt"
    save_bundle(s1, ExplainerBundle(bundle.vae, None, None, split.user_index,
                                    split.item_index), run, manifest)
    save_bundle(s2, bundle, run, manifest)
    for path in (s1, s2):
        payload = {spec["dtype"] for spec in read_manifest(path)["tensors"].values()}
        assert payload == {{"float32": "f32", "float64": "f64"}[precision]}
        loaded, loaded_run, _ = load_bundle(path, None)
        # the stage-2 manifest carries the draft table stage 2 built
        want = bundle.draft.table if path == s2 else None
        assert (loaded.draft.table if loaded.draft else None) == want
        save_bundle(again, loaded, loaded_run, {})
        assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("precision", ["float32", "float64"])
def test_a_loaded_bundle_explains_bit_for_bit_like_the_trained_one(tmp_path, precision):
    # the load keeps the payload's dtype, so the loaded model computes what
    # the trained one does: texts, gates, responsibilities and ratings, bit for bit
    split, _, run, bundle, manifest = trained_pair(precision=precision)
    path = tmp_path / "s2.ckpt"
    save_bundle(path, bundle, run, manifest)
    loaded, _, _ = load_bundle(path)
    assert {p.data.dtype for p in loaded.params().values()} == {np.dtype(precision)}
    ratings = [b.predict_norm_ratings(split.test) for b in (loaded, bundle)]
    assert ratings[0].tobytes() == ratings[1].tobytes()
    for options in (dict(), dict(mode="sample", seed=3)):
        want_texts, *want = bundle.explain(split.test, **options)
        got_texts, *got = loaded.explain(split.test, **options)
        assert got_texts == want_texts
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_loaded_models_generate_like_trained_ones_without_random_draws(tmp_path,
                                                                     monkeypatch):
    split, _, run, bundle, manifest = trained_pair()
    s1, s2 = tmp_path / "s1.ckpt", tmp_path / "s2.ckpt"
    save_bundle(s1, ExplainerBundle(bundle.vae, None, None, split.user_index,
                                    split.item_index), run, manifest)
    save_bundle(s2, bundle, run, manifest)

    def no_draws(self, n):
        raise AssertionError("loading drew random weights")

    monkeypatch.setattr(Rng, "normal", no_draws)
    load_bundle(s1, "stage1")
    loaded, _, _ = load_bundle(s2)
    monkeypatch.undo()
    for rec in split.test[:6]:
        for mode, seed in (("greedy", 0), ("sample", 3)):
            assert (loaded.generate_explanation(rec, mode=mode, seed=seed)
                    == bundle.generate_explanation(rec, mode=mode, seed=seed))


def test_models_built_without_a_stream_draw_nothing(monkeypatch):
    def no_words(self, n):
        raise AssertionError("drew random words")

    split, _ = small_corpus()
    run = small_run()
    monkeypatch.setattr(Rng, "_words", no_words)
    monkeypatch.setattr(Rng, "substream", no_words)
    VaeGmm(vae_config_from(run, split), None)
    LanguageModel(lm_config_from(run, 40), None)


def test_models_built_without_a_stream_hold_no_weight_memory():
    """Without a stream, every parameter is a read-only stand-in of its
    shape with every stride 0, until a checkpoint's arrays replace it; the
    prior has its `clusters` components, the shapes a stage checkpoint holds."""
    split, _ = small_corpus()
    run = small_run()
    vae = VaeGmm(vae_config_from(run, split), None)
    lm = LanguageModel(lm_config_from(run, 40), None)
    trained = {**train_stage1(split, vae_config_from(run, split), run.stage1())[0].params(),
               **LanguageModel(lm_config_from(run, 40), Rng(0)).params()}
    params = {**vae.params(), **lm.params()}
    assert params.keys() == trained.keys()
    for name, tensor in params.items():
        data = tensor.data
        assert data.shape == trained[name].data.shape, name
        assert not any(data.strides) and not data.flags.writeable, name
        assert tensor.requires_grad and tensor.grad is None, name


def test_a_checkpoint_without_a_draft_table_decodes_one_token_a_step(tmp_path, monkeypatch):
    # a stage-2 checkpoint written before the table existed: its manifest has
    # no extra.draft, and each step feeds each row its last token alone
    split, _, run, bundle, manifest = trained_pair()
    assert bundle.draft is not None
    path = tmp_path / "s2.ckpt"
    save_bundle(path, dataclasses.replace(bundle, draft=None), run, manifest)
    assert "draft" not in read_manifest(path)["extra"]
    loaded, _, _ = load_bundle(path)
    assert loaded.draft is None
    forward, widths = LanguageModel.forward_rows, []

    def spied(self, tokens, gates, cache=None, rows=None):
        widths.append(np.shape(tokens)[1] if cache.length else 0)
        return forward(self, tokens, gates, cache, rows)

    monkeypatch.setattr(LanguageModel, "forward_rows", spied)
    texts = [loaded.generate_explanation(r) for r in split.test]
    monkeypatch.undo()
    assert set(widths) == {0, 1}
    assert texts == [bundle.generate_explanation(r) for r in split.test]


def test_loaders_reject_name_and_shape_mismatches(tmp_path):
    from moerec.checkpoint import read_manifest, save_checkpoint
    from moerec.tensor import Tensor
    _, _, run, bundle, manifest = trained_pair()
    path = tmp_path / "s2.ckpt"
    save_bundle(path, bundle, run, manifest)
    extra = read_manifest(path)["extra"]
    params = bundle.params()
    renamed = dict(params)
    renamed["lm.block0.moe.w9"] = renamed.pop("lm.block0.moe.w1")
    reshaped = dict(params, **{"lm.block0.router":
                               Tensor(params["lm.block0.router"].data[:1])})
    for tensors in (renamed, reshaped):
        save_checkpoint(path, tensors, config=run.to_dict(), seed=run.seed,
                        stage="stage2", extra=extra)
        with pytest.raises(DataError):
            load_bundle(path)


def test_the_loader_accepts_only_the_asked_for_stage(tmp_path):
    from moerec.checkpoint import read_manifest, save_checkpoint
    split, _, run, bundle, manifest = trained_pair()
    s1, s2, s3 = tmp_path / "s1.ckpt", tmp_path / "s2.ckpt", tmp_path / "s3.ckpt"
    save_bundle(s1, ExplainerBundle(bundle.vae, None, None, split.user_index,
                                    split.item_index), run, manifest)
    save_bundle(s2, bundle, run, manifest)
    save_checkpoint(s3, bundle.params(), config=run.to_dict(), seed=run.seed,
                    stage="stage3", extra=read_manifest(s2)["extra"])
    assert load_bundle(s1, "stage1")[0].lm is None
    assert load_bundle(s2, None)[0].lm is not None
    for path, stage, message in (
            (s1, "stage2", "expected a stage2 checkpoint, found 'stage1'"),
            (s2, "stage1", "expected a stage1 checkpoint, found 'stage2'"),
            (s3, None, "expected a stage1 or stage2 checkpoint, found 'stage3'"),
            (s3, "stage1", "expected a stage1 checkpoint, found 'stage3'"),
            (s3, "stage2", "expected a stage2 checkpoint, found 'stage3'")):
        with pytest.raises(TrainingError) as err:
            load_bundle(path, stage)
        assert str(err.value) == message and err.value.exit_code == 3
    with pytest.raises(TrainingError, match="found 'stage1'"):
        load_bundle(s1)


def test_unknown_user_routes_through_fallback_row():
    split, _, run, bundle, _ = trained_pair()
    ghost = InteractionRecord("nobody", "nothing", 4.0, ["wifi"], "")
    texts, gates, gamma = bundle.explain([ghost])
    assert 0 <= gates[0] < run.clusters
    assert abs(gamma[0].sum() - 1.0) <= 1e-9
    fallback = bundle.vae.gates(np.array([len(bundle.user_index)]),
                                np.array([len(bundle.item_index)]))
    assert gates.tolist() == fallback.tolist()
    assert texts == [bundle.generate_explanation(ghost)]


@pytest.mark.parametrize("mode", ["greedy", "sample"])
def test_explain_on_a_batch_equals_explaining_each_record(mode):
    split, _, _, bundle, _ = trained_pair()
    records = split.test[:8] + [
        InteractionRecord("nobody", split.test[0].item, 3.0, ["wifi"], ""),
        InteractionRecord(split.test[1].user, "nothing", 1.5, [], ""),
        InteractionRecord("nobody", "nothing", 4.5, ["curry", "staff"], "")]
    options = dict(max_len=12, mode=mode, temperature=0.9, seed=4)
    texts, gates, gamma = bundle.explain(records, **options)
    assert gamma.shape == (len(records), bundle.clusters)
    assert gates.tolist() == np.argmax(gamma, axis=1).tolist()
    for rec, text, gate, row in zip(records, texts, gates, gamma):
        one_texts, one_gates, one_gamma = bundle.explain([rec], **options)
        assert one_texts == [text] == [bundle.generate_explanation(rec, **options)]
        assert one_gates.tolist() == [gate]
        assert np.allclose(one_gamma[0], row, rtol=0, atol=1e-12)


def with_features(record, words):
    """`record` with a prompt of 9 + `words` tokens: `words` feature words."""
    return InteractionRecord(record.user, record.item, record.rating, ["staff"] * words, "")


@pytest.mark.parametrize("order", [(2, 4), (4, 2)])
def test_a_prompt_that_fills_the_context_fails_in_a_batch_as_alone(order):
    # the first record in input order whose prompt fills the context names
    # the error, whatever the lengths of the prompts before and after it
    split, _, run, bundle, _ = trained_pair()
    records = [split.test[0], with_features(split.test[1], 3), None, split.test[3], None,
               with_features(split.test[5], 1)]
    records[order[0]] = with_features(split.test[2], run.context - 9)      # fills it exactly
    records[order[1]] = with_features(split.test[4], run.context - 5)      # runs past it
    lengths = [len(build_prompt(bundle.vocab, r.user, r.item, r.rating, r.features))
               for r in records]
    assert len(set(lengths)) == 5 and sorted(lengths)[-2:] == [run.context, run.context + 4]
    first = min(order)
    with pytest.raises(ContextLimitError) as alone:
        bundle.explain([records[first]])
    with pytest.raises(ContextLimitError) as batch:
        bundle.explain(records)
    assert type(batch.value) is type(alone.value)
    assert str(batch.value) == str(alone.value) == (
        f"prompt of {lengths[first]} tokens fills context {run.context}; "
        "nothing can be generated")


@pytest.mark.parametrize("bound", [1, 24, 256])
def test_prefills_keep_to_the_row_bound_and_a_lone_chunk_is_the_lone_path(monkeypatch, bound):
    split, _, _, bundle, _ = trained_pair()
    records = split.test[:9] + [with_features(r, 2 * i) for i, r in enumerate(split.test[:4])]
    monkeypatch.setattr(training, "PREFILL_ROWS", bound)
    forward = bundle.lm.forward_rows
    for mode in ("greedy", "sample"):
        prefills = []

        def spy(tokens, gates, cache=None, rows=None):
            if cache is not None and cache.length == 0:
                prefills.append(np.shape(tokens))
            return forward(tokens, gates, cache, rows)

        bundle.lm.forward_rows = spy
        texts, gates, _ = bundle.explain(records, max_len=10, mode=mode, seed=3)
        del bundle.lm.forward_rows
        # every record is prefilled once, and a chunk longer than the bound is one prompt
        assert sum(batch for batch, _ in prefills) == len(records) and len(prefills) > 1
        assert all(batch * length <= bound or batch == 1 for batch, length in prefills)
        lone = [bundle.vocab.decode(*bundle.lm.generate(
            [build_prompt(bundle.vocab, r.user, r.item, r.rating, r.features)], [gate],
            max_len=10, mode=mode, seed=3, banned=bundle.vocab.prompt_only))
            for r, gate in zip(records, gates)]
        assert texts == lone


def test_rows_that_leave_a_lockstep_batch_leave_the_others_as_they_were():
    split, _, _, bundle, _ = trained_pair(clusters=3)
    lm = bundle.lm
    prompts = np.array([build_prompt(bundle.vocab, r.user, r.item, r.rating, ["staff", "wifi"])
                        for r in split.test[:3]])
    gates, kept = np.array([0, 2, 1]), np.array([0, 2])
    # a prefill, as generate's first step runs it: each prompt's last row
    length = prompts.shape[1]
    cache = KVCache(lm.config.blocks, 3, length + 7)
    logits = lm.forward_rows(prompts, gates, cache, rows=np.arange(1, 4) * length - 1).data
    before = cache.blocks
    cache.keep(kept)
    assert cache.batch == 2 and cache.length == prompts.shape[1]
    # per block, head-major keys (batch, heads, head_dim, positions) and
    # values (batch, heads, positions, head_dim), each a gather of the kept rows
    for (old_keys, old_values), (keys, values) in zip(before, cache.blocks):
        assert keys.shape[0] == values.shape[0] == 2
        assert keys.shape[1:] == old_keys.shape[1:] and values.shape[1:] == old_values.shape[1:]
        assert np.array_equal(keys[..., :cache.length], old_keys[kept, ..., :cache.length])
        assert np.array_equal(values[:, :, :cache.length], old_values[kept, :, :cache.length])
    # the kept rows decode on as the two prompts do without the row that left
    alone = KVCache(lm.config.blocks, 2, length + 7)
    alone_logits = lm.forward_rows(prompts[kept], gates[kept], alone,
                                   rows=np.arange(1, 3) * length - 1).data
    token = alone_logits.argmax(axis=1)[:, None]
    assert np.array_equal(logits[kept].argmax(axis=1)[:, None], token)
    step = lm.forward_rows(token, gates[kept], cache).data
    assert np.max(np.abs(step - lm.forward_rows(token, gates[kept], alone).data)) <= 1e-10


def test_explain_refuses_a_rating_above_the_scale():
    split, _, _, bundle, _ = trained_pair()
    high = InteractionRecord(split.test[0].user, split.test[0].item, 9.0, [], "")
    for records in ([high], [split.test[1], high]):
        with pytest.raises(DataError, match="R_MAX") as err:
            bundle.explain(records)
        assert err.value.exit_code == 2


@functools.cache
def demo_bundle(precision: str) -> tuple:
    """(split, stage-2 bundle) of the demo-scale model of the benchmark's
    explain workloads, trained in `precision`."""
    records, _ = generate_synthetic(SynthSpec(n_users=90, n_items=40,
                                              records_per_user=12, seed=7))
    run = RunConfig(seed=7, s2_epochs=2, precision=precision).validate()
    split = split_records(records, run.seed)
    vae, _ = train_stage1(split, vae_config_from(run, split), run.stage1())
    return split, train_stage2(split, vae, run, run.stage2())[0]


@pytest.mark.parametrize("precision", ["float32", "float64"])
def test_drafted_texts_equal_the_zero_draft_texts_on_the_demo_split(precision, monkeypatch):
    # each of the 108 test records alone, and all in one batch, whose last
    # running row drafts; alone, the draft table saves most forwards
    split, bundle = demo_bundle(precision)
    plain = dataclasses.replace(bundle, draft=None)
    forward, fed = LanguageModel.forward_rows, []

    def counted(self, tokens, *args, **kwargs):
        fed[-1] += 1
        return forward(self, tokens, *args, **kwargs)

    monkeypatch.setattr(LanguageModel, "forward_rows", counted)
    texts = []
    for b in (bundle, plain):
        fed.append(0)
        texts.append([b.generate_explanation(r) for r in split.test])
    monkeypatch.undo()
    assert len(split.test) == 108 and texts[0] == texts[1]
    assert bundle.explain(split.test)[0] == plain.explain(split.test)[0] == texts[0]
    assert 2 * fed[0] < fed[1], fed


def test_sampled_explanations_hold_only_word_tokens():
    """The demo-scale model of the benchmark's explain workloads: unmasked,
    its seeded samples pick up id tokens and markers; `explain` never does."""
    split, bundle = demo_bundle("float32")
    banned = set(bundle.vocab.prompt_only.tolist())
    texts, gates, _ = bundle.explain(split.test, mode="sample", seed=3)
    for text in texts:
        ids = [bundle.vocab.index[tok] for tok in text.split()]
        assert not banned & set(ids), text
    prompts = [build_prompt(bundle.vocab, r.user, r.item, r.rating, r.features)
               for r in split.test]
    unmasked = [bundle.lm.generate([prompt], [gate], mode="sample", seed=3)[0]
                for prompt, gate in zip(prompts, gates.tolist())]
    assert any(banned & set(out) for out in unmasked)


@pytest.mark.parametrize("max_len", [0, -3])
def test_explain_refuses_a_max_len_below_one(max_len):
    split, _, _, bundle, _ = trained_pair()
    with pytest.raises(ConfigError, match="max_len"):
        bundle.explain(split.test[:2], max_len=max_len)
    with pytest.raises(ConfigError, match="max_len"):
        bundle.generate_explanation(split.test[0], max_len=max_len)


def test_predict_norm_ratings_is_the_vae_rating_of_each_record():
    split, _, _, bundle, _ = trained_pair()
    predicted = bundle.predict_norm_ratings(split.test)
    expected = bundle.vae.predict_rating(split.user_ids(split.test), split.item_ids(split.test))
    assert predicted.shape == (len(split.test),)
    assert np.array_equal(predicted, expected)


def test_stage_config_validation():
    with pytest.raises(ConfigError):
        StageConfig(stage=3, epochs=1, batch_size=1, lr=0.1)
    with pytest.raises(ConfigError):
        StageConfig(stage=1, epochs=1, batch_size=1, lr=0.1, beta=1.5)


@pytest.mark.parametrize("field, value", [
    ("clip_norm", 0.0), ("clip_norm", math.nan), ("warmup_beta", 3.0),
    ("weight_decay", math.inf), ("joint_lr", math.inf), ("joint_lr", 0.0), ("joint_lr", -2.0),
    ("lr", 0.0), ("epochs", -1), ("warmup_epochs", -1), ("batch_size", 0),
    ("alpha", -0.1), ("epochs", 2.5), ("seed", True),
    ("precision", "float16"), ("precision", 32),
])
def test_stage_config_checks_every_field(field, value):
    with pytest.raises(ConfigError, match=field):
        StageConfig(**{"stage": 1, "epochs": 1, "batch_size": 1, "lr": 0.1, field: value})
    # the edges of each range pass
    StageConfig(stage=2, epochs=0, batch_size=1, lr=0.1, joint_lr=-1.0, clip_norm=1e-9,
                weight_decay=0.0, warmup_beta=1.0)


def test_checkpoint_tensor_name_contract():
    split, _, run, bundle, _ = trained_pair()
    names = set(bundle.params())
    required = {
        "vae.embeddings.user", "vae.embeddings.item",
        "vae.encoder.w1", "vae.encoder.b1", "vae.encoder.w2", "vae.encoder.b2",
        "vae.decoder.w1", "vae.decoder.b1", "vae.decoder.w2", "vae.decoder.b2",
        "vae.gmm.pi_logits", "vae.gmm.mu", "vae.gmm.log_var",
        "lm.embed", "lm.head",
        "lm.block0.attn.wq", "lm.block0.attn.wk", "lm.block0.attn.wv",
        "lm.block0.attn.wo",
        "lm.block0.moe.w1", "lm.block0.moe.b1", "lm.block0.moe.w2",
        "lm.block0.moe.b2", "lm.block0.router",
    }
    assert required <= names


def test_run_manifest_structure():
    _, _, _, _, manifest = trained_pair()
    assert manifest["stage"] == "stage2"
    assert "seed" in manifest and "config" in manifest
    assert all({"epoch", "loss", "occupancy"} <= set(row)
               for row in manifest["epochs"])


def test_explain_decodes_the_prompts_it_is_handed():
    # evaluate_model builds each prompt once and hands it over; a prompt
    # handed over is the one decoded, whatever its record
    split, _, _, bundle, _ = trained_pair()
    records = split.test[:6]
    prompts = bundle.prompts(records)
    texts = bundle.explain(records)[0]
    assert bundle.explain(records, prompts=prompts)[0] == texts
    swapped = bundle.explain(records[:1], prompts=prompts[3:4])[0]
    assert swapped == [bundle.vocab.decode(bundle.lm.generate(
        prompts[3:4], bundle.vae.gates(*bundle._rows(records[:1])),
        banned=bundle.vocab.prompt_only)[0])]


def test_prompt_text_rendering():
    split, _, run, bundle, _ = trained_pair()
    rec = split.test[0]
    text = bundle.prompt_text(bundle.prompts([rec])[0])
    assert text.startswith("<bos> U: u:") and text.endswith("EXP:")


# the planted-users-get-distinct-gates end-to-end check lives in the
# acceptance suite where the full-sized corpus makes it reliable
