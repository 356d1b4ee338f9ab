"""Two-stage training: preference learning, then explanation generation.

Stage 1 trains the variational preference model alone. It starts with a
warm-up phase under a single standard-normal prior component (the prior is
frozen there), fits the K-component mixture to the warmed-up latent means
(k-means++ seeding), then optimizes the full ELBO jointly, prior included.

Stage 2 adds the expert-routed language model. Every record's gate is its
hard cluster assignment along the deterministic mean path, which each step
reads off its own taped encode, the one its ELBO term uses; the loss is

    alpha * elbo + (1 - alpha) * mean continuation NLL

and the preference model (mixture prior included) keeps training because
the ELBO term remains in the objective. The degenerate mixing values are
honored exactly: alpha=1 never touches the language model, alpha=0 never
touches the rating decoder.

The warm-up, the joint phase and stage 2 run through one loop, `_fit`,
which owns the optimisation policy; each caller maps its training records
once and hands the loop the loss of the pairs at given positions. Each
epoch shuffles the training records with its own labeled substream and
cuts them into micro-batches. Each micro-batch runs on a fresh tape,
backpropagates its loss and takes one clipped AdamW step. Every epoch adds
a manifest row with the mean micro-batch loss and the cluster occupancy of
the training pairs. Every source of randomness derives from the stage seed
through labeled substreams, which makes whole runs bit-reproducible.
"""

from __future__ import annotations

import contextlib
import ctypes
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .checkpoint import load_checkpoint, restore_params, save_checkpoint
from .config import RunConfig, StageConfig, load_config
from .data import DatasetSplit, InteractionRecord, check_rating, index_ids, normalized_ratings
from .errors import ConfigError, ContextLimitError, DataError, TrainingError
from .moe import (EOS, DraftTable, LanguageModel, LmConfig, Vocab, build_prompt,
                  decompose_experts, tokenize)
from .optim import AdamW
from .rng import Rng
from .tensor import Tape, Tensor, default_dtype, set_default_dtype, weighted_means
from .vae import (LOG_VAR_MAX, LOG_VAR_MIN, VaeConfig, VaeGmm, elbo_loss,
                  gmm_posterior_batch, init_gmm_prior)


def _epoch_batches(n: int, batch_size: int, rng: Rng) -> List[np.ndarray]:
    order = np.array(rng.shuffle(list(range(n))), dtype=np.int64)
    return [order[start:start + batch_size] for start in range(0, n, batch_size)]


def vae_config_from(run: RunConfig, split: DatasetSplit) -> VaeConfig:
    return VaeConfig(n_users=split.n_users, n_items=split.n_items,
                     d_emb=run.d_emb, latent_dim=run.latent_dim,
                     hidden=run.enc_hidden, clusters=run.clusters)


def lm_config_from(run: RunConfig, vocab_size: int) -> LmConfig:
    moe = decompose_experts(run.base_experts, run.base_hidden, run.factor,
                            active=run.active_experts, gates=run.clusters)
    return LmConfig(vocab_size=vocab_size, model_dim=run.model_dim,
                    blocks=run.blocks, heads=run.heads, context=run.context,
                    moe=moe)


try:                                                 # mallopt(3) is glibc's
    _MALLOPT = ctypes.CDLL(None).mallopt
except (AttributeError, OSError, TypeError):
    _MALLOPT = None


@contextlib.contextmanager
def _training(precision: str):
    """Train in `precision`, with a heap that keeps what a step frees mapped for
    the next step; the caller's dtype and heap pad are restored on exit."""
    caller = default_dtype().name
    set_default_dtype(precision)
    if _MALLOPT is not None:       # M_TOP_PAD: the free memory kept at the heap's top
        _MALLOPT(-2, 64 << 20)
    try:
        yield np.dtype(precision)
    finally:
        if _MALLOPT is not None:
            _MALLOPT(-2, 128 << 10)                  # mallopt(3)'s default
        set_default_dtype(caller)


def _fit(opt: AdamW, cfg: StageConfig, epochs: int, vae: VaeGmm, users: np.ndarray,
         items: np.ndarray, loss: Callable, shuffle: Callable[[int], Rng],
         phase: str = None) -> List[dict]:
    """Train for `epochs` epochs on the training pairs (`users`, `items`);
    returns one manifest row per epoch. `loss(idx)` tapes the loss of the
    pairs at `idx`; `shuffle(epoch)` is the epoch's order stream."""
    rows: List[dict] = []
    opt.zero_grad()
    for epoch in range(epochs):
        losses = []
        for idx in _epoch_batches(len(users), cfg.batch_size, shuffle(epoch)):
            with Tape() as tape:
                value = loss(idx)
                tape.backward(value)
            losses.append(value.item())
            opt.step(clip_norm=cfg.clip_norm)
            opt.zero_grad()
        row = {"phase": phase} if phase else {}
        row.update(epoch=epoch, loss=float(np.mean(losses)),
                   occupancy=np.bincount(vae.gates(users, items),
                                         minlength=vae.prior.clusters).tolist())
        rows.append(row)
    return rows


def _manifest(stage: str, cfg: StageConfig, config: dict, rows: List[dict],
              started: float) -> dict:
    return {"stage": stage, "seed": cfg.seed, "config": vars(cfg) | config,
            "epochs": rows, "wall_seconds": round(time.time() - started, 3)}


def train_stage1(split: DatasetSplit, vae_config: VaeConfig,
                 cfg: StageConfig) -> tuple:
    """Returns (VaeGmm trained in ``cfg.precision``, run manifest dict)."""
    if not split.train:
        raise DataError("stage 1 needs a non-empty training split")
    with _training(cfg.precision):
        root = Rng(cfg.seed)
        model = VaeGmm(vae_config, root.substream("init.vae"))
        eps_rng = root.substream("stage1.eps")
        started = time.time()
        users, items = split.user_ids(split.train), split.item_ids(split.train)
        ratings = normalized_ratings(split.train)

        def elbo(beta: float) -> Callable:
            return lambda idx: elbo_loss(model, users[idx], items[idx], ratings[idx], beta,
                                         eps_rng)

        # warm-up: single standard-normal component, prior frozen. The KL weight
        # here is usually zero (pure reconstruction): it lets the posterior
        # variances shrink below the cluster separation before the mixture is
        # fitted, which is what makes the fit informative at this scale.
        warm_params = {k: v for k, v in model.params().items()
                       if not k.startswith("vae.gmm.")}
        rows = _fit(AdamW(warm_params, lr=cfg.lr, weight_decay=cfg.weight_decay),
                    cfg, cfg.warmup_epochs, model, users, items, elbo(cfg.warmup_beta),
                    lambda epoch: root.substream(f"stage1.shuffle.warm{epoch}"),
                    phase="warmup")

        mu_all, log_var_all = model.encode(users, items)
        point_vars = np.exp(np.clip(log_var_all.data, LOG_VAR_MIN, LOG_VAR_MAX))
        model.prior = init_gmm_prior(mu_all.data, vae_config.clusters,
                                     root.substream("init.gmm"),
                                     point_vars=point_vars)

        rows += _fit(AdamW(model.params(), lr=cfg.effective_joint_lr(),
                           weight_decay=cfg.weight_decay),
                     cfg, cfg.epochs, model, users, items, elbo(cfg.beta),
                     lambda epoch: root.substream(f"stage1.shuffle.{epoch}"), phase="joint")
    return model, _manifest("stage1", cfg, {"latent_dim": vae_config.latent_dim,
                                            "clusters": vae_config.clusters},
                            rows, started)


PREFILL_ROWS = 256        # prompt tokens in one batched prefill of `ExplainerBundle.explain`


def prepare_sequence(vocab: Vocab, record: InteractionRecord, context: int) -> tuple:
    """(token array prompt+reference+<eos>, prompt length); the reference is
    truncated when the sequence would exceed the model context."""
    prompt = build_prompt(vocab, record.user, record.item, record.rating, record.features)
    if len(prompt) + 2 > context:
        raise ContextLimitError(
            f"prompt of {len(prompt)} tokens leaves no room in context {context}")
    reference = [vocab.encode(w) for w in tokenize(record.explanation)]
    room = context - len(prompt) - 1
    reference = reference[:room]
    if not reference:
        raise DataError(f"record {record.user}/{record.item} has no explanation tokens")
    seq = np.array(prompt + reference + [EOS], dtype=np.int64)
    return seq, len(prompt)


@dataclass
class ExplainerBundle:
    """Everything needed to explain: preference model, language model,
    vocabulary, the id maps that bind records to table rows, and the
    language model's draft table, if it has one."""

    vae: VaeGmm
    lm: Optional[LanguageModel]
    vocab: Optional[Vocab]
    user_index: Dict[str, int]
    item_index: Dict[str, int]
    draft: Optional[DraftTable] = None

    @property
    def clusters(self) -> int:
        return self.vae.prior.clusters

    @property
    def gates_count(self) -> int:
        return self.lm.config.moe.gates

    def prompts(self, records: Sequence[InteractionRecord]) -> List[List[int]]:
        """Each record's prompt ids (:func:`~moerec.moe.build_prompt`);
        DataError for a rating that is not a finite number in (0, R_MAX]."""
        return [build_prompt(self.vocab, r.user, r.item,
                             check_rating(r.rating, f"record {r.user}/{r.item}"), r.features)
                for r in records]

    def prompt_text(self, prompt: Sequence[int]) -> str:
        return self.vocab.decode(prompt)

    def _rows(self, records: Sequence[InteractionRecord]) -> tuple:
        return (index_ids(self.user_index, [r.user for r in records]),
                index_ids(self.item_index, [r.item for r in records]))

    def explain(self, records: Sequence[InteractionRecord], max_len: int = 16,
                mode: str = "greedy", temperature: float = 1.0, seed: int = 0,
                prompts: Optional[List[List[int]]] = None) -> tuple:
        """(texts, gates, responsibilities) for a batch of records, whose
        :meth:`prompts` a caller that has them hands over as `prompts`.

        One encoder pass gates the whole batch: each record's gate is the
        largest of its (B, K) responsibilities along the deterministic mean
        path, ties to the lowest index. Records whose prompts have one
        length are decoded together, in lockstep
        (:meth:`LanguageModel.generate`), in input order and in chunks of at
        most ``PREFILL_ROWS`` prompt tokens (one prompt, if it is longer);
        each sampled record draws from its own stream of `seed`, so its
        text does not depend on its chunk. Neither mode emits a token that
        only prompts hold (`Vocab.prompt_only`).
        """
        if max_len < 1:
            raise ConfigError(f"max_len must be at least 1, got {max_len}")
        if prompts is None:
            prompts = self.prompts(records)
        gamma = self.vae.posteriors(*self._rows(records))
        gates = np.argmax(gamma, axis=1)
        by_length: Dict[int, List[int]] = {}
        for i, prompt in enumerate(prompts):
            by_length.setdefault(len(prompt), []).append(i)
        texts = [""] * len(records)
        for length, group in by_length.items():
            size = max(PREFILL_ROWS // length, 1)
            for at in range(0, len(group), size):
                chunk = group[at:at + size]
                outs = self.lm.generate([prompts[i] for i in chunk], gates[chunk],
                                        max_len=max_len, mode=mode, temperature=temperature,
                                        seed=seed, banned=self.vocab.prompt_only,
                                        draft=self.draft)
                for i, out in zip(chunk, outs):
                    texts[i] = self.vocab.decode(out)
        return texts, gates, gamma

    def generate_explanation(self, record: InteractionRecord, max_len: int = 16,
                             mode: str = "greedy", temperature: float = 1.0,
                             seed: int = 0) -> str:
        return self.explain([record], max_len, mode, temperature, seed)[0][0]

    def predict_norm_ratings(self, records: Sequence[InteractionRecord]) -> np.ndarray:
        """Normalized rating predictions along the mean path, one per record."""
        return self.vae.predict_rating(*self._rows(records))

    def params(self) -> dict:
        return {**self.vae.params(), **(self.lm.params() if self.lm is not None else {})}


def train_stage2(split: DatasetSplit, vae: VaeGmm, run: RunConfig,
                 cfg: StageConfig) -> tuple:
    """Returns (ExplainerBundle trained in ``cfg.precision``, run manifest
    dict). A stage-1 model of another dtype is cast to it in place first."""
    run.validate()
    if not split.train:
        raise DataError("stage 2 needs a non-empty training split")
    with _training(cfg.precision) as dtype:
        try:
            with np.errstate(over="raise"):
                for tensor in vae.params().values():
                    tensor.data = tensor.data.astype(dtype, copy=False)
        except FloatingPointError:
            raise DataError(f"the stage-1 model holds values beyond {dtype}'s range") from None
        root = Rng(cfg.seed).substream("stage2")
        vocab = Vocab.build(split.train, list(split.user_index), list(split.item_index))
        lm = LanguageModel(lm_config_from(run, len(vocab)), root.substream("init.lm"))
        bundle = ExplainerBundle(vae=vae, lm=lm, vocab=vocab,
                                 user_index=split.user_index,
                                 item_index=split.item_index)
        opt = AdamW(bundle.params(), lr=cfg.lr, weight_decay=cfg.weight_decay)
        started = time.time()
        users, items = split.user_ids(split.train), split.item_ids(split.train)
        ratings = normalized_ratings(split.train)
        prepared = [prepare_sequence(vocab, rec, run.context) for rec in split.train]
        bundle.draft = DraftTable.build(prepared)
        loss = _explainer_loss(bundle, cfg, users, items, ratings, prepared, root.substream("eps"))
        del prepared           # the loss keeps them packed; the list is 1.6 MB at default scale
        rows = _fit(opt, cfg, cfg.epochs, vae, users, items, loss,
                    lambda epoch: root.substream(f"shuffle.{epoch}"))
    return bundle, _manifest("stage2", cfg, {"clusters": run.clusters}, rows, started)


def _explainer_loss(bundle: ExplainerBundle, cfg: StageConfig, users, items, ratings,
                    prepared, rng: Rng) -> Callable:
    """`_fit`'s loss (:func:`_stage2_loss`) of the training pairs at `idx`,
    whose ids, normalized ratings and prepared (sequence, prompt length)
    pairs are `users`, `items`, `ratings` and `prepared`."""
    sequences, prompt_lens = zip(*prepared)
    # one packed int32 token buffer, record i at tokens[bounds[i]:bounds[i + 1]]
    tokens = np.concatenate(sequences).astype(np.int32)
    bounds = np.cumsum([0, *map(len, sequences)])
    return lambda idx: _stage2_loss(
        bundle, users[idx], items[idx], ratings[idx],
        [(tokens[bounds[i]:bounds[i + 1]], prompt_lens[i]) for i in idx], cfg, rng)


def _stage2_loss(bundle: ExplainerBundle, users, items, ratings, prepared,
                 cfg: StageConfig, eps_rng: Rng, gamma_override=None) -> Tensor:
    """``alpha * elbo + (1 - alpha) * nll`` of one micro-batch of `prepared`
    (sequence, prompt length) pairs. Below ``alpha == 1``, one taped encode
    of the pairs gives each record its gate, the argmax of mu's
    responsibilities, which is the gate :meth:`VaeGmm.gates` gives, also
    above its chunk bound; the ELBO, if any, reuses the encode. The encoder
    and the language model share no parameter, so every gradient is the one
    a separate untaped encode for the gates gave."""
    vae = bundle.vae
    if cfg.alpha == 1.0:
        return elbo_loss(vae, users, items, ratings, cfg.beta, eps_rng,
                         gamma_override=gamma_override)
    sequences = [seq for seq, _ in prepared]
    prompt_lens = [plen for _, plen in prepared]
    encoded = vae.encode(users, items)
    gates = np.argmax(gmm_posterior_batch(vae.prior, encoded[0].data), axis=1)
    if cfg.alpha == 0.0:
        return bundle.lm.batched_nll(sequences, prompt_lens, gates)
    elbo = elbo_loss(vae, users, items, ratings, cfg.beta, eps_rng,
                     gamma_override=gamma_override, encoded=encoded)
    nll = bundle.lm.batched_nll(sequences, prompt_lens, gates)
    return weighted_means((elbo, nll), (cfg.alpha, 1.0 - cfg.alpha))


# --- persistence glue ---

def save_bundle(path, bundle: ExplainerBundle, run: RunConfig, manifest: dict) -> None:
    """Write `bundle` as one checkpoint: a stage-2 one whose manifest holds
    the vocabulary, or a stage-1 one when the bundle has no language model.
    Its payload is float64 when ``run.precision`` is, float32 otherwise.
    `manifest` is unused: the run manifest, with its wall-clock times, goes
    to the sidecar file, so checkpoint bytes depend only on config, seed and data."""
    extra = {"users": sorted(bundle.user_index), "items": sorted(bundle.item_index)}
    if bundle.lm is not None:
        extra["vocab"] = bundle.vocab.tokens
    if bundle.draft is not None:
        extra["draft"] = bundle.draft.to_list()
    save_checkpoint(path, bundle.params(), config=run.to_dict(), seed=run.seed,
                    stage="stage1" if bundle.lm is None else "stage2", extra=extra,
                    f64=run.precision == "float64")


def load_bundle(path, stage: Optional[str] = "stage2") -> tuple:
    """(ExplainerBundle, run config, manifest) rebuilt from a checkpoint of
    `stage`, or of either stage when `stage` is None. The file's own tag
    decides what is read: a stage-1 bundle has no language model and no
    vocabulary. The models are built with no weights (stand-ins, see
    :func:`~moerec.tensor._parameter`) and adopt the checkpoint's arrays in
    `restore_params`: each parameter keeps its payload's dtype, the run's
    `precision`, so a loaded model computes what the trained one did. A
    stage-2 manifest's ``extra.draft``, if it has one, is the language
    model's :class:`~moerec.moe.DraftTable`; a malformed one is a DataError."""
    manifest, arrays = load_checkpoint(path)
    try:
        found = manifest["stage"]
        if found not in ("stage1", "stage2") or stage not in (None, found):
            raise TrainingError(f"expected a {stage or 'stage1 or stage2'} checkpoint, "
                                f"found {found!r}")
        config, extra = manifest["config"], manifest["extra"]
        names = ("users", "items", "vocab") if found == "stage2" else ("users", "items")
        lists = {field: extra[field] for field in names}
    except (KeyError, TypeError) as err:
        raise DataError(f"checkpoint manifest is malformed: {err!r}") from None
    for field, value in lists.items():
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise DataError(f"checkpoint manifest field extra.{field} must be a list "
                            f"of strings")
        if field != "vocab" and any(a >= b for a, b in zip(value, value[1:])):
            raise DataError(f"checkpoint manifest field extra.{field} must be strictly "
                            f"increasing")
    if not isinstance(config, dict):
        raise ConfigError(f"checkpoint config is not an object: {config!r}")
    run = load_config(overrides=config)
    user_index, item_index = ({key: i for i, key in enumerate(lists[field])}
                              for field in ("users", "items"))
    vae = VaeGmm(vae_config_from(run, DatasetSplit([], [], [], user_index, item_index)), None)
    params = vae.params()
    lm = vocab = draft = None
    if found == "stage2":
        try:
            vocab = Vocab(lists["vocab"])
        except ConfigError as err:
            raise DataError(f"checkpoint manifest field extra.vocab: {err}") from None
        if "draft" in extra:
            draft = DraftTable.from_list(extra["draft"], len(vocab), run.context)
        lm = LanguageModel(lm_config_from(run, len(vocab)), None)
        params |= lm.params()
    restore_params(params, arrays)
    bundle = ExplainerBundle(vae=vae, lm=lm, vocab=vocab, user_index=user_index,
                             item_index=item_index, draft=draft)
    return bundle, run, manifest
