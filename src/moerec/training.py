"""Two-stage training: preference learning, then explanation generation.

Stage 1 trains the variational preference model alone. It starts with a
warm-up phase under a single standard-normal prior component (the prior is
frozen there), fits the K-component mixture to the warmed-up latent means
(k-means++ seeding), then optimizes the full ELBO jointly, prior included.

Stage 2 adds the expert-routed language model. Every record's gate is its
hard cluster assignment along the deterministic mean path; the loss is

    alpha * elbo + (1 - alpha) * mean continuation NLL

and the preference model (mixture prior included, unless frozen) keeps
training because the ELBO term remains in the objective. The degenerate
mixing values are honored exactly: alpha=1 never touches the language
model, alpha=0 never touches the rating decoder.

The warm-up, the joint phase and stage 2 run through one loop, `_fit`,
which owns the optimisation policy. Each epoch shuffles the training
records with its own labeled substream and cuts them into micro-batches.
Each micro-batch runs on a fresh tape and backpropagates its loss divided
by the accumulation count. AdamW takes one clipped step per
`grad_accum_steps` micro-batches, plus one step for a shorter remainder
group at the end of the epoch. Every epoch adds a manifest row with the
mean micro-batch loss and the cluster occupancy of the training pairs.
With early stopping and a validation split, the row also carries the
validation loss, and training stops once it has failed to improve for
more than `patience` epochs.

Batch losses are means over records, so accumulating n equal micro-batches
is numerically the same step as one concatenated batch. Every source of
randomness derives from the stage seed through labeled substreams, which
makes whole runs bit-reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .checkpoint import load_checkpoint, restore_params, save_checkpoint
from .config import RunConfig, StageConfig, load_config
from .data import DatasetSplit, InteractionRecord, check_rating, index_ids, normalized_ratings
from .errors import ConfigError, ContextLimitError, DataError, TrainingError
from .moe import EOS, LanguageModel, LmConfig, Vocab, build_prompt, decompose_experts, tokenize
from .optim import AdamW
from .rng import Rng
from .tensor import Tape, Tensor, default_dtype
from .vae import GmmPrior, VaeConfig, VaeGmm, elbo_loss, init_gmm_prior


def _epoch_batches(n: int, batch_size: int, rng: Rng) -> List[np.ndarray]:
    order = np.array(rng.shuffle(list(range(n))), dtype=np.int64)
    return [order[start:start + batch_size] for start in range(0, n, batch_size)]


def vae_config_from(run: RunConfig, split: DatasetSplit) -> VaeConfig:
    return VaeConfig(n_users=split.n_users, n_items=split.n_items,
                     d_emb=run.d_emb, latent_dim=run.latent_dim,
                     hidden=run.enc_hidden, clusters=run.clusters,
                     r_max=run.r_max)


def lm_config_from(run: RunConfig, vocab_size: int) -> LmConfig:
    moe = decompose_experts(run.base_experts, run.base_hidden, run.factor,
                            active=run.active_experts, gates=run.clusters)
    return LmConfig(vocab_size=vocab_size, model_dim=run.model_dim,
                    blocks=run.blocks, heads=run.heads, context=run.context,
                    moe=moe, renormalize_topk=run.renormalize_topk)


def _fit(opt: AdamW, cfg: StageConfig, epochs: int, split: DatasetSplit,
         vae: VaeGmm, batches: Callable, eps_rng: Rng,
         shuffle: Callable[[int], Rng], valid_label: str = None,
         phase: str = None) -> List[dict]:
    """Train for up to `epochs` epochs; returns one manifest row per epoch.

    `batches(records, rng)` returns `batch(idx)`, which does the work that
    must stay off the tape and returns the closure computing the loss of
    the records at `idx`. `shuffle(epoch)` is the epoch's order stream.
    With `valid_label`, early stopping and a validation split, each epoch
    scores the whole validation split on the stream `valid_label.<epoch>`
    of the stage seed.
    """
    users, items = split.user_ids(split.train), split.item_ids(split.train)
    batch = batches(split.train, eps_rng)
    validate = valid_label is not None and cfg.early_stop and bool(split.valid)
    rows: List[dict] = []
    best_valid, stale = np.inf, 0
    for epoch in range(epochs):
        order = _epoch_batches(len(split.train), cfg.batch_size, shuffle(epoch))
        losses = []
        opt.zero_grad()
        for micro, idx in enumerate(order, start=1):
            compute = batch(idx)
            with Tape() as tape:
                loss = compute()
                tape.backward(loss * (1.0 / cfg.grad_accum_steps))
            losses.append(loss.item())
            if micro % cfg.grad_accum_steps == 0 or micro == len(order):
                opt.step(clip_norm=cfg.clip_norm)
                opt.zero_grad()
        row = {"phase": phase} if phase else {}
        row.update(epoch=epoch, loss=float(np.mean(losses)),
                   occupancy=np.bincount(vae.gates(users, items),
                                         minlength=vae.prior.clusters).tolist())
        rows.append(row)
        if not validate:
            continue
        valid = batches(split.valid, Rng(cfg.seed).substream(f"{valid_label}.{epoch}"))
        row["valid_loss"] = valid(np.arange(len(split.valid)))().item()
        if row["valid_loss"] < best_valid - 1e-9:
            best_valid, stale = row["valid_loss"], 0
        else:
            stale += 1
        if stale > cfg.patience:
            break
    return rows


def _manifest(stage: str, cfg: StageConfig, config: dict, rows: List[dict],
              started: float) -> dict:
    return {"stage": stage, "seed": cfg.seed, "config": vars(cfg) | config,
            "epochs": rows, "wall_seconds": round(time.time() - started, 3)}


def _elbo_batches(model: VaeGmm, beta: float, split: DatasetSplit, records,
                  rng: Rng) -> Callable:
    users, items = split.user_ids(records), split.item_ids(records)
    ratings = normalized_ratings(records, model.config.r_max)
    return lambda idx: partial(elbo_loss, model, users[idx], items[idx],
                               ratings[idx], beta, rng)


def train_stage1(split: DatasetSplit, vae_config: VaeConfig,
                 cfg: StageConfig) -> tuple:
    """Returns (trained VaeGmm, run manifest dict)."""
    if not split.train:
        raise DataError("stage 1 needs a non-empty training split")
    root = Rng(cfg.seed)
    model = VaeGmm(vae_config, root.substream("init.vae"))
    eps_rng = root.substream("stage1.eps")
    started = time.time()

    # warm-up: single standard-normal component, prior frozen. The KL weight
    # here is usually zero (pure reconstruction): it lets the posterior
    # variances shrink below the cluster separation before the mixture is
    # fitted, which is what makes the fit informative at this scale.
    warm_params = {k: v for k, v in model.params().items()
                   if not k.startswith("vae.gmm.")}
    rows = _fit(AdamW(warm_params, lr=cfg.lr, weight_decay=cfg.weight_decay),
                cfg, cfg.warmup_epochs, split, model,
                partial(_elbo_batches, model, cfg.warmup_beta, split), eps_rng,
                lambda epoch: root.substream(f"stage1.shuffle.warm{epoch}"),
                phase="warmup")

    mu_all, log_var_all = model.encode(split.user_ids(split.train),
                                       split.item_ids(split.train))
    point_vars = np.exp(np.clip(log_var_all.data, -10.0, 10.0))
    model.prior = init_gmm_prior(mu_all.data, vae_config.clusters,
                                 root.substream("init.gmm"),
                                 point_vars=point_vars)

    rows += _fit(AdamW(model.params(), lr=cfg.effective_joint_lr(),
                       weight_decay=cfg.weight_decay),
                 cfg, cfg.epochs, split, model,
                 partial(_elbo_batches, model, cfg.beta, split), eps_rng,
                 lambda epoch: root.substream(f"stage1.shuffle.{epoch}"),
                 valid_label="stage1.valid", phase="joint")
    return model, _manifest("stage1", cfg, {"latent_dim": vae_config.latent_dim,
                                            "clusters": vae_config.clusters},
                            rows, started)


def prepare_sequence(vocab: Vocab, record: InteractionRecord, r_max: float,
                     context: int) -> tuple:
    """(token array prompt+reference+<eos>, prompt length); the reference is
    truncated when the sequence would exceed the model context."""
    prompt = build_prompt(vocab, record.user, record.item, record.rating,
                          record.features, r_max)
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
    vocabulary, and the id maps that bind records to table rows."""

    vae: VaeGmm
    lm: Optional[LanguageModel]
    vocab: Optional[Vocab]
    user_index: Dict[str, int]
    item_index: Dict[str, int]
    r_max: float = 5.0

    @property
    def clusters(self) -> int:
        return self.vae.prior.clusters

    @property
    def gates_count(self) -> int:
        return self.lm.config.moe.gates

    def prompt_text(self, record: InteractionRecord) -> str:
        return self.vocab.decode(build_prompt(
            self.vocab, record.user, record.item, record.rating,
            record.features, self.r_max))

    def _rows(self, records: Sequence[InteractionRecord]) -> tuple:
        return (index_ids(self.user_index, [r.user for r in records]),
                index_ids(self.item_index, [r.item for r in records]))

    def explain(self, records: Sequence[InteractionRecord], max_len: int = 16,
                mode: str = "greedy", temperature: float = 1.0, seed: int = 0) -> tuple:
        """(texts, gates, responsibilities) for a batch of records.

        One encoder pass gates the whole batch: each record's gate is the
        largest of its (B, K) responsibilities along the deterministic mean
        path, ties to the lowest index. Each record then decodes alone
        after its prompt, sampled records on the stream of `seed`. Neither
        mode emits a token that only prompts hold (`Vocab.prompt_only`).
        """
        if max_len < 1:
            raise ConfigError(f"max_len must be at least 1, got {max_len}")
        prompts = [build_prompt(self.vocab, r.user, r.item,
                                check_rating(r.rating, f"record {r.user}/{r.item}"),
                                r.features, self.r_max) for r in records]
        gamma = self.vae.posteriors(*self._rows(records))
        gates = np.argmax(gamma, axis=1)
        texts = [self.vocab.decode(self.lm.generate(prompt, gate, max_len=max_len, mode=mode,
                                                    temperature=temperature, seed=seed,
                                                    banned=self.vocab.prompt_only))
                 for prompt, gate in zip(prompts, gates)]
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
    """Returns (ExplainerBundle, run manifest dict)."""
    run.validate()
    if not split.train:
        raise DataError("stage 2 needs a non-empty training split")
    root = Rng(cfg.seed).substream("stage2")
    vocab = Vocab.build(split.train, list(split.user_index), list(split.item_index),
                        r_max=run.r_max)
    lm = LanguageModel(lm_config_from(run, len(vocab)), root.substream("init.lm"))
    bundle = ExplainerBundle(vae=vae, lm=lm, vocab=vocab,
                             user_index=split.user_index,
                             item_index=split.item_index, r_max=run.r_max)
    params = bundle.params()
    if cfg.freeze_gmm:
        params = {k: v for k, v in params.items() if not k.startswith("vae.gmm.")}
    opt = AdamW(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    started = time.time()
    rows = _fit(opt, cfg, cfg.epochs, split, vae,
                partial(_explainer_batches, bundle, run, cfg, split),
                root.substream("eps"), lambda epoch: root.substream(f"shuffle.{epoch}"),
                valid_label="stage2.valid")
    return bundle, _manifest("stage2", cfg, {"clusters": run.clusters}, rows, started)


def _explainer_batches(bundle: ExplainerBundle, run: RunConfig, cfg: StageConfig,
                       split: DatasetSplit, records, rng: Rng) -> Callable:
    users, items = split.user_ids(records), split.item_ids(records)
    ratings = normalized_ratings(records, run.r_max)
    prepared = [prepare_sequence(bundle.vocab, rec, run.r_max, run.context)
                for rec in records]

    def batch(idx):
        # the gates come from the encoder, which must not record on the tape
        gates = bundle.vae.gates(users[idx], items[idx])
        return partial(_stage2_loss, bundle, users[idx], items[idx], ratings[idx],
                       [prepared[i] for i in idx], gates, cfg, rng)
    return batch


def _stage2_loss(bundle: ExplainerBundle, users, items, ratings, prepared,
                 gates, cfg: StageConfig, eps_rng: Rng,
                 eps_override=None, gamma_override=None) -> Tensor:
    if cfg.alpha == 1.0:
        return elbo_loss(bundle.vae, users, items, ratings, cfg.beta, eps_rng,
                         eps_override=eps_override, gamma_override=gamma_override)
    sequences = [seq for seq, _ in prepared]
    prompt_lens = [plen for _, plen in prepared]
    nll = bundle.lm.batched_nll(sequences, prompt_lens, gates)
    if cfg.alpha == 0.0:
        return nll
    elbo = elbo_loss(bundle.vae, users, items, ratings, cfg.beta, eps_rng,
                     eps_override=eps_override, gamma_override=gamma_override)
    return elbo * cfg.alpha + nll * (1.0 - cfg.alpha)


# --- persistence glue ---

def save_bundle(path, bundle: ExplainerBundle, run: RunConfig, manifest: dict,
                f64: bool = False) -> None:
    """Write `bundle` as one checkpoint: a stage-2 one whose manifest holds
    the vocabulary, or a stage-1 one when the bundle has no language model."""
    # run manifests (which carry wall-clock times) live in the sidecar
    # manifest file, never in the checkpoint: checkpoint bytes must be a
    # pure function of config, seed, and data
    extra = {"users": sorted(bundle.user_index), "items": sorted(bundle.item_index)}
    if bundle.lm is not None:
        extra["vocab"] = bundle.vocab.tokens
    save_checkpoint(path, bundle.params(), config=run.to_dict(), seed=run.seed,
                    stage="stage1" if bundle.lm is None else "stage2", extra=extra, f64=f64)


def save_stage1(path, vae: VaeGmm, run: RunConfig, manifest: dict,
                user_index: Dict[str, int], item_index: Dict[str, int],
                f64: bool = False) -> None:
    save_bundle(path, ExplainerBundle(vae, None, None, user_index, item_index, run.r_max),
                run, manifest, f64)


class _Unset(np.ndarray):
    """Zeros that take no memory: a read-only array whose strides are all 0.
    Any ufunc over one (a weight scaled at initialisation) gives another."""

    def __new__(cls, shape):
        return super().__new__(cls, shape, default_dtype(), bytes(8), strides=(0,) * len(shape))

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        return _Unset(np.broadcast_shapes(*map(np.shape, inputs)))


class _ZeroRng(Rng):
    """Draws zeros that take no memory, for building models whose every
    weight a checkpoint then replaces: no draws, no weight allocations."""

    def __init__(self):
        super().__init__(0)

    def substream(self, label: str) -> "Rng":
        return self

    def normal(self, n: int) -> np.ndarray:
        return _Unset((n,))


def _load(path, stage: str) -> tuple:
    """(ExplainerBundle, run config, manifest) rebuilt from a `stage`
    checkpoint; a stage-1 bundle has no language model and no vocabulary."""
    manifest, arrays = load_checkpoint(path)
    try:
        if manifest["stage"] != stage:
            raise TrainingError(f"expected a {stage} checkpoint, found {manifest['stage']!r}")
        config, extra = manifest["config"], manifest["extra"]
        names = ("users", "items", "vocab") if stage == "stage2" else ("users", "items")
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
    vae = VaeGmm(vae_config_from(run, DatasetSplit([], [], [], user_index, item_index)),
                 _ZeroRng())
    vae.prior = GmmPrior.standard_normal(run.clusters, run.latent_dim)
    params = vae.params()
    lm = vocab = None
    if stage == "stage2":
        try:
            vocab = Vocab(lists["vocab"])
        except ConfigError as err:
            raise DataError(f"checkpoint manifest field extra.vocab: {err}") from None
        lm = LanguageModel(lm_config_from(run, len(vocab)), _ZeroRng())
        params |= lm.params()
    restore_params(params, arrays)
    bundle = ExplainerBundle(vae=vae, lm=lm, vocab=vocab, user_index=user_index,
                             item_index=item_index, r_max=run.r_max)
    return bundle, run, manifest


def load_stage1(path) -> tuple:
    """Returns (vae, run config, manifest, user_index, item_index)."""
    bundle, run, manifest = _load(path, "stage1")
    return bundle.vae, run, manifest, bundle.user_index, bundle.item_index


def load_bundle(path) -> tuple:
    """Returns (ExplainerBundle, run config, manifest)."""
    return _load(path, "stage2")
