"""Clustered variational preference modeling with expert-routed explanations.

A numpy-backed library: a small reverse-mode autodiff engine, a variational
encoder with a Gaussian-mixture latent prior for user-item preference
clustering, a decoder-only transformer whose feed-forward layers are
cluster-gated mixtures of experts, a two-stage trainer, text-generation
metrics, and a reproducible synthetic corpus generator.
"""

from .errors import (
    ConfigError,
    ContextLimitError,
    DataError,
    MetricError,
    MoerecError,
    NumericError,
    ShapeError,
    TableLookupError,
    TapeError,
    TrainingError,
    VerificationError,
)
from .gradcheck import grad_check
from .rng import Rng
from .tensor import Tape, Tensor, backward, set_default_dtype, zero_grad
from .config import RunConfig, StageConfig, load_config
from .data import (
    DatasetSplit,
    InteractionRecord,
    SynthSpec,
    generate_synthetic,
    load_records,
    save_records,
    sparsity_buckets,
    split_records,
)
from .vae import (
    GmmPrior,
    LatentSample,
    VaeConfig,
    VaeGmm,
    elbo_loss,
    init_gmm_prior,
    log_normal_diag,
    reparameterize,
)
from .moe import (
    ExpertBank,
    GateRouter,
    KVCache,
    LanguageModel,
    LmConfig,
    MoeLayerConfig,
    Vocab,
    build_prompt,
    decompose_experts,
    tokenize,
    top_k_select,
)
from .optim import AdamW, clip_grad_norm
from .training import (
    ExplainerBundle,
    load_bundle,
    load_stage1,
    save_bundle,
    save_stage1,
    train_stage1,
    train_stage2,
)
from .metrics import (
    MetricReport,
    adjusted_rand_index,
    bleu_n,
    corpus_bleu,
    distinct_n,
    evaluate_model,
    rmse,
    rouge_scores,
)
from .checkpoint import load_checkpoint, save_checkpoint

__version__ = "0.1.0"
