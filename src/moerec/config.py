"""Run configuration: file format, defaults, presets, validation.

Config files are plain ``key = value`` text; values are parsed as JSON
scalars where possible (so booleans and numbers work naturally) and fall
back to bare strings. Any key can be overridden from the command line as
``--key value``. One root seed drives every labeled randomness substream.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, fields

from .errors import ConfigError


@dataclass
class StageConfig:
    """Optimization settings for one training stage."""

    stage: int
    epochs: int
    batch_size: int
    lr: float
    beta: float = 0.1
    alpha: float = 0.1
    grad_accum_steps: int = 1
    clip_norm: float = 0.3
    seed: int = 0
    freeze_gmm: bool = False
    warmup_epochs: int = 1
    warmup_beta: float = 0.0
    joint_lr: float = -1.0     # -1 means: same as lr
    weight_decay: float = 0.0
    early_stop: bool = False
    patience: int = 3

    def effective_joint_lr(self) -> float:
        return self.lr if self.joint_lr <= 0 else self.joint_lr

    def __post_init__(self):
        if self.stage not in (1, 2):
            raise ConfigError(f"stage must be 1 or 2, got {self.stage}")
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta must be in [0, 1], got {self.beta}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.grad_accum_steps < 1 or self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("epochs, batch size and accumulation must be positive")


# RunConfig field types as annotated, and the fields that count something
_FIELD_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}
_AT_LEAST_ONE = ("d_emb", "latent_dim", "clusters", "enc_hidden", "model_dim", "blocks",
                 "heads", "context", "base_experts", "base_hidden", "factor",
                 "active_experts", "s1_batch", "s1_grad_accum", "s2_batch", "s2_grad_accum")


@dataclass
class RunConfig:
    """Everything a run needs: model shape, both stages, and the root seed."""

    seed: int = 0
    precision: str = "float64"
    # model shape
    d_emb: int = 32
    latent_dim: int = 8
    clusters: int = 3
    gates: int = -1              # -1 means: same as clusters
    enc_hidden: int = 64
    encoder_attention: bool = False  # retired; kept so stored configs load, must be false
    model_dim: int = 64
    blocks: int = 2
    heads: int = 2
    context: int = 64
    base_experts: int = 6
    base_hidden: int = 128
    factor: int = 2
    active_experts: int = 2
    renormalize_topk: bool = False
    r_max: float = 5.0
    # stage 1 (warmup lr is s1_lr; the joint phase runs slower so the
    # freshly fitted mixture structure is refined rather than eroded)
    s1_epochs: int = 25
    s1_warmup_epochs: int = 5
    s1_warmup_beta: float = 0.0
    s1_batch: int = 64
    s1_lr: float = 3e-3
    s1_joint_lr: float = 1e-3
    beta: float = 0.1
    s1_grad_accum: int = 1
    s1_clip: float = 0.3
    # stage 2
    s2_epochs: int = 3
    s2_batch: int = 16
    s2_lr: float = 1.5e-3
    alpha: float = 0.1
    s2_grad_accum: int = 1
    s2_clip: float = 0.3
    freeze_gmm: bool = False
    weight_decay: float = 0.0
    early_stop: bool = False
    patience: int = 3

    def validate(self) -> "RunConfig":
        """Check every field's type and range, raising ConfigError (exit 1)
        that names the field; ``gates = -1`` becomes the cluster count."""
        for f in fields(self):
            value = getattr(self, f.name)
            if (isinstance(value, bool) != (f.type == "bool")
                    or not isinstance(value, _FIELD_TYPES[f.type])):
                raise ConfigError(f"field {f.name!r} expects {f.type}, got {value!r}")
        if self.gates == -1:
            self.gates = self.clusters
        for name in _AT_LEAST_ONE:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        for name in ("s1_epochs", "s1_warmup_epochs", "s2_epochs", "patience"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative, got {getattr(self, name)}")
        for name in ("r_max", "s1_lr", "s2_lr", "s1_clip", "s2_clip"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite, "
                                  f"got {getattr(self, name)}")
        if self.s1_joint_lr != -1 and not 0.0 < self.s1_joint_lr < math.inf:
            raise ConfigError(f"s1_joint_lr must be -1 (same as s1_lr) or positive and "
                              f"finite, got {self.s1_joint_lr}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be nonnegative and finite, "
                              f"got {self.weight_decay}")
        for name in ("alpha", "beta", "s1_warmup_beta"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        if self.gates != self.clusters:
            raise ConfigError(
                f"gates ({self.gates}) must equal clusters ({self.clusters})")
        if self.precision not in ("float64", "float32"):
            raise ConfigError(f"precision must be float64 or float32, got {self.precision!r}")
        if self.model_dim % self.heads != 0:
            raise ConfigError(f"heads {self.heads} must divide model_dim {self.model_dim}")
        if self.base_hidden % self.factor != 0:
            raise ConfigError(
                f"factor {self.factor} does not divide base hidden width {self.base_hidden}")
        if self.active_experts > self.base_experts * self.factor:
            raise ConfigError(f"active_experts {self.active_experts} exceeds the "
                              f"{self.base_experts * self.factor} experts")
        if self.encoder_attention:
            raise ConfigError("encoder_attention is no longer supported; set it to false")
        return self

    def stage1(self) -> StageConfig:
        return StageConfig(stage=1, epochs=self.s1_epochs, batch_size=self.s1_batch,
                           lr=self.s1_lr, beta=self.beta, alpha=self.alpha,
                           grad_accum_steps=self.s1_grad_accum, clip_norm=self.s1_clip,
                           seed=self.seed, warmup_epochs=self.s1_warmup_epochs,
                           warmup_beta=self.s1_warmup_beta, joint_lr=self.s1_joint_lr,
                           weight_decay=self.weight_decay, early_stop=self.early_stop,
                           patience=self.patience)

    def stage2(self) -> StageConfig:
        return StageConfig(stage=2, epochs=self.s2_epochs, batch_size=self.s2_batch,
                           lr=self.s2_lr, beta=self.beta, alpha=self.alpha,
                           grad_accum_steps=self.s2_grad_accum, clip_norm=self.s2_clip,
                           seed=self.seed, freeze_gmm=self.freeze_gmm,
                           weight_decay=self.weight_decay, early_stop=self.early_stop,
                           patience=self.patience)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def reference_scale_config() -> RunConfig:
    """The full-scale settings recorded in run manifests for provenance;
    far beyond desk-scale training budgets."""
    return RunConfig(
        d_emb=768, latent_dim=128, model_dim=4096, blocks=32,
        base_experts=6, base_hidden=4096, factor=2, active_experts=2,
        s1_epochs=30, s1_batch=4096, s1_lr=1e-5, s1_joint_lr=-1.0, beta=0.1,
        s2_epochs=3, s2_batch=1, s2_lr=3e-5, alpha=0.1,
        s2_grad_accum=8, s2_clip=0.3, s1_clip=0.3,
    )


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _coerce(name: str, value, target_type) -> object:
    if target_type is bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value.lower() in ("true", "false"):
            return value.lower() == "true"
        raise ConfigError(f"field {name!r} expects true/false, got {value!r}")
    try:
        if target_type is int:
            if isinstance(value, bool) or not isinstance(value, (int, float, str)):
                raise ValueError
            return int(value)
        if target_type is float:
            return float(value)
    except (TypeError, ValueError):
        raise ConfigError(
            f"field {name!r} expects {target_type.__name__}, got {value!r}") from None
    return str(value)


def read_fields(cls, path=None, overrides: dict | None = None,
                kind: str = "config") -> dict:
    """Field values of the dataclass `cls` from an optional ``key = value``
    file plus overrides, each coerced to its field's type. Unreadable files,
    unknown keys and values of the wrong type raise ConfigError."""
    types = {"int": int, "float": float, "bool": bool, "str": str}
    known = {f.name: types.get(f.type if isinstance(f.type, str) else f.type.__name__, str)
             for f in fields(cls)}
    values: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigError(f"cannot read {kind} file {path}: {err}") from None
        for line_no, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{kind} line {line_no}: expected key = value")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            if key not in known:
                raise ConfigError(f"{kind} line {line_no}: unknown field {key!r}")
            values[key] = _parse_value(raw.strip())
    for key, value in (overrides or {}).items():
        if key not in known:
            raise ConfigError(f"unknown {kind} field {key!r}")
        values[key] = _parse_value(value) if isinstance(value, str) else value
    return {k: _coerce(k, v, known[k]) for k, v in values.items()}


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Config from an optional file plus overrides; unknown keys fail."""
    return RunConfig(**read_fields(RunConfig, path, overrides)).validate()


def save_config(config: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for f in fields(RunConfig):
            fh.write(f"{f.name} = {json.dumps(getattr(config, f.name))}\n")
