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
import sys
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
    clip_norm: float = 0.3
    seed: int = 0
    warmup_epochs: int = 1
    warmup_beta: float = 0.0
    joint_lr: float = -1.0     # -1 means: same as lr
    weight_decay: float = 0.0
    precision: str = "float32"  # the dtype the stage trains in

    def effective_joint_lr(self) -> float:
        return self.lr if self.joint_lr <= 0 else self.joint_lr

    def __post_init__(self):
        if self.stage not in (1, 2):
            raise ConfigError(f"stage must be 1 or 2, got {self.stage}")
        _check_fields(self, _STAGE_RANGES)


# Range rules shared by RunConfig and StageConfig: a test, and what its error says.
_RANGES = {
    "count": (lambda v: v >= 1, "be at least 1"),
    "size": (lambda v: v >= 0, "be nonnegative"),
    "rate": (lambda v: 0.0 < v < math.inf, "be positive and finite"),
    "decay": (lambda v: 0.0 <= v < math.inf, "be nonnegative and finite"),
    "weight": (lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]"),
    "rate_or_default": (lambda v: v == -1 or 0.0 < v < math.inf,
                        "be -1 (the default) or positive and finite"),
    "dtype": (lambda v: v in ("float64", "float32"), "be float64 or float32"),
}
_FIELD_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}

_STAGE_RANGES = {
    "epochs": "size", "batch_size": "count", "lr": "rate", "beta": "weight",
    "alpha": "weight", "clip_norm": "rate", "warmup_epochs": "size",
    "warmup_beta": "weight", "joint_lr": "rate_or_default", "weight_decay": "decay",
    "precision": "dtype",
}
_RUN_RANGES = {
    **dict.fromkeys(("d_emb", "latent_dim", "clusters", "enc_hidden", "model_dim", "blocks",
                     "heads", "context", "base_experts", "base_hidden", "factor",
                     "active_experts", "s1_batch", "s2_batch"), "count"),
    **dict.fromkeys(("s1_epochs", "s1_warmup_epochs", "s2_epochs"), "size"),
    **dict.fromkeys(("s1_lr", "s2_lr", "s1_clip", "s2_clip"), "rate"),
    **dict.fromkeys(("alpha", "beta", "s1_warmup_beta"), "weight"),
    "s1_joint_lr": "rate_or_default", "weight_decay": "decay", "precision": "dtype",
}


def _check_fields(config, ranges: dict) -> None:
    """Check each field's annotated type, then the range `ranges` names for
    it; a violation is a ConfigError (exit 1) that names the field."""
    for f in fields(config):
        value = getattr(config, f.name)
        if (isinstance(value, bool) != (f.type == "bool")
                or not isinstance(value, _FIELD_TYPES[f.type])):
            raise ConfigError(f"field {f.name!r} expects {f.type}, got {value!r}")
    for name, rule in ranges.items():
        ok, must = _RANGES[rule]
        if not ok(getattr(config, name)):
            raise ConfigError(f"{name} must {must}, got {getattr(config, name)}")


@dataclass
class RunConfig:
    """Everything a run needs: model shape, both stages, and the root seed."""

    # Fields runs no longer have, each with the value it took by default.
    # Checkpoint manifests and config files written before they went still
    # name them: read_fields drops one at that value and refuses any other,
    # since no run can honour it now.
    RETIRED_FIELDS = {"renormalize_topk": False, "s1_grad_accum": 1, "s2_grad_accum": 1,
                      "early_stop": False, "patience": 3, "freeze_gmm": False,
                      "r_max": 5.0}

    seed: int = 0
    precision: str = "float32"   # training's dtype; a loaded model keeps its checkpoint's
    # model shape
    d_emb: int = 32
    latent_dim: int = 8
    clusters: int = 3            # also the gate count: one gate per cluster
    enc_hidden: int = 64
    model_dim: int = 64
    blocks: int = 2
    heads: int = 2
    context: int = 64
    base_experts: int = 6
    base_hidden: int = 128
    factor: int = 2
    active_experts: int = 2
    # stage 1 (warmup lr is s1_lr; the joint phase runs slower so the
    # freshly fitted mixture structure is refined rather than eroded)
    s1_epochs: int = 25
    s1_warmup_epochs: int = 5
    s1_warmup_beta: float = 0.0
    s1_batch: int = 64
    s1_lr: float = 3e-3
    s1_joint_lr: float = 1e-3
    beta: float = 0.1
    s1_clip: float = 0.3
    # stage 2
    s2_epochs: int = 3
    s2_batch: int = 16
    s2_lr: float = 1.5e-3
    alpha: float = 0.1
    s2_clip: float = 0.3
    weight_decay: float = 0.0

    def validate(self) -> "RunConfig":
        """Check every field's type and range, raising ConfigError (exit 1)
        that names the field."""
        _check_fields(self, _RUN_RANGES)
        if self.model_dim % self.heads != 0:
            raise ConfigError(f"heads {self.heads} must divide model_dim {self.model_dim}")
        if self.base_hidden % self.factor != 0:
            raise ConfigError(
                f"factor {self.factor} does not divide base hidden width {self.base_hidden}")
        if self.active_experts > self.base_experts * self.factor:
            raise ConfigError(f"active_experts {self.active_experts} exceeds the "
                              f"{self.base_experts * self.factor} experts")
        return self

    def stage1(self) -> StageConfig:
        return StageConfig(stage=1, epochs=self.s1_epochs, batch_size=self.s1_batch,
                           lr=self.s1_lr, beta=self.beta, alpha=self.alpha,
                           clip_norm=self.s1_clip, seed=self.seed,
                           warmup_epochs=self.s1_warmup_epochs,
                           warmup_beta=self.s1_warmup_beta, joint_lr=self.s1_joint_lr,
                           weight_decay=self.weight_decay, precision=self.precision)

    def stage2(self) -> StageConfig:
        return StageConfig(stage=2, epochs=self.s2_epochs, batch_size=self.s2_batch,
                           lr=self.s2_lr, beta=self.beta, alpha=self.alpha,
                           clip_norm=self.s2_clip, seed=self.seed,
                           weight_decay=self.weight_decay, precision=self.precision)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except ValueError:  # not JSON, or an integer of too many digits
        return raw


def _coerce(name: str, value, target_type) -> object:
    """`value` as `target_type`, unchanged. Besides values of the type
    itself, a bool field takes "true" or "false" in any case, an int field
    an integral float, a float field an int that a float holds exactly, and
    a number field a string that holds such a number. Anything else is a
    ConfigError that names the field."""
    if isinstance(value, str) and target_type in (int, float):
        value = _parse_value(value)
    if target_type is bool and isinstance(value, str) and value.lower() in ("true", "false"):
        return value.lower() == "true"
    if isinstance(value, bool) != (target_type is bool):
        ok = False
    elif target_type is int and isinstance(value, float):
        ok = value.is_integer()
    elif target_type is float and isinstance(value, int):
        ok = abs(value) <= sys.float_info.max and float(value) == value
    else:
        ok = isinstance(value, target_type)
    if not ok:
        raise ConfigError(f"field {name!r} expects {target_type.__name__}, got {value!r}")
    return target_type(value)


def read_fields(cls, path=None, overrides: dict | None = None,
                kind: str = "config") -> dict:
    """Field values of the dataclass `cls` from an optional ``key = value``
    file plus overrides, each coerced to its field's type. Unreadable files,
    unknown keys and values of the wrong type raise ConfigError. A key of
    the class's ``RETIRED_FIELDS`` (name -> old default) is dropped at its
    old default and refused at any other value."""
    retired = getattr(cls, "RETIRED_FIELDS", {})
    types = {"int": int, "float": float, "bool": bool, "str": str}
    known = {f.name: types.get(f.type if isinstance(f.type, str) else f.type.__name__, str)
             for f in fields(cls)}
    values: dict = {}
    where: dict = {}                     # key -> where its value came from
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
            values[key], where[key] = _parse_value(raw.strip()), f"{kind} line {line_no}: "
    for key, value in (overrides or {}).items():
        values[key] = _parse_value(value) if isinstance(value, str) else value
        where[key] = ""
    read = {}
    for key, value in values.items():
        if key in known:
            read[key] = _coerce(key, value, known[key])
        elif key not in retired:
            raise ConfigError(f"{where[key]}unknown {kind} field {key!r}")
        elif _coerce(key, value, type(retired[key])) != retired[key]:
            raise ConfigError(f"{where[key]}{kind} field {key!r} is retired and takes only "
                              f"its old default {json.dumps(retired[key])}, got {value!r}")
    return read


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Config from an optional file plus overrides; unknown keys fail, and
    retired ones load only at their old defaults."""
    return RunConfig(**read_fields(RunConfig, path, overrides)).validate()


def save_config(config: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for f in fields(RunConfig):
            fh.write(f"{f.name} = {json.dumps(getattr(config, f.name))}\n")
