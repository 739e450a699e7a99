"""Model and training configuration, plus the flat key-value config file format.

Config files are plain text, one ``key = value`` per line, ``#`` comments
allowed.  Keys mirror the dataclass fields below.  Any CLI flag overrides
the file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, is_dataclass
from pathlib import Path
from typing import get_type_hints


class ConfigError(ValueError):
    """Raised for invalid or inconsistent configuration."""


@dataclass
class ModelConfig:
    """Stream widths and layer hyperparameters.

    Defaults target the full face/pose feature set: 674 face and 76 pose
    features per frame, each with one appended frame-index column.  Streams
    start with a learned projection so every width is divisible by the head
    count its layer has in :data:`bcfusion.models.TOPOLOGIES`: face 675 -> 676
    (4 heads), pose 77 -> 76 (2 heads).  The fused stream concatenates
    per-stream projections of 676 + 74 = 750 (10 heads); the 676/74 boundary
    is where the one-to-two split separates channels.  Cross-attention
    streams share a common width (304) so that exchanged query/key widths
    agree; late fusion layers over concatenated stream outputs (752 or 608
    wide) run with 8 heads.

    Only what the paper's topologies vary is settable: every transformer
    layer is the post-norm encoder layer with a feed-forward block twice its
    width (see :class:`bcfusion.layers.TransformerLayer`).
    """

    face_dim: int = 675
    pose_dim: int = 77
    d_face: int = 676
    d_pose: int = 76
    d_fused_face: int = 676
    d_fused_pose: int = 74
    d_cross: int = 304
    ff_hidden: int = 64
    dropout: float = 0.1
    use_positional_encoding: bool = True

    def validate(self) -> None:
        from .models import TOPOLOGIES  # models imports this module
        for spec in TOPOLOGIES.values():
            widths = spec.widths(self)
            for st in spec.stages:
                width, heads = widths[st.name], st.heads
                if width < heads or width % heads != 0:
                    raise ConfigError(f"{' + '.join(spec.width_fields[st.name])} ({width}) "
                                      f"must be a positive multiple of {heads} heads")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout rate must be in [0, 1), got {self.dropout}")
        if self.face_dim < 1 or self.pose_dim < 1:
            raise ConfigError("stream input widths must be >= 1")
        if self.ff_hidden < 1:
            raise ConfigError("ff_hidden must be >= 1")


def toy_model_config(face_dim: int = 12, pose_dim: int = 6, **overrides) -> ModelConfig:
    """Small, shape-valid configuration for gradient checks and fast tests."""
    cfg = ModelConfig(
        face_dim=face_dim, pose_dim=pose_dim,
        d_face=8, d_pose=8, d_fused_face=8, d_fused_pose=2, d_cross=8,
        ff_hidden=8, **overrides)
    cfg.validate()
    return cfg


TASKS = ("detection", "agreement")


@dataclass
class TrainConfig:
    """All training hyperparameters; defaults follow the standard recipe.

    Adam's constants (beta1 0.9, beta2 0.999, eps 1e-8) are fixed in
    :class:`bcfusion.training.AdamState`.
    """

    learning_rate: float = 0.0005
    weight_decay: float = 0.0005
    epochs: int = 350
    batch_size: int = 32
    window_seconds: float = 3.0
    seed: int = 0
    task: str = "detection"
    topology: str = "one_stream"
    dtype: str = "float64"
    model: ModelConfig = field(default_factory=ModelConfig)

    def validate(self) -> None:
        from .models import TOPOLOGIES  # models imports this module
        if self.topology not in TOPOLOGIES:
            raise ConfigError(f"config key 'topology': {self.topology!r} is not one of "
                              f"{', '.join(TOPOLOGIES)}")
        for key, value in (("learning_rate", self.learning_rate),
                           ("window_seconds", self.window_seconds)):
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"config key {key!r} must be a finite number > 0, got {value!r}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ConfigError(f"config key 'weight_decay' must be a finite number >= 0, "
                              f"got {self.weight_decay!r}")
        if self.seed < 0:
            raise ConfigError(f"config key 'seed' must be an integer >= 0, got {self.seed!r}")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.dtype not in ("float64", "float32"):
            raise ConfigError(f"dtype must be float64 or float32, got {self.dtype!r}")
        self.model.validate()


class ConfigMapping(dict):
    """Raw ``key -> value`` strings read from a config file.

    ``origin[key]`` is the ``path:line`` the key was read from, so that a bad
    value can be reported where it was written.
    """

    def __init__(self):
        super().__init__()
        self.origin: dict[str, str] = {}


def parse_config_file(path: str | Path) -> ConfigMapping:
    """Read ``key = value`` lines into a string mapping."""
    out = ConfigMapping()
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        out[key.strip()] = value.strip()
        out.origin[key.strip()] = f"{path}:{lineno}"
    return out


def _parse_value(raw: str, kind):
    """``raw`` as a value of the annotated field type ``kind``; ValueError if it is not one."""
    raw = raw.strip()
    if kind is bool:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(raw)
    return kind(raw)


def dataclass_from_mapping(cls, mapping: dict[str, str]):
    """Build dataclass ``cls`` from raw strings, typing each value by its field.

    A key may also name a field of a dataclass-typed field, which is how flat
    train config files set :class:`ModelConfig` fields.  Errors name the key
    and, for a mapping from :func:`parse_config_file`, the file and line.
    """
    obj = cls()
    nested = [getattr(obj, name) for name, kind in get_type_hints(cls).items()
              if is_dataclass(kind)]
    slots = {name: (owner, kind) for owner in [obj] + nested
             for name, kind in get_type_hints(type(owner)).items() if not is_dataclass(kind)}
    origin = getattr(mapping, "origin", {})
    for key, raw in mapping.items():
        where = f"{origin[key]}: " if key in origin else ""
        if key not in slots:
            raise ConfigError(f"{where}unknown config key {key!r}")
        owner, kind = slots[key]
        try:
            setattr(owner, key, _parse_value(raw, kind))
        except ValueError:
            name = getattr(kind, "__name__", str(kind))
            raise ConfigError(f"{where}config key {key!r}: expected {name}, got {raw!r}") from None
    return obj
