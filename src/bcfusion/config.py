"""Model and training configuration, the rule for each setting, and the flat
key-value config file format.

Config files are plain text, one ``key = value`` per line, ``#`` comments
allowed.  Keys mirror the dataclass fields below.  Any CLI flag overrides
the file.  Each field has one :class:`Rule` in its class's table
(``MODEL_RULES``, ``TRAIN_RULES``; ``SPEC_RULES`` in :mod:`bcfusion.data`),
and :func:`check` holds every value to it, whether a file, a flag, a
checkpoint or a library caller set it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, is_dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, get_type_hints


class ConfigError(ValueError):
    """Raised for invalid or inconsistent configuration."""


def located(origin: Optional[Mapping[str, str]], key: str, message: str) -> str:
    """``message`` led by the ``path:line`` that ``origin`` records for ``key``, if any."""
    return f"{origin[key]}: {message}" if origin and key in origin else message


@dataclass(frozen=True)
class Rule:
    """A setting's type (``numbers.Integral``, ``numbers.Real`` or ``str``; an int
    is also a Real, a bool is no number), a condition, and ``text`` saying both
    after "must be"."""

    kind: type
    text: str
    holds: Callable[[Any], bool] = lambda value: True

    def admits(self, value) -> bool:
        return (isinstance(value, self.kind) and not isinstance(value, bool)
                and self.holds(value))


def at_least(n: int) -> Rule:
    return Rule(numbers.Integral, f"an integer >= {n}", lambda value: value >= n)


def one_of(*choices: str) -> Rule:
    return Rule(str, f"one of {', '.join(choices)}", lambda value: value in choices)


# nan fails every comparison, and an int too large for a float still compares exactly
POSITIVE = Rule(numbers.Real, "a finite number > 0", lambda value: 0 < value < math.inf)
NON_NEGATIVE = Rule(numbers.Real, "a finite number >= 0", lambda value: 0 <= value < math.inf)
FRACTION = Rule(numbers.Real, "a number in [0, 1)", lambda value: 0 <= value < 1)


def check(key: str, value, rule: Rule, origin: Optional[Mapping[str, str]] = None,
          error: type[Exception] = ConfigError) -> None:
    """Raise ``error`` unless ``value`` keeps ``rule``, naming ``key`` and, when
    ``origin`` records one for it, the ``path:line`` it was read from."""
    if not rule.admits(value):
        raise error(located(origin, key, f"config key {key!r} must be {rule.text}, "
                                         f"got {value!r}"))


class FusionTopology(str, Enum):
    """The names ``topology`` may take; :data:`bcfusion.models.TOPOLOGIES` wires each."""

    ONE_STREAM = "one_stream"
    ONE_TO_ONE = "one_to_one"
    ONE_TO_TWO = "one_to_two"
    TWO_TO_ONE = "two_to_one"
    CROSS_ATTENTION = "cross_attention"
    CROSS_TO_ONE = "cross_to_one"
    FACE_ONLY = "face_only"
    POSE_ONLY = "pose_only"


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
    width (see :class:`bcfusion.layers.TransformerLayer`), and positional
    encoding is always added to first-layer inputs.
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

    def validate(self, origin: Optional[Mapping[str, str]] = None) -> None:
        """Raise ConfigError for a bad setting; see :meth:`TrainConfig.validate` for ``origin``."""
        for key, rule in MODEL_RULES.items():  # before the widths are summed
            check(key, getattr(self, key), rule, origin)
        from .models import TOPOLOGIES  # models imports this module
        for spec in TOPOLOGIES.values():
            widths = spec.widths(self)
            for st in spec.stages:
                width, heads, fields = widths[st.name], st.heads, spec.width_fields[st.name]
                if width < heads or width % heads != 0:
                    # reported at the first of its fields that a file set
                    read = [f for f in fields if origin and f in origin] or fields
                    raise ConfigError(located(origin, read[0], f"{' + '.join(fields)} ({width}) "
                                              f"must be a positive multiple of {heads} heads"))


MODEL_RULES = {"face_dim": at_least(1), "pose_dim": at_least(1), "d_face": at_least(1),
               "d_pose": at_least(1), "d_fused_face": at_least(1), "d_fused_pose": at_least(1),
               "d_cross": at_least(1), "ff_hidden": at_least(1), "dropout": FRACTION}


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

    Adam's constants (beta1 0.9, beta2 0.999, eps 1e-8) are fixed as the
    ``ADAM_*`` constants of :mod:`bcfusion.training`.
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

    def validate(self, origin: Optional[Mapping[str, str]] = None) -> None:
        """Raise ConfigError for a bad setting.

        ``origin`` maps a key to the ``path:line`` its value was read from (a
        :class:`ConfigMapping`'s ``origin`` without the keys a flag overrode);
        the error for such a key names that place.
        """
        for key, rule in TRAIN_RULES.items():
            check(key, getattr(self, key), rule, origin)
        self.model.validate(origin)


TRAIN_RULES = {"learning_rate": POSITIVE, "weight_decay": NON_NEGATIVE, "epochs": at_least(1),
               "batch_size": at_least(1), "window_seconds": POSITIVE, "seed": at_least(0),
               "task": one_of(*TASKS), "topology": one_of(*(t.value for t in FusionTopology)),
               "dtype": one_of("float64", "float32")}


class ConfigMapping(dict):
    """Raw ``key -> value`` strings read from a config file.

    ``origin[key]`` is the ``path:line`` the key was read from, so that a bad
    value can be reported where it was written.
    """

    def __init__(self):
        super().__init__()
        self.origin: dict[str, str] = {}


def parse_config_file(path: str | Path) -> ConfigMapping:
    """Read ``key = value`` lines into a string mapping; a key may appear once."""
    out = ConfigMapping()
    first_line: dict[str, int] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = (part.strip() for part in stripped.partition("="))
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} repeats line "
                              f"{first_line[key]}")
        first_line[key] = lineno
        out[key] = value
        out.origin[key] = f"{path}:{lineno}"
    return out


def dataclass_from_mapping(cls, mapping: dict[str, str]):
    """Build dataclass ``cls`` from raw strings, typing each value by its field.

    A key may also name a field of a dataclass-typed field, which is how flat
    train config files set :class:`ModelConfig` fields.  Errors name the key
    and, for a mapping from :func:`parse_config_file`, the file and line.  Text
    that does not parse as its field's type is left in the field as text, which
    no number rule admits, and the owner's ``validate`` reports it under
    the field's rule, in the one message format of :func:`check`.
    """
    obj = cls()
    nested = [getattr(obj, name) for name, kind in get_type_hints(cls).items()
              if is_dataclass(kind)]
    slots = {name: (owner, kind) for owner in [obj] + nested
             for name, kind in get_type_hints(type(owner)).items() if not is_dataclass(kind)}
    origin = getattr(mapping, "origin", None)
    for key, raw in mapping.items():
        if key not in slots:
            raise ConfigError(located(origin, key, f"unknown config key {key!r}"))
        owner, kind = slots[key]
        try:
            setattr(owner, key, kind(raw.strip()))
        except ValueError:
            setattr(owner, key, raw)
            owner.validate(origin)
    return obj
