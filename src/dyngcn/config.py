"""Run configuration: declarative text format, overrides, and presets.

The keys are the dataclass fields (``model.<name>`` for ``ModelConfig``);
each field's annotation picks the parser of its value."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .modality import refuse_unknown_modality
from .model import ModelConfig, refuse_non_finite
from .skeleton import read_utf8, write_file


def _parse_bool(text):
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_int_tuple(text):
    return tuple(int(v) for v in text.split(",")) if text.strip() else ()


def _format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


# Field annotation -> parser of the value text.
_PARSERS = {"str": str, "int": int, "float": float, "bool": _parse_bool,
            "tuple": _parse_int_tuple}


def _key_parsers(cls):
    """Field name -> value parser, in field order (``model`` is a section)."""
    parsers = {}
    for f in fields(cls):
        if f.name == "model":
            continue
        if f.type not in _PARSERS:
            raise TypeError(f"{cls.__name__}.{f.name}: no config parser for annotation {f.type!r}")
        parsers[f.name] = _PARSERS[f.type]
    return parsers


def _model_config(build, *args, **kwargs):
    """``build(*args, **kwargs)`` of a ModelConfig; its errors, which lead with
    a field name, gain the ``model.`` that the config text spells."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"model.{exc}") from None


def _parse_assignments(items):
    """Parse ``(where, "key=value")`` pairs into (model kwargs, run kwargs).

    ``where`` (a line number or the override itself) leads every error,
    and an error about a value also names its key.
    """
    model_kwargs = {}
    run_kwargs = {}
    for where, text in items:
        if "=" not in text:
            raise ValueError(f"{where}: expected key=value, got {text!r}")
        key, value = (part.strip() for part in text.split("=", 1))
        if key.startswith("model."):
            name, parsers, target = key[len("model."):], _MODEL_KEYS, model_kwargs
        else:
            name, parsers, target = key, _RUN_KEYS, run_kwargs
        if name not in parsers:
            kind = "model key" if target is model_kwargs else "key"
            raise ValueError(f"{where}: unknown {kind} {name!r}")
        try:
            target[name] = parsers[name](value)
        except ValueError as exc:
            raise ValueError(f"{where}: bad value {value!r} for {key}: {exc}") from None
    return model_kwargs, run_kwargs


@dataclass
class RunConfig:
    model: ModelConfig
    train_manifest: str = ""
    test_manifest: str = ""
    out_dir: str = "runs/latest"
    modality: str = "joint"
    lr: float = 0.1
    momentum: float = 0.9
    nesterov: bool = True
    weight_decay: float = 0.0004
    batch_size: int = 64
    total_epochs: int = 65
    milestones: tuple = (35, 55)
    decay: float = 0.1
    seed: int = 0

    def __post_init__(self):
        self.milestones = tuple(int(m) for m in self.milestones)
        refuse_non_finite(self)
        refuse_unknown_modality(self.modality)
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.total_epochs < 1:
            raise ValueError("total_epochs must be at least 1")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        if self.decay <= 0:
            # zero stops every update at the first milestone, a negative
            # rate climbs the loss
            raise ValueError("decay must be positive")
        if self.seed < 0:
            raise ValueError(f"seed={self.seed} must be non-negative")
        if any(m < 2 for m in self.milestones):
            # the rate decays from epoch m on, so below 2 the lr is never used
            raise ValueError(f"milestones must be at least 2, got {self.milestones}")
        if any(m >= self.total_epochs for m in self.milestones):
            raise ValueError(
                f"milestones {self.milestones} must fall before total_epochs "
                f"{self.total_epochs}"
            )
        if any(a >= b for a, b in zip(self.milestones, self.milestones[1:])):
            raise ValueError(f"milestones must be increasing, got {self.milestones}")
        for key, value in self._items():
            if isinstance(value, str) and ("#" in value or value != value.strip()
                                           or len(value.splitlines()) > 1):
                raise ValueError(f"{key}={value!r} would not read back from the config text "
                                 f"(it holds '#' or a line break, or whitespace at an end)")

    def _items(self):
        """(key, value) of every config key, in text order."""
        for prefix, obj, keys in (("model.", self.model, _MODEL_KEYS), ("", self, _RUN_KEYS)):
            for name in keys:
                yield prefix + name, getattr(obj, name)

    def to_text(self):
        lines = ["# run configuration"]
        lines += [f"{key}={_format_value(value)}" for key, value in self._items()]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text, source="<config>"):
        lines = ((lineno, raw.split("#", 1)[0].strip())
                 for lineno, raw in enumerate(text.splitlines(), start=1))
        model_kwargs, run_kwargs = _parse_assignments(
            (f"{source}: line {lineno}", line) for lineno, line in lines if line
        )
        if "layout" not in model_kwargs or "n_classes" not in model_kwargs:
            raise ValueError(f"{source}: model.layout and model.n_classes are required")
        try:
            model = _model_config(ModelConfig, **model_kwargs)
            return cls(model=model, **run_kwargs)
        except ValueError as exc:
            raise ValueError(f"{source}: {exc}") from None

    def save(self, path):
        return write_file(path, self.to_text())

    @classmethod
    def load(cls, path):
        return cls.from_text(read_utf8(path), source=str(path))

    def with_overrides(self, assignments):
        """Apply ``key=value`` strings, e.g. from repeated --set flags."""
        assignments = list(assignments)
        model_kwargs, run_kwargs = _parse_assignments(
            (f"override {item!r}", item) for item in assignments
        )
        try:
            model = _model_config(replace, self.model, **model_kwargs)
            return replace(self, model=model, **run_kwargs)
        except ValueError as exc:
            raise ValueError(f"overrides {assignments}: {exc}") from None


_MODEL_KEYS = _key_parsers(ModelConfig)
_RUN_KEYS = _key_parsers(RunConfig)


# Preset name -> factory of a fresh config.
MODEL_PRESETS = {
    "ntu-like": lambda: ModelConfig(layout="ntu25", n_classes=60),
    "kinetics-like": lambda: ModelConfig(layout="openpose18", n_classes=400, frames=150),
    "toy": lambda: ModelConfig(layout="ntu25", n_classes=2, frames=4,
                               channels=(4,), strides=(1,), tc_kernel=3,
                               aggregate_after=(), topology="context"),
}
RUN_PRESETS = {
    "ntu-like": lambda: RunConfig(model=model_preset("ntu-like")),
    "kinetics-like": lambda: RunConfig(model=model_preset("kinetics-like")),
    "smoke": lambda: RunConfig(
        model=ModelConfig(layout="ntu25", n_classes=2, frames=16,
                          channels=(8, 16), strides=(1, 2), tc_kernel=5,
                          aggregate_after=(1,), topology="context"),
        lr=0.05, weight_decay=1e-4, batch_size=8, total_epochs=3, milestones=()),
}


def _preset(kind, presets, name):
    if name not in presets:
        raise ValueError(f"unknown {kind} preset {name!r}, expected one of {', '.join(presets)}")
    return presets[name]()


def model_preset(name):
    return _preset("model", MODEL_PRESETS, name)


def run_preset(name):
    return _preset("run", RUN_PRESETS, name)
