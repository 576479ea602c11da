"""Run configuration: declarative text format, overrides, and presets."""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from .modality import MODALITIES
from .model import ModelConfig


def _parse_bool(text):
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_int_tuple(text):
    stripped = text.strip()
    if not stripped:
        return ()
    return tuple(int(v) for v in stripped.split(","))


def _format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


_MODEL_PARSERS = {
    "layout": str,
    "n_classes": int,
    "in_channels": int,
    "frames": int,
    "channels": _parse_int_tuple,
    "strides": _parse_int_tuple,
    "tc_kernel": int,
    "lambda_static": float,
    "aggregate_rate": float,
    "aggregate_after": _parse_int_tuple,
    "topology": str,
    "learner_final_relu": _parse_bool,
    "learn_projection": _parse_bool,
    "alpha_degree": float,
}

_RUN_PARSERS = {
    "train_manifest": str,
    "test_manifest": str,
    "out_dir": str,
    "modality": str,
    "lr": float,
    "momentum": float,
    "nesterov": _parse_bool,
    "weight_decay": float,
    "batch_size": int,
    "total_epochs": int,
    "milestones": _parse_int_tuple,
    "decay": float,
    "seed": int,
}


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
            name, parsers, target = key[len("model."):], _MODEL_PARSERS, model_kwargs
        else:
            name, parsers, target = key, _RUN_PARSERS, run_kwargs
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
        if self.modality not in MODALITIES:
            raise ValueError(f"unknown modality {self.modality!r}, expected one of {MODALITIES}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.total_epochs < 1:
            raise ValueError("total_epochs must be at least 1")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if any(m >= self.total_epochs for m in self.milestones):
            raise ValueError(
                f"milestones {self.milestones} must fall before total_epochs "
                f"{self.total_epochs}"
            )
        if list(self.milestones) != sorted(self.milestones):
            raise ValueError(f"milestones must be increasing, got {self.milestones}")

    def to_text(self):
        lines = ["# run configuration"]
        for f in fields(ModelConfig):
            lines.append(f"model.{f.name}={_format_value(getattr(self.model, f.name))}")
        for name in _RUN_PARSERS:
            lines.append(f"{name}={_format_value(getattr(self, name))}")
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
        return cls(model=ModelConfig(**model_kwargs), **run_kwargs)

    def save(self, path):
        from pathlib import Path

        Path(path).write_text(self.to_text())
        return path

    @classmethod
    def load(cls, path):
        from pathlib import Path

        path = Path(path)
        return cls.from_text(path.read_text(), source=str(path))

    def with_overrides(self, assignments):
        """Apply ``key=value`` strings, e.g. from repeated --set flags."""
        model_kwargs, run_kwargs = _parse_assignments(
            (f"override {item!r}", item) for item in assignments
        )
        model = replace(self.model, **model_kwargs) if model_kwargs else self.model
        return replace(self, model=model, **run_kwargs)


def model_preset(name):
    if name == "ntu-like":
        return ModelConfig(layout="ntu25", n_classes=60)
    if name == "kinetics-like":
        return ModelConfig(layout="openpose18", n_classes=400, frames=150)
    if name == "toy":
        return ModelConfig(layout="ntu25", n_classes=2, frames=4,
                           channels=(4,), strides=(1,), tc_kernel=3,
                           aggregate_after=(), topology="context")
    raise ValueError(f"unknown model preset {name!r}, expected ntu-like, kinetics-like, or toy")


def run_preset(name):
    if name == "ntu-like":
        return RunConfig(model=model_preset("ntu-like"))
    if name == "kinetics-like":
        return RunConfig(model=model_preset("kinetics-like"))
    if name == "smoke":
        model = ModelConfig(layout="ntu25", n_classes=2, frames=16,
                            channels=(8, 16), strides=(1, 2), tc_kernel=5,
                            aggregate_after=(1,), topology="context")
        return RunConfig(model=model, lr=0.05, weight_decay=1e-4,
                         batch_size=8, total_epochs=3, milestones=())
    raise ValueError(f"unknown run preset {name!r}, expected ntu-like, kinetics-like, or smoke")


MODEL_PRESETS = ("ntu-like", "kinetics-like", "toy")
RUN_PRESETS = ("ntu-like", "kinetics-like", "smoke")
