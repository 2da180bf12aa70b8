"""Single-file YAML configuration with dotted-path overrides.

One config drives every pipeline stage; all randomness flows from its
mandatory global seed. Overrides arrive as ``section.key=value`` strings
(values parsed as YAML scalars), and the resolved config hashes to a stable
digest recorded in run manifests.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .curation import CurationConfig
from .errors import ConfigError
from .losses import LossConfig
from .trainer import TrainConfig


@dataclass
class PathsConfig:
    curated_embeddings: str | None = None
    curated_manifest: str | None = None
    uncurated_embeddings: str | None = None
    uncurated_manifest: str | None = None
    template_bank: str | None = None
    eval_embeddings: str | None = None
    eval_manifest: str | None = None
    eval_labels: str | None = None
    out_dir: str = "runs/out"


@dataclass
class PseudoLabelConfig:
    scale: float = 100.0
    conf_threshold: float = 0.9

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ConfigError("pseudolabel.scale must be positive")
        if not 0.5 <= self.conf_threshold <= 1.0:
            raise ConfigError("pseudolabel.conf_threshold must be in [0.5, 1]")


@dataclass
class ModelConfig:
    encoder_dims: list[int] = field(default_factory=lambda: [128, 64])
    projection_dims: list[int] = field(default_factory=lambda: [128, 128, 32])
    num_classes: int = 2

    def __post_init__(self) -> None:
        if len(self.projection_dims) != 3:
            raise ConfigError("model.projection_dims must list exactly 3 widths")
        if not self.encoder_dims:
            raise ConfigError("model.encoder_dims must list at least one width")


@dataclass
class ProbeConfig:
    l2: float = 1e-4
    train_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.l2 < 0:
            raise ConfigError("probe.l2 must be non-negative")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("probe.train_fraction must be in (0, 1)")


@dataclass
class PipelineConfig:
    seed: int
    workers: int = 1
    val_attribute: str | None = None  # defaults to the first bank attribute
    paths: PathsConfig = field(default_factory=PathsConfig)
    curation: CurationConfig = field(default_factory=CurationConfig)
    pseudolabel: PseudoLabelConfig = field(default_factory=PseudoLabelConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    trainer: TrainConfig = field(default_factory=TrainConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    probe: ProbeConfig = field(default_factory=ProbeConfig)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()

    def require_paths(self, *names: str) -> dict[str, Path]:
        """Resolve the named input paths, erroring per missing file."""
        resolved = {}
        for name in names:
            value = getattr(self.paths, name)
            if value is None:
                raise ConfigError(f"paths.{name} is not set but this stage needs it")
            p = Path(value)
            if not p.exists():
                raise ConfigError(f"paths.{name}: file not found: {p}")
            resolved[name] = p
        return resolved

    def out_dir(self) -> Path:
        p = Path(self.paths.out_dir)
        p.mkdir(parents=True, exist_ok=True)
        return p


_SECTIONS = {
    "paths": PathsConfig,
    "curation": CurationConfig,
    "pseudolabel": PseudoLabelConfig,
    "loss": LossConfig,
    "trainer": TrainConfig,
    "model": ModelConfig,
    "probe": ProbeConfig,
}


def _build_section(cls, data: dict, where: str):
    field_names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - field_names
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def config_from_dict(data: dict, base_dir: Path | None = None) -> PipelineConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    data = dict(data)
    if "seed" not in data or data["seed"] is None:
        raise ConfigError("seed is mandatory; set a top-level 'seed' key")
    try:
        seed = int(data.pop("seed"))
    except (TypeError, ValueError):
        raise ConfigError("seed must be an integer") from None
    workers = data.pop("workers", 1)
    val_attribute = data.pop("val_attribute", None)
    sections = {}
    for name, cls in _SECTIONS.items():
        body = data.pop(name, {}) or {}
        if not isinstance(body, dict):
            raise ConfigError(f"section {name!r} must be a mapping")
        sections[name] = _build_section(cls, body, f"section {name!r}")
    if data:
        raise ConfigError(f"unknown top-level keys {sorted(data)}")
    cfg = PipelineConfig(seed=seed, workers=int(workers), val_attribute=val_attribute, **sections)
    if base_dir is not None:
        for f in dataclasses.fields(PathsConfig):
            value = getattr(cfg.paths, f.name)
            if value is not None and not Path(value).is_absolute():
                setattr(cfg.paths, f.name, str((base_dir / value)))
    return cfg


def apply_overrides(data: dict, overrides: list[str]) -> dict:
    """Apply ``a.b.c=value`` assignments onto a nested dict, parsing values
    as YAML scalars."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key=value")
        dotted, _, raw_value = item.partition("=")
        keys = [k for k in dotted.strip().split(".") if k]
        if not keys:
            raise ConfigError(f"override {item!r} has an empty key path")
        try:
            value = yaml.safe_load(raw_value)
        except yaml.YAMLError as exc:
            raise ConfigError(f"override {item!r}: cannot parse value: {exc}") from exc
        node = data
        for key in keys[:-1]:
            nxt = node.get(key)
            if nxt is None:
                nxt = node[key] = {}
            if not isinstance(nxt, dict):
                raise ConfigError(f"override {item!r}: {key!r} is not a section")
            node = nxt
        node[keys[-1]] = value
    return data


def load_config(path: str | Path, overrides: list[str] | None = None) -> PipelineConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = yaml.safe_load(path.read_text()) or {}
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if overrides:
        data = apply_overrides(data, overrides)
    return config_from_dict(data, base_dir=path.parent)
