"""Single-file YAML configuration with dotted-path overrides.

One config drives every pipeline stage; all randomness flows from its
mandatory global seed. Overrides arrive as ``section.key=value`` strings
(values parsed as YAML scalars), and the resolved config, less its paths,
hashes to a stable digest recorded in run manifests.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import re
import sys
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .curation import CurationConfig
from .errors import ConfigError
from .losses import LossConfig
from .pseudolabel import DEFAULT_SCALE
from .trainer import TrainConfig


def _exponent_floats(base: type) -> type:
    """``base`` that also reads YAML 1.2's dotless exponent floats such as
    ``1e-3``, which PyYAML's YAML 1.1 resolver takes for strings."""
    loader = type(base.__name__, (base,), {})
    loader.add_implicit_resolver(
        "tag:yaml.org,2002:float", re.compile(r"^[-+]?[0-9][0-9_]*[eE][-+]?[0-9]+$"), list("-+0123456789")
    )
    return loader


# libyaml's parser where PyYAML has it; both share the safe constructor and resolver
_PURE_LOADER = _exponent_floats(yaml.SafeLoader)
_YAML_LOADER = _exponent_floats(yaml.CSafeLoader) if hasattr(yaml, "CSafeLoader") else _PURE_LOADER


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
    scale: float = DEFAULT_SCALE
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

    def __post_init__(self) -> None:
        if len(self.projection_dims) != 3:
            raise ConfigError("model.projection_dims must list exactly 3 widths")
        if not self.encoder_dims:
            raise ConfigError("model.encoder_dims must list at least one width")
        for key in ("encoder_dims", "projection_dims"):
            if min(getattr(self, key)) < 1:
                raise ConfigError(f"model.{key}: every width must be at least 1, got {getattr(self, key)}")


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
    val_attribute: str | None = None  # defaults to the first bank attribute
    paths: PathsConfig = field(default_factory=PathsConfig)
    curation: CurationConfig = field(default_factory=CurationConfig)
    pseudolabel: PseudoLabelConfig = field(default_factory=PseudoLabelConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    trainer: TrainConfig = field(default_factory=TrainConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    probe: ProbeConfig = field(default_factory=ProbeConfig)

    def __post_init__(self) -> None:
        self.trainer.seed = self.seed  # training draws from the run's one seed
        if self.loss.topk_enabled and self.trainer.objective == "contrastive":
            raise ConfigError("loss.topk_enabled needs trainer.objective: supcon; "
                              "the contrastive objective has no top-k wrapper")

    def config_hash(self) -> str:
        """Digest of every setting but ``paths``: where a run reads and writes
        does not change it (run manifests hash the inputs themselves)."""
        settings = dataclasses.asdict(self)
        del settings["paths"]
        canonical = json.dumps(settings, sort_keys=True)
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
        try:
            p.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"paths.out_dir: cannot create directory {p}: {exc}") from exc
        return p


def _matches(value, hint) -> bool:
    """Whether ``value`` has the annotated type, without conversion: an int
    is a float, a bool is neither an int nor a float."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:
        return any(_matches(value, h) for h in args)
    if origin is list:
        return isinstance(value, list) and all(_matches(v, args[0]) for v in value)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


@functools.cache
def _field_type(cls, key: str):
    """The evaluated annotation of one field. Unlike ``typing.get_type_hints``,
    which evaluates every field of the class, this evaluates only those set."""
    return eval(cls.__annotations__[key], vars(sys.modules[cls.__module__]))


def _check_types(cls, data: dict, where: str) -> None:
    """Check each value has its field's type and each number in it, list
    items included, is a finite float or an int64 (so a finite float64)."""
    for key, value in data.items():
        if not _matches(value, _field_type(cls, key)):
            raise ConfigError(f"{where}: {key} must be {cls.__annotations__[key]}, got {value!r}")
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, float) and not math.isfinite(item):
                raise ConfigError(f"{where}: {key} must be finite, got {item!r}")
            if isinstance(item, int) and not -(2**63) <= item < 2**63:
                raise ConfigError(f"{where}: {key} must fit in 64 bits, got {len(str(abs(item)))} digits")


def _build_section(cls, data: dict, where: str, top_keys: list[str]):
    # a section field named like a top-level key (trainer.seed) follows that key
    field_names = {f.name for f in dataclasses.fields(cls)} - set(top_keys)
    unknown = set(data) - field_names
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    _check_types(cls, data, where)
    return cls(**data)


def config_from_dict(data: dict, base_dir: Path | None = None) -> PipelineConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    data = dict(data)
    if data.get("seed") is None:
        raise ConfigError("seed is mandatory; set a top-level 'seed' key")
    # a field typed as a dataclass is a section; the others are top-level keys
    hints = {f.name: _field_type(PipelineConfig, f.name) for f in dataclasses.fields(PipelineConfig)}
    section_types = {name: cls for name, cls in hints.items() if dataclasses.is_dataclass(cls)}
    top_keys = [key for key in hints if key not in section_types]
    top = {key: data.pop(key) for key in top_keys if key in data}
    _check_types(PipelineConfig, top, "config")
    sections = {}
    for name, cls in section_types.items():
        body = data.pop(name, {}) or {}
        if not isinstance(body, dict):
            raise ConfigError(f"section {name!r} must be a mapping")
        sections[name] = _build_section(cls, body, f"section {name!r}", top_keys)
    if data:
        raise ConfigError(f"unknown top-level keys {sorted(data)}")
    cfg = PipelineConfig(**top, **sections)
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
        keys = dotted.strip().split(".")
        if not all(keys):
            raise ConfigError(f"override {item!r} has an empty key in its path")
        try:
            value = yaml.load(raw_value, Loader=_YAML_LOADER)
        except (yaml.YAMLError, ValueError) as exc:  # ValueError: an int beyond Python's digit limit
            raise ConfigError(f"override {item!r}: cannot parse value: {exc}") from exc
        _assign(data, keys, value, f"override {item!r}")
    return data


def _assign(data: dict, keys: list[str], value, where: str) -> None:
    """Set ``data[keys[0]]...[keys[-1]] = value``, creating missing sections."""
    node = data
    for key in keys[:-1]:
        nxt = node.get(key)
        if nxt is None:
            nxt = node[key] = {}
        if not isinstance(nxt, dict):
            raise ConfigError(f"{where}: {key!r} is not a section")
        node = nxt
    node[keys[-1]] = value


def load_config(
    path: str | Path, overrides: list[str] | None = None, out_dir: str | None = None
) -> PipelineConfig:
    """Load ``path``, apply ``overrides``, then set ``paths.out_dir`` to the
    string ``out_dir`` if given: a directory name is never parsed as YAML.
    Relative paths resolve against the config file's directory."""
    path = Path(path)
    try:
        data = yaml.load(path.read_bytes(), Loader=_YAML_LOADER) or {}
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except (yaml.YAMLError, ValueError) as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    if overrides:
        data = apply_overrides(data, overrides)
    if out_dir is not None:
        _assign(data, ["paths", "out_dir"], out_dir, "--out")
    return config_from_dict(data, base_dir=path.parent)
