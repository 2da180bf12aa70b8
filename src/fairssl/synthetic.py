"""Synthetic embedding worlds for end-to-end studies and demos.

Generates a two-attribute, two-group Gaussian mixture in embedding space:
attribute values shift the mean along fixed axes, group membership adds an
offset along its own axis, and the minority group's positive class sits
closer to the decision boundary (its positives are harder). The uncurated
pool under-represents the minority group; the curated and evaluation sets
are balanced. Text-template embeddings for zero-shot labeling are noisy
copies of the attribute axes.

Because the generative densities are known, the Bayes-optimal accuracy on
any sample set is computable exactly and serves as the yardstick for probe
quality.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .seeding import substream
from .store import DatasetManifest, EmbeddingMatrix, normalize_rows, save_embeddings, write_file, write_jsonl

TARGET_ATTRIBUTE = "attr_target"
CONTEXT_ATTRIBUTE = "attr_context"


@dataclass
class WorldConfig:
    dim: int = 12
    target_margin_easy: float = 1.0  # majority group, both classes
    target_margin_hard_pos: float = 0.32  # minority positives sit near the boundary
    target_margin_hard_neg: float = 0.9
    context_scale: float = 0.8
    group_offset: float = 1.1
    noise_sigma: float = 0.42
    minority_pool_fraction: float = 0.1
    duplicate_fraction: float = 0.03
    template_count: int = 3
    template_noise: float = 0.1
    quality_range: tuple[float, float] = (0.3, 1.0)

    def mean(self, group: int, target: int, context: int) -> np.ndarray:
        """Mixture-component mean for (group, target label, context label)."""
        mu = np.zeros(self.dim)
        if group == 0:
            margin = self.target_margin_easy
        else:
            margin = self.target_margin_hard_pos if target == 1 else self.target_margin_hard_neg
        mu[0] = (1.0 if target == 1 else -1.0) * margin
        mu[1] = (1.0 if context == 1 else -1.0) * self.context_scale
        mu[2] = self.group_offset * (1.0 if group == 0 else -1.0)
        return mu


@dataclass
class SampleSet:
    raw: np.ndarray  # pre-normalization vectors, used by the Bayes oracle
    embeddings: EmbeddingMatrix  # normalized rows, what the pipeline sees
    target: np.ndarray
    context: np.ndarray
    groups: np.ndarray


@dataclass
class World:
    config: WorldConfig
    pool: SampleSet
    curated: SampleSet
    eval_set: SampleSet
    files: dict = field(default_factory=dict)


def _sample_set(raw: np.ndarray, target: np.ndarray, context: np.ndarray, groups: np.ndarray) -> SampleSet:
    return SampleSet(raw, normalize_rows(EmbeddingMatrix(raw.astype(np.float32))), target, context, groups)


def _draw(
    config: WorldConfig, n: int, minority_fraction: float, rng: np.random.Generator
) -> SampleSet:
    groups = (rng.random(n) < minority_fraction).astype(np.int64)
    target = rng.integers(0, 2, size=n)
    context = rng.integers(0, 2, size=n)
    means = np.stack([config.mean(g, t, c) for g, t, c in zip(groups, target, context)])
    return _sample_set(means + rng.normal(0.0, config.noise_sigma, size=(n, config.dim)), target, context, groups)


def _inject_duplicates(s: SampleSet, fraction: float, rng: np.random.Generator) -> SampleSet:
    """Overwrite a fraction of rows with copies of earlier rows, so
    deduplication has real work to do."""
    n = s.raw.shape[0]
    n_dup = int(fraction * n)
    if n_dup == 0:
        return s
    victims = rng.choice(np.arange(n // 2, n), size=n_dup, replace=False)
    sources = rng.choice(np.arange(0, n // 2), size=n_dup, replace=True)
    columns = [column.copy() for column in (s.raw, s.target, s.context, s.groups)]
    for column in columns:
        column[victims] = column[sources]
    return _sample_set(*columns)


def _templates(config: WorldConfig, axis: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    base = np.zeros(config.dim)
    base[axis] = 1.0
    pos = np.stack(
        [base + rng.normal(0.0, config.template_noise, config.dim) for _ in range(config.template_count)]
    )
    neg = np.stack(
        [-base + rng.normal(0.0, config.template_noise, config.dim) for _ in range(config.template_count)]
    )
    pos /= np.linalg.norm(pos, axis=1, keepdims=True)
    neg /= np.linalg.norm(neg, axis=1, keepdims=True)
    return pos, neg


def generate_world(
    seed: int,
    out_dir: str | Path | None = None,
    config: WorldConfig | None = None,
    n_pool: int = 4000,
    n_curated: int = 200,
    n_eval: int = 1200,
) -> World:
    """Build a complete synthetic world; with ``out_dir`` given, also write
    every pipeline input file (embeddings, manifests, template bank,
    evaluation labels)."""
    config = config or WorldConfig()
    pool = _draw(config, n_pool, config.minority_pool_fraction, substream(seed, "world", "pool"))
    pool = _inject_duplicates(pool, config.duplicate_fraction, substream(seed, "world", "dups"))
    curated = _draw(config, n_curated, 0.5, substream(seed, "world", "curated"))
    eval_set = _draw(config, n_eval, 0.5, substream(seed, "world", "eval"))
    world = World(config=config, pool=pool, curated=curated, eval_set=eval_set)
    if out_dir is not None:
        world.files = write_world_files(world, Path(out_dir), seed)
    return world


def write_world_files(world: World, out_dir: Path, seed: int) -> dict:
    out_dir = Path(out_dir)
    template_dir = out_dir / "templates"
    files = {
        "uncurated_embeddings": out_dir / "uncurated.fssl",
        "uncurated_manifest": out_dir / "uncurated_manifest.jsonl",
        "curated_embeddings": out_dir / "curated.fssl",
        "curated_manifest": out_dir / "curated_manifest.jsonl",
        "eval_embeddings": out_dir / "eval.fssl",
        "eval_manifest": out_dir / "eval_manifest.jsonl",
        "eval_labels": out_dir / "eval_labels.jsonl",
        "template_bank": template_dir / "template_bank.json",
    }
    template_dir.mkdir(parents=True, exist_ok=True)
    cfg = world.config
    rng_quality = substream(seed, "world", "quality")
    sets = (  # file key, samples, id prefix, source, with quality, with groups
        ("uncurated", world.pool, "pool", "uncurated", True, False),
        ("curated", world.curated, "cur", "curated", False, False),
        ("eval", world.eval_set, "eval", "curated", False, True),
    )
    for key, s, prefix, source, with_quality, with_groups in sets:
        n = s.raw.shape[0]
        save_embeddings(s.embeddings, files[f"{key}_embeddings"])
        DatasetManifest.from_columns(
            [f"{prefix}-{i:06d}" for i in range(n)], source,
            quality=rng_quality.uniform(*cfg.quality_range, size=n) if with_quality else None,
            group=s.groups if with_groups else None,
        ).save(files[f"{key}_manifest"])

    write_jsonl(files["eval_labels"], {
        "id": [f"eval-{i:06d}" for i in range(world.eval_set.raw.shape[0])],
        "label": world.eval_set.target.tolist(),
    })

    rng_t = substream(seed, "world", "templates")
    index = {}
    for name, axis in ((TARGET_ATTRIBUTE, 0), (CONTEXT_ATTRIBUTE, 1)):
        index[name] = {side: f"{name}_{side}.fssl" for side in ("pos", "neg")}
        for side, rows in zip(("pos", "neg"), _templates(cfg, axis, rng_t)):
            save_embeddings(EmbeddingMatrix(rows.astype(np.float32), normalized=True), template_dir / index[name][side])
    # unsorted, so the target attribute stays first: the default val_attribute
    write_file(files["template_bank"], json.dumps(index, indent=2))
    return {key: str(path) for key, path in files.items()}


def bayes_accuracy(config: WorldConfig, raw: np.ndarray, target: np.ndarray,
                   group_prior: float = 0.5) -> float:
    """Accuracy of the Bayes-optimal target classifier on raw (pre-
    normalization) points, computed from the exact mixture densities.

    The posterior marginalizes over group and context with the priors used
    to generate the set (``group_prior`` is the minority-group probability).
    Isotropic equal covariances mean the log densities reduce to negative
    squared distances to the component means.
    """
    raw = np.asarray(raw, dtype=np.float64)
    scores = np.zeros((raw.shape[0], 2))
    for t in (0, 1):
        total = np.zeros(raw.shape[0])
        for g in (0, 1):
            pg = group_prior if g == 1 else 1.0 - group_prior
            for c in (0, 1):
                mu = config.mean(g, t, c)
                sq = np.sum((raw - mu) ** 2, axis=1)
                total += 0.5 * pg * np.exp(-sq / (2.0 * config.noise_sigma**2))
        scores[:, t] = total
    pred = np.argmax(scores, axis=1)
    return float(np.mean(pred == np.asarray(target)))
