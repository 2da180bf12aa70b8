"""
Embedding storage and data curation
===================================

Builds a toy unlabeled pool with injected duplicates and a skewed cluster
mix, then walks the curation steps: deduplication, nearest-neighbor
retrieval against a small balanced reference set, and assembly of the
augmented dataset. The point to watch: the retrieved set mirrors the
*reference* distribution (about 50/50) even though the pool is 90/10.
"""

import numpy as np

from fairssl.curation import CurationConfig, curate
from fairssl.store import SOURCES, DatasetManifest, EmbeddingMatrix, normalize_rows

rng = np.random.default_rng(0)

# Two Gaussian clusters on the sphere; cluster 1 is rare in the pool.
n_pool, dim = 5000, 16
centers = np.zeros((2, dim))
centers[0, 0] = 2.0
centers[1, 1] = 2.0
pool_groups = (rng.random(n_pool) < 0.1).astype(int)
pool_raw = centers[pool_groups] + rng.normal(0, 0.5, (n_pool, dim))

# Sprinkle in exact duplicates so deduplication has work to do.
dup_idx = rng.choice(n_pool, 250, replace=False)
pool_raw[dup_idx] = pool_raw[rng.choice(n_pool, 250)]

pool = normalize_rows(EmbeddingMatrix(pool_raw.astype(np.float32)))
pool_manifest = DatasetManifest.from_columns(
    [f"pool-{i}" for i in range(n_pool)], "uncurated",
    quality=rng.uniform(0.3, 1.0, size=n_pool),
)

# The curated reference set is small and balanced across the clusters.
cur_groups = np.repeat([0, 1], 40)
curated_raw = centers[cur_groups] + rng.normal(0, 0.5, (80, dim))
curated = normalize_rows(EmbeddingMatrix(curated_raw.astype(np.float32)))
curated_manifest = DatasetManifest.from_columns([f"cur-{i}" for i in range(80)], "curated")

config = CurationConfig(dedup_threshold=0.995, retrieval_m=4, quality_threshold=0.4)
result, combined = curate(curated, curated_manifest, pool, pool_manifest, config)

print("curation counts:")
for key, value in result.counts.items():
    print(f"  {key:>20}: {value}")

props = np.bincount(pool_groups[result.retrieved], minlength=2) / result.retrieved.size
print(f"\npool cluster mix:      {1 - pool_groups.mean():.2f} / {pool_groups.mean():.2f}")
print(f"retrieved cluster mix: {props[0]:.2f} / {props[1]:.2f}  (mirrors the reference set)")
print(f"\naugmented dataset: {combined.n} rows x {combined.d} dims")
print("sources:", {s: int(np.sum(result.augmented_manifest.sources == SOURCES.index(s)))
                   for s in ("curated", "retrieved")})
