"""Build an augmented curated dataset out of a large unlabeled pool.

Three steps, all operating on row-normalized embeddings: greedy cosine
deduplication of the pool, nearest-neighbor retrieval of pool samples that
resemble the (small, balanced) curated set, and optional quality-score
filtering. Retrieval mirrors the curated set's distribution onto the pool,
which is what makes the result usable for training without labels.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .store import DatasetManifest, EmbeddingMatrix, ManifestRecord

log = logging.getLogger(__name__)

# Rows per dedup block, kept rows per dedup GEMM, and queries per top-m
# block: they bound scratch memory to block x chunk (or block x pool)
# float64 values and do not change any output.
_DEDUP_BLOCK = 256
_DEDUP_CHUNK = 2048
_TOPM_BLOCK = 64


@dataclass
class CurationConfig:
    dedup_threshold: float = 0.95
    retrieval_m: int = 4
    quality_threshold: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.dedup_threshold <= 1.0:
            raise ConfigError(f"dedup_threshold must be in (0, 1], got {self.dedup_threshold}")
        if self.retrieval_m < 1:
            raise ConfigError(f"retrieval_m must be >= 1, got {self.retrieval_m}")


@dataclass
class CurationResult:
    kept_uncurated: np.ndarray
    retrieved: np.ndarray
    augmented_manifest: DatasetManifest
    counts: dict = field(default_factory=dict)


def _require_normalized(m: EmbeddingMatrix, what: str) -> None:
    if not m.normalized:
        raise DataError(f"{what} must be row-normalized before curation")


def deduplicate(pool: EmbeddingMatrix, threshold: float) -> np.ndarray:
    """Greedy first-wins duplicate removal over a normalized pool.

    Keeps row i iff its cosine similarity to every lower-indexed kept row
    stays below ``threshold``. Rows are taken ``_DEDUP_BLOCK`` at a time:
    one GEMM per ``_DEDUP_CHUNK`` kept rows drops the block rows an earlier
    kept row already covers, and the survivors' Gram matrix settles
    first-wins inside the block. Deterministic by construction; returns the
    kept indices sorted ascending.
    """
    _require_normalized(pool, "dedup pool")
    kept_rows = np.empty((pool.n, pool.d), dtype=np.float64)  # filled prefix only
    kept: list[np.ndarray] = []
    n_kept = 0
    for start in range(0, pool.n, _DEDUP_BLOCK):
        block = pool.data[start : start + _DEDUP_BLOCK].astype(np.float64)
        alive = np.arange(block.shape[0])
        for c0 in range(0, n_kept, _DEDUP_CHUNK):
            sims = block[alive] @ kept_rows[c0 : min(c0 + _DEDUP_CHUNK, n_kept)].T
            alive = alive[~(sims.max(axis=1) >= threshold)]
        rows = block[alive]
        clash = np.triu(rows @ rows.T >= threshold, k=1)
        keep = np.ones(alive.size, dtype=bool)
        for j in np.flatnonzero(clash.any(axis=1)):
            if keep[j]:
                keep[clash[j]] = False
        rows = rows[keep]
        kept_rows[n_kept : n_kept + rows.shape[0]] = rows
        n_kept += rows.shape[0]
        kept.append(start + alive[keep])
    return np.concatenate(kept) if kept else np.empty(0, dtype=np.int64)


def _exact_topm(queries: np.ndarray, candidates: np.ndarray, m: int) -> np.ndarray:
    """Indices (into ``candidates``) of the m highest-dot rows per query.

    Works ``_TOPM_BLOCK`` queries at a time. A partition finds each query's
    m-th largest score; the candidates at or above it are ordered by score
    descending, then index ascending, so ties resolve to the lower index.
    """
    n_q, n_c = queries.shape[0], candidates.shape[0]
    out = np.empty((n_q, m), dtype=np.int64)
    for q0 in range(0, n_q, _TOPM_BLOCK):
        sims = queries[q0 : q0 + _TOPM_BLOCK] @ candidates.T
        mth = np.partition(sims, n_c - m, axis=1)[:, n_c - m]
        rows, cols = np.nonzero(sims >= mth[:, None])
        order = np.lexsort((cols, -sims[rows, cols], rows))
        first = np.searchsorted(rows, np.arange(sims.shape[0]))
        out[q0 : q0 + sims.shape[0]] = cols[order[first[:, None] + np.arange(m)]]
    return out


def knn_retrieve(
    curated: EmbeddingMatrix,
    pool: EmbeddingMatrix,
    kept: np.ndarray,
    m: int,
) -> np.ndarray:
    """Retrieve, for every curated row, its m nearest kept pool rows by cosine.

    Exact search; returns the deduplicated union of all retrieved pool
    indices, sorted ascending.
    """
    _require_normalized(curated, "curated matrix")
    _require_normalized(pool, "pool matrix")
    if curated.d != pool.d:
        raise DataError(f"dimension mismatch: curated d={curated.d}, pool d={pool.d}")
    kept = np.sort(np.asarray(kept, dtype=np.int64))  # ties resolve to lower pool index
    if m < 1:
        raise ConfigError(f"m must be >= 1, got {m}")
    if m > kept.size:
        raise ConfigError(f"m={m} exceeds the {kept.size} kept pool rows")
    queries = curated.data.astype(np.float64)
    candidates = pool.data[kept].astype(np.float64)
    return np.unique(kept[_exact_topm(queries, candidates, m)])


def build_augmented_curated(
    curated_manifest: DatasetManifest,
    pool_manifest: DatasetManifest,
    kept_uncurated: np.ndarray,
    retrieved: np.ndarray,
    config: CurationConfig,
) -> CurationResult:
    """Combine the curated set with the retrieved-and-quality-passing pool rows.

    Output ordering is deterministic: curated records first (original order),
    then retrieved records by ascending pool index. Row indices are reassigned
    to address the combined matrix the caller assembles in the same order.
    """
    retrieved = np.asarray(retrieved, dtype=np.int64)
    kept_set = set(np.asarray(kept_uncurated, dtype=np.int64).tolist())
    strays = [int(i) for i in retrieved if int(i) not in kept_set]
    if strays:
        raise DataError(f"retrieved rows not in the deduplicated pool: {strays[:5]}")
    if np.unique(retrieved).size != retrieved.size:
        raise DataError("retrieved index list contains duplicates")
    pool_by_row = {rec.row_index: rec for rec in pool_manifest.records}
    missing = [int(i) for i in retrieved if int(i) not in pool_by_row]
    if missing:
        raise DataError(f"retrieved pool rows missing from manifest: {missing[:5]}")

    filtered = retrieved
    n_quality_dropped = 0
    if config.quality_threshold is not None:
        passing = []
        for i in retrieved:
            rec = pool_by_row[int(i)]
            if rec.quality_score is None:
                raise DataError(f"sample {rec.sample_id!r} has no quality score")
            if rec.quality_score >= config.quality_threshold:
                passing.append(int(i))
        n_quality_dropped = retrieved.size - len(passing)
        filtered = np.asarray(passing, dtype=np.int64)

    curated_ids = {rec.sample_id for rec in curated_manifest.records}
    records: list[ManifestRecord] = []
    for new_row, rec in enumerate(curated_manifest.records):
        records.append(
            ManifestRecord(
                sample_id=rec.sample_id,
                row_index=new_row,
                source="curated",
                quality_score=rec.quality_score,
            )
        )
    for offset, pool_row in enumerate(np.sort(filtered)):
        rec = pool_by_row[int(pool_row)]
        if rec.sample_id in curated_ids:
            raise DataError(
                f"id collision between curated and retrieved sets: {rec.sample_id!r}"
            )
        records.append(
            ManifestRecord(
                sample_id=rec.sample_id,
                row_index=len(curated_manifest.records) + offset,
                source="retrieved",
                quality_score=rec.quality_score,
            )
        )
    counts = {
        "curated": len(curated_manifest.records),
        "pool": len(pool_manifest.records),
        "kept_after_dedup": int(np.asarray(kept_uncurated).size),
        "removed_by_dedup": len(pool_manifest.records) - int(np.asarray(kept_uncurated).size),
        "retrieved": int(retrieved.size),
        "removed_by_quality": int(n_quality_dropped),
        "augmented_total": len(records),
    }
    log.info("curation counts: %s", counts)
    return CurationResult(
        kept_uncurated=np.asarray(kept_uncurated, dtype=np.int64),
        retrieved=np.sort(filtered),
        augmented_manifest=DatasetManifest(records),
        counts=counts,
    )


def curate(
    curated: EmbeddingMatrix,
    curated_manifest: DatasetManifest,
    pool: EmbeddingMatrix,
    pool_manifest: DatasetManifest,
    config: CurationConfig,
) -> tuple[CurationResult, EmbeddingMatrix]:
    """Full curation pass: dedup, retrieve against the deduplicated pool,
    filter, and assemble the combined embedding matrix."""
    kept = deduplicate(pool, config.dedup_threshold)
    retrieved = knn_retrieve(curated, pool, kept, config.retrieval_m)
    result = build_augmented_curated(
        curated_manifest, pool_manifest, kept, retrieved, config
    )
    combined = np.vstack([curated.data, pool.data[result.retrieved]])
    return result, EmbeddingMatrix(combined, normalized=curated.normalized and pool.normalized)
