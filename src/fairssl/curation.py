"""Build an augmented curated dataset out of a large unlabeled pool.

Three steps, all operating on row-normalized embeddings: greedy cosine
deduplication of the pool, nearest-neighbor retrieval of pool samples that
resemble the (small, balanced) curated set, and optional quality-score
filtering. Retrieval mirrors the curated set's distribution onto the pool,
which is what makes the result usable for training without labels.

Both searches are exact and decide on float64 scores, but score in float32
first and rescore in float64 only the pairs a float32 score cannot settle.
The screen margin delta bounds |s32 - s64| for every pair, where s32 is the
float32 GEMM score of the rows rounded to float32 and s64 the float64 score.
With d columns, u = 2**-24, v = 2**-53 and gamma(w) = d*w / (1 - d*w), and
for rows x, y (Higham, *Accuracy and Stability of Numerical Algorithms*,
section 3.1; any summation order):

- s64 is within gamma(v) * sum|x_i y_i| of the exact dot x.y;
- rounding float64 rows to float32 moves the dot by at most
  (2u + u**2) * sum|x_i y_i| (nothing for float32 rows, such as the pool);
- the float32 GEMM adds at most gamma(u) * (1 + u)**2 * sum|x_i y_i|.

As sum|x_i y_i| <= |x| |y| <= P, the largest row-norm product, these add
up to (gamma(u) + 4u + gamma(v)) * P to first order, and
delta = 2 * (gamma(u) + 4u + gamma(v)) * P. The factor 2 covers the
second-order terms, the float32 rounding of P and the float64 rounding of
threshold +- delta; float32 underflow adds at most d * 2**-150, which it
covers too while P >= 2**-126 (unit rows have P ~ 1). For d = 64 and unit
rows delta is about 8.1e-6.

- Dedup: a row whose best float32 score against the kept rows of a chunk
  is above threshold + delta has a float64 score at or above the threshold
  (a duplicate); below threshold - delta, it has none (it survives). Rows
  in between are rescored in float64 against the chunk's rows that score
  at least threshold - delta, the only ones that can reach it. Pairs of
  rows of one block are screened the same way.
- Top-m: the m-th largest score moves by at most delta, so every float64
  pick scores at least t - 2*delta in float32, t being the m-th largest
  float32 score. Any lower bound on t keeps every pick too, so t is taken
  from the maxima of groups of columns, which cost less than finding it.
  That shortlist is rescored in float64 and ordered.

So outputs equal a plain float64 scan's, given that BLAS computes a pair's
float64 dot the same way whatever other rows share the GEMM.

Both searches read the pool in place and never write it, so curation
holds one pool-sized matrix, the buffer the pool file was read and
normalized in, and gathers no candidate matrix. Each scores blocks of rows
against the pool and sets the rows it must not match to -inf in each
block of scores: dedup the earlier rows it has already dropped, top-m the
rows left out of the kept set. Top-m copies no block of scores.

Both searches share their blocks among worker threads, one per CPU the
process may run on (``os.sched_getaffinity``, so ``taskset`` sets the
count) over the BLAS thread count, and the calling thread is one of them;
BLAS and numpy's passes over the scores release the interpreter lock. A
BLAS whose thread count no variable sets runs a thread on every CPU, and
then the calling thread works alone. The calling thread allocates one
scratch buffer per search and gives each worker an equal share, so the
scratch of a search does not grow with the worker count. Dedup meets once
per ``_DEDUP_CHUNK`` of rows: the workers screen the blocks that start in
it, and the calling thread then settles them in order. Top-m gives each
worker whole blocks of queries. A search of fewer than ``_SPLIT_MACS``
multiply-adds runs on the calling thread alone, and so does every search
when one CPU is available; the outputs are the same at any worker count.
"""

from __future__ import annotations

import logging
import os
import threading
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .store import SOURCES, DatasetManifest, EmbeddingMatrix

log = logging.getLogger(__name__)

# Rows per dedup block, earlier rows per dedup GEMM, and bytes per top-m block
# of float32 scores: they bound scratch memory and do not change any output.
# 2 MiB holds as many queries as the 4 MiB of float64 scores used before;
# 4 MiB of float32 scores raised peak memory by 10 MiB on an 8k-row pool.
_DEDUP_BLOCK = 256
_DEDUP_CHUNK = 2048
_TOPM_BLOCK_BYTES = 2 * 2**20
# Columns per top-m group, whose maxima bound each query's shortlist
# threshold; it does not change any output. At 256 a block's maxima take
# a quarter of the time a partition of its scores took (30k columns), and
# the m best rows of a query seldom share a group, so the bound stays close.
_TOPM_GROUP = 256
# Multiply-adds below which a search runs on the calling thread alone; it
# does not change any output. About 1 ms of float32 GEMM on one core: below
# it a second worker saves a millisecond at most (a whole 4,000 x 12 curate
# saved 1 ms), and a worker thread's heap adds about 0.3 MiB to the peak.
_SPLIT_MACS = 2**26
# The variables OpenBLAS and MKL take their thread count from, in the order
# they read them. Worker threads whose GEMMs each start a full set of BLAS
# threads oversubscribe the CPUs: on 2 cores with BLAS unpinned, 2 workers
# took dedup of a 30k x 64 pool from 0.72-0.85 s to 0.95-1.20 s.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


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
    retrieved: np.ndarray
    augmented_manifest: DatasetManifest
    counts: dict = field(default_factory=dict)


def _require_normalized(m: EmbeddingMatrix, what: str) -> None:
    if not m.normalized:
        raise DataError(f"{what} must be row-normalized before curation")


def _screen_margin(d: int, norm_product: float) -> float:
    """The screen margin delta for d columns and largest row-norm product
    ``norm_product``; the module docstring derives it."""

    def gamma(w: float) -> float:
        return d * w / (1.0 - d * w)

    return 2.0 * (gamma(2.0**-24) + 4 * 2.0**-24 + gamma(2.0**-53)) * norm_product


def _max_norm(x: np.ndarray) -> float:
    """Largest row norm, summed in the dtype of ``x``."""
    return float(np.sqrt(np.einsum("ij,ij->i", x, x).max(initial=0.0)))


def _worker_count() -> int:
    """The CPUs this process may run on (``taskset`` limits them) divided
    by the BLAS thread count the first set of ``_BLAS_THREAD_VARIABLES``
    gives; one when none is set, as BLAS then runs a thread on every CPU."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        cpus = os.cpu_count() or 1
    for name in _BLAS_THREAD_VARIABLES:
        value = os.environ.get(name, "")
        if value.isdigit() and int(value) > 0:
            return max(1, cpus // int(value))
    return 1


def _split(workers: int, parts: int, macs: int) -> int:
    """How many workers share ``parts`` pieces of work of ``macs``
    multiply-adds in all: one, the calling thread, below ``_SPLIT_MACS``."""
    return max(1, min(workers, parts)) if macs >= _SPLIT_MACS else 1


def _share(task: Callable[[int], None], split: int) -> None:
    """Call ``task(k)`` for every k < ``split``: ``task(0)`` on the calling
    thread and each other on a thread of its own. Returns once every call
    has ended, raising the calling thread's error, or else the first
    worker's."""
    errors = []

    def work(k: int) -> None:
        try:
            task(k)
        except BaseException as exc:  # raised again on the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(1, split)]
    for thread in threads:
        thread.start()
    try:
        task(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _screen(
    block: np.ndarray,
    alive: np.ndarray,
    data: np.ndarray,
    kept: np.ndarray | None,
    lo: int,
    hi: int,
    step: int,
    scratch: np.ndarray,
    threshold: float,
    delta: float,
) -> np.ndarray:
    """The rows ``alive`` of ``block`` that no kept row of ``data[lo:hi]``
    covers (every row counts as kept when ``kept`` is None). Scores ``step``
    earlier rows at a time into ``scratch``, in which the rows already
    dropped score -inf, and rescores in float64 the rows whose best float32
    score lies within ``delta`` of ``threshold``."""
    for c0 in range(lo, hi, step):
        chunk = data[c0 : min(c0 + step, hi)]
        rows = block[alive]
        shape = (chunk.shape[0], alive.size)
        scores = np.matmul(chunk, rows.T, out=scratch[: shape[0] * shape[1]].reshape(shape))
        if kept is not None:
            scores[~kept[c0 : c0 + chunk.shape[0]]] = -np.inf
        best = scores.max(axis=0).astype(np.float64)
        unsure = np.abs(best - threshold) <= delta
        if unsure.any():
            # an earlier row scoring below threshold - delta cannot reach it
            # in float64; the dropped rows score -inf
            near = scores[:, unsure].max(axis=1).astype(np.float64) >= threshold - delta
            exact = rows[unsure].astype(np.float64) @ chunk[near].astype(np.float64).T
            best[unsure] = exact.max(axis=1, initial=-np.inf)
        alive = alive[~(best >= threshold)]
    return alive


def _clashes(rows: np.ndarray, scratch: np.ndarray, threshold: float, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (p, q), p < q, of ``rows`` whose float64 score reaches
    ``threshold``, in ascending order. Scores the rows in float32 into
    ``scratch`` and rescores in float64 the pairs within ``delta`` of it."""
    n = rows.shape[0]
    scores = np.matmul(rows, rows.T, out=scratch[: n * n].reshape(n, n))
    floor = np.nextafter(np.float32(threshold - delta), np.float32(-np.inf))
    p, q = np.nonzero(scores >= floor)
    p, q = p[p < q], q[p < q]
    score = scores[p, q].astype(np.float64)
    clash = score >= threshold
    unsure = np.flatnonzero(np.abs(score - threshold) <= delta)
    if unsure.size:
        ends, at = np.unique(np.concatenate((p[unsure], q[unsure])), return_inverse=True)
        exact = rows[ends].astype(np.float64)
        clash[unsure] = (exact @ exact.T)[at[: unsure.size], at[unsure.size :]] >= threshold
    return p[clash], q[clash]


def deduplicate(pool: EmbeddingMatrix, threshold: float) -> np.ndarray:
    """Greedy first-wins duplicate removal over a normalized pool.

    Keeps row i iff its cosine similarity to every lower-indexed kept row
    stays below ``threshold``. Rows are taken ``_DEDUP_BLOCK`` at a time,
    and the blocks that start in one ``_DEDUP_CHUNK`` of rows together.
    First the workers take those blocks. For each, a worker drops the rows
    that a kept row before the chunk covers, as those rows' kept flags are
    final (see ``_screen``); marks the survivors that a row of the chunk
    before the block may cover, kept or not; and finds the pairs of
    survivors that clash (see ``_clashes``). Then the calling thread
    settles the blocks in order: it drops the marked survivors that a kept
    row of the chunk before the block covers, and keeps, in order, each
    survivor that no kept survivor before it clashes with. The kept rows
    do not depend on the number of workers. Reads ``pool.data`` in place
    and never writes it. Returns the kept indices sorted ascending.
    """
    _require_normalized(pool, "dedup pool")
    data, n = pool.data, pool.n
    delta = _screen_margin(pool.d, _max_norm(data) ** 2)
    kept = np.zeros(n, dtype=bool)
    workers = _worker_count()
    width = min(_DEDUP_BLOCK, n)
    scratch = np.empty(max(_DEDUP_CHUNK, width) * width, dtype=np.float32)
    for s0 in range(0, n, _DEDUP_CHUNK):
        starts = range(-(-s0 // _DEDUP_BLOCK) * _DEDUP_BLOCK, min(s0 + _DEDUP_CHUNK, n), _DEDUP_BLOCK)
        alive = [np.arange(min(_DEDUP_BLOCK, n - start)) for start in starts]
        marked = [None] * len(starts)
        clashes = [None] * len(starts)
        # each worker's share holds a block's scores against itself
        split = _split(workers, min(len(starts), scratch.size // width**2), len(starts) * width * s0 * pool.d)
        share = scratch.size // split
        step = share // width

        def screen(k: int) -> None:
            part = scratch[k * share : (k + 1) * share]
            for i in range(k, len(starts), split):
                block = data[starts[i] : starts[i] + _DEDUP_BLOCK]
                alive[i] = _screen(block, alive[i], data, kept, 0, s0, step, part, threshold, delta)
                # no row of the chunk, kept or not, covers a row it scores below threshold - delta
                clear = _screen(block, alive[i], data, None, s0, starts[i], step, part, threshold - delta, 0.0)
                marked[i] = np.setdiff1d(alive[i], clear, assume_unique=True)
                clashes[i] = _clashes(block[alive[i]], part, threshold, delta)

        _share(screen, split)
        for start, survivors, marks, (first, later) in zip(starts, alive, marked, clashes):
            block = data[start : start + _DEDUP_BLOCK]
            rest = _screen(block, marks, data, kept, s0, start, scratch.size // width, scratch, threshold, delta)
            keep = ~np.isin(survivors, np.setdiff1d(marks, rest, assume_unique=True))
            for p, q in zip(first.tolist(), later.tolist()):
                if keep[p]:
                    keep[q] = False
            kept[start + survivors[keep]] = True
    del scratch  # before the result is allocated, so that it can reuse the space
    return np.flatnonzero(kept)


def _exact_topm(
    queries: np.ndarray, candidates: np.ndarray, m: int, excluded: np.ndarray | None = None
) -> np.ndarray:
    """Indices (into ``candidates``) of the m highest-dot rows per query,
    never picking a row listed in ``excluded``.

    Works on blocks of queries whose float32 scores fill ``_TOPM_BLOCK_BYTES``
    in all: each worker scans whole blocks into its share of one scratch
    buffer and writes its own rows of the result. The excluded rows score
    -inf in every block. Each query's threshold ``t`` is the m-th largest
    of the maxima of its ``_TOPM_GROUP``-column groups, never above its
    m-th largest float32 score; if fewer than m groups hold a finite score,
    ``t`` is that score, found by a partition. Every candidate scoring at
    least ``t - 2*delta`` is rescored in float64 and the shortlist is
    ordered by score descending, then index ascending, so ties resolve to
    the lower index. At least m rows must be left.
    """
    n_q, n_c = queries.shape[0], candidates.shape[0]
    q32 = np.asarray(queries, dtype=np.float32)
    c32 = np.asarray(candidates, dtype=np.float32)
    q64 = np.asarray(queries, dtype=np.float64)
    delta = _screen_margin(queries.shape[1], _max_norm(q32) * _max_norm(c32))
    out = np.empty((n_q, m), dtype=np.int64)
    workers = _worker_count()
    split = _split(workers, n_q, n_q * n_c * queries.shape[1])
    block = max(1, _TOPM_BLOCK_BYTES // (4 * n_c * split))
    scratch = np.empty((split, min(block, n_q) * n_c), dtype=np.float32)
    groups = np.arange(0, n_c, _TOPM_GROUP)

    def scan(k: int) -> None:
        for q0 in range(k * block, n_q, split * block):
            q = q32[q0 : q0 + block]
            sims = np.matmul(q, c32.T, out=scratch[k, : q.shape[0] * n_c].reshape(q.shape[0], n_c))
            if excluded is not None:
                sims[:, excluded] = -np.inf
            # m scores from m distinct columns are at least the m-th largest
            # group maximum, so it is a lower bound on the m-th largest score
            maxima = np.maximum.reduceat(sims, groups, axis=1)
            if np.isfinite(maxima).sum(axis=1).min() >= m:
                mth = np.partition(maxima, groups.size - m, axis=1)[:, groups.size - m]
            else:  # a -inf bound would shortlist the excluded rows
                mth = np.partition(sims, n_c - m, axis=1)[:, n_c - m]
            # t - 2*delta, rounded down to float32 so the shortlist can only grow
            floor = (mth.astype(np.float64) - 2.0 * delta).astype(np.float32)
            floor = np.nextafter(floor, np.float32(-np.inf))
            # flat indices: a 2-D nonzero is several times slower here
            rows, cols = np.divmod(np.flatnonzero(sims >= floor[:, None]), n_c)
            shortlist, at = np.unique(cols, return_inverse=True)
            exact = q64[q0 : q0 + block] @ np.asarray(candidates[shortlist], dtype=np.float64).T
            order = np.lexsort((cols, -exact[rows, at], rows))
            first = np.searchsorted(rows, np.arange(q.shape[0]))
            out[q0 : q0 + q.shape[0]] = cols[order[first[:, None] + np.arange(m)]]

    _share(scan, split)
    return out


def knn_retrieve(
    curated: EmbeddingMatrix,
    pool: EmbeddingMatrix,
    kept: np.ndarray,
    m: int,
) -> np.ndarray:
    """Retrieve, for every curated row, its m nearest kept pool rows by cosine.

    Exact search over ``pool.data`` itself: the rows not in ``kept`` score
    -inf, so no candidate matrix is gathered. Ties resolve to the lower pool
    index. Returns the deduplicated union of all retrieved pool indices,
    sorted ascending.
    """
    _require_normalized(curated, "curated matrix")
    _require_normalized(pool, "pool matrix")
    if curated.d != pool.d:
        raise DataError(f"dimension mismatch: curated d={curated.d}, pool d={pool.d}")
    kept = np.asarray(kept, dtype=np.int64)
    if kept.size and not (0 <= kept.min() and kept.max() < pool.n):
        raise DataError(f"kept rows must index the {pool.n} pool rows")
    excluded = np.ones(pool.n, dtype=bool)
    excluded[kept] = False
    n_kept = pool.n - int(np.count_nonzero(excluded))
    if m < 1:
        raise ConfigError(f"m must be >= 1, got {m}")
    if m > n_kept:
        raise ConfigError(f"m={m} exceeds the {n_kept} kept pool rows")
    return np.unique(_exact_topm(curated.data, pool.data, m, np.flatnonzero(excluded)))


def build_augmented_curated(
    curated_manifest: DatasetManifest,
    pool_manifest: DatasetManifest,
    kept_uncurated: np.ndarray,
    retrieved: np.ndarray,
    config: CurationConfig,
) -> CurationResult:
    """Combine the curated set with the retrieved-and-quality-passing pool rows.

    Output ordering is deterministic: curated records first (original order),
    then retrieved records by ascending pool index. Record i of the result
    describes row i of the combined matrix the caller assembles in that order.
    """
    at = np.sort(np.asarray(retrieved, dtype=np.int64))
    strays = at[~np.isin(at, kept_uncurated)]
    if strays.size:
        raise DataError(f"retrieved rows not in the deduplicated pool: {strays[:5].tolist()}")
    if np.any(at[1:] == at[:-1]):
        raise DataError("retrieved index list contains duplicates")
    outside = at[(at < 0) | (at >= len(pool_manifest))]
    if outside.size:
        raise DataError(f"retrieved pool rows missing from manifest: {outside[:5].tolist()}")

    if config.quality_threshold is not None:
        unscored = np.flatnonzero(~pool_manifest.has_quality[at])
        if unscored.size:
            raise DataError(f"sample {pool_manifest.ids[at[unscored[0]]]!r} has no quality score")
        at = at[pool_manifest.quality[at] >= config.quality_threshold]

    retrieved_ids = [pool_manifest.ids[i] for i in at.tolist()]
    curated_ids = set(curated_manifest.ids)
    clashes = [sid for sid in retrieved_ids if sid in curated_ids]
    if clashes:
        raise DataError(f"id collision between curated and retrieved sets: {clashes[0]!r}")
    n_curated, total = len(curated_manifest), len(curated_manifest) + at.size
    sources = np.full(total, SOURCES.index("retrieved"), dtype=np.uint8)
    sources[:n_curated] = SOURCES.index("curated")
    augmented = DatasetManifest(
        ids=curated_manifest.ids + retrieved_ids,
        sources=sources,
        quality=np.concatenate([curated_manifest.quality, pool_manifest.quality[at]]),
        has_quality=np.concatenate([curated_manifest.has_quality, pool_manifest.has_quality[at]]),
        group=np.zeros(total, dtype=np.int64),
        has_group=np.zeros(total, dtype=bool),
    )
    counts = {
        "curated": n_curated,
        "pool": len(pool_manifest),
        "kept_after_dedup": len(kept_uncurated),
        "removed_by_dedup": len(pool_manifest) - len(kept_uncurated),
        "retrieved": len(retrieved),
        "removed_by_quality": len(retrieved) - at.size,
        "augmented_total": total,
    }
    log.info("curation counts: %s", counts)
    return CurationResult(at, augmented, counts)


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
