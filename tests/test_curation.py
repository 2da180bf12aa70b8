import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairssl import curation
from fairssl.curation import (
    CurationConfig,
    _exact_topm,
    build_augmented_curated,
    curate,
    deduplicate,
    knn_retrieve,
)
from fairssl.errors import ConfigError, DataError
from fairssl.store import DatasetManifest, EmbeddingMatrix, ManifestRecord, normalize_rows

from oracles import cosine_similarity, exhaustive_knn, greedy_dedup, stable_topm


def unit(m):
    return normalize_rows(EmbeddingMatrix(np.asarray(m, dtype=np.float32)))


class TestCosine:
    def test_identical(self):
        assert cosine_similarity([1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_direct_formula(self):
        a, b = np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0])
        expected = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        assert abs(cosine_similarity(a, b) - expected) < 1e-12
        assert abs(expected - 0.9746318) < 1e-6

    def test_clamped(self):
        v = np.full(64, 0.125)
        assert cosine_similarity(v, v) <= 1.0

    def test_errors(self):
        with pytest.raises(DataError):
            cosine_similarity([1.0, 0.0], [1.0, 0.0, 0.0])
        with pytest.raises(DataError):
            cosine_similarity([0.0, 0.0], [1.0, 0.0])


class TestDeduplicate:
    def test_exact_duplicate(self):
        pool = unit([[1.0, 0.0], [1.0, 0.0]])
        assert deduplicate(pool, 0.99).tolist() == [0]

    def test_orthogonal_rows_all_kept(self):
        pool = unit(np.eye(4))
        assert deduplicate(pool, 0.99).tolist() == [0, 1, 2, 3]

    def test_greedy_chain(self):
        # angles chosen so cos(t)=0.995 pairwise and cos(2t)=0.98005 across the chain
        t = np.arccos(0.995)
        angles = [0.0, t, 2 * t]
        pool = unit([[np.cos(a), np.sin(a)] for a in angles])
        assert deduplicate(pool, 0.99).tolist() == [0, 2]

    def test_requires_normalized(self):
        raw = EmbeddingMatrix(np.array([[3.0, 4.0]], dtype=np.float32))
        with pytest.raises(DataError):
            deduplicate(raw, 0.9)

    def test_idempotent(self, rng, make_unit_rows):
        pool = EmbeddingMatrix(make_unit_rows(rng, 200, 6).astype(np.float32), normalized=True)
        kept = deduplicate(pool, 0.9)
        again = deduplicate(
            EmbeddingMatrix(pool.data[kept], normalized=True), 0.9
        )
        assert again.tolist() == list(range(kept.size))

    def test_no_near_pair_survives(self, rng):
        base = rng.standard_normal((120, 5))
        dup = base[rng.integers(0, 120, size=60)] + rng.normal(0, 1e-4, (60, 5))
        pool = unit(np.vstack([base, dup]))
        threshold = 0.95
        kept = deduplicate(pool, threshold)
        surviving = pool.data[kept].astype(np.float64)
        sims = surviving @ surviving.T
        np.fill_diagonal(sims, -1.0)
        assert sims.max() < threshold


class TestKnnRetrieve:
    def test_self_match(self, rng, make_unit_rows):
        pool = EmbeddingMatrix(make_unit_rows(rng, 10, 4).astype(np.float32), normalized=True)
        curated = EmbeddingMatrix(pool.data[3:4].copy(), normalized=True)
        out = knn_retrieve(curated, pool, np.arange(10), 1)
        assert out.tolist() == [3]

    def test_shared_neighbor_union(self):
        pool = unit([[1.0, 0.0], [0.0, 1.0]])
        curated = unit([[0.99, 0.05], [0.98, 0.02]])
        out = knn_retrieve(curated, pool, np.arange(2), 1)
        assert out.tolist() == [0]

    def test_matches_bruteforce(self, rng, make_unit_rows):
        pool_rows = make_unit_rows(rng, 20, 6)
        cur_rows = make_unit_rows(rng, 4, 6)
        pool = EmbeddingMatrix(pool_rows.astype(np.float32), normalized=True)
        curated = EmbeddingMatrix(cur_rows.astype(np.float32), normalized=True)
        got = knn_retrieve(curated, pool, np.arange(20), 3)
        expected = sorted(
            {j for row in exhaustive_knn(curated.data.astype(np.float64), pool.data.astype(np.float64), 3) for j in row}
        )
        assert got.tolist() == expected

    def test_respects_kept_subset(self, rng, make_unit_rows):
        pool = EmbeddingMatrix(make_unit_rows(rng, 12, 4).astype(np.float32), normalized=True)
        curated = EmbeddingMatrix(pool.data[:2].copy(), normalized=True)
        kept = np.array([4, 5, 6, 7])
        out = knn_retrieve(curated, pool, kept, 2)
        assert set(out) <= set(kept.tolist())

    def test_m_too_large(self, rng, make_unit_rows):
        pool = EmbeddingMatrix(make_unit_rows(rng, 5, 4).astype(np.float32), normalized=True)
        curated = EmbeddingMatrix(pool.data[:1].copy(), normalized=True)
        with pytest.raises(ConfigError):
            knn_retrieve(curated, pool, np.arange(3), 4)

    def test_tie_breaks_to_lower_index(self):
        pool = unit([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        curated = unit([[1.0, 0.0]])
        out = knn_retrieve(curated, pool, np.arange(3), 1)
        assert out.tolist() == [0]


class TestQualityFilter:
    """``quality_threshold`` in ``build_augmented_curated``: which retrieved
    pool rows survive."""

    def passing(self, scores, threshold):
        pool = DatasetManifest(
            [
                ManifestRecord(f"s{i}", i, "uncurated", quality_score=s)
                for i, s in enumerate(scores)
            ]
        )
        rows = np.arange(len(scores))
        result = build_augmented_curated(
            DatasetManifest([]), pool, rows, rows, CurationConfig(quality_threshold=threshold)
        )
        return result.retrieved.tolist()

    def test_basic(self):
        assert self.passing([0.2, 0.8], 0.5) == [1]

    def test_zero_threshold_keeps_all(self):
        assert self.passing([0.1, 0.5, 0.9], 0.0) == [0, 1, 2]

    def test_random_scores_match_direct_comparison(self, rng):
        scores = rng.random(100)
        expected = [i for i, s in enumerate(scores) if s >= 0.7]
        assert self.passing(scores, 0.7) == expected

    def test_missing_score(self):
        with pytest.raises(DataError):
            self.passing([None], 0.5)


class TestBuildAugmented:
    def setup_method(self):
        self.curated = DatasetManifest(
            [ManifestRecord(f"c{i}", i, "curated") for i in range(3)]
        )
        self.pool = DatasetManifest(
            [ManifestRecord(f"p{i}", i, "uncurated", quality_score=0.5 + 0.1 * i) for i in range(5)]
        )

    def test_empty_retrieval(self):
        result = build_augmented_curated(
            self.curated, self.pool, np.arange(5), np.array([], dtype=np.int64), CurationConfig()
        )
        assert len(result.augmented_manifest) == 3
        assert all(r.source == "curated" for r in result.augmented_manifest.records)

    def test_counting_and_tagging(self):
        result = build_augmented_curated(
            self.curated, self.pool, np.arange(5), np.array([4, 1]), CurationConfig()
        )
        records = result.augmented_manifest.records
        assert len(records) == 5
        assert [r.source for r in records] == ["curated"] * 3 + ["retrieved"] * 2
        # retrieved ordered by ascending pool index, rows renumbered
        assert [r.sample_id for r in records[3:]] == ["p1", "p4"]
        assert [r.row_index for r in records] == list(range(5))

    def test_quality_threshold_drops(self):
        cfg = CurationConfig(quality_threshold=0.75)
        result = build_augmented_curated(
            self.curated, self.pool, np.arange(5), np.array([1, 3, 4]), cfg
        )
        assert [r.sample_id for r in result.augmented_manifest.records[3:]] == ["p3", "p4"]
        assert result.counts["removed_by_quality"] == 1

    def test_id_collision(self):
        pool = DatasetManifest([ManifestRecord("c0", 0, "uncurated", quality_score=1.0)])
        with pytest.raises(DataError):
            build_augmented_curated(self.curated, pool, np.arange(1), np.array([0]), CurationConfig())


def test_full_curate_distribution(rng):
    # two well-separated clusters, 90/10 pool, balanced curated set
    n_pool, d = 6000, 8
    groups = (rng.random(n_pool) < 0.1).astype(int)
    centers = np.zeros((2, d))
    centers[0, 0] = 2.0
    centers[1, 1] = 2.0
    pool = unit(centers[groups] + rng.normal(0, 0.5, (n_pool, d)))
    cur_groups = np.repeat([0, 1], 30)
    curated = unit(centers[cur_groups] + rng.normal(0, 0.5, (60, d)))
    curated_manifest = DatasetManifest(
        [ManifestRecord(f"c{i}", i, "curated") for i in range(60)]
    )
    pool_manifest = DatasetManifest(
        [ManifestRecord(f"p{i}", i, "uncurated", quality_score=1.0) for i in range(n_pool)]
    )
    cfg = CurationConfig(dedup_threshold=0.999, retrieval_m=3)
    result, combined = curate(curated, curated_manifest, pool, pool_manifest, cfg)
    retrieved_groups = groups[result.retrieved]
    props = np.bincount(retrieved_groups, minlength=2) / result.retrieved.size
    assert abs(props[0] - 0.5) <= 0.05
    assert combined.n == len(result.augmented_manifest)


# --- blocked kernels against the per-row and full-sort references ---------

SIGN_D = 16  # entries +-1/4: unit rows whose dot products are exact multiples of 1/8


def sign_rows(codes):
    """One unit row per 16-bit code; bit k set gives -1/4 in column k."""
    codes = np.asarray(codes, dtype=np.int64).reshape(-1, 1)
    bits = (codes >> np.arange(SIGN_D)) & 1
    return np.where(bits == 1, -0.25, 0.25).reshape(-1, SIGN_D)


def as_pool(rows):
    return EmbeddingMatrix(np.asarray(rows, dtype=np.float32), normalized=True)


class TestDedupMatchesPerRowScan:
    def check(self, pool, threshold):
        got = deduplicate(pool, threshold)
        assert got.dtype == np.int64
        assert np.array_equal(got, greedy_dedup(pool.data, threshold))
        return got.tolist()

    def test_exact_duplicates(self, rng):
        base = sign_rows(rng.choice(2**SIGN_D, size=40, replace=False))
        pool = as_pool(base[rng.integers(0, 40, size=600)])
        for threshold in (0.9, 1.0):  # a row's dot with itself is exactly 1
            kept = self.check(pool, threshold)
            assert len(kept) == np.unique(pool.data, axis=0).shape[0]

    def test_near_threshold_pairs(self, rng, make_unit_rows):
        threshold, delta = 0.95, 1e-5
        base = make_unit_rows(rng, 50, 32)
        rows = []
        for i, b in enumerate(base):
            u = rng.standard_normal(32)
            u -= (u @ b) * b
            u /= np.linalg.norm(u)
            c = threshold + (delta if i % 2 else -delta)
            rows += [b, c * b + np.sqrt(1 - c * c) * u]
        pool = unit(rows)
        kept = self.check(pool, threshold)
        # partners just above the threshold go, those just below stay
        assert kept == [j for j in range(100) if j % 2 == 0 or (j // 2) % 2 == 0]

    def test_duplicates_straddle_block_boundary(self, rng, make_unit_rows):
        b = curation._DEDUP_BLOCK
        n = 2 * b + 37  # not a multiple of the block size
        rows = make_unit_rows(rng, n, 32)
        copies = {b: b - 1, 2 * b + 5: 3, n - 1: b + 10, b + 1: b}  # target: source
        for target, source in copies.items():
            rows[target] = rows[source]
        kept = self.check(unit(rows), 0.99)
        assert kept == [i for i in range(n) if i not in copies]

    def test_many_kept_chunks(self, rng):
        pool = as_pool(sign_rows(rng.integers(0, 2**SIGN_D, size=400)))
        with mock.patch.multiple(curation, _DEDUP_BLOCK=7, _DEDUP_CHUNK=5):
            for threshold in (0.5, 0.75, 1.0):
                self.check(pool, threshold)

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny_pools(self, n):
        pool = as_pool(sign_rows(np.arange(n)))
        assert self.check(pool, 0.9) == list(range(n))


class TestTopmMatchesFullSort:
    def test_exhaustive_knn_on_ties(self, rng):
        candidates = sign_rows(rng.integers(0, 2**SIGN_D, size=300) & 0x0F0F)
        queries = sign_rows(rng.integers(0, 2**SIGN_D, size=2 * curation._TOPM_BLOCK + 9))
        m = 7
        local = _exact_topm(queries, candidates, m)
        assert [row.tolist() for row in local] == exhaustive_knn(queries, candidates, m)
        # m cuts through a group of equal scores for some queries
        ranked = -np.sort(-(queries @ candidates.T), axis=1)
        assert np.any(ranked[:, m - 1] == ranked[:, m])

    @pytest.mark.parametrize("m", [1, 7, 40])
    def test_stable_argsort_on_quantized(self, rng, m):
        candidates = np.round(rng.standard_normal((2000, 8)) * 2) / 2
        queries = np.round(rng.standard_normal((150, 8)) * 2) / 2
        expected = stable_topm(queries, candidates, m)
        assert np.array_equal(_exact_topm(queries, candidates, m), expected)
        with mock.patch.object(curation, "_TOPM_BLOCK", 5):
            assert np.array_equal(_exact_topm(queries, candidates, m), expected)

    def test_every_candidate(self, rng):
        candidates = np.round(rng.standard_normal((30, 4)))
        queries = np.round(rng.standard_normal((3, 4)))
        assert np.array_equal(_exact_topm(queries, candidates, 30), stable_topm(queries, candidates, 30))


# rows drawn from a few base codes with up to two flipped signs: many pairs
# sit exactly on the thresholds below
near_codes = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, SIGN_D - 1), st.integers(0, SIGN_D - 1)),
    max_size=60,
)


def codes_from(bases, picks):
    return [bases[b] ^ (1 << f1) ^ (1 << f2) for b, f1, f2 in picks]


@settings(max_examples=60, deadline=None)
@given(
    bases=st.lists(st.integers(0, 2**SIGN_D - 1), min_size=4, max_size=4),
    picks=near_codes,
    threshold=st.sampled_from([0.5, 0.75, 0.875, 1.0]),
    block=st.integers(1, 9),
    chunk=st.integers(1, 9),
)
def test_dedup_first_wins_property(bases, picks, threshold, block, chunk):
    data = sign_rows(codes_from(bases, picks))
    with mock.patch.multiple(curation, _DEDUP_BLOCK=block, _DEDUP_CHUNK=chunk):
        kept = deduplicate(as_pool(data), threshold)
    assert np.array_equal(kept, greedy_dedup(data, threshold))
    sims = data @ data.T
    kept_set = set(kept.tolist())
    for i in range(data.shape[0]):
        earlier = [j for j in kept_set if j < i]
        covered = bool(earlier) and sims[i, earlier].max() >= threshold
        assert (i in kept_set) == (not covered)


@settings(max_examples=60, deadline=None)
@given(
    bases=st.lists(st.integers(0, 2**SIGN_D - 1), min_size=4, max_size=4),
    cand_picks=near_codes.filter(bool),
    query_picks=near_codes.filter(bool),
    m_frac=st.floats(0.0, 1.0),
    block=st.integers(1, 9),
)
def test_topm_ties_to_lower_index_property(bases, cand_picks, query_picks, m_frac, block):
    candidates = sign_rows(codes_from(bases, cand_picks))
    queries = sign_rows(codes_from(bases, query_picks))
    m = 1 + int(m_frac * (candidates.shape[0] - 1))
    with mock.patch.object(curation, "_TOPM_BLOCK", block):
        local = _exact_topm(queries, candidates, m)
    assert np.array_equal(local, stable_topm(queries, candidates, m))
    sims = queries @ candidates.T
    for q, row in enumerate(local):
        vals = sims[q, row]
        # best first; equal scores in ascending index order
        assert all(v > w or (v == w and i < j) for v, w, i, j in zip(vals, vals[1:], row, row[1:]))
        # nothing left out beats the last pick, or ties it from a lower index
        left = np.setdiff1d(np.arange(candidates.shape[0]), row)
        assert not np.any((sims[q, left] > vals[-1]) | ((sims[q, left] == vals[-1]) & (left < row[-1])))


# --- memory: no query x pool or pool x pool float64 matrix at once --------

MEMORY_LIMIT = 64 * 2**20


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dedup_memory_bounded(rng, make_unit_rows):
    pool = EmbeddingMatrix(make_unit_rows(rng, 20000, 64).astype(np.float32), normalized=True)
    assert traced_peak(lambda: deduplicate(pool, 0.95)) < MEMORY_LIMIT


def test_knn_retrieve_memory_bounded(rng, make_unit_rows):
    pool = EmbeddingMatrix(make_unit_rows(rng, 20000, 64).astype(np.float32), normalized=True)
    curated = EmbeddingMatrix(make_unit_rows(rng, 400, 64).astype(np.float32), normalized=True)
    assert traced_peak(lambda: knn_retrieve(curated, pool, np.arange(pool.n), 4)) < MEMORY_LIMIT
