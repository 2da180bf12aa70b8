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
from fairssl.store import DatasetManifest, EmbeddingMatrix, load_embeddings, normalize_rows, save_embeddings

from conftest import unit_rows
from oracles import cosine_similarity, exhaustive_knn, greedy_dedup, manifest_entries, stable_topm


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

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_kept_rows_outside_pool(self, rng, make_unit_rows, bad):
        pool = EmbeddingMatrix(make_unit_rows(rng, 5, 4).astype(np.float32), normalized=True)
        curated = EmbeddingMatrix(pool.data[:1].copy(), normalized=True)
        with pytest.raises(DataError, match="kept rows"):
            knn_retrieve(curated, pool, np.array([0, 1, bad]), 1)

    def test_tie_breaks_to_lower_index(self):
        pool = unit([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        curated = unit([[1.0, 0.0]])
        out = knn_retrieve(curated, pool, np.arange(3), 1)
        assert out.tolist() == [0]


class TestQualityFilter:
    """``quality_threshold`` in ``build_augmented_curated``: which retrieved
    pool rows survive."""

    def passing(self, scores, threshold):
        rows = np.arange(len(scores))
        pool = DatasetManifest.from_columns([f"s{i}" for i in rows], "uncurated", quality=list(scores))
        result = build_augmented_curated(
            DatasetManifest.from_columns([], []), pool, rows, rows,
            CurationConfig(quality_threshold=threshold),
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
        with pytest.raises(DataError, match="sample 's1' has no quality score"):
            self.passing([0.9, None, None], 0.5)


class TestBuildAugmented:
    def setup_method(self):
        self.curated = DatasetManifest.from_columns([f"c{i}" for i in range(3)], "curated")
        self.pool = DatasetManifest.from_columns(
            [f"p{i}" for i in range(5)], "uncurated",
            quality=[0.5 + 0.1 * i for i in range(5)],
        )

    def test_empty_retrieval(self):
        result = build_augmented_curated(
            self.curated, self.pool, np.arange(5), np.array([], dtype=np.int64), CurationConfig()
        )
        assert len(result.augmented_manifest) == 3
        assert all(e[2] == "curated" for e in manifest_entries(result.augmented_manifest))

    def test_counting_and_tagging(self):
        result = build_augmented_curated(
            self.curated, self.pool, np.arange(5), np.array([4, 1]), CurationConfig()
        )
        entries = manifest_entries(result.augmented_manifest)
        assert len(entries) == 5
        assert [e[2] for e in entries] == ["curated"] * 3 + ["retrieved"] * 2
        # retrieved ordered by ascending pool index
        assert [e[0] for e in entries[3:]] == ["p1", "p4"]
        assert result.retrieved.tolist() == [1, 4]
        assert [e[3] for e in entries] == [None] * 3 + [0.6, 0.9]

    def test_quality_threshold_drops(self):
        cfg = CurationConfig(quality_threshold=0.75)
        result = build_augmented_curated(
            self.curated, self.pool, np.arange(5), np.array([1, 3, 4]), cfg
        )
        assert result.augmented_manifest.ids[3:] == ["p3", "p4"]
        assert result.counts["removed_by_quality"] == 1

    @pytest.mark.parametrize(
        "retrieved, problem",
        [([2, 5, 6], r"not in the deduplicated pool: \[5, 6\]"),
         ([1, 1], "contains duplicates"),
         ([4, 2, 1], r"missing from manifest: \[2, 4\]")],  # past the pool manifest's two rows
    )
    def test_retrieved_rows_checked(self, retrieved, problem):
        pool = DatasetManifest.from_columns(["p0", "p1"], "uncurated")
        with pytest.raises(DataError, match=problem):
            build_augmented_curated(self.curated, pool, np.arange(5), np.array(retrieved), CurationConfig())

    def test_id_collision(self):
        pool = DatasetManifest.from_columns(["p0", "c2", "c1"], "uncurated")
        with pytest.raises(DataError, match="id collision .*'c2'"):
            build_augmented_curated(self.curated, pool, np.arange(3), np.array([2, 1]), CurationConfig())


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
    curated_manifest = DatasetManifest.from_columns([f"c{i}" for i in range(60)], "curated")
    pool_manifest = DatasetManifest.from_columns(
        [f"p{i}" for i in range(n_pool)], "uncurated", quality=[1.0] * n_pool
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


class TestDedupLeavesPoolAsFound:
    """``deduplicate`` reads the pool in place and never writes it, even
    when most earlier rows are dropped and score -inf, or the scan raises."""

    def duplicate_heavy(self, rng, n=240):
        # at least half the rows repeat an earlier one, so most of each
        # chunk is masked
        codes = rng.integers(0, 2**SIGN_D, size=n // 3)
        return as_pool(sign_rows(codes[rng.integers(0, codes.size, size=n)]))

    @pytest.mark.parametrize("block", [1, 2, 3])
    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_tiny_blocks_match_per_row_scan(self, rng, block, chunk):
        pool = self.duplicate_heavy(rng)
        before = pool.data.tobytes()
        expected = greedy_dedup(pool.data, 0.9)
        assert expected.size <= pool.n // 2
        with mock.patch.multiple(curation, _DEDUP_BLOCK=block, _DEDUP_CHUNK=chunk):
            got = deduplicate(pool, 0.9)
        assert np.array_equal(got, expected)
        assert pool.data.tobytes() == before

    def test_pool_bytes_unchanged(self, rng):
        pool = self.duplicate_heavy(rng, n=2000)
        before = pool.data.tobytes()
        deduplicate(pool, 0.75)
        assert pool.data.tobytes() == before

    def test_pool_restored_after_error_mid_scan(self, rng):
        pool = self.duplicate_heavy(rng)
        before = pool.data.tobytes()
        triu, calls = np.triu, []

        def failing_triu(*args, **kwargs):  # called once per block
            calls.append(None)
            if len(calls) == 30:
                raise RuntimeError("injected")
            return triu(*args, **kwargs)

        with mock.patch.multiple(curation, _DEDUP_BLOCK=4, _DEDUP_CHUNK=3), \
                mock.patch.object(np, "triu", failing_triu), pytest.raises(RuntimeError, match="injected"):
            deduplicate(pool, 0.9)
        assert len(calls) == 30
        assert pool.data.tobytes() == before

    def test_read_only_pool(self, rng, tmp_path):
        pool = self.duplicate_heavy(rng)
        save_embeddings(pool, tmp_path / "pool.fssl")
        loaded = load_embeddings(tmp_path / "pool.fssl")
        assert loaded.normalized and not loaded.data.flags.writeable
        with mock.patch.multiple(curation, _DEDUP_BLOCK=5, _DEDUP_CHUNK=4):
            got = deduplicate(loaded, 0.9)
        assert np.array_equal(got, greedy_dedup(pool.data, 0.9))
        assert loaded.data.tobytes() == pool.data.tobytes()


def topm_blocks_of(rows, candidates):
    """Patch the top-m byte budget so that each block holds ``rows`` queries
    (float32 scores)."""
    return mock.patch.object(curation, "_TOPM_BLOCK_BYTES", rows * 4 * candidates.shape[0])


class TestTopmMatchesFullSort:
    def test_exhaustive_knn_on_ties(self, rng):
        candidates = sign_rows(rng.integers(0, 2**SIGN_D, size=300) & 0x0F0F)
        queries = sign_rows(rng.integers(0, 2**SIGN_D, size=2 * 64 + 9))
        m = 7
        with topm_blocks_of(64, candidates):
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
        with topm_blocks_of(5, candidates):
            assert np.array_equal(_exact_topm(queries, candidates, m), expected)

    def test_every_candidate(self, rng):
        candidates = np.round(rng.standard_normal((30, 4)))
        queries = np.round(rng.standard_normal((3, 4)))
        assert np.array_equal(_exact_topm(queries, candidates, 30), stable_topm(queries, candidates, 30))


class TestFloat32Screen:
    """Scores near a decision are settled in float64, as a plain float64
    scan settles them."""

    @pytest.mark.parametrize("d", [12, 32, 64])
    @pytest.mark.parametrize("threshold", [0.95, 1.0])
    def test_dedup_pairs_around_threshold(self, rng, make_unit_rows, d, threshold):
        delta = curation._screen_margin(d, 1.0)
        offsets = [s * k * delta for k in (0.25, 1.0, 3.0) for s in (-1, 1)]
        offsets = [o for o in offsets if threshold + o < 1.0]
        rows = []
        for b in make_unit_rows(rng, 40, d):
            for o in offsets:
                u = rng.standard_normal(d)
                u -= (u @ b) * b
                u /= np.linalg.norm(u)
                c = threshold + o
                rows += [b, c * b + np.sqrt(1 - c * c) * u]
            rows += [b, b]  # a float32 unit row's float64 self-dot rounds to either side of 1
        pool = as_pool(rows)
        x = pool.data.astype(np.float64)
        placed = np.einsum("ij,ij->i", x[0::2], x[1::2]) - threshold
        assert np.any(np.abs(placed) < delta) and np.any(np.abs(placed) > 2 * delta)
        expected = greedy_dedup(pool.data, threshold)
        assert np.array_equal(deduplicate(pool, threshold), expected)
        with mock.patch.multiple(curation, _DEDUP_BLOCK=3, _DEDUP_CHUNK=64):
            # nearly every pair now meets in a cross-block GEMM
            assert np.array_equal(deduplicate(pool, threshold), expected)

    @pytest.mark.parametrize("m", [1, 3])
    def test_topm_cut_between_scores_closer_than_margin(self, rng, make_unit_rows, m):
        # per query: m - 1 clear leaders, then two rows placed at the same
        # cosine, so that rounding alone separates their scores; the better
        # one in float64 goes to the higher index
        d, n_q = 64, 120
        queries = make_unit_rows(rng, n_q, d).astype(np.float32)
        q64 = queries.astype(np.float64)
        candidates = [make_unit_rows(rng, 300, d).astype(np.float32)]
        for q in q64:
            near = []
            for c in [0.99 - 0.01 * k for k in range(m - 1)] + [0.9, 0.9]:
                u = rng.standard_normal(d)
                u -= (u @ q) * q
                near.append(c * q + np.sqrt(1 - c * c) * u / np.linalg.norm(u))
            near = np.asarray(near, dtype=np.float32)
            if near[-2].astype(np.float64) @ q > near[-1].astype(np.float64) @ q:
                near[-2:] = near[-2:][::-1].copy()
            candidates.append(near)
        candidates = np.vstack(candidates)
        c64 = candidates.astype(np.float64)
        expected = stable_topm(q64, c64, m)
        exact = -np.sort(-(q64 @ c64.T), axis=1)
        assert np.all(exact[:, m - 1] - exact[:, m] < curation._screen_margin(d, 1.0))
        # float32 alone ranks some of the pairs the wrong way round
        sims32 = queries @ candidates.T
        lo = 300 + (m + 1) * np.arange(n_q) + m - 1
        assert np.any(sims32[np.arange(n_q), lo] > sims32[np.arange(n_q), lo + 1])
        assert np.array_equal(_exact_topm(queries, candidates, m), expected)
        with topm_blocks_of(7, candidates):
            assert np.array_equal(_exact_topm(queries, candidates, m), expected)


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
    with topm_blocks_of(block, candidates):
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


@settings(max_examples=80, deadline=None)
@given(
    layout=st.sampled_from(["one-group", "few-groups", "ties", "under-a-group"]),
    group=st.integers(2, 6),
    m=st.integers(1, 4),
    n_q=st.integers(1, 5),
    block=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_knn_retrieve_matches_float64_oracle_across_column_groups(layout, group, m, n_q, block, seed):
    # the shortlist threshold comes from the maxima of column groups; the
    # picks must be the float64 scan's wherever the top rows fall
    rng = np.random.default_rng(seed)
    queries = unit_rows(rng, n_q, SIGN_D).astype(np.float32)
    n_c = group * int(rng.integers(3, 7)) + int(rng.integers(0, group))
    pool = unit_rows(rng, n_c, SIGN_D)
    kept = np.ones(n_c, dtype=bool)
    if layout == "one-group":  # query 0's m best rows share one group
        m = min(m, group)
        start = group * int(rng.integers(0, n_c // group))
        near = queries[0] + 0.02 * (1 + np.arange(m))[:, None] * unit_rows(rng, m, SIGN_D)
        pool[start : start + m] = near / np.linalg.norm(near, axis=1, keepdims=True)
    elif layout == "few-groups":  # m - 1 groups hold every kept row
        m = max(m, 2)
        groups = rng.choice(n_c // group, size=m - 1, replace=False)
        kept[:] = False
        for g in groups:
            kept[g * group : (g + 1) * group] = True
    elif layout == "ties":  # equal rows, and so equal scores, in many groups
        codes = rng.integers(0, 2**SIGN_D, size=3)
        pool = sign_rows(codes[rng.integers(0, 3, size=n_c)])
        queries = sign_rows(codes[rng.integers(0, 3, size=n_q)] ^ rng.integers(0, 2**SIGN_D, size=n_q))
    else:  # a single group wider than the whole pool
        n_c = int(rng.integers(m, m + 4))
        pool, kept = pool[:n_c], kept[:n_c]
        group = n_c + int(rng.integers(1, 3))
    pool = as_pool(pool).data
    scores = queries.astype(np.float64) @ pool.astype(np.float64).T
    scores[:, ~kept] = -np.inf
    expected = np.argsort(-scores, axis=1, kind="stable")[:, :m]
    with mock.patch.multiple(curation, _TOPM_GROUP=group, _TOPM_BLOCK_BYTES=block * 4 * n_c):
        picks = _exact_topm(queries, pool, m, np.flatnonzero(~kept))
        got = knn_retrieve(as_pool(queries), as_pool(pool), np.flatnonzero(kept), m)
    assert np.array_equal(picks, expected)
    assert np.array_equal(got, np.unique(expected))


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


def test_knn_retrieve_scratch_independent_of_query_count(rng, make_unit_rows):
    # one block of scores is alive at a time: 3 and 24 blocks of queries
    # (of 2 MiB here) peak within a quarter block of one block
    pool = EmbeddingMatrix(make_unit_rows(rng, 30000, 64).astype(np.float32), normalized=True)
    block = curation._TOPM_BLOCK_BYTES // (4 * pool.n)
    queries = make_unit_rows(rng, 400, 64).astype(np.float32)
    peaks = [
        traced_peak(lambda: knn_retrieve(EmbeddingMatrix(queries[:n], normalized=True), pool, np.arange(pool.n), 4))
        for n in (block, 3 * block, 400)
    ]
    assert max(peaks) - peaks[0] < block * pool.n, peaks  # a quarter of 4 * block * pool.n bytes


def test_dedup_scratch_below_half_the_pool(rng, make_unit_rows, tmp_path):
    # the pool is read in place, writable or not, never copied; a smaller
    # chunk keeps the GEMM scores clear of the bound
    rows = make_unit_rows(rng, 20000, 64).astype(np.float32)
    rows[100::2000] = rows[5:15]  # a few duplicates, so some rows score -inf
    pool = EmbeddingMatrix(rows, normalized=True)
    save_embeddings(pool, tmp_path / "pool.fssl")
    loaded = load_embeddings(tmp_path / "pool.fssl")
    assert not loaded.data.flags.writeable
    for matrix in (pool, loaded):
        with mock.patch.object(curation, "_DEDUP_CHUNK", 1024):
            peak = traced_peak(lambda: deduplicate(matrix, 0.95))
        assert peak < matrix.data.nbytes / 2


def test_knn_retrieve_scratch_below_half_the_pool(rng, make_unit_rows):
    # the dropped rows are masked in the score blocks, not gathered out
    pool = EmbeddingMatrix(make_unit_rows(rng, 20000, 64).astype(np.float32), normalized=True)
    curated = EmbeddingMatrix(make_unit_rows(rng, 400, 64).astype(np.float32), normalized=True)
    kept = np.delete(np.arange(pool.n), [3, 500, 7000])
    with mock.patch.object(curation, "_TOPM_BLOCK_BYTES", 2**18):
        peak = traced_peak(lambda: knn_retrieve(curated, pool, kept, 4))
    assert peak < pool.data.nbytes / 2


def test_knn_retrieve_memory_bounded(rng, make_unit_rows):
    pool = EmbeddingMatrix(make_unit_rows(rng, 20000, 64).astype(np.float32), normalized=True)
    curated = EmbeddingMatrix(make_unit_rows(rng, 400, 64).astype(np.float32), normalized=True)
    assert traced_peak(lambda: knn_retrieve(curated, pool, np.arange(pool.n), 4)) < MEMORY_LIMIT
