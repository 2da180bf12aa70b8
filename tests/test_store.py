import ast
import dataclasses
import json
import stat
import sys
import tracemalloc
import typing
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairssl import store
from fairssl.errors import DataError, DegenerateInputError, FileSizeError, FormatError
from fairssl.store import (
    DatasetManifest,
    EmbeddingMatrix,
    load_embeddings,
    normalize_rows,
    read_jsonl,
    save_embeddings,
    write_file,
    write_jsonl,
)

from oracles import manifest_entries, whole_matrix_norm_deviation, whole_matrix_normalize


def test_round_trip_small(tmp_path):
    m = EmbeddingMatrix(np.arange(6, dtype=np.float32).reshape(2, 3))
    save_embeddings(m, tmp_path / "a.fssl")
    back = load_embeddings(tmp_path / "a.fssl")
    assert back.n == 2 and back.d == 3
    assert back.data.tobytes() == m.data.tobytes()


def test_round_trip_single_value(tmp_path):
    m = EmbeddingMatrix(np.array([[3.5]], dtype=np.float32))
    save_embeddings(m, tmp_path / "a.fssl")
    assert load_embeddings(tmp_path / "a.fssl").data[0, 0] == np.float32(3.5)


def test_round_trip_empty(tmp_path):
    m = EmbeddingMatrix(np.zeros((0, 16), dtype=np.float32))
    save_embeddings(m, tmp_path / "a.fssl")
    back = load_embeddings(tmp_path / "a.fssl")
    assert back.n == 0 and back.d == 16


def test_round_trip_random_bit_identical(tmp_path, rng):
    data = rng.standard_normal((256, 512)).astype(np.float32)
    m = EmbeddingMatrix(data)
    save_embeddings(m, tmp_path / "a.fssl")
    back = load_embeddings(tmp_path / "a.fssl")
    assert back.data.tobytes() == data.tobytes()
    assert back.normalized == m.normalized


def test_normalized_flag_round_trips(tmp_path, make_unit_rows, rng):
    m = EmbeddingMatrix(make_unit_rows(rng, 4, 8).astype(np.float32), normalized=True)
    save_embeddings(m, tmp_path / "a.fssl")
    assert load_embeddings(tmp_path / "a.fssl").normalized


def test_truncated_payload_is_size_error(tmp_path):
    m = EmbeddingMatrix(np.ones((2, 3), dtype=np.float32))
    path = tmp_path / "a.fssl"
    save_embeddings(m, path)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(FileSizeError):
        load_embeddings(path)


def test_nan_payload_is_data_error(tmp_path):
    m = EmbeddingMatrix(np.ones((2, 2), dtype=np.float32))
    path = tmp_path / "a.fssl"
    save_embeddings(m, path)
    raw = bytearray(path.read_bytes())
    raw[-4:] = np.array([np.nan], dtype="<f4").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match=r"a\.fssl: embedding matrix contains non-finite values"):
        load_embeddings(path)


def test_flagged_norm_deviation_names_file(tmp_path, make_unit_rows, rng):
    path = tmp_path / "a.fssl"
    save_embeddings(EmbeddingMatrix(make_unit_rows(rng, 3, 4).astype(np.float32), normalized=True), path)
    raw = bytearray(path.read_bytes())
    raw[-4:] = np.array([2.0], dtype="<f4").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match=r"a\.fssl: matrix flagged normalized but a row norm deviates"):
        load_embeddings(path)


def test_bad_magic_is_format_error(tmp_path):
    path = tmp_path / "a.fssl"
    path.write_bytes(b"XXXX" + b"\0" * 32)
    with pytest.raises(FormatError):
        load_embeddings(path)


def test_constructor_rejects_nonfinite():
    with pytest.raises(DataError):
        EmbeddingMatrix(np.array([[1.0, np.inf]]))


def test_constructor_rejects_false_normalized_flag():
    with pytest.raises(DataError):
        EmbeddingMatrix(np.array([[3.0, 4.0]]), normalized=True)


def test_normalize_three_four_five_triangle():
    out = normalize_rows(EmbeddingMatrix(np.array([[3.0, 4.0]], dtype=np.float32)))
    assert np.allclose(out.data, [[0.6, 0.8]], atol=1e-7)
    assert out.normalized


def test_normalize_idempotent_and_direction_preserving(make_unit_rows, rng):
    m = EmbeddingMatrix(rng.standard_normal((50, 7)).astype(np.float32))
    once = normalize_rows(m)
    twice = normalize_rows(once)
    assert np.max(np.abs(once.data - twice.data)) < 1e-7
    cos = np.sum(m.data.astype(np.float64) * once.data, axis=1)
    cos /= np.linalg.norm(m.data.astype(np.float64), axis=1)
    assert np.max(np.abs(cos - 1.0)) < 1e-7


def test_normalize_zero_row_names_index():
    data = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.float32)
    with pytest.raises(DegenerateInputError, match="index 1"):
        normalize_rows(EmbeddingMatrix(data))


def _block_rows(d):
    """Rows per block of the ingest passes at width d."""
    return store._ROW_BLOCK_BYTES // (8 * d)


def _blocks_of(rows, d):
    """Patch the block size to ``rows`` rows at width d."""
    return mock.patch.object(store, "_ROW_BLOCK_BYTES", 8 * d * rows)


def _spread_rows(rng, n, d):
    """Float32 rows of mixed scale, a few entries zeroed, none all zero."""
    data = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-15, 15, (n, 1))
    data[rng.random((n, d)) < 0.2] = 0.0
    data[:, 0] += np.all(data == 0.0, axis=1)
    return data.astype(np.float32)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 70),
    rows_per_block=st.sampled_from([None, 1, 2, 5]),  # None: the module's own
    blocks_and_extra=st.sampled_from([(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 3)]),
    fortran=st.booleans(),
    bad_row=st.sampled_from(["first", "last", "any"]),
    deviation=st.sampled_from([0.0, 4e-7, 9e-7, 1.2e-6, 3e-6, 1e-2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_ingest_matches_whole_matrix(d, rows_per_block, blocks_and_extra, fortran, bad_row, deviation, seed):
    rng = np.random.default_rng(seed)
    block = rows_per_block or _block_rows(d)
    n = blocks_and_extra[0] * block + blocks_and_extra[1]
    data = _spread_rows(rng, n, d)
    if fortran:
        data = np.asfortranarray(data)
    with _blocks_of(block, d):
        out = normalize_rows(EmbeddingMatrix(data))
        assert out.normalized and out.data.dtype == np.float32 and out.data.shape == (n, d)
        assert out.data.tobytes() == whole_matrix_normalize(data).tobytes()
        if n == 0:
            return
        # scale one row off unit norm: the blocked check accepts exactly what
        # the whole-matrix check accepts and names the same deviation
        unit = np.array(out.data, order="F" if fortran else "C")
        r = {"first": 0, "last": n - 1, "any": int(rng.integers(n))}[bad_row]
        unit[r] *= np.float32(1.0 + deviation)
        worst = whole_matrix_norm_deviation(unit)
        if worst <= store._NORM_TOL:
            assert EmbeddingMatrix(unit, normalized=True).data is unit
        else:
            with pytest.raises(DataError, match=f"deviates by {worst:.3e}"):
                EmbeddingMatrix(unit, normalized=True)


@pytest.mark.parametrize("rows_per_block", [None, 3])
def test_norm_check_finds_bad_row_in_last_block(rng, rows_per_block):
    d = 8
    block = rows_per_block or _block_rows(d)
    with _blocks_of(block, d):
        unit = normalize_rows(EmbeddingMatrix(rng.standard_normal((2 * block + 3, d)).astype(np.float32))).data
        EmbeddingMatrix(unit, normalized=True)
        unit[-1] *= np.float32(1.01)
        with pytest.raises(DataError, match="flagged normalized"):
            EmbeddingMatrix(unit, normalized=True)
        EmbeddingMatrix(unit[:-1], normalized=True)
        # a non-finite value in a later block is named before a norm fault in the first
        unit[0] *= np.float32(1.01)
        unit[-1, 0] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            EmbeddingMatrix(unit, normalized=True)


@pytest.mark.parametrize("rows_per_block", [None, 4])
def test_normalize_zero_row_in_later_block_names_global_index(rng, rows_per_block):
    d = 16
    block = rows_per_block or _block_rows(d)
    data = rng.standard_normal((3 * block, d)).astype(np.float32)
    zero = 2 * block + 1
    data[zero] = 0.0
    data[zero + 1 :] = 0.0
    with _blocks_of(block, d), pytest.raises(DegenerateInputError, match=f"zero row at index {zero}$"):
        normalize_rows(EmbeddingMatrix(data))


@pytest.mark.parametrize("build", ["normalize_rows", "normalized_check"])
def test_ingest_memory_is_a_few_blocks(rng, build):
    # 3.5 blocks at the module's block size: the float64 work must stay
    # within a few blocks beyond the float32 output (whole-matrix passes
    # peak at 7.1 and 4.1 times the payload here)
    d = 64
    data = rng.standard_normal((7 * _block_rows(d) // 2, d)).astype(np.float32)
    unit = whole_matrix_normalize(data)
    tracemalloc.start()
    try:
        if build == "normalize_rows":
            normalize_rows(EmbeddingMatrix(data))
        else:
            EmbeddingMatrix(unit, normalized=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = data.nbytes if build == "normalize_rows" else 0
    assert peak <= output + 3 * store._ROW_BLOCK_BYTES, peak / data.nbytes


@pytest.mark.parametrize("normalized", [False, True])
def test_load_holds_one_payload_read_only(tmp_path, rng, normalized):
    # the matrix is a view over the bytes read; copying it out of them held
    # two payloads at once (2.0 and 2.5 times the payload here)
    d = 64
    data = rng.standard_normal((8 * _block_rows(d), d)).astype(np.float32)
    if normalized:
        data = whole_matrix_normalize(data)
    save_embeddings(EmbeddingMatrix(data, normalized=normalized), tmp_path / "a.fssl")
    tracemalloc.start()
    try:
        loaded = load_embeddings(tmp_path / "a.fssl")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= data.nbytes + 3 * store._ROW_BLOCK_BYTES, peak / data.nbytes
    assert np.array_equal(loaded.data, data)
    assert not loaded.data.flags.writeable


@pytest.mark.parametrize("case", ["flagged", "unflagged", "d=1"])
@pytest.mark.parametrize("rows_per_block", [None, 3])
def test_normalizing_load_equals_normalize_rows_of_load(tmp_path, rng, case, rows_per_block):
    d = 1 if case == "d=1" else 16
    block = rows_per_block or _block_rows(d)
    data = _spread_rows(rng, 2 * block + 1, d)
    if case == "flagged":  # within the flag's tolerance of unit norm, not on it
        data = whole_matrix_normalize(data) * np.float32(1 + 4e-7)
    save_embeddings(EmbeddingMatrix(data, normalized=case == "flagged"), tmp_path / "a.fssl")
    with _blocks_of(block, d):
        expected = normalize_rows(load_embeddings(tmp_path / "a.fssl"))
        loaded = load_embeddings(tmp_path / "a.fssl", normalize=True)
    if case == "flagged":
        assert expected.data.tobytes() != data.tobytes()  # renormalizing moved bits
    assert loaded.normalized and loaded.data.dtype == np.float32 and loaded.data.flags.writeable
    assert loaded.data.tobytes() == expected.data.tobytes()


def test_normalizing_load_holds_one_payload(tmp_path, rng):
    # the rows are scaled in the buffer the file was read into; normalizing
    # a loaded matrix held two payloads (2.0 times the payload here)
    d = 64
    data = rng.standard_normal((24 * _block_rows(d), d), dtype=np.float32)
    save_embeddings(EmbeddingMatrix(data), tmp_path / "a.fssl")
    tracemalloc.start()
    try:
        loaded = load_embeddings(tmp_path / "a.fssl", normalize=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * data.nbytes, peak / data.nbytes
    assert loaded.data.tobytes() == whole_matrix_normalize(data).tobytes()


def test_manifest_round_trip(tmp_path):
    manifest = DatasetManifest.from_columns(
        ["a", "b", "c"], ["curated", "retrieved", "uncurated"],
        quality=[None, 0.7, None], group=[None, None, 1],
    )
    manifest.save(tmp_path / "m.jsonl")
    back = DatasetManifest.load(tmp_path / "m.jsonl")
    assert not hasattr(back, "rows")  # record i describes row i: there is no row column
    assert manifest_entries(back) == manifest_entries(manifest) == [
        ("a", 0, "curated", None, None),
        ("b", 1, "retrieved", 0.7, None),
        ("c", 2, "uncurated", None, 1),
    ]


def test_manifest_rejects_duplicates():
    with pytest.raises(DataError, match="^manifest: sample id 'a' appears more than once$"):
        DatasetManifest.from_columns(["a", "a"], "curated")
    # the id whose second occurrence comes first names the error ('a' repeats too, later)
    for ids in (["a", "b", "c", "b", "a"], ["b", "a", "b", "a"]):  # sorted, 'a' repeats first
        with pytest.raises(DataError, match="sample id 'b' appears"):
            DatasetManifest.from_columns(ids, "curated")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_manifest_rejects_non_finite_quality(value):
    # a manifest file cannot hold them (read_jsonl rejects NaN and Infinity),
    # so a manifest in memory holds none either
    with pytest.raises(DataError, match="quality of sample 'b' is not finite"):
        DatasetManifest.from_columns(["a", "b"], "uncurated", quality=[0.5, value])


def test_manifest_row_count():
    manifest = DatasetManifest.from_columns(["a", "b"], "curated")
    manifest.validate_rows(2, "m.jsonl")
    for n in (1, 3):
        with pytest.raises(DataError, match=f"^m.jsonl: manifest describes 2 rows but the matrix has {n}$"):
            manifest.validate_rows(n, "m.jsonl")


def test_manifest_unknown_source():
    with pytest.raises(DataError, match="unknown source 'scraped' for sample 'b'"):
        DatasetManifest.from_columns(["a", "b"], ["curated", "scraped"])


GOOD_LINE = b'{"id": "a", "row": 0, "source": "curated"}'


@pytest.mark.parametrize(
    "bad, problem",
    [
        (b'{"id": "b", "row": "x", "source": "curated"}', "'row' must be int"),
        (b"[1, 2]", "expected a JSON object"),
        (b'{"id": "b", "row": null, "source": "curated"}', "'row' is null"),
        (b'{"id": "b", "row": 1, "source": "curated", "note": "\xff"}', "not UTF-8"),
        (b'{"id": "b", "row": 1', "invalid JSON"),
        (b'{"id": "b", "row": 1, "source": "curated"} {}', "extra data"),
        (b'{"id": "b", "source": "curated"}', "missing key 'row'"),
        (b'{"id": "b", "row": true, "source": "curated"}', "'row' must be int"),
        (b'{"id": 7, "row": 1, "source": "curated"}', "'id' must be str"),
        (b'{"id": "b", "row": 1, "source": "curated", "quality": "high"}', "'quality' must be float"),
        (b'{"id": "b", "row": 1, "source": "curated", "group": 1.5}', "'group' must be int"),
        (b'{"id": "b", "row": 9223372036854775808, "source": "curated"}', "'row' is outside the int64 range"),
        (b'{"id": "b", "row": 1, "source": "curated", "group": -9223372036854775809}', "'group' is outside the int64"),
        (b'{"id": "b", "row": 1, "source": "curated", "quality": NaN}', "invalid JSON: NaN is not a JSON number"),
        (b'{"id": "b", "row": 1, "source": "curated", "quality": Infinity}', "invalid JSON: Infinity is not"),
        (b'{"id": "b", "row": 1, "source": "curated", "quality": -Infinity}', "invalid JSON: -Infinity is not"),
    ],
)
def test_malformed_manifest_line_names_path_and_line(tmp_path, bad, problem):
    path = tmp_path / "m.jsonl"
    path.write_bytes(GOOD_LINE + b"\n\n" + bad + b"\n")
    with pytest.raises(FormatError, match=rf"m\.jsonl:3: .*{problem}"):
        DatasetManifest.load(path)


@pytest.mark.parametrize(
    "line2",
    [b'{"id": "b", "row": 1, "source": "scraped"}',
     b'{"id": "a", "row": 1, "source": "curated"}',
     b'{"id": "b", "row": 0, "source": "curated"}'],
    ids=["unknown-source", "duplicate-id", "misplaced-row"],
)
def test_invalid_line_wins_over_an_earlier_bad_sample(tmp_path, line2):
    path = tmp_path / "m.jsonl"
    path.write_bytes(GOOD_LINE + b"\n" + line2 + b'\n{"id": "c", "row": 2\n')
    with pytest.raises(FormatError, match=r"m\.jsonl:3: invalid JSON"):
        DatasetManifest.load(path)


def test_record_naming_another_row_fails_to_load(tmp_path):
    # record i describes matrix row i (blank lines aside): a reordered file must not be misjoined
    path = tmp_path / "m.jsonl"
    path.write_bytes(
        GOOD_LINE + b'\n\n{"id": "b", "row": 2, "source": "curated"}\n{"id": "c", "row": 1, "source": "curated"}\n'
    )
    with pytest.raises(DataError, match=r"m\.jsonl: sample 'b' is record 1 but names row 2$"):
        DatasetManifest.load(path)


def test_unknown_source_wins_over_a_later_duplicate_id(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_bytes(
        GOOD_LINE + b'\n{"id": "b", "row": 1, "source": "scraped"}\n{"id": "a", "row": 2, "source": "curated"}\n'
    )
    with pytest.raises(DataError, match=r"/m\.jsonl: unknown source 'scraped' for sample 'b'$"):
        DatasetManifest.load(path)


def test_duplicate_id_in_a_file_names_the_file(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_bytes(GOOD_LINE + b'\n{"id": "a", "row": 1, "source": "curated"}\n')
    with pytest.raises(DataError, match=r"/m\.jsonl: manifest: sample id 'a' appears more than once$"):
        DatasetManifest.load(path)


def test_bad_byte_wins_over_an_earlier_invalid_line(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_bytes(GOOD_LINE + b'\n{"id": "b"\n{"id": "\xff", "row": 2, "source": "curated"}\n')
    with pytest.raises(FormatError, match=r"m\.jsonl:3: not UTF-8"):
        DatasetManifest.load(path)


@pytest.mark.parametrize("raw", [b"", b"\n \n\t\r\n\n"], ids=["empty", "blank-lines"])
def test_empty_manifest_file_loads_empty(tmp_path, raw):
    path = tmp_path / "m.jsonl"
    path.write_bytes(raw)
    manifest = DatasetManifest.load(path)
    assert len(manifest) == 0 and manifest_entries(manifest) == []
    assert manifest.group.dtype == np.int64 and manifest.quality.dtype == np.float64


def test_manifest_load_memory_is_about_one_file(tmp_path, rng):
    # a 5,000-line pool manifest: the load may hold the file's bytes and the
    # columns it keeps, not every line's tuple and object arrays besides
    # (those peaked at 2.8 times the columns plus the file)
    n = 5000
    path = tmp_path / "m.jsonl"
    DatasetManifest.from_columns(
        [f"pool-{i:06d}" for i in range(n)], "uncurated", quality=rng.uniform(0.2, 1.0, n)
    ).save(path)
    tracemalloc.start()
    try:
        manifest = DatasetManifest.load(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(manifest) == n
    base = kept + path.stat().st_size
    assert peak <= 2 * base, peak / base


def _per_line(columns: list) -> list[tuple]:
    """``read_jsonl``'s columns as one tuple per line, None where an
    optional value is absent."""
    per_field = [
        [v if p else None for v, p in zip(c[0].tolist(), c[1].tolist())] if isinstance(c, tuple)
        else c if isinstance(c, list) else c.tolist()
        for c in columns
    ]
    return list(zip(*per_field))


def test_read_jsonl_optional_and_widened_fields(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text(
        '  {"id": "a", "row": 0, "source": "curated", "quality": 1, "extra": [1]}\r\n'
        "\n"
        '{"id": "b", "row": 1, "source": "retrieved", "quality": null, "group": 2}\n'
    )
    columns = read_jsonl(path, {"id": str, "quality": float, "group": int}, optional=("quality", "group"))
    assert _per_line(columns) == [("a", 1.0, None), ("b", None, 2)]
    ids, (quality, has_quality), (group, has_group) = columns
    assert type(ids) is list and quality.dtype == np.float64 and group.dtype == np.int64
    assert has_quality.dtype == has_group.dtype == bool
    assert quality[1] == group[0] == 0  # absent values read 0
    assert manifest_entries(DatasetManifest.load(path)) == [
        ("a", 0, "curated", 1.0, None),
        ("b", 1, "retrieved", None, 2),
    ]


@pytest.mark.parametrize(
    "value, problem",
    [(b"-%d" % 2**1100, "'quality' is outside the float range"),
     (b"1" + b"0" * 5000, "invalid JSON: Exceeds the limit"),  # past int's digit limit
     (b"[" * 100000, "invalid JSON: maximum recursion")],
    ids=["huge-quality", "over-long-integer", "deep-nesting"],
)
def test_oversized_manifest_value_names_path_and_line(tmp_path, value, problem):
    path = tmp_path / "m.jsonl"
    path.write_bytes(GOOD_LINE + b'\n{"id": "b", "row": 1, "source": "curated", "quality": %s}\n' % value)
    with pytest.raises(FormatError, match=rf"m\.jsonl:2: {problem}"):
        DatasetManifest.load(path)


def test_read_jsonl_integer_range_edges(tmp_path):
    path = tmp_path / "m.jsonl"
    big = 2**1024 - 2**970  # the least integer that rounds past the largest float
    lines = [(-(2**63), 2**63 - 1, big - 1), (0, 0, 1 - big)]
    path.write_text("".join(json.dumps({"a": a, "b": b, "q": q}) + "\n" for a, b, q in lines))
    columns = read_jsonl(path, {"a": int, "b": int, "q": float})
    assert _per_line(columns) == [(-(2**63), 2**63 - 1, sys.float_info.max), (0, 0, -sys.float_info.max)]
    path.write_text(json.dumps({"a": 0, "b": 0, "q": big}) + "\n")
    with pytest.raises(FormatError, match="m.jsonl:1: 'q' is outside the float range"):
        read_jsonl(path, {"a": int, "b": int, "q": float})


def test_read_jsonl_field_no_line_fills_holds_no_values(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_bytes(b"".join(b'{"id": "s%d", "row": %d, "source": "curated"}\n' % (i, i) for i in range(3000)))
    manifest = DatasetManifest.load(path)
    for values in (manifest.quality, manifest.has_quality, manifest.group, manifest.has_group):
        assert values.shape == (3000,) and values.strides == (0,) and not values.flags.writeable
    assert not manifest.group.any() and not manifest.has_group.any()
    assert manifest.group.dtype == np.int64 and manifest.quality.dtype == np.float64


@pytest.mark.parametrize("first", [0, 1, 5, 6])
def test_read_jsonl_field_first_filled_in_a_later_block(tmp_path, first):
    path = tmp_path / "m.jsonl"
    path.write_bytes(b"".join(
        b'{"id": "s%d"%s}\n' % (i, b', "g": %d' % i if i in (first, 6) else b"") for i in range(7)
    ))
    with mock.patch.object(store, "_LINE_BLOCK", 2):
        ids, (group, has_group) = read_jsonl(path, {"id": str, "g": int}, optional=("g",))
    assert ids == [f"s{i}" for i in range(7)]
    assert group.tolist() == [i if i in (first, 6) else 0 for i in range(7)]
    assert has_group.tolist() == [i in (first, 6) for i in range(7)]


def _utf8_error(raw: bytes) -> str:
    """The line and reason of the first bad UTF-8 sequence of ``raw``, as
    decoding it whole finds them."""
    try:
        raw.decode()
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        return f"{lineno}: not UTF-8: {exc.reason}"
    return ""


@pytest.mark.parametrize(
    "raw",
    [
        GOOD_LINE + b'\n{"id": "\xe2\x82(", "row": 1, "source": "curated"}\n',  # bad continuation
        GOOD_LINE + b'\n{"id": "\xf0\x9f\x98\x80", "row": 1, "source": "curated"}\n{"id": "\xe9"}\n',
        GOOD_LINE + b'\n{"id": "b", "row": 1, "source": "curated", "n": "\xe2\x82',  # cut at the end
        GOOD_LINE + b'\n{"id": "\xff", "row": 1, "source": "curated"}',  # no final newline
        b'{"id": "\xc3\xa9", "row": 0, "source": "curated"}\n{"id": "\xc3\xa8", "row": 1, "source": "curated"}',
    ],
    ids=["straddling", "after-a-good-4-byte-char", "truncated-at-eof", "last-line-no-newline", "valid"],
)
def test_utf8_check_in_chunks_names_the_whole_file_line(tmp_path, raw):
    # every chunk size, so each sequence straddles a boundary at every offset
    path = tmp_path / "m.jsonl"
    path.write_bytes(raw)
    problem = _utf8_error(raw)
    for chunk in range(1, len(raw) + 2):
        with mock.patch.object(store, "_UTF8_CHUNK", chunk):
            if not problem:
                assert [m[0] for m in manifest_entries(DatasetManifest.load(path))] == ["\xe9", "\xe8"]
                continue
            with pytest.raises(FormatError) as info:
                DatasetManifest.load(path)
        assert str(info.value) == f"{path}:{problem}", chunk


def test_read_jsonl_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError, match="absent.jsonl"):
        read_jsonl(tmp_path / "absent.jsonl", {"id": str})


_INT64 = st.integers(-(2**63), 2**63 - 1) | st.sampled_from([-(2**63), 2**63 - 1])
_FLOAT = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308])
_JSONL_FIELDS = {"id": str, "n": int, "x": float, "g": int, "q": float}


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.tuples(
    st.text() | st.sampled_from(['"', "\\", 'a"b\\c', "\x00\x1f\n\r\t\x7f", "\u00e9\u6f22\u2028\U0001f642"]),
    _INT64, _FLOAT, st.none() | _INT64, st.none() | _FLOAT,
), max_size=6))
def test_write_jsonl_round_trips_through_read_jsonl(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("jsonl") / "t.jsonl"
    columns = [list(column) for column in zip(*rows)] or [[]] * len(_JSONL_FIELDS)
    write_jsonl(path, dict(zip(_JSONL_FIELDS, columns)))
    text = path.read_text(encoding="ascii")
    assert text.count("\n") == len(rows) and text.endswith("\n") == bool(rows)  # no rows: an empty file
    for line, row in zip(text.splitlines(), rows):
        obj = json.loads(line)
        assert list(obj) == sorted(obj)  # keys sorted
        assert set(obj) == {key for key, value in zip(_JSONL_FIELDS, row) if value is not None}
    back = _per_line(read_jsonl(path, _JSONL_FIELDS, optional=("g", "q")))
    assert [tuple(map(repr, row)) for row in back] == [tuple(map(repr, row)) for row in rows]  # -0.0 too


def test_manifest_save_writes_the_bytes_of_per_record_json_dumps(tmp_path):
    entries = [
        ("a\"b", "retrieved", 0.25, None),
        ("c\u00e9", "curated", None, None),
        ("d", "uncurated", None, -2),
        ("e", "curated", 1.0, 7),
    ]
    DatasetManifest.from_columns(*zip(*entries)).save(tmp_path / "m.jsonl")
    keys = ("id", "source", "quality", "group")
    expected = "".join(  # each record names its own position as its row
        json.dumps({"row": i, **{k: v for k, v in zip(keys, entry) if v is not None}}, sort_keys=True) + "\n"
        for i, entry in enumerate(entries)
    )
    assert (tmp_path / "m.jsonl").read_bytes() == expected.encode()
    DatasetManifest.from_columns([], "curated").save(tmp_path / "empty.jsonl")
    assert (tmp_path / "empty.jsonl").read_bytes() == b""


def test_write_file_writes_chunks_in_order(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"older and longer contents")
    write_file(path, b"ab", "c\u00e9", memoryview(b"de"), np.arange(2, dtype="<u2"))
    assert path.read_bytes() == b"abc\xc3\xa9de\x00\x00\x01\x00"
    with open(tmp_path / "plain", "wb"):
        pass
    write_file(tmp_path / "new", "")
    assert stat.S_IMODE((tmp_path / "new").stat().st_mode) == stat.S_IMODE((tmp_path / "plain").stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.bin", "new", "plain"]


def test_write_file_error_is_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot write .*absent"):
        write_file(tmp_path / "absent" / "f.bin", b"x")


@pytest.mark.parametrize("exc", [OSError(28, "No space left on device"), KeyboardInterrupt()])
def test_interrupted_write_keeps_old_file_and_leaves_no_temp(tmp_path, break_writes, exc):
    path = tmp_path / "a.fssl"
    save_embeddings(EmbeddingMatrix(np.ones((3, 2), dtype=np.float32)), path)
    before = path.read_bytes()
    break_writes(exc)  # the header is written, the payload is not
    with pytest.raises(DataError if isinstance(exc, OSError) else KeyboardInterrupt):
        save_embeddings(EmbeddingMatrix(np.zeros((5, 2), dtype=np.float32)), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["a.fssl"]


def _file_writes(source: str) -> list[int]:
    """Lines of ``source`` that call write_text or write_bytes, or open a
    file with a mode that can write (a mode not spelled out counts too)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name in ("write_text", "write_bytes"):
            lines.append(node.lineno)
        elif name == "open":
            # open(file, mode) and io.open(file, mode), but path.open(mode)
            method = isinstance(node.func, ast.Attribute) and getattr(node.func.value, "id", None) != "io"
            args = node.args[0 if method else 1 :]
            mode = next((k.value for k in node.keywords if k.arg == "mode"), args[0] if args else None)
            if mode is not None and not (
                isinstance(mode, ast.Constant) and isinstance(mode.value, str) and not set(mode.value) & set("wax+")
            ):
                lines.append(node.lineno)
    return lines


def _prints(source: str) -> list[int]:
    """Lines of ``source`` that call the builtin ``print``."""
    return [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"
    ]


def test_only_store_writes_files():
    src = Path(__file__).resolve().parent.parent / "src" / "fairssl"
    sources = {p.name: p.read_text() for p in sorted(src.glob("*.py"))}
    writes = {name: _file_writes(text) for name, text in sources.items()}
    assert len(writes.pop("store.py")) == 1  # write_file's open of the temp file
    assert {name: lines for name, lines in writes.items() if lines} == {}
    assert _file_writes("open(p)\nopen(p, 'rb')\np.open()\nio.open(p, mode='r')") == []
    assert _file_writes("open(p, 'r+')\np.open('ab')\nio.open(p, mode)\nopen(p, mode='x')\np.write_text(s)") == [1, 2, 3, 4, 5]
    # the library logs; only the command line prints
    prints = {name: _prints(text) for name, text in sources.items() if name != "cli.py"}
    assert {name: lines for name, lines in prints.items() if lines} == {}
    assert _prints("log.info(s)\nprinter(s)\nx.print(s)\nprint(s, file=f)\nf(print(s))") == [4, 5]


def test_src_imports_only_declared_dependencies():
    # numpy and PyYAML are the declared dependencies; a package that is merely
    # installed (scipy, say) would pass here and fail on a clean install
    src = sorted((Path(__file__).resolve().parent.parent / "src" / "fairssl").glob("*.py"))
    allowed = set(sys.stdlib_module_names) | {"numpy", "yaml", "fairssl"}
    imported = {p.name: _imports(p.read_text()) - allowed for p in src}
    assert {name: modules for name, modules in imported.items() if modules} == {}
    example = "import os.path, numpy as np\nfrom scipy import linalg\nfrom . import store\nfrom .x import y"
    assert _imports(example) == {"os", "numpy", "scipy"}


def _imports(source: str) -> set[str]:
    """Top-level package names that ``source`` imports; relative imports are
    the package's own modules and do not count."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.partition(".")[0])
    return found


def test_module_imports_are_used():
    # a removal must not strand an import; __init__.py imports are the package's re-exports
    src = sorted((Path(__file__).resolve().parent.parent / "src" / "fairssl").glob("*.py"))
    unused = {p.name: _unused_imports(p.read_text()) for p in src if p.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}
    example = (
        "from __future__ import annotations\nimport os, sys\nimport numpy as np\nimport a.b\n"
        "from .x import y, z\ndef f():\n    import json\n    return os.sep, y.q, a.b, f.np"
    )
    assert _unused_imports(example) == {"sys", "np", "z"}


def _unused_imports(source: str) -> set[str]:
    """Names that the top-level imports of ``source`` bind and no name in
    ``source`` uses (an attribute of that name is not a use); a
    ``__future__`` import binds none."""
    tree = ast.parse(source)
    bound = {
        (alias.asname or alias.name).partition(".")[0]
        for node in tree.body
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_private_definitions_have_a_caller_in_src():
    # a consolidation must not leave behind a private function or class that no src module uses
    src = sorted((Path(__file__).resolve().parent.parent / "src" / "fairssl").glob("*.py"))
    assert _orphans([p.read_text() for p in src]) == set()
    assert _orphans(["def _f(): return _f()\ndef _g(): pass\ndef h(): return _g\nclass _C: pass", "x = m._C"]) == {"_f"}


def _orphans(sources: list[str]) -> set[str]:
    """Private top-level functions and classes of ``sources`` that no other
    top-level statement of them uses; a call from its own body does not count."""
    statements = [
        (getattr(node, "name", None), _references(node))
        for source in sources for node in ast.parse(source).body
    ]
    return {
        name for name, _ in statements
        if name and name.startswith("_") and not any(name in used for other, used in statements if other != name)
    }


def _public_definitions(source: str) -> list[str]:
    """Names of the public functions and classes defined at the top level of ``source``."""
    return [
        node.name for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def _references(source: str | ast.AST) -> set[str]:
    """Every name ``source`` (code or a parsed node) uses, bare or as an attribute."""
    tree = ast.parse(source) if isinstance(source, str) else source
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_public_surface_has_a_caller_outside_tests():
    # a public function or class that only tests use belongs in tests/oracles.py
    repo = Path(__file__).resolve().parent.parent
    src = sorted((repo / "src" / "fairssl").glob("*.py"))
    defined = {name: p.name for p in src for name in _public_definitions(p.read_text())}
    callers = [*src, *sorted((repo / "demos").glob("*.py")), *sorted((repo / "bench").glob("*.py"))]
    used = set().union(*(_references(p.read_text()) for p in callers))
    assert {name: module for name, module in defined.items() if name not in used} == {}
    assert _public_definitions("def f(): pass\nclass C: pass\ndef _g(): pass\nx = 1") == ["f", "C"]
    assert _references("f(a.b)\nimport c\ndef g(): return C") == {"f", "a", "b", "C"}


def test_config_fields_are_read_in_src():
    # a config key that no code reads does nothing (probe.attribute was one); paths are read by name
    from fairssl.config import PipelineConfig

    hints = typing.get_type_hints(PipelineConfig)
    classes = [PipelineConfig, *(t for name, t in hints.items() if dataclasses.is_dataclass(t) and name != "paths")]
    src = sorted((Path(__file__).resolve().parent.parent / "src" / "fairssl").glob("*.py"))
    fields = {cls.__name__: [f.name for f in dataclasses.fields(cls)] for cls in classes}
    assert _unread_fields([p.read_text() for p in src], fields) == set()
    example = ("class C:\n    a: int\n    b: int\n    c: int\n"
               "    def __post_init__(self): assert self.b and self.c\n"
               "    def d(self): return 2 * self.c\n"
               "x = o.a\no.b = 1")
    assert _unread_fields([example], {"C": ["a", "b", "c"]}) == {"C.b"}


def _unread_fields(sources: list[str], fields: dict[str, list[str]]) -> set[str]:
    """``Class.field`` for each listed field that no code of ``sources`` reads
    as an attribute; a read in the class's own ``__post_init__`` only checks
    the value, so it does not count."""
    trees = [ast.parse(source) for source in sources]
    unread = set()
    for cls, names in fields.items():
        reads = set().union(*(_attribute_loads(tree, cls) for tree in trees))
        unread |= {f"{cls}.{name}" for name in names if name not in reads}
    return unread


def _attribute_loads(node: ast.AST, cls: str, in_cls: bool = False) -> set[str]:
    """Attribute names that ``node`` reads, outside ``cls.__post_init__``."""
    if in_cls and isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
        return set()
    in_cls = in_cls or isinstance(node, ast.ClassDef) and node.name == cls
    found = {node.attr} if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) else set()
    return found.union(*(_attribute_loads(child, cls, in_cls) for child in ast.iter_child_nodes(node)))
