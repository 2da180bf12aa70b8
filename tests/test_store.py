import numpy as np
import pytest

from fairssl.errors import DataError, DegenerateInputError, FileSizeError, FormatError
from fairssl.store import (
    DatasetManifest,
    EmbeddingMatrix,
    ManifestRecord,
    load_embeddings,
    normalize_rows,
    read_jsonl,
    save_embeddings,
)


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
    with pytest.raises(DataError):
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


def test_manifest_round_trip(tmp_path):
    manifest = DatasetManifest(
        [
            ManifestRecord("a", 0, "curated"),
            ManifestRecord("b", 1, "retrieved", quality_score=0.7),
            ManifestRecord("c", 2, "uncurated", group_label=1),
        ]
    )
    manifest.save(tmp_path / "m.jsonl")
    back = DatasetManifest.load(tmp_path / "m.jsonl")
    assert back.records == manifest.records


def test_manifest_rejects_duplicates():
    with pytest.raises(DataError):
        DatasetManifest([ManifestRecord("a", 0, "curated"), ManifestRecord("a", 1, "curated")])
    with pytest.raises(DataError):
        DatasetManifest([ManifestRecord("a", 0, "curated"), ManifestRecord("b", 0, "curated")])


def test_manifest_row_bounds():
    manifest = DatasetManifest([ManifestRecord("a", 5, "curated")])
    with pytest.raises(DataError):
        manifest.validate_rows(3)


def test_manifest_unknown_source():
    with pytest.raises(DataError):
        ManifestRecord("a", 0, "scraped")


def test_strip_group_labels():
    manifest = DatasetManifest([ManifestRecord("a", 0, "curated", group_label=3)])
    stripped = manifest.strip_group_labels()
    assert manifest.has_group_labels()
    assert not stripped.has_group_labels()
    assert stripped.records[0].sample_id == "a"


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
    ],
)
def test_malformed_manifest_line_names_path_and_line(tmp_path, bad, problem):
    path = tmp_path / "m.jsonl"
    path.write_bytes(GOOD_LINE + b"\n\n" + bad + b"\n")
    with pytest.raises(FormatError, match=rf"m\.jsonl:3: .*{problem}"):
        DatasetManifest.load(path)


def test_read_jsonl_optional_and_widened_fields(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text(
        '  {"id": "a", "row": 0, "source": "curated", "quality": 1, "extra": [1]}\r\n'
        "\n"
        '{"id": "b", "row": 1, "source": "retrieved", "quality": null, "group": 2}\n'
    )
    rows = read_jsonl(path, {"id": str, "quality": float, "group": int}, optional=("quality", "group"))
    assert rows == [("a", 1.0, None), ("b", None, 2)]
    assert type(rows[0][1]) is float
    records = DatasetManifest.load(path).records
    assert records[0] == ManifestRecord("a", 0, "curated", quality_score=1.0)
    assert records[1] == ManifestRecord("b", 1, "retrieved", group_label=2)


def test_read_jsonl_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError, match="absent.jsonl"):
        read_jsonl(tmp_path / "absent.jsonl", {"id": str})
