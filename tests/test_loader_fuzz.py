"""Property tests for the artifact loaders.

Truncated, padded or byte-flipped embedding (FSSL), pseudo-label (FSPL)
and checkpoint (FSCK) files, and manifests, either load or raise a
``PipelineError`` subclass, never a raw numpy, struct or JSON exception.
What loads must be usable: finite values, binary labels, confidences in
[0.5, 1], and a model that runs. pytest turns ``RuntimeWarning`` into an
error, so a load that only warns fails too. Manifests also round-trip
byte for byte, and one with two records swapped fails to load.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairssl.errors import DataError, PipelineError
from fairssl.network import ModelParams, forward_features, load_checkpoint, save_checkpoint, set_frozen
from fairssl.pseudolabel import PseudoLabelTable
from fairssl.store import SOURCES, DatasetManifest, EmbeddingMatrix, load_embeddings, save_embeddings

from oracles import manifest_entries


def _valid_files(directory):
    """One valid file per format, with the loader that reads it."""
    rng = np.random.default_rng(7)
    rows = rng.standard_normal((6, 4))
    save_embeddings(
        EmbeddingMatrix((rows / np.linalg.norm(rows, axis=1, keepdims=True)).astype(np.float32), normalized=True),
        directory / "e.fssl",
    )
    PseudoLabelTable(
        rng.integers(0, 2, (6, 2)), (0.5 + 0.5 * rng.random((6, 2))).astype(np.float32), ["a", "b"]
    ).save(directory / "t.fspl")
    params = ModelParams.create(4, [5, 3], [4, 4, 2], seed=3)
    set_frozen(params, ["encoder.0"])
    save_checkpoint(params, directory / "c.fsck")
    DatasetManifest.from_columns(
        ["a", "b", "c"], ["curated", "retrieved", "uncurated"],
        quality=[None, 0.5, 1.0], group=[1, None, 0],
    ).save(directory / "m.jsonl")
    return {
        "fssl": (directory / "e.fssl", load_embeddings),
        "fspl": (directory / "t.fspl", PseudoLabelTable.load),
        "fsck": (directory / "c.fsck", load_checkpoint),
        "jsonl": (directory / "m.jsonl", DatasetManifest.load),
    }


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    return _valid_files(tmp_path_factory.mktemp("formats"))


@st.composite
def corrupted(draw, raw: bytes) -> bytes:
    kind = draw(st.sampled_from(["truncate", "pad", "flip"]))
    if kind == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if kind == "pad":
        return raw + draw(st.binary(min_size=1, max_size=64))
    out = bytearray(raw)
    flips = st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255))
    for at, mask in draw(st.lists(flips, min_size=1, max_size=4)):
        out[at] ^= mask
    return bytes(out)


@pytest.mark.parametrize("fmt", ["fssl", "fspl", "fsck", "jsonl"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_corrupted_file_loads_or_raises_pipeline_error(valid_files, fmt, data):
    path, load = valid_files[fmt]
    raw = path.read_bytes()
    bad = path.with_name("bad" + path.suffix)
    bad.write_bytes(data.draw(corrupted(raw)))
    try:
        loaded = load(bad)
    except PipelineError as exc:
        assert str(bad) in str(exc)  # every error about a file names it
        return
    if fmt == "fssl":
        assert np.isfinite(loaded.data).all()
    elif fmt == "fspl":
        assert np.isin(loaded.labels, [0, 1]).all()
        assert ((loaded.confidences >= 0.5 - 1e-6) & (loaded.confidences <= 1 + 1e-6)).all()
    elif fmt == "fsck":
        assert np.isfinite(loaded.flat).all()
        try:
            forward_features(loaded, np.zeros((1, loaded.input_dim)))
        except PipelineError:
            pass


entries = st.lists(
    st.tuples(
        st.text(max_size=8),
        st.sampled_from(SOURCES),
        st.none() | st.floats(allow_nan=False, allow_infinity=False),  # see test_manifest_rejects_non_finite_quality
        st.none() | st.integers(-(2**63), 2**63 - 1),
    ),
    max_size=12,
    unique_by=lambda e: e[0],
)


@settings(max_examples=150, deadline=None)
@given(entries=entries, data=st.data())
def test_manifest_save_after_load_is_identical(tmp_path_factory, entries, data):
    directory = tmp_path_factory.mktemp("manifest")
    columns = list(zip(*entries)) if entries else [[]] * 4
    manifest = DatasetManifest.from_columns(*columns)
    manifest.save(directory / "a.jsonl")
    back = DatasetManifest.load(directory / "a.jsonl")
    back.save(directory / "b.jsonl")
    assert (directory / "b.jsonl").read_bytes() == (directory / "a.jsonl").read_bytes()
    # record i describes row i, so the entry at position i reads back with row i
    assert manifest_entries(back) == manifest_entries(manifest) == [(e[0], i, *e[1:]) for i, e in enumerate(entries)]
    if len(entries) < 2:
        return
    # two records swapped: the first of them now names the other's row
    i, j = sorted(data.draw(st.lists(st.integers(0, len(entries) - 1), min_size=2, max_size=2, unique=True)))
    lines = (directory / "a.jsonl").read_bytes().splitlines(keepends=True)
    lines[i], lines[j] = lines[j], lines[i]
    (directory / "c.jsonl").write_bytes(b"".join(lines))
    expected = f"c.jsonl: sample {entries[j][0]!r} is record {i} but names row {j}"
    with pytest.raises(DataError, match=re.escape(expected)):
        DatasetManifest.load(directory / "c.jsonl")
