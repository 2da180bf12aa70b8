"""Embedding matrices and dataset manifests, plus their on-disk formats.

Embeddings travel as a dense float32 matrix in a small binary container;
sample provenance travels as a JSON-lines manifest. These files are the
boundary through which precomputed encoder outputs enter the pipeline, so
round-trips must be bit-exact.

Binary layout (little-endian)::

    magic "FSSL" | u32 version=1 | u64 n | u32 d | u32 flags | n*d float32

Flag bit 0 marks a row-normalized matrix. Manifest records are one JSON
object per line with keys ``id``, ``row``, ``source`` and optional
``quality`` and ``group``; :func:`read_jsonl` reads them and every other
JSON-lines file of the pipeline.
"""

from __future__ import annotations

import itertools
import json
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DataError, DegenerateInputError, FileSizeError, FormatError

MAGIC = b"FSSL"
FORMAT_VERSION = 1
_FLAG_NORMALIZED = 1
_HEADER = struct.Struct("<4sIQII")

SOURCES = ("curated", "uncurated", "retrieved")

_NORM_TOL = 1e-6


@dataclass
class EmbeddingMatrix:
    """Dense n x d float32 matrix of sample embeddings, one row per sample."""

    data: np.ndarray
    normalized: bool = False

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.float32)
        if data.ndim != 2:
            raise DataError(f"embedding matrix must be 2-D, got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise DataError("embedding matrix contains non-finite values")
        if self.normalized and data.shape[0] > 0:
            norms = np.linalg.norm(data.astype(np.float64), axis=1)
            worst = float(np.max(np.abs(norms - 1.0))) if norms.size else 0.0
            if worst > _NORM_TOL:
                raise DataError(
                    f"matrix flagged normalized but a row norm deviates by {worst:.3e}"
                )
        self.data = data

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]

    def row(self, i: int) -> np.ndarray:
        return self.data[i]


def normalize_rows(m: EmbeddingMatrix) -> EmbeddingMatrix:
    """Scale every row to unit L2 norm; direction is preserved exactly.

    Raises DegenerateInputError naming the first zero row, since a zero
    embedding indicates upstream corruption rather than a valid sample.
    """
    data = m.data.astype(np.float64)
    norms = np.linalg.norm(data, axis=1)
    zero_rows = np.flatnonzero(norms < 1e-30)
    if zero_rows.size:
        raise DegenerateInputError(f"cannot normalize zero row at index {zero_rows[0]}")
    out = (data / norms[:, None]).astype(np.float32)
    return EmbeddingMatrix(out, normalized=True)


def save_embeddings(m: EmbeddingMatrix, path: str | Path) -> None:
    """Write ``m`` so that :func:`load_embeddings` restores it bit-exactly."""
    path = Path(path)
    flags = _FLAG_NORMALIZED if m.normalized else 0
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, m.n, m.d, flags)
    payload = np.ascontiguousarray(m.data, dtype="<f4").tobytes()
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(payload)
    except OSError as exc:
        raise DataError(f"cannot write embeddings to {path}: {exc}") from exc


def load_embeddings(path: str | Path) -> EmbeddingMatrix:
    """Read an embedding file, validating header, size, and finiteness."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read embeddings from {path}: {exc}") from exc
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: file shorter than header ({len(raw)} bytes)")
    magic, version, n, d, flags = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    expected = _HEADER.size + 4 * n * d
    if len(raw) != expected:
        raise FileSizeError(
            f"{path}: expected {expected} bytes for {n}x{d} matrix, found {len(raw)}"
        )
    data = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size).reshape(n, d).copy()
    if not np.all(np.isfinite(data)):
        raise DataError(f"{path}: payload contains non-finite values")
    return EmbeddingMatrix(data, normalized=bool(flags & _FLAG_NORMALIZED))


@dataclass(frozen=True)
class ManifestRecord:
    """Provenance of one matrix row."""

    sample_id: str
    row_index: int
    source: str
    quality_score: float | None = None
    group_label: int | None = None

    def __post_init__(self) -> None:
        if self.source not in SOURCES:
            raise DataError(f"unknown source {self.source!r} for sample {self.sample_id!r}")


@dataclass
class DatasetManifest:
    """Per-sample records binding matrix rows to ids, sources, and metadata.

    ``group_label`` is evaluation-only: training-side code must receive
    manifests with the labels stripped (see :meth:`strip_group_labels`).
    """

    records: list[ManifestRecord]

    def __post_init__(self) -> None:
        ids = set()
        rows = set()
        for rec in self.records:
            if rec.sample_id in ids:
                raise DataError(f"duplicate sample id {rec.sample_id!r} in manifest")
            if rec.row_index in rows:
                raise DataError(f"duplicate row index {rec.row_index} in manifest")
            ids.add(rec.sample_id)
            rows.add(rec.row_index)

    def __len__(self) -> int:
        return len(self.records)

    def validate_rows(self, n: int) -> None:
        """Check every row index addresses a row of an n-row matrix."""
        for rec in self.records:
            if not 0 <= rec.row_index < n:
                raise DataError(
                    f"row index {rec.row_index} of sample {rec.sample_id!r} "
                    f"outside matrix with {n} rows"
                )

    def strip_group_labels(self) -> "DatasetManifest":
        """Copy with all group labels removed (fairness-blind view)."""
        return DatasetManifest([replace(r, group_label=None) for r in self.records])

    def has_group_labels(self) -> bool:
        return any(r.group_label is not None for r in self.records)

    def save(self, path: str | Path) -> None:
        lines = []
        for rec in self.records:
            obj: dict = {"id": rec.sample_id, "row": rec.row_index, "source": rec.source}
            if rec.quality_score is not None:
                obj["quality"] = rec.quality_score
            if rec.group_label is not None:
                obj["group"] = rec.group_label
            lines.append(json.dumps(obj, sort_keys=True))
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))

    @classmethod
    def load(cls, path: str | Path) -> "DatasetManifest":
        rows = read_jsonl(path, _MANIFEST_FIELDS, optional=("quality", "group"))
        return cls([ManifestRecord(*row) for row in rows])


_MANIFEST_FIELDS = {"id": str, "row": int, "source": str, "quality": float, "group": int}
# JSON types a field of each declared type accepts; bool is not an int here
_JSON_TYPES = {str: (str,), int: (int,), float: (float, int)}
_decode_json = json.JSONDecoder().raw_decode


def read_jsonl(
    path: str | Path, fields: dict[str, type], optional: tuple[str, ...] = ()
) -> list[tuple]:
    """Read a JSON-lines file into one tuple of field values per non-blank line.

    ``fields`` maps each key, in tuple order, to ``str``, ``int`` or
    ``float`` (a float field also takes an integer and returns it as a
    float). Keys named in ``optional`` may be absent or null and read as
    None; other keys are ignored. Undecodable bytes, invalid JSON, a line
    that is not an object, and a missing, null or wrong-typed field raise
    FormatError naming ``path:line``.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"{path}:{lineno}: not UTF-8: {exc.reason}") from exc
    keys = tuple(fields)
    # every accepted tuple of value types, mapped to the positions that
    # hold an integer in a float field
    choices = [
        _JSON_TYPES[kind] + ((type(None),) if key in optional else ())
        for key, kind in fields.items()
    ]
    accepted = {
        types: tuple(
            i for i, t in enumerate(types) if t is int and fields[keys[i]] is float
        )
        for types in itertools.product(*choices)
    }
    rows = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip(" \t\r")  # JSON whitespace
        if not line:
            continue
        try:
            obj, end = _decode_json(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if end != len(line):
            raise FormatError(f"{path}:{lineno}: invalid JSON: extra data at column {end + 1}")
        if type(obj) is not dict:
            raise FormatError(f"{path}:{lineno}: expected a JSON object, got {type(obj).__name__}")
        values = tuple(map(obj.get, keys))
        widen = accepted.get(tuple(map(type, values)))
        if widen is None:
            raise FormatError(f"{path}:{lineno}: {_field_problem(obj, fields, optional)}")
        if widen:
            values = tuple(float(v) if i in widen else v for i, v in enumerate(values))
        rows.append(values)
    return rows


def _field_problem(obj: dict, fields: dict[str, type], optional: tuple[str, ...]) -> str:
    """Describe the first field of ``obj`` that :func:`read_jsonl` rejects."""
    for key, kind in fields.items():
        value = obj.get(key)
        if value is None:
            if key not in optional:
                return f"{key!r} is null" if key in obj else f"missing key {key!r}"
        elif type(value) not in _JSON_TYPES[kind]:
            return f"{key!r} must be {kind.__name__}, got {type(value).__name__} {value!r}"
    raise AssertionError(f"no rejected field in {obj!r}")
