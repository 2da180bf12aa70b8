"""Embedding matrices and dataset manifests, plus their on-disk formats.

Embeddings travel as a dense float32 matrix in a small binary container;
sample provenance travels as a JSON-lines manifest. These files are the
boundary through which precomputed encoder outputs enter the pipeline, so
round-trips must be bit-exact.

Binary layout (little-endian)::

    magic "FSSL" | u32 version=1 | u64 n | u32 d | u32 flags | n*d float32

Flag bit 0 marks a row-normalized matrix. A load holds one copy of the
payload: the matrix is a view of the buffer the file was read into, and
``load_embeddings(path, normalize=True)`` scales the rows in that buffer.
Manifest records are one JSON object per line with keys ``id``, ``row``
(record i names row i, blank lines aside), ``source`` and optional
``quality`` and ``group``; :func:`read_jsonl` streams them, and every other
JSON-lines file of the pipeline, into typed columns, and
:func:`write_jsonl` writes them all.

The pipeline's files are read and written by four helpers here:
:func:`read_bytes` (a whole file into a buffer the caller owns),
:func:`read_container` (magic and version of FSSL, FSPL and FSCK files),
:func:`naming`, which prefixes the errors of objects built from a file
with its path, and :func:`write_file`, which replaces a file atomically.
Every read goes through ``_reading``, the one place a read OSError
becomes a DataError.
"""

from __future__ import annotations

import array
import codecs
import contextlib
import io
import itertools
import json
import operator
import os
import struct
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, DegenerateInputError, FileSizeError, FormatError

MAGIC = b"FSSL"
FORMAT_VERSION = 1
_FLAG_NORMALIZED = 1
_HEADER = struct.Struct("<4sIQII")
_PAYLOAD = np.dtype("<f4")

SOURCES = ("curated", "uncurated", "retrieved")
_SOURCE_CODE = {name: code for code, name in enumerate(SOURCES)}

_NORM_TOL = 1e-6
# Bytes of float64 scratch per row block when rows are normalized or a
# flagged matrix's norms checked: they bound memory and do not change any
# output. 2 MiB is 4,096 rows at d=64, so a 30k-row pool takes 8 blocks.
_ROW_BLOCK_BYTES = 2 * 2**20


@dataclass
class EmbeddingMatrix:
    """Dense n x d float32 matrix of sample embeddings, one row per sample."""

    data: np.ndarray
    normalized: bool = False

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.float32)
        if data.ndim != 2:
            raise DataError(f"embedding matrix must be 2-D, got shape {data.shape}")
        worst = 0.0  # norm faults wait until every row is known to be finite
        for _, rows in _row_blocks(data):
            if not np.isfinite(rows).all():
                raise DataError("embedding matrix contains non-finite values")
            if self.normalized:
                norms = np.linalg.norm(rows.astype(np.float64), axis=1)
                worst = max(worst, float(np.max(np.abs(norms - 1.0))))
        if worst > _NORM_TOL:
            raise DataError(f"matrix flagged normalized but a row norm deviates by {worst:.3e}")
        self.data = data

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


def normalize_rows(m: EmbeddingMatrix) -> EmbeddingMatrix:
    """Scale every row to unit L2 norm; direction is preserved exactly.

    Each row is divided by its norm in float64 and rounded to float32, one
    block of rows at a time. Raises DegenerateInputError naming the first
    zero row, since a zero embedding indicates upstream corruption rather
    than a valid sample.
    """
    return _normalize_into(m.data, np.empty(m.data.shape, dtype=np.float32))


def _normalize_into(data: np.ndarray, out: np.ndarray) -> EmbeddingMatrix:
    """The rows of ``data`` scaled as :func:`normalize_rows` describes,
    written to ``out``, which may be ``data`` itself: each block is copied
    to float64 before its rows are written."""
    for start, rows in _row_blocks(data):
        block = rows.astype(np.float64)
        norms = np.linalg.norm(block, axis=1)
        zero_rows = np.flatnonzero(norms < 1e-30)
        if zero_rows.size:
            raise DegenerateInputError(f"cannot normalize zero row at index {start + zero_rows[0]}")
        block /= norms[:, None]
        out[start : start + block.shape[0]] = block
        del block  # so no two blocks are alive at once
    return EmbeddingMatrix(out, normalized=True)


def _row_blocks(data: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """``(start, data[start : start + k])`` over consecutive row blocks of
    ``data``, k rows being as many as fill ``_ROW_BLOCK_BYTES`` in float64."""
    step = max(1, _ROW_BLOCK_BYTES // (8 * max(1, data.shape[1])))
    for start in range(0, data.shape[0], step):
        yield start, data[start : start + step]


def read_bytes(path: str | Path, what: str) -> bytearray:
    """The contents of ``path`` in a buffer that the caller owns and may
    write to; an OSError becomes a DataError naming ``what``."""
    with _reading(path, what) as fh:
        buf = bytearray(os.fstat(fh.fileno()).st_size)
        del buf[fh.readinto(buf) :]
        buf += fh.read()  # whatever the file grew by since fstat
        return buf


@contextlib.contextmanager
def _reading(path: str | Path, what: str) -> Iterator[io.BufferedReader]:
    """``path`` open for binary reading; an OSError on opening or reading
    becomes a DataError naming ``what``."""
    try:
        with open(path, "rb") as fh:
            yield fh
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc


def read_container(
    path: str | Path, magic: bytes, version: int, header: struct.Struct, what: str, payload: np.dtype | None = None
) -> tuple[list, bytes]:
    """Read a binary container whose ``header`` starts with its magic and a
    u32 version, and return the remaining header fields and the raw bytes.

    ``payload``, if given, is the dtype of an n x m array that fills the
    rest of the file, n and m being the first two remaining fields.
    """
    raw = read_bytes(path, what)
    if len(raw) < header.size:
        raise FormatError(f"{path}: file shorter than header ({len(raw)} bytes)")
    found, found_version, *fields = header.unpack_from(raw)
    if found != magic:
        raise FormatError(f"{path}: bad magic {found!r}")
    if found_version != version:
        raise FormatError(f"{path}: unsupported version {found_version}")
    if payload is not None:
        expected = header.size + fields[0] * fields[1] * payload.itemsize
        if len(raw) != expected:
            raise FileSizeError(f"{path}: expected {expected} bytes, found {len(raw)}")
    return fields, raw


@contextlib.contextmanager
def naming(path: str | Path) -> Iterator[None]:
    """Re-raise a DataError raised inside as the same class, its message
    prefixed with ``path``: the errors of objects built from a file name it."""
    try:
        yield
    except DataError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def write_file(path: str | Path, *chunks) -> None:
    """Replace ``path`` with ``chunks`` (bytes, buffers, or str as UTF-8) in order.

    The chunks go to a temp file in the same directory that then replaces
    ``path``, so ``path`` holds its old contents or all of the new ones. On
    any error the temp file is removed; an OSError becomes a DataError.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode() if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        if isinstance(exc, OSError):
            raise DataError(f"cannot write {path}: {exc}") from exc
        raise


def save_embeddings(m: EmbeddingMatrix, path: str | Path) -> None:
    """Write ``m`` so that :func:`load_embeddings` restores it bit-exactly."""
    flags = _FLAG_NORMALIZED if m.normalized else 0
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, m.n, m.d, flags)
    write_file(path, header, np.ascontiguousarray(m.data, dtype=_PAYLOAD))


def load_embeddings(path: str | Path, normalize: bool = False) -> EmbeddingMatrix:
    """Read an embedding file, validating header, size, and finiteness.

    The matrix is a read-only view over the buffer the file was read into,
    so a load holds one copy of the payload; copy ``data`` before writing to
    it. With ``normalize`` the rows are then scaled in that buffer exactly
    as :func:`normalize_rows` scales them, flagged files too, and the
    writable result is still the only copy; its errors, a zero row's too,
    name ``path``.
    """
    (n, d, flags), raw = read_container(path, MAGIC, FORMAT_VERSION, _HEADER, "embeddings", _PAYLOAD)
    data = np.frombuffer(raw, dtype=_PAYLOAD, offset=_HEADER.size).reshape(n, d)
    with naming(path):
        m = EmbeddingMatrix(data, normalized=bool(flags & _FLAG_NORMALIZED))
        if normalize:
            return _normalize_into(m.data, m.data)
    m.data.flags.writeable = False
    return m


@dataclass(eq=False)
class DatasetManifest:
    """Per-sample provenance as columns: entry i describes row i of its
    embedding matrix, sample ``ids[i]``: its source ``SOURCES[sources[i]]``
    and, where ``has_quality[i]`` / ``has_group[i]`` is set, its quality
    score ``quality[i]`` and group label ``group[i]`` (absent values read 0).

    Build one with :meth:`from_columns`; the constructor checks that ids
    are unique and quality scores finite (JSON has no number for NaN or
    infinity, so no manifest file can hold one). ``group`` is
    evaluation-only: curation never reads it and writes none, so no
    training-side file carries a group label.
    """

    ids: list[str]
    sources: np.ndarray  # uint8 index into SOURCES
    quality: np.ndarray  # float64
    has_quality: np.ndarray  # bool
    group: np.ndarray  # int64
    has_group: np.ndarray  # bool

    def __post_init__(self) -> None:
        finite = np.isfinite(self.quality)
        if not finite.all():
            raise DataError(f"quality of sample {self.ids[int(np.argmin(finite))]!r} is not finite")
        check_unique_ids(self.ids, "manifest")

    @classmethod
    def from_columns(cls, ids, sources, quality=None, group=None) -> "DatasetManifest":
        """Manifest from per-sample columns. ``sources`` is one source name
        for all samples or a name per sample; ``quality`` and ``group`` are
        None (absent throughout) or a value per sample, None where absent."""
        ids = list(ids)
        if isinstance(sources, str):
            sources = [sources] * len(ids)
        absent = [None] * len(ids)
        return cls(
            ids,
            _source_codes(ids, sources),
            *_Column.of(float, absent if quality is None else quality, optional=True),
            *_Column.of(int, absent if group is None else group, optional=True),
        )

    def __len__(self) -> int:
        return len(self.ids)

    def validate_rows(self, n: int, where: str | Path) -> None:
        """Check the manifest ``where`` describes exactly the rows of an n-row matrix."""
        if len(self) != n:
            raise DataError(f"{where}: manifest describes {len(self)} rows but the matrix has {n}")

    def save(self, path: str | Path) -> None:
        write_jsonl(path, {
            "id": self.ids,
            "row": range(len(self)),
            "source": [SOURCES[code] for code in self.sources.tolist()],
            "quality": [q if has else None for q, has in zip(self.quality.tolist(), self.has_quality.tolist())],
            "group": [g if has else None for g, has in zip(self.group.tolist(), self.has_group.tolist())],
        })

    @classmethod
    def load(cls, path: str | Path) -> "DatasetManifest":
        """Read a manifest file; a record whose row is not its position is a
        DataError, so a reordered file is never silently misjoined."""
        ids, rows, sources, quality, group = read_jsonl(path, _MANIFEST_FIELDS, optional=("quality", "group"))
        if (misplaced := np.flatnonzero(rows != np.arange(rows.size))).size:
            i = misplaced[0]
            raise DataError(f"{path}: sample {ids[i]!r} is record {i} but names row {rows[i]}")
        # names become codes once every line has parsed: a FormatError on
        # any line wins over an unknown source
        with naming(path):
            return cls(ids, _source_codes(ids, sources), *quality, *group)


def check_unique_ids(ids: Sequence[str], where: str | Path) -> None:
    """Raise a DataError naming ``where`` and the first id of ``ids`` seen
    twice. Distinct ids, the usual case, cost one sorted list of references
    and no hash table: a duplicate sits next to its twin once sorted."""
    order = sorted(ids)
    if any(map(operator.eq, order, itertools.islice(order, 1, None))):
        seen = set()
        for sid in ids:
            if sid in seen:
                raise DataError(f"{where}: sample id {sid!r} appears more than once")
            seen.add(sid)


def _source_codes(ids: list[str], sources: list[str]) -> np.ndarray:
    """The uint8 code of each sample's source name; an unknown name is a
    DataError naming the first sample that has one."""
    codes = list(map(_SOURCE_CODE.get, sources))
    if None in codes:
        i = codes.index(None)
        raise DataError(f"unknown source {sources[i]!r} for sample {ids[i]!r}")
    return np.asarray(codes, dtype=np.uint8)


_MANIFEST_FIELDS = {"id": str, "row": int, "source": str, "quality": float, "group": int}
# JSON types a field of each declared type accepts; bool is not an int here
_JSON_TYPES = {str: (str,), int: (int,), float: (float, int)}


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


_decode_json = json.JSONDecoder(parse_constant=_reject_constant).raw_decode
_encode_json = json.JSONEncoder(sort_keys=True).encode  # json.dumps(obj, sort_keys=True)
# the integers an int field (int64) and a float field (float64, after
# rounding to nearest) can hold
_INT_RANGE = {int: (-(2**63), 2**63 - 1), float: (1 - 2**1024 + 2**970, 2**1024 - 2**970 - 1)}


def read_jsonl(path: str | Path, fields: dict[str, type], optional: tuple[str, ...] = ()) -> list:
    """Read a JSON-lines file into one typed column per field, decoding one
    non-blank line at a time.

    ``fields`` maps each key, in column order, to ``str``, ``int`` or
    ``float``, whose column is a list of str, an int64 array or a float64
    array (a float field also takes an integer). Keys named in ``optional``
    may be absent or null; their column is a ``(values, present)`` pair in
    which absent values read 0 (or ""). An int or float column that no
    line fills is a read-only zero array that holds no per-row values,
    and its mask too. Other keys are ignored.
    Undecodable bytes, invalid JSON, a line that is not an object, a
    missing, null or wrong-typed field, and an integer outside int64 (or,
    in a float field, outside the float range) and the non-standard
    constants NaN, Infinity and -Infinity raise FormatError naming
    ``path:line``.

    The file is read twice and never held whole: once in chunks to check
    that it is UTF-8, so a later line's bad byte wins over an earlier
    line's bad JSON, then a line at a time to parse it.
    """
    _check_utf8(path)
    columns = [_Column(kind, key in optional) for key, kind in fields.items()]
    with _reading(path, "JSON-lines file") as fh:
        lines = _parse_lines(fh, path, fields, optional)
        while block := list(itertools.islice(lines, _LINE_BLOCK)):
            for column, values in zip(columns, zip(*block)):
                column.extend(values)
    return [column.finish() for column in columns]


# Bytes per read of the UTF-8 check: they bound memory (a chunk and its
# decoded text) and do not change any output.
_UTF8_CHUNK = 2**20


def _check_utf8(path: str | Path) -> None:
    """Raise a FormatError naming ``path:line`` at the first sequence of
    ``path`` that is not UTF-8. A chunk of ASCII is not decoded unless a
    sequence begun in the chunk before it is still open."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    newlines = 0  # in the chunks read before this one
    with _reading(path, "JSON-lines file") as fh:
        while True:
            chunk = fh.read(_UTF8_CHUNK)
            try:
                if decoder.getstate()[0] or not chunk.isascii():
                    decoder.decode(chunk, final=not chunk)
            except UnicodeDecodeError as exc:
                # exc.object is the open sequence, which holds no newline,
                # followed by this chunk
                lineno = newlines + exc.object.count(b"\n", 0, exc.start) + 1
                raise FormatError(f"{path}:{lineno}: not UTF-8: {exc.reason}") from exc
            if not chunk:
                return
            newlines += chunk.count(b"\n")


def write_jsonl(path: str | Path, columns: dict[str, Sequence]) -> None:
    """Write one JSON object per row of ``columns`` (key -> one value per
    row), keys sorted; a None value leaves its key out of that row, which
    :func:`read_jsonl` reads as absent. Every line ends in a newline, so no
    rows make an empty file."""
    keys = sorted(columns)
    lines = [
        _encode_json({key: value for key, value in zip(keys, row) if value is not None})
        for row in zip(*(columns[key] for key in keys), strict=True)
    ]
    write_file(path, "\n".join(lines), "\n" if lines else "")


# Parsed lines move into the columns this many at a time, so the per-value
# work runs in C while a block's tuples and values (about 200 KB of a
# manifest) bound the transient.
_LINE_BLOCK = 1024


def _parse_lines(
    fh: io.BufferedReader, path: str | Path, fields: dict[str, type], optional: tuple[str, ...]
) -> Iterator[tuple]:
    """The tuple of ``fields`` values of each non-blank line of ``fh``,
    which reads the UTF-8 file ``path``, None where an optional value is
    absent, checked as :func:`read_jsonl` describes."""
    keys = tuple(fields)
    ranges = [_INT_RANGE.get(kind) for kind in fields.values()]
    # every accepted tuple of value types, mapped to the positions that
    # hold an integer
    choices = [
        _JSON_TYPES[kind] + ((type(None),) if key in optional else ())
        for key, kind in fields.items()
    ]
    accepted = {
        types: tuple(i for i, t in enumerate(types) if t is int) for types in itertools.product(*choices)
    }
    for lineno, line in enumerate(fh, start=1):
        line = line.decode().strip(" \t\r\n")  # JSON whitespace
        if not line:
            continue
        try:
            obj, end = _decode_json(line)
        except (ValueError, RecursionError) as exc:  # also huge integers, deep nesting
            raise FormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if end != len(line):
            raise FormatError(f"{path}:{lineno}: invalid JSON: extra data at column {end + 1}")
        if type(obj) is not dict:
            raise FormatError(f"{path}:{lineno}: expected a JSON object, got {type(obj).__name__}")
        values = tuple(map(obj.get, keys))
        ints = accepted.get(tuple(map(type, values)))
        if ints is None:
            raise FormatError(f"{path}:{lineno}: {_field_problem(obj, fields, optional)}")
        for i in ints:
            if not ranges[i][0] <= values[i] <= ranges[i][1]:
                kind = "int64" if fields[keys[i]] is int else "float"
                raise FormatError(f"{path}:{lineno}: {keys[i]!r} is outside the {kind} range")
        yield values


# the array typecode and dtype of an int (int64) and a float (float64) column
_ARRAY_TYPES = {int: ("q", np.int64), float: ("d", np.float64)}


class _Column:
    """One typed column, built a block of values at a time: a list for str,
    an int64 or float64 array for int or float (a float column also takes
    ints). An optional column also takes None, which reads as ``kind()``,
    and keeps a presence mask; until its first value only counts Nones."""

    def __init__(self, kind: type, optional: bool):
        self.kind, self.optional = kind, optional
        self.values = [] if kind is str else array.array(_ARRAY_TYPES[kind][0])
        self.present = bytearray()
        self.absent = 0  # Nones before an optional column's first value

    @classmethod
    def of(cls, kind: type, values: Sequence, optional: bool):
        """The finished column of ``values``."""
        column = cls(kind, optional)
        column.extend(values)
        return column.finish()

    def extend(self, values: Sequence) -> None:
        if self.optional:
            if not self.present:
                if all(map(operator.is_, values, itertools.repeat(None))):
                    self.absent += len(values)
                    return
                self.present = bytearray(self.absent)
                self.values.extend(itertools.repeat(self.kind(), self.absent))
            self.present.extend(map(operator.is_not, values, itertools.repeat(None)))
            if None in values:
                zero = self.kind()
                values = [zero if value is None else value for value in values]
        if self.kind is str:
            # equal values in one block share a string, so a name repeated
            # over many lines (a manifest's source) costs about a pointer
            memo = {}
            values = map(memo.setdefault, values, values)
        self.values.extend(values)

    def finish(self):
        """The column: its values, or ``(values, present)`` if optional."""
        if self.optional and not self.present:  # no value: views of one zero
            none = np.broadcast_to(np.False_, self.absent)
            if self.kind is str:
                return [""] * self.absent, none
            return np.broadcast_to(np.zeros((), _ARRAY_TYPES[self.kind][1]), self.absent), none
        values = self.values
        if self.kind is not str:  # a view: the array's buffer is the column
            values = np.frombuffer(values, dtype=_ARRAY_TYPES[self.kind][1])
        return (values, np.frombuffer(self.present, dtype=bool)) if self.optional else values


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
