"""Zero-shot binary pseudo-labels from positive/negative text-template embeddings.

Each attribute is scored by comparing an image embedding against a positive
and a negative template embedding: the two scaled similarities go through a
softmax, giving a probability pair. Multiple template pairs are aggregated by
averaging the probabilities, which keeps confidences bounded and independent
of the template count. A high-confidence, class-balanced subset of the
resulting table doubles as a label-free validation set for later training
stages.

Table file layout (little-endian)::

    magic "FSPL" | u32 version=2 | u64 n | u32 a | u32 k | k bytes names | n*a * (u8 label, f32 confidence)

The names are the attribute names in column order, a JSON list of strings,
so one file is the whole table.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, FileSizeError, FormatError, SelectionError
from .evaluation import softmax
from .seeding import substream
from .store import EmbeddingMatrix, load_embeddings, naming, read_bytes, read_container, write_file

MAGIC = b"FSPL"
FORMAT_VERSION = 2
_HEADER = struct.Struct("<4sIQII")
_ENTRY_DTYPE = np.dtype([("label", "u1"), ("conf", "<f4")])

DEFAULT_SCALE = 100.0

_UNIT_TOL = 1e-5


@dataclass
class AttributeTemplates:
    """Template embeddings for one attribute: T positive and T negative rows."""

    name: str
    pos: np.ndarray
    neg: np.ndarray

    def __post_init__(self) -> None:
        self.pos = np.atleast_2d(np.asarray(self.pos, dtype=np.float64))
        self.neg = np.atleast_2d(np.asarray(self.neg, dtype=np.float64))
        if self.pos.shape != self.neg.shape:
            raise DataError(
                f"attribute {self.name!r}: template count/shape mismatch "
                f"{self.pos.shape} vs {self.neg.shape}"
            )
        if self.pos.shape[0] < 1:
            raise DataError(f"attribute {self.name!r}: needs at least one template pair")
        for which, rows in (("pos", self.pos), ("neg", self.neg)):
            norms = np.linalg.norm(rows, axis=1)
            if np.any(np.abs(norms - 1.0) > _UNIT_TOL):
                raise DataError(f"attribute {self.name!r}: {which} templates must be unit rows")


@dataclass
class TemplateBank:
    attributes: list[AttributeTemplates]

    @property
    def names(self) -> list[str]:
        return [a.name for a in self.attributes]

    @classmethod
    def load(cls, index_path: str | Path) -> "TemplateBank":
        """Read a JSON index mapping attribute name -> {pos, neg} embedding files.

        Paths in the index are resolved relative to the index file.
        """
        index_path = Path(index_path)
        index = _parse_json(read_bytes(index_path, "template index"), index_path)
        if type(index) is not dict:
            raise FormatError(f"{index_path}: expected a JSON object of attribute names")
        attributes = []
        for name, entry in index.items():
            try:
                pos_path = index_path.parent / entry["pos"]
                neg_path = index_path.parent / entry["neg"]
            except (TypeError, KeyError) as exc:
                raise FormatError(f"{index_path}: attribute {name!r} needs pos/neg paths") from exc
            pos, neg = load_embeddings(pos_path).data, load_embeddings(neg_path).data
            with naming(index_path):
                attributes.append(AttributeTemplates(name=name, pos=pos, neg=neg))
        return cls(attributes)


@dataclass
class PseudoLabelTable:
    """n x a binary labels with confidences in [0.5, 1], a >= 1."""

    labels: np.ndarray
    confidences: np.ndarray
    attribute_names: list[str]

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels, dtype=np.uint8)
        self.confidences = np.asarray(self.confidences, dtype=np.float32)
        if self.labels.shape != self.confidences.shape or self.labels.ndim != 2:
            raise DataError("labels and confidences must be matching 2-D arrays")
        if self.labels.shape[1] != len(self.attribute_names):
            raise DataError("attribute name count does not match table width")
        if self.labels.shape[1] == 0:
            raise DataError("pseudo-label table needs at least one attribute column")
        if not np.all((self.confidences >= 0.5 - 1e-6) & (self.confidences <= 1 + 1e-6)):  # NaN fails
            raise DataError("confidences must lie in [0.5, 1]")
        if np.any(self.labels > 1):
            raise DataError("labels must be 0 or 1")

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    @property
    def num_attributes(self) -> int:
        return self.labels.shape[1]

    def attribute_index(self, name: str) -> int:
        try:
            return self.attribute_names.index(name)
        except ValueError:
            raise DataError(f"unknown attribute {name!r}") from None

    def save(self, path: str | Path) -> None:
        names = json.dumps(self.attribute_names, sort_keys=True).encode()
        entries = np.empty(self.labels.shape, dtype=_ENTRY_DTYPE)
        entries["label"] = self.labels
        entries["conf"] = self.confidences
        write_file(path, _HEADER.pack(MAGIC, FORMAT_VERSION, self.n, self.num_attributes, len(names)), names, entries)

    @classmethod
    def load(cls, path: str | Path) -> "PseudoLabelTable":
        (n, a, k), raw = read_container(path, MAGIC, FORMAT_VERSION, _HEADER, "pseudo-label table")
        start = _HEADER.size + k
        expected = start + n * a * _ENTRY_DTYPE.itemsize
        if len(raw) != expected:
            raise FileSizeError(f"{path}: expected {expected} bytes, found {len(raw)}")
        names = _parse_json(raw[_HEADER.size : start], path)
        if type(names) is not list or not all(type(name) is str for name in names):
            raise FormatError(f"{path}: expected a JSON list of attribute names")
        entries = np.frombuffer(raw, dtype=_ENTRY_DTYPE, offset=start).reshape(n, a)
        with naming(path):
            return cls(entries["label"].copy(), entries["conf"].copy(), names)


def _parse_json(raw: bytes, path: str | Path):
    """Parse JSON bytes read from ``path``; invalid JSON or UTF-8 is a FormatError naming it."""
    try:
        return json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc


def attribute_probabilities(
    images: EmbeddingMatrix, templates: AttributeTemplates, scale: float = DEFAULT_SCALE
) -> np.ndarray:
    """Averaged (positive, negative) class probabilities per sample, one
    softmax per template pair; each returned row sums to 1."""
    if scale <= 0:
        raise DataError(f"scale must be positive, got {scale}")
    if not images.normalized:
        raise DataError("image embeddings must be row-normalized for zero-shot labeling")
    data = images.data.astype(np.float64)
    pos_sims = data @ templates.pos.T  # (n, T)
    neg_sims = data @ templates.neg.T
    _, _, probs = softmax(scale * np.stack([pos_sims, neg_sims], axis=-1))  # (n, T, 2)
    return probs.mean(axis=1)


def label_attribute(
    images: EmbeddingMatrix, templates: AttributeTemplates, scale: float = DEFAULT_SCALE
) -> tuple[np.ndarray, np.ndarray]:
    """Label every row of ``images`` for one attribute, averaging the
    per-template probability pairs before thresholding. Ties go to label 1."""
    mean_probs = attribute_probabilities(images, templates, scale)
    labels = (mean_probs[:, 0] >= mean_probs[:, 1]).astype(np.uint8)
    confidences = mean_probs.max(axis=1)
    return labels, confidences


def build_pseudolabel_table(
    images: EmbeddingMatrix, bank: TemplateBank, scale: float = DEFAULT_SCALE
) -> PseudoLabelTable:
    """Apply :func:`label_attribute` across every attribute in the bank."""
    n = images.n
    a = len(bank.attributes)
    labels = np.zeros((n, a), dtype=np.uint8)
    confidences = np.zeros((n, a), dtype=np.float32)
    for col, templates in enumerate(bank.attributes):
        if templates.pos.shape[1] != images.d:
            raise DataError(
                f"attribute {templates.name!r}: template dim {templates.pos.shape[1]} "
                f"does not match embedding dim {images.d}"
            )
        lab, conf = label_attribute(images, templates, scale)
        labels[:, col] = lab
        confidences[:, col] = conf
    return PseudoLabelTable(labels, confidences, bank.names)


def select_validation_subset(
    table: PseudoLabelTable,
    attribute: str,
    conf_threshold: float,
    m: int,
    seed: int,
) -> np.ndarray:
    """Seeded, class-balanced draw of m high-confidence samples for one attribute.

    Both pseudo-classes contribute equally when they can; any shortfall is
    filled from the class with more qualifying samples. Returns sorted indices.
    """
    col = table.attribute_index(attribute)
    conf = table.confidences[:, col].astype(np.float64)
    qualifying = np.flatnonzero(conf >= conf_threshold)
    if qualifying.size < m:
        raise SelectionError(
            f"attribute {attribute!r}: only {qualifying.size} samples reach "
            f"confidence {conf_threshold}, need {m}"
        )
    labels = table.labels[qualifying, col]
    class0 = qualifying[labels == 0]
    class1 = qualifying[labels == 1]
    small, big = sorted([class0, class1], key=lambda idx: idx.size)
    want_small = min(m // 2, small.size)
    want_big = m - want_small
    rng = substream(seed, "validation-subset", attribute)
    pick_small = rng.choice(small, size=want_small, replace=False) if want_small else np.empty(0, dtype=np.int64)
    pick_big = rng.choice(big, size=want_big, replace=False)
    return np.sort(np.concatenate([pick_small, pick_big]).astype(np.int64))
