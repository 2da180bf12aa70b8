"""Trainable model over precomputed embeddings: MLP encoder, 3-layer
projection network with unit-norm output, and a one-logit linear head.

Gradients are exact reverse-mode, written specifically for this affine/relu
chain (no general autodiff): the encoder and projection layers, every layer
but the head. The forward pass records a tape of each chain layer's input,
which is the previous layer's output; a relu layer's mask is where its
output is positive, so no pre-activation is kept. ``backward`` walks the
chain down in one loop, consuming upstream gradients with respect to the
normalized projection, the head logits (which join at the features), or
both. ``forward_jvp`` walks it up in one loop: the matching forward-mode
directional derivative of the projection, which the meta-weighting stage
uses to obtain all per-sample gradient inner products at the cost of
roughly one extra forward pass. Every call takes a batch of rows, (n, d).

A model has one dtype, float32 or float64, and every call computes in it:
inputs and upstream gradients are cast to it, and tapes and gradients come
back in it. ``ModelParams.create`` and ``load_checkpoint`` build float32
models, the precision of the checkpoint; a model built from float64 layers
stays float64, which finite-difference checks need.

Flat layout: ``ModelParams.flat`` is one vector in the model's dtype holding
every parameter in checkpoint order ``[W0, b0, W1, b1, ...]``; each layer's
``weight``/``bias`` is a view into it, so write values in place (rebinding
the attribute detaches it from the vector). ``GradientBundle.flat`` has the
same layout: ``backward`` writes trainable layers' gradients into their
spans and leaves frozen spans zero, and ``trainer.AdamW`` keeps its moments
in the same layout, updating runs of trainable spans in place.

Checkpoint layout (little-endian)::

    magic "FSCK" | u32 version=1 | u32 layer_count |
    per layer: u8 section | u8 activation | u8 frozen |
               u32 in_dim | u32 out_dim | f32 weights (out*in) | f32 biases (out)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, FileSizeError, FormatError, NumericError
from .store import naming, read_container, write_file

MAGIC = b"FSCK"
FORMAT_VERSION = 1
_FILE_HEADER = struct.Struct("<4sII")
_LAYER_HEADER = struct.Struct("<BBBII")

_SECTIONS = ("encoder", "projection", "head")
_ACTIVATIONS = ("identity", "relu")

_ZERO_NORM = 1e-30


def float_array(x) -> np.ndarray:
    """``x`` as an array, kept if it is float32 and otherwise cast to
    float64: the two dtypes a model computes in."""
    a = np.asarray(x)
    return a if a.dtype == np.float32 else a.astype(np.float64)


@dataclass
class Layer:
    weight: np.ndarray  # (out, in) float32 or float64
    bias: np.ndarray  # (out,) in the weight's dtype
    activation: str = "identity"
    frozen: bool = False

    def __post_init__(self) -> None:
        self.weight = float_array(self.weight)
        self.bias = np.asarray(self.bias, dtype=self.weight.dtype)
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise DataError(f"inconsistent layer shapes {self.weight.shape} / {self.bias.shape}")
        if self.activation not in _ACTIVATIONS:
            raise DataError(f"unknown activation {self.activation!r}")

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]


class Span(NamedTuple):
    """A layer in a flat vector: weights in [start, split), biases in [split, stop)."""

    start: int
    split: int
    stop: int
    shape: tuple[int, int]  # weight (out, in)


def _layout(names, shapes) -> dict[str, Span]:
    """Consecutive spans for layers with the given weight shapes."""
    layout, stop = {}, 0
    for name, (n_out, n_in) in zip(names, shapes):
        layout[name] = Span(stop, stop + n_out * n_in, stop + n_out * n_in + n_out, (n_out, n_in))
        stop = layout[name].stop
    return layout


class ModelParams:
    """Encoder + projection + head parameters with per-layer freeze flags,
    stored in ``flat``; ``layout`` maps layer names to their spans in it."""

    def __init__(self, encoder: list[Layer], projection: list[Layer], head: Layer):
        if len(projection) != 3:
            raise DataError(f"projection must have exactly 3 layers, got {len(projection)}")
        chain = encoder + projection
        for prev, nxt in zip(chain, chain[1:]):
            if prev.out_dim != nxt.in_dim:
                raise DataError(
                    f"layer dimension chain broken: {prev.out_dim} -> {nxt.in_dim}"
                )
        if head.out_dim != 1:
            raise DataError(f"the head must have 1 output, the logit of the binary task, got {head.out_dim}")
        if encoder and head.in_dim != encoder[-1].out_dim:
            raise DataError(
                f"head expects {head.in_dim} features, encoder produces {encoder[-1].out_dim}"
            )
        layers = encoder + projection + [head]
        if len(set(map(id, layers))) != len(layers):
            raise DataError("a layer object appears more than once")
        dtypes = {layer.weight.dtype for layer in layers}
        if len(dtypes) != 1:
            raise DataError(f"layers mix the dtypes {sorted(map(str, dtypes))}; a model has one")
        self.encoder = encoder
        self.projection = projection
        self.head = head
        names = [f"encoder.{i}" for i in range(len(encoder))]
        names += [f"projection.{i}" for i in range(len(projection))] + ["head"]
        self._layers = dict(zip(names, layers))
        self.layout = _layout(names, [layer.weight.shape for layer in layers])
        self.flat = np.empty(self.layout["head"].stop, dtype=dtypes.pop())
        for span, layer in zip(self.layout.values(), layers):
            self.flat[span.start : span.split] = layer.weight.ravel()
            self.flat[span.split : span.stop] = layer.bias
            layer.weight = self.flat[span.start : span.split].reshape(span.shape)
            layer.bias = self.flat[span.split : span.stop]

    @classmethod
    def create(
        cls,
        input_dim: int,
        encoder_dims: list[int],
        projection_dims: list[int],
        seed: int = 0,
    ) -> "ModelParams":
        """Seeded uniform fan-in initialization, drawn in float64 from its
        own ``SeedSequence([seed & 0xFFFFFFFF, 0x6E657477])``, not from a
        substream, and rounded to a float32 model.

        Encoder: relu on hidden layers, linear final layer (the feature
        layer). Projection: exactly three affine layers with relu between
        them; its output is normalized by the forward pass. Head: one affine
        layer with one output, the logit of the binary pseudo-labels.
        """
        if len(projection_dims) != 3:
            raise ConfigError(f"projection_dims must list 3 widths, got {projection_dims}")
        if not encoder_dims:
            raise ConfigError("encoder needs at least one layer")
        rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, 0x6E657477]))

        def affine(n_in: int, n_out: int, activation: str) -> Layer:
            bound = 1.0 / np.sqrt(n_in)
            w = rng.uniform(-bound, bound, size=(n_out, n_in))
            b = rng.uniform(-bound, bound, size=n_out)
            return Layer(w.astype(np.float32), b.astype(np.float32), activation)

        encoder = []
        dims = [input_dim] + list(encoder_dims)
        for i, (n_in, n_out) in enumerate(zip(dims, dims[1:])):
            last = i == len(encoder_dims) - 1
            encoder.append(affine(n_in, n_out, "identity" if last else "relu"))
        proj = []
        pdims = [encoder_dims[-1]] + list(projection_dims)
        for i, (n_in, n_out) in enumerate(zip(pdims, pdims[1:])):
            proj.append(affine(n_in, n_out, "identity" if i == 2 else "relu"))
        head = affine(encoder_dims[-1], 1, "identity")
        return cls(encoder, proj, head)

    def layer_names(self) -> list[str]:
        return list(self._layers)

    def layer(self, name: str) -> Layer:
        try:
            return self._layers[name]
        except KeyError:
            raise ConfigError(f"unknown layer name {name!r}") from None

    def named_layers(self) -> list[tuple[str, Layer]]:
        return list(self._layers.items())

    @property
    def input_dim(self) -> int:
        return self.encoder[0].in_dim


def set_frozen(params: ModelParams, names: list[str]) -> None:
    """Freeze the layers named exactly in ``names``; an unknown name is a
    ``ConfigError`` and freezes nothing."""
    for layer in [params.layer(name) for name in names]:
        layer.frozen = True


class GradientBundle:
    """Gradients in the flat layout of ``ModelParams.flat``: a flat vector
    and its layout. Indexing by layer name returns views into ``flat``.
    Frozen layers hold zeros.
    """

    def __init__(self, flat: np.ndarray, layout: dict[str, Span]):
        self.flat, self.layout = flat, layout

    @classmethod
    def zeros_like(cls, params: ModelParams) -> "GradientBundle":
        return cls(np.zeros_like(params.flat), params.layout)

    def __getitem__(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        span = self.layout[name]
        return self.flat[span.start : span.split].reshape(span.shape), self.flat[span.split : span.stop]

    def norm(self) -> float:
        """Euclidean norm by numpy's pairwise sum, not a BLAS dot, whose
        result moves with the BLAS thread count; inf if the squares overflow."""
        with np.errstate(over="ignore"):
            return float(np.sqrt(np.sum(self.flat * self.flat)))


@dataclass
class Tape:
    """Activations recorded by a forward pass, consumed by backward/JVP.

    ``acts[i]`` is the input of chain layer i, the chain being every layer
    but the head: ``acts[0]`` is the network input, ``acts[len(encoder)]``
    the features, and ``acts[i + 1]`` layer i's output, whose positive
    entries are layer i's relu mask. A ``forward_embed`` tape also holds the
    projection output last, and its row norms and normalized rows."""

    acts: list[np.ndarray]
    norms: np.ndarray | None = None
    z: np.ndarray | None = None  # normalized projection


def _run_chain(layers: list[Layer], acts: list[np.ndarray]) -> np.ndarray:
    """Run ``layers`` on ``acts[-1]``, appending each output to ``acts``."""
    h = acts[-1]
    for layer in layers:
        h = h @ layer.weight.T
        h += layer.bias
        if layer.activation == "relu":
            np.maximum(h, 0.0, out=h)
        acts.append(h)
    return h


def forward_features(params: ModelParams, x: np.ndarray) -> tuple[np.ndarray, Tape]:
    """Encoder-only forward of a batch of rows; the returned tape supports
    backward passes that do not touch the projection (head gradients)."""
    X = np.asarray(x, dtype=params.flat.dtype)
    if X.ndim != 2 or X.shape[1] != params.input_dim:
        raise DataError(f"input must be rows of {params.input_dim} values, got shape {X.shape}")
    tape = Tape(acts=[X])
    return _run_chain(params.encoder, tape.acts), tape


def forward_embed(params: ModelParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, Tape]:
    """Run encoder and projection on a batch of rows; returns (features,
    unit projection, tape).

    Raises NumericError if any projection output is the zero vector, which
    cannot be normalized.
    """
    features, tape = forward_features(params, x)
    v = _run_chain(params.projection, tape.acts)
    norms = np.linalg.norm(v, axis=1)
    bad = np.flatnonzero(norms < _ZERO_NORM)
    if bad.size:
        raise NumericError(
            f"projection collapsed to the zero vector for row {bad[0]}; cannot normalize"
        )
    tape.norms = norms
    tape.z = v / norms[:, None]
    return features, tape.z, tape


def head_forward(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """The head logit of each row of a batch of encoder features, (n, 1)."""
    F = np.asarray(features, dtype=params.flat.dtype)
    if F.ndim != 2 or F.shape[1] != params.head.in_dim:
        raise DataError(f"features must be rows of {params.head.in_dim} values, got shape {F.shape}")
    return F @ params.head.weight.T + params.head.bias


def _unit_tangent(tape: Tape, d: np.ndarray) -> np.ndarray:
    """``(d - z (z . d)) / |v|`` per row, for the normalization z = v / |v|
    on ``tape``: the projection of ``d`` onto the tangent space at z, scaled.
    It maps dL/dz to dL/dv in ``backward`` and dv to dz in ``forward_jvp``."""
    return (d - tape.z * np.sum(tape.z * d, axis=1, keepdims=True)) / tape.norms[:, None]


def backward(
    params: ModelParams,
    tape: Tape,
    d_projection: np.ndarray | None = None,
    d_logits: np.ndarray | None = None,
) -> GradientBundle:
    """Exact reverse-mode gradients for a scalar loss.

    Upstream gradients may arrive at the normalized projection output, the
    head logits, or both; contributions are summed. Frozen layers come back
    as zeros and cost no gradient GEMM, and the walk down the chain stops
    at the lowest trainable layer.
    """
    bundle = GradientBundle.zeros_like(params)
    chain, acts = params.named_layers()[:-1], tape.acts
    n_enc, dtype = len(params.encoder), params.flat.dtype
    d_out, top, d_head = None, n_enc, None  # d_out: gradient at acts[i + 1], None while zero

    if d_projection is not None:
        if tape.z is None:
            raise DataError("d_projection needs a tape from forward_embed; this tape has no projection")
        dz = np.asarray(d_projection, dtype=dtype)
        if dz.shape != tape.z.shape:
            raise DataError(f"d_projection shape {dz.shape} does not match tape")
        d_out, top = _unit_tangent(tape, dz), len(chain)

    if d_logits is not None:
        d_logits = np.asarray(d_logits, dtype=dtype)
        if d_logits.shape != (acts[0].shape[0], params.head.out_dim):
            raise DataError(f"d_logits shape {d_logits.shape} does not match tape")
        if not params.head.frozen:
            dw, db = bundle["head"]
            np.matmul(d_logits.T, acts[n_enc], out=dw)
            np.sum(d_logits, axis=0, out=db)
        d_head = d_logits @ params.head.weight
    elif d_projection is None:
        return bundle

    stop = next((i for i, (_, layer) in enumerate(chain) if not layer.frozen), len(chain))
    for i in reversed(range(stop, top)):
        name, layer = chain[i]
        if i == n_enc - 1 and d_head is not None:
            d_out = d_head if d_out is None else d_head + d_out
        d_pre = d_out * (acts[i + 1] > 0.0) if layer.activation == "relu" else d_out
        if not layer.frozen:
            dw, db = bundle[name]
            np.matmul(d_pre.T, acts[i], out=dw)
            np.sum(d_pre, axis=0, out=db)
        if i > stop:
            d_out = d_pre @ layer.weight
    return bundle


def forward_jvp(params: ModelParams, tape: Tape, direction: GradientBundle) -> np.ndarray:
    """Directional derivative of the normalized projection along a
    parameter-space direction, reusing a recorded tape.

    The input itself is held fixed; only parameters move, and frozen
    layers not at all: the direction's frozen spans are taken as zero, as
    ``backward`` leaves them. Cost is at most one forward pass; layers
    whose direction span is zero (such as the projection spans of a
    features-only ``backward``) skip their parameter term, and layers below
    the lowest moving one cost nothing.
    """
    u = None  # the tangent at acts[i], None while zero
    for i, (name, layer) in enumerate(params.named_layers()[:-1]):
        dw, db = direction[name]
        if layer.frozen or not (dw.any() or db.any()):
            if u is None:
                continue
            u_pre = u @ layer.weight.T
        else:
            move = tape.acts[i] @ dw.T
            u_pre = (move if u is None else u @ layer.weight.T + move) + db
        u = u_pre * (tape.acts[i + 1] > 0.0) if layer.activation == "relu" else u_pre
    return np.zeros_like(tape.z) if u is None else _unit_tangent(tape, u)


_SECTION_CODE = {name: i for i, name in enumerate(_SECTIONS)}
_ACTIVATION_CODE = {name: i for i, name in enumerate(_ACTIVATIONS)}


def save_checkpoint(params: ModelParams, path: str | Path) -> None:
    """Serialize parameters as float32: a float32 model loads back bit for
    bit, a float64 one as its float32 rounding."""
    chunks = [_FILE_HEADER.pack(MAGIC, FORMAT_VERSION, len(params.layout))]
    for name, layer in params.named_layers():
        section = _SECTION_CODE[name.partition(".")[0]]
        activation = _ACTIVATION_CODE[layer.activation]
        chunks.append(_LAYER_HEADER.pack(section, activation, layer.frozen, layer.in_dim, layer.out_dim))
        span = params.layout[name]
        chunks.append(params.flat[span.start : span.stop].astype("<f4"))  # weights, biases
    write_file(path, *chunks)


def load_checkpoint(path: str | Path) -> ModelParams:
    (count,), raw = read_container(path, MAGIC, FORMAT_VERSION, _FILE_HEADER, "checkpoint")
    offset = _FILE_HEADER.size
    encoder: list[Layer] = []
    projection: list[Layer] = []
    head: Layer | None = None
    for _ in range(count):
        if offset + _LAYER_HEADER.size > len(raw):
            raise FileSizeError(f"{path}: truncated layer header")
        sec, act, frozen, in_dim, out_dim = _LAYER_HEADER.unpack_from(raw, offset)
        offset += _LAYER_HEADER.size
        nbytes = 4 * (in_dim * out_dim + out_dim)
        if offset + nbytes > len(raw):
            raise FileSizeError(f"{path}: truncated layer payload")
        payload = np.frombuffer(raw, dtype="<f4", count=nbytes // 4, offset=offset)
        if not np.isfinite(payload).all():
            raise FormatError(f"{path}: non-finite weights")
        offset += nbytes
        w = payload[: in_dim * out_dim].reshape(out_dim, in_dim)
        try:
            layer = Layer(w, payload[in_dim * out_dim :], _ACTIVATIONS[act], bool(frozen))
            section = _SECTIONS[sec]
        except IndexError:
            raise FormatError(f"{path}: unknown section/activation code") from None
        if section == "encoder":
            encoder.append(layer)
        elif section == "projection":
            projection.append(layer)
        else:
            if head is not None:
                raise FormatError(f"{path}: multiple head layers")
            head = layer
    if offset != len(raw):
        raise FileSizeError(f"{path}: {len(raw) - offset} trailing bytes")
    if head is None or not encoder:
        raise FormatError(f"{path}: missing {'head' if head is None else 'encoder'} layer")
    with naming(path):
        return ModelParams(encoder, projection, head)
