"""Contrastive objectives over unit projection vectors, with exact gradients.

All objectives act on a multiviewed batch: 2N views, where views i and i + N
are the two augmented views of sample i and both carry that sample's
per-attribute labels. Every anchor therefore has at least one positive, its
other view, under every attribute. Every loss decomposes into one term per
anchor view; the wrappers below (top-k averaging, per-sample weighting)
reweight those anchor terms, so the shared machinery computes, per anchor i,
the label-aware term averaged over the attributes a:

    Pbar_ib = mean_a [b in P_a(i)] / |P_a(i)|
    term_i  = logsumexp_{b != i}(s_ib) - sum_b Pbar_ib s_ib
    R_ib    = softmax_{b != i}(s_i.)_b - Pbar_ib

with s = Z Z^T / temperature. Both are linear in the positives' weights and
the softmax does not depend on the attribute, so one matrix R serves every
attribute. For any anchor weights w, the scalar is sum_i w_i * term_i and its
gradient in Z is ((diag(w) R) + (diag(w) R)^T) Z / temperature. Positives
P_a(i) are the other views sharing the anchor's label under attribute a; the
denominator always ranges over every other view.

Every loss computes in the dtype of its views, float32 in training and
float64 in exact gradient checks; its terms, coefficient matrix and
gradient come back in that dtype.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DegenerateBatchError, NumericError
from .evaluation import logistic_loss, softmax
from .network import GradientBundle, ModelParams, backward, float_array, forward_features, head_forward

_UNIT_TOL = 1e-5


@dataclass
class LossConfig:
    temperature: float = 0.1
    topk_count: int = 16
    topk_enabled: bool = False

    def __post_init__(self) -> None:
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")
        if self.topk_count < 1:
            raise ConfigError(f"topk_count must be >= 1, got {self.topk_count}")


class MultiviewedBatch:
    """2N unit views of N samples: views ``i`` and ``i + N`` are the two views
    of sample ``i``, and both carry its labels, so every anchor has a positive.

    ``labels`` is per sample, (N,) or (N, A) with A >= 1; ``self.labels`` is
    per view, (2N, A). The label-aware losses average over all A columns.
    Float32 views keep their dtype; any others become float64.
    """

    def __init__(self, views: np.ndarray, labels: np.ndarray):
        self.views = float_array(views)
        if self.views.ndim != 2:
            raise DataError("views must be a 2-D array")
        m = self.views.shape[0]
        if m % 2 != 0 or m == 0:
            raise DataError(f"multiviewed batch needs an even, positive view count, got {m}")
        labels = np.asarray(labels)
        if labels.ndim == 1:
            labels = labels[:, None]
        if labels.ndim != 2 or labels.shape[0] != m // 2 or labels.shape[1] == 0:
            raise DataError(f"labels must be (samples={m // 2}, attributes>=1), got shape {labels.shape}")
        norms = np.linalg.norm(self.views, axis=1)
        if np.any(np.abs(norms - 1.0) > _UNIT_TOL):
            raise DataError("views must be unit vectors")
        self.labels = np.vstack([labels, labels]).astype(np.int64)

    @property
    def num_views(self) -> int:
        return self.views.shape[0]

    @property
    def num_origins(self) -> int:
        return self.views.shape[0] // 2

    def pair_index(self) -> np.ndarray:
        """The other view of each view's sample: ``(i + N) mod 2N``."""
        return np.roll(np.arange(self.num_views), self.num_origins)


def _scaled_similarities(Z: np.ndarray, temperature: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (s, logsumexp over a != i, softmax q with zero diagonal).
    A temperature so small that 1 / temperature overflows Z's dtype is a
    ``NumericError``: no similarity of unit vectors would be finite."""
    if temperature * float(np.finfo(Z.dtype).max) < 1.0:
        raise NumericError(f"temperature {temperature} overflows {Z.dtype} similarities")
    s = (Z @ Z.T) / temperature
    masked = s.copy()
    np.fill_diagonal(masked, -np.inf)
    shift, log_denom, q = softmax(masked)
    return s, shift + log_denom, q


def _anchor_stats(
    s: np.ndarray, lse: np.ndarray, q: np.ndarray, pos_mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-anchor terms and the coefficient matrix R described in the module
    docstring, for positives masks (2N, 2N) or one per attribute (A, 2N, 2N),
    each with a False diagonal and a positive per row."""
    pos = pos_mask.reshape(-1, *s.shape)
    pbar = np.mean(np.divide(pos, pos.sum(axis=2, keepdims=True), dtype=s.dtype), axis=0)
    R = q - pbar
    np.fill_diagonal(R, 0.0)
    return lse - np.einsum("ij,ij->i", pbar, s), R


def _grad_from_coeffs(Z: np.ndarray, R_weighted: np.ndarray, temperature: float) -> np.ndarray:
    return (R_weighted + R_weighted.T) @ Z / temperature


def contrastive_loss(batch: MultiviewedBatch, temperature: float) -> tuple[float, np.ndarray]:
    """Pairwise-only objective: each anchor's sole positive is its paired view.

    Requires at least two samples so that negatives exist.
    """
    if batch.num_origins < 2:
        raise DegenerateBatchError("contrastive loss needs at least two samples")
    s, lse, q = _scaled_similarities(batch.views, temperature)
    terms, R = _anchor_stats(s, lse, q, np.eye(batch.num_views, dtype=bool)[batch.pair_index()])
    loss = float(terms.sum())
    return loss, _grad_from_coeffs(batch.views, R, temperature)


def _positives_for_attribute(batch: MultiviewedBatch) -> np.ndarray:
    """Views sharing each anchor's label, diagonal excluded: one (2N, 2N)
    mask per label column, (A, 2N, 2N)."""
    col = np.ascontiguousarray(batch.labels.T)  # so each mask is a contiguous (2N, 2N) block
    pos = col[:, :, None] == col[:, None, :]
    diag = np.arange(batch.num_views)
    pos[:, diag, diag] = False
    return pos


def multi_attribute_anchor_stats(batch: MultiviewedBatch, temperature: float) -> tuple[np.ndarray, np.ndarray]:
    """Anchor terms and the coefficient matrix, both averaged over every
    label column of the batch: (terms, R)."""
    s, lse, q = _scaled_similarities(batch.views, temperature)
    return _anchor_stats(s, lse, q, _positives_for_attribute(batch))


def weighted_grad_from_stats(
    Z: np.ndarray, R: np.ndarray, anchor_weights: np.ndarray, temperature: float
) -> np.ndarray:
    """Gradient in Z of sum_i anchor_weights[i] * term_i, for the (terms, R)
    of :func:`multi_attribute_anchor_stats`."""
    w = np.asarray(anchor_weights, dtype=Z.dtype)[:, None]
    return _grad_from_coeffs(Z, w * R, temperature)


def topk_average(values: np.ndarray, k: int) -> tuple[float, np.ndarray]:
    """Mean of the k largest entries, computed in the hinge form
    (1/k) sum_i max(v_i - lam, 0) + lam with lam the k-th largest value.

    Returns the scalar and a boolean mask of the k contributing entries;
    ties at lam resolve to the lower index.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if not 1 <= k <= v.size:
        raise ConfigError(f"k={k} out of range for {v.size} values")
    lam = np.partition(v, v.size - k)[v.size - k]
    result = float(np.maximum(v - lam, 0.0).sum() / k + lam)
    order = np.argsort(-v, kind="stable")
    mask = np.zeros(v.size, dtype=bool)
    mask[order[:k]] = True
    return result, mask


def validation_topk_loss(
    params: ModelParams, val_x: np.ndarray, val_y: np.ndarray, k: int
) -> tuple[float, GradientBundle]:
    """Mean of the k largest per-sample logistic losses of the head logit on
    a held-out set, with its exact parameter gradient.

    Only the k contributing samples carry gradient. With k equal to the
    sample count this is the ordinary mean logistic loss.
    """
    features, tape = forward_features(params, val_x)  # rejects all but a batch of rows
    y = np.asarray(val_y, dtype=np.int64).ravel()
    if len(features) == 0:
        raise DataError("validation batch is empty")
    if len(y) != len(features):
        raise DataError("validation labels do not match the sample count")
    if not 1 <= k <= len(features):
        raise ConfigError(f"k={k} out of range for {len(features)} validation samples")
    per_row, p = logistic_loss(head_forward(params, features)[:, 0], y.astype(features.dtype))
    loss, mask = topk_average(per_row, k)
    d_logits = (p - y) * mask / k
    return loss, backward(params, tape, d_logits=d_logits[:, None])
