"""Two-stage training over precomputed embeddings.

Stage 1 pretrains with the label-aware contrastive objective on two
randomly augmented views of every sample (coordinate masking, additive
noise, scale jitter — the embedding-space analogue of image augmentations).
Stage 2 freezes most of the encoder and reweights samples each step: the
weight of a sample is the positively clamped, normalized alignment between
its training-loss gradient and the gradient of a top-k classification loss
on a high-confidence pseudo-labeled validation subset.

The per-sample alignments are computed exactly but without materializing
per-sample gradients: with g_v the validation gradient and J the Jacobian of
the projection outputs in the parameters, <g_v, grad loss_i> equals
<J g_v, d loss_i / dZ>, so one forward-mode pass along g_v prices every
sample at once. A step therefore costs two forwards and roughly three
backwards, not one backward per sample.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, DegenerateBatchError, NumericError
from .evaluation import train_probe
from .losses import (
    LossConfig,
    MultiviewedBatch,
    contrastive_loss,
    multi_attribute_anchor_stats,
    topk_average,
    validation_topk_loss,
    weighted_grad_from_stats,
)
from .network import (
    GradientBundle,
    ModelParams,
    backward,
    forward_embed,
    forward_features,
    forward_jvp,
    set_frozen,
)
from .seeding import substream

log = logging.getLogger(__name__)

OBJECTIVES = ("supcon", "contrastive")
DEFAULT_FREEZE = "encoder-except-last"


@dataclass
class TrainConfig:
    batch_size: int = 32
    epochs: int = 60
    base_lr: float = 1e-3
    weight_decay: float = 5e-4
    warmup_epochs: int = 5
    stage_split: float = 0.7  # fraction of epochs trained before the meta stage
    inner_lr: float = 0.1  # virtual-step size for the sample weighting
    val_subset_size: int = 64
    val_topk: int = 16
    val_batch_size: int = 32
    seed: int = 0
    noise_sigma: float = 0.05
    mask_prob: float = 0.1
    scale_jitter: float = 0.1
    objective: str = "supcon"
    freeze_selector: list[str] = field(default_factory=lambda: [DEFAULT_FREEZE])
    train_head_in_meta: bool = True

    def __post_init__(self) -> None:
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.base_lr < 0 or self.weight_decay < 0 or self.warmup_epochs < 0:
            raise ConfigError("learning-rate settings must be non-negative")
        if not 0.0 < self.stage_split <= 1.0:
            raise ConfigError(f"stage_split must be in (0, 1], got {self.stage_split}")
        if self.inner_lr <= 0:
            raise ConfigError("inner_lr must be positive")
        if self.val_topk < 1 or self.val_subset_size < 1 or self.val_batch_size < 1:
            raise ConfigError("validation sizes must be >= 1")
        if self.noise_sigma < 0 or not 0.0 <= self.mask_prob < 1.0 or self.scale_jitter < 0:
            raise ConfigError("augmentation parameters out of range")
        if self.objective not in OBJECTIVES:
            raise ConfigError(f"objective must be one of {OBJECTIVES}")

    @property
    def stage1_epochs(self) -> int:
        return math.ceil(self.stage_split * self.epochs)


@dataclass
class MetaState:
    """Per-batch byproducts of the sample-weighting step: the raw alignment
    gradient, the clamped weights before and after normalization, and whether
    the zero-sum guard suppressed the update."""

    grad_eps: np.ndarray
    w_tilde: np.ndarray
    w: np.ndarray
    skipped: bool


class LrSchedule:
    """Linear warmup from zero, then cosine decay to zero; or constant."""

    def __init__(self, base_lr: float, warmup_steps: int = 0, total_steps: int | None = None):
        self.base_lr = base_lr
        self.warmup_steps = warmup_steps
        self.total_steps = total_steps

    def lr(self, step: int) -> float:
        if self.warmup_steps > 0 and step < self.warmup_steps:
            return self.base_lr * step / self.warmup_steps
        if self.total_steps is None:
            return self.base_lr
        span = max(1, self.total_steps - self.warmup_steps)
        progress = min(1.0, (step - self.warmup_steps) / span)
        return self.base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


class AdamW:
    """Adaptive-moment optimizer with decoupled weight decay.

    Frozen layers are skipped entirely: their parameters and moment buffers
    never change.
    """

    def __init__(
        self,
        params: ModelParams,
        schedule: LrSchedule,
        weight_decay: float = 0.0,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.schedule = schedule
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.moments = {
            name: tuple(np.zeros_like(t) for t in (layer.weight, layer.bias, layer.weight, layer.bias))
            for name, layer in params.named_layers()
        }

    @property
    def current_lr(self) -> float:
        return self.schedule.lr(self.step_count)

    def step(self, params: ModelParams, grads: GradientBundle) -> None:
        if not grads.is_finite():
            bad = [
                name
                for name, (dw, db) in grads.items()
                if not (np.all(np.isfinite(dw)) and np.all(np.isfinite(db)))
            ]
            raise NumericError(f"non-finite gradient in layers {bad}; aborting optimizer step")
        lr = self.schedule.lr(self.step_count)
        t = self.step_count + 1
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        for name, layer in params.named_layers():
            if layer.frozen:
                continue
            mw, mb, vw, vb = self.moments[name]
            dw, db = grads[name]
            for param, grad, m, v in ((layer.weight, dw, mw, vw), (layer.bias, db, mb, vb)):
                m *= self.beta1
                m += (1.0 - self.beta1) * grad
                v *= self.beta2
                v += (1.0 - self.beta2) * grad * grad
                update = (m / bias1) / (np.sqrt(v / bias2) + self.eps)
                param -= lr * update
                if self.weight_decay and param is layer.weight:
                    param -= lr * self.weight_decay * param
        self.step_count += 1


def make_views(
    x: np.ndarray,
    rng: np.random.Generator,
    noise_sigma: float = 0.05,
    mask_prob: float = 0.1,
    scale_jitter: float = 0.1,
) -> tuple[np.ndarray, np.ndarray]:
    """Two independently augmented copies of each input row.

    Each view applies, in order: coordinate masking with probability
    ``mask_prob``, additive Gaussian noise, and a single multiplicative
    jitter factor per row. Degenerate parameters (all zero) give identity
    views.
    """
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    X = np.atleast_2d(arr)

    def one_view() -> np.ndarray:
        keep = rng.random(X.shape) >= mask_prob
        noise = rng.normal(0.0, noise_sigma, size=X.shape) if noise_sigma > 0 else 0.0
        scale = rng.uniform(1.0 - scale_jitter, 1.0 + scale_jitter, size=(X.shape[0], 1))
        return (X * keep + noise) * scale

    v1, v2 = one_view(), one_view()
    if single:
        return v1[0], v2[0]
    return v1, v2


def stratified_batches(
    n: int, batch_size: int, rng: np.random.Generator, labels: np.ndarray | None = None
) -> list[np.ndarray]:
    """Shuffle indices into batches; with labels given, classes are spread
    proportionally so each batch sees every represented class where feasible.

    A trailing partial batch is dropped (every epoch reshuffles, so coverage
    rotates).
    """
    if labels is None:
        order = rng.permutation(n)
    else:
        labels = np.asarray(labels).ravel()
        keys = np.empty(n, dtype=np.float64)
        for value in np.unique(labels):
            members = rng.permutation(np.flatnonzero(labels == value))
            # evenly spaced fractional positions interleave classes proportionally
            keys[members] = (np.arange(members.size) + rng.random(members.size)) / members.size
        order = np.argsort(keys, kind="stable")
    if n < batch_size:
        return [order]
    usable = (n // batch_size) * batch_size
    return [order[i : i + batch_size] for i in range(0, usable, batch_size)]


def _assemble_batch(
    X: np.ndarray,
    labels: np.ndarray,
    idx: np.ndarray,
    rng: np.random.Generator,
    cfg: TrainConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x = X[idx].astype(np.float64)
    v1, v2 = make_views(x, rng, cfg.noise_sigma, cfg.mask_prob, cfg.scale_jitter)
    views = np.vstack([v1, v2])
    origins = np.concatenate([np.arange(idx.size), np.arange(idx.size)])
    view_labels = np.vstack([labels[idx], labels[idx]])
    return views, origins, view_labels


def _batch_loss_and_grad(
    params: ModelParams,
    views: np.ndarray,
    origins: np.ndarray,
    view_labels: np.ndarray,
    attributes: list[int],
    loss_cfg: LossConfig,
    objective: str,
) -> tuple[float, GradientBundle, object]:
    """Forward the views, evaluate the configured objective, and backprop.

    Returns (reported scalar, gradient bundle, tape); the scalar is the mean
    per-anchor loss, or the top-k average when that wrapper is enabled.
    """
    _, Z, tape = forward_embed(params, views)
    batch = MultiviewedBatch(Z, origins, view_labels)
    if objective == "contrastive":
        loss, dZ = contrastive_loss(batch, loss_cfg.temperature)
        scalar = loss / batch.num_views
    else:
        terms, R_list, _ = multi_attribute_anchor_stats(batch, attributes, loss_cfg.temperature)
        if loss_cfg.topk_enabled:
            k = min(loss_cfg.topk_count, terms.size)
            value, mask = topk_average(terms, k)
            anchor_w = mask.astype(np.float64) / k
            scalar = value
        else:
            anchor_w = np.ones(terms.size)
            scalar = float(terms.sum()) / batch.num_views
        dZ = weighted_grad_from_stats(Z, R_list, anchor_w, loss_cfg.temperature)
    bundle = backward(params, tape, d_projection=dZ)
    return scalar, bundle, tape


def pretrain_epoch(
    params: ModelParams,
    X: np.ndarray,
    labels: np.ndarray,
    attributes: list[int],
    loss_cfg: LossConfig,
    cfg: TrainConfig,
    optimizer: AdamW,
    rng_shuffle: np.random.Generator,
    rng_views: np.random.Generator,
    stratify_labels: np.ndarray | None = None,
) -> dict:
    """One shuffled pass over the dataset with the stage-1 objective."""
    if X.shape[0] == 0:
        raise DataError("cannot train on an empty dataset")
    batches = stratified_batches(X.shape[0], cfg.batch_size, rng_shuffle, stratify_labels)
    losses = []
    grad_norms = []
    skipped = 0
    for idx in batches:
        views, origins, view_labels = _assemble_batch(X, labels, idx, rng_views, cfg)
        try:
            loss, bundle, _ = _batch_loss_and_grad(
                params, views, origins, view_labels, attributes, loss_cfg, cfg.objective
            )
        except DegenerateBatchError as exc:
            skipped += 1
            log.warning("skipping degenerate batch: %s", exc)
            continue
        optimizer.step(params, bundle)
        losses.append(loss)
        grad_norms.append(bundle.norm())
    return {
        "loss": float(np.mean(losses)) if losses else float("nan"),
        "grad_norm_mean": float(np.mean(grad_norms)) if grad_norms else float("nan"),
        "grad_norm_max": float(np.max(grad_norms)) if grad_norms else float("nan"),
        "skipped_batches": skipped,
        "lr": optimizer.current_lr,
    }


def meta_weights(alignments: np.ndarray, inner_lr: float) -> MetaState:
    """Sample weights from gradient alignments.

    The derivative of the validation loss in the per-sample coefficient
    eps_i of a virtual update theta - inner_lr * sum_i eps_i g_i, taken at
    eps = 0, is -inner_lr * alignments[i]. Weights clamp the negated
    derivative at zero and normalize; when everything clamps to zero the
    update is suppressed entirely rather than renormalized.
    """
    if inner_lr <= 0:
        raise ConfigError("inner_lr must be positive")
    grad_eps = -inner_lr * np.asarray(alignments, dtype=np.float64)
    w_tilde = np.maximum(-grad_eps, 0.0)
    total = float(w_tilde.sum())
    if total <= 0.0:
        return MetaState(grad_eps, w_tilde, np.zeros_like(w_tilde), skipped=True)
    return MetaState(grad_eps, w_tilde, w_tilde / total, skipped=False)


def per_sample_alignments(
    Z: np.ndarray,
    dZ_dir: np.ndarray,
    R_list: list[np.ndarray],
    temperature: float,
) -> np.ndarray:
    """<g_v, grad_theta loss_i> for every anchor view i, given the tangent
    dZ_dir of Z along g_v.

    loss_i depends on the parameters only through Z, with dZ coefficients
    (e_i r_i^T + r_i e_i^T) Z / temperature, so the inner product reduces to
    row sums of (dZ_dir Z^T + Z dZ_dir^T) * R.
    """
    C = dZ_dir @ Z.T
    C = C + C.T
    acc = np.zeros(Z.shape[0])
    for R in R_list:
        acc += np.sum(C * R, axis=1)
    return acc / (len(R_list) * temperature)


def meta_step(
    params: ModelParams,
    X: np.ndarray,
    labels: np.ndarray,
    idx: np.ndarray,
    val_x: np.ndarray,
    val_y: np.ndarray,
    attributes: list[int],
    loss_cfg: LossConfig,
    cfg: TrainConfig,
    optimizer: AdamW,
    rng_views: np.random.Generator,
) -> dict:
    """One reweighted training step against a pseudo-labeled validation batch.

    Per-sample training losses are the two anchor terms of a sample's views,
    averaged. The final update applies the normalized alignment weights; if
    every alignment is non-positive the whole step (including any head
    update) is skipped.
    """
    if val_x.shape[0] == 0:
        raise DataError("validation batch is empty")
    views, origins, view_labels = _assemble_batch(X, labels, idx, rng_views, cfg)
    _, Z, tape = forward_embed(params, views)
    batch = MultiviewedBatch(Z, origins, view_labels)
    terms, R_list, _ = multi_attribute_anchor_stats(batch, attributes, loss_cfg.temperature)
    n = idx.size
    sample_terms = 0.5 * (terms[:n] + terms[n:])

    k_val = min(cfg.val_topk, val_x.shape[0])
    val_loss, g_v = validation_topk_loss(params, val_x, val_y, k_val)
    _, dZ_dir = forward_jvp(params, tape, g_v)
    anchor_align = per_sample_alignments(Z, dZ_dir, R_list, loss_cfg.temperature)
    sample_align = 0.5 * (anchor_align[:n] + anchor_align[n:])
    state = meta_weights(sample_align, cfg.inner_lr)

    metrics = {
        "val_topk_loss": val_loss,
        "weight_entropy": 0.0,
        "skipped": state.skipped,
        "loss": float("nan"),
        "lr": optimizer.current_lr,
        "active_samples": int(np.count_nonzero(state.w)),
        "meta_state": state,
    }
    if state.skipped:
        return metrics
    w = state.w
    metrics["weight_entropy"] = float(-np.sum(w[w > 0] * np.log(w[w > 0])))
    metrics["loss"] = float(np.dot(w, sample_terms))
    anchor_w = np.concatenate([w, w]) * 0.5  # each view carries half its sample weight
    dZ = weighted_grad_from_stats(Z, R_list, anchor_w, loss_cfg.temperature)
    bundle = backward(params, tape, d_projection=dZ)
    if cfg.train_head_in_meta:
        hw, hb = g_v["head"]
        bundle["head"][0][...] += hw
        bundle["head"][1][...] += hb
    optimizer.step(params, bundle)
    return metrics


def _resolve_freeze(params: ModelParams, selectors: list[str]) -> list[str]:
    resolved = []
    for sel in selectors:
        if sel == DEFAULT_FREEZE:
            resolved.extend(f"encoder.{i}" for i in range(max(0, len(params.encoder) - 1)))
        else:
            resolved.append(sel)
    return resolved


def full_validation_loss(
    params: ModelParams, X: np.ndarray, val_idx: np.ndarray, val_y: np.ndarray, k: int
) -> float:
    """Top-k classification loss over the whole validation subset."""
    val_x = X[val_idx].astype(np.float64)
    loss, _ = validation_topk_loss(params, val_x, val_y, min(k, val_idx.size))
    return loss


def pretrain_stage(
    params: ModelParams,
    X: np.ndarray,
    labels: np.ndarray,
    attributes: list[int],
    loss_cfg: LossConfig,
    cfg: TrainConfig,
    epochs: int | None = None,
    stratify_labels: np.ndarray | None = None,
) -> list[dict]:
    """Stage 1: contrastive pretraining for ``epochs`` (default: the stage
    split of the configured total)."""
    epochs = cfg.stage1_epochs if epochs is None else epochs
    n = X.shape[0]
    steps_per_epoch = max(1, n // cfg.batch_size) if n >= cfg.batch_size else 1
    schedule = LrSchedule(
        cfg.base_lr,
        warmup_steps=cfg.warmup_epochs * steps_per_epoch,
        total_steps=epochs * steps_per_epoch,
    )
    optimizer = AdamW(params, schedule, weight_decay=cfg.weight_decay)
    rng_shuffle = substream(cfg.seed, "stage1", "shuffle")
    rng_views = substream(cfg.seed, "stage1", "views")
    history = []
    for epoch in range(1, epochs + 1):
        metrics = pretrain_epoch(
            params, X, labels, attributes, loss_cfg, cfg, optimizer,
            rng_shuffle, rng_views, stratify_labels,
        )
        metrics.update(epoch=epoch, stage="pretrain")
        history.append(metrics)
        log.info("pretrain epoch %d: loss=%.4f lr=%.2e", epoch, metrics["loss"], metrics["lr"])
    return history


def meta_stage(
    params: ModelParams,
    X: np.ndarray,
    labels: np.ndarray,
    attributes: list[int],
    val_idx: np.ndarray,
    val_y: np.ndarray,
    loss_cfg: LossConfig,
    cfg: TrainConfig,
    epochs: int | None = None,
    epoch_offset: int = 0,
    stratify_labels: np.ndarray | None = None,
) -> tuple[list[dict], dict]:
    """Stage 2: freeze the configured layers, fit the validation head on the
    high-confidence subset, then run reweighted steps.

    Returns (per-epoch history, summary) where the summary records the
    validation top-k loss at the stage switch and at the end.
    """
    epochs = cfg.epochs - cfg.stage1_epochs if epochs is None else epochs
    if epochs <= 0:
        raise ConfigError("meta stage has no epochs to run; increase epochs or lower stage_split")
    val_idx = np.asarray(val_idx, dtype=np.int64)
    val_y = np.asarray(val_y, dtype=np.int64)
    if val_idx.size == 0:
        raise DataError("validation subset is empty")

    set_frozen(params, _resolve_freeze(params, cfg.freeze_selector), frozen=True)

    # The validation head is meaningless until it is fit to the proxy task;
    # a convex fit on the frozen-stage features does that deterministically.
    feats, _ = forward_features(params, X[val_idx].astype(np.float64))
    probe = train_probe(feats, val_y, l2=1e-3)
    log.info(
        "validation head fit: probe_iterations=%d probe_grad_norm=%.3e probe_loss=%.6f",
        probe.iterations, probe.grad_norm, probe.final_loss,
    )
    params.head.weight[...] = probe.weight
    params.head.bias[...] = probe.bias

    val_at_switch = full_validation_loss(params, X, val_idx, val_y, cfg.val_topk)

    n = X.shape[0]
    steps_per_epoch = max(1, n // cfg.batch_size) if n >= cfg.batch_size else 1
    schedule = LrSchedule(cfg.base_lr, warmup_steps=0, total_steps=epochs * steps_per_epoch)
    optimizer = AdamW(params, schedule, weight_decay=cfg.weight_decay)
    rng_shuffle = substream(cfg.seed, "stage2", "shuffle")
    rng_views = substream(cfg.seed, "stage2", "views")
    rng_val = substream(cfg.seed, "stage2", "valsample")

    history = []
    for epoch in range(1, epochs + 1):
        batches = stratified_batches(n, cfg.batch_size, rng_shuffle, stratify_labels)
        step_losses = []
        entropies = []
        skipped = 0
        for idx in batches:
            take = min(cfg.val_batch_size, val_idx.size)
            chosen = rng_val.choice(val_idx.size, size=take, replace=False)
            try:
                metrics = meta_step(
                    params, X, labels, idx,
                    X[val_idx[chosen]].astype(np.float64), val_y[chosen],
                    attributes, loss_cfg, cfg, optimizer, rng_views,
                )
            except DegenerateBatchError as exc:
                skipped += 1
                log.warning("skipping degenerate meta batch: %s", exc)
                continue
            if metrics["skipped"]:
                skipped += 1
            else:
                step_losses.append(metrics["loss"])
                entropies.append(metrics["weight_entropy"])
        val_epoch = full_validation_loss(params, X, val_idx, val_y, cfg.val_topk)
        row = {
            "epoch": epoch_offset + epoch,
            "stage": "meta",
            "loss": float(np.mean(step_losses)) if step_losses else float("nan"),
            "val_topk_loss": val_epoch,
            "weight_entropy": float(np.mean(entropies)) if entropies else float("nan"),
            "skipped_batches": skipped,
            "lr": optimizer.current_lr,
        }
        history.append(row)
        log.info(
            "meta epoch %d: loss=%.4f val_topk=%.4f", row["epoch"], row["loss"], row["val_topk_loss"]
        )
    summary = {
        "val_topk_at_switch": val_at_switch,
        "val_topk_final": history[-1]["val_topk_loss"],
        "meta_epochs": epochs,
    }
    return history, summary


def staged_train(
    params: ModelParams,
    X: np.ndarray,
    labels: np.ndarray,
    attributes: list[int],
    val_idx: np.ndarray | None,
    val_y: np.ndarray | None,
    loss_cfg: LossConfig,
    cfg: TrainConfig,
    stratify_labels: np.ndarray | None = None,
) -> tuple[list[dict], dict]:
    """Run stage 1 for ceil(stage_split * epochs) epochs, then the meta stage
    for the remainder. With stage_split == 1.0 no meta stage runs and no
    validation subset is needed."""
    history = pretrain_stage(
        params, X, labels, attributes, loss_cfg, cfg, stratify_labels=stratify_labels
    )
    summary: dict = {"meta_epochs": 0}
    remaining = cfg.epochs - cfg.stage1_epochs
    if remaining > 0:
        if val_idx is None or val_y is None:
            raise ConfigError("meta stage requires a validation subset")
        meta_hist, summary = meta_stage(
            params, X, labels, attributes, val_idx, val_y, loss_cfg, cfg,
            epochs=remaining, epoch_offset=cfg.stage1_epochs,
            stratify_labels=stratify_labels,
        )
        history.extend(meta_hist)
    return history, summary
