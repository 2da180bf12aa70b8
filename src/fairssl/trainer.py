"""Two-stage training over precomputed embeddings.

Stage 1 pretrains with the label-aware contrastive objective on two
randomly augmented views of every sample (coordinate masking, additive
noise, scale jitter — the embedding-space analogue of image augmentations).
Stage 2 freezes every encoder layer but the last and reweights samples
each step: the weight of a sample is the positively clamped, normalized
alignment between its training-loss gradient and the gradient of a top-k
logistic loss of the head on a high-confidence pseudo-labeled validation subset.

The per-sample alignments are computed exactly but without materializing
per-sample gradients: with g_v the validation gradient and J the Jacobian of
the projection outputs in the parameters, <g_v, grad loss_i> equals
<J g_v, d loss_i / dZ>, so one forward-mode pass along g_v prices every
sample at once. A step therefore costs two forwards and roughly three
backwards, not one backward per sample.

Training computes in the dtype of the model's parameters, float32 for
every model the pipeline builds: the augmented views, the losses, the
gradients and the optimizer moments all follow it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

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
    float_array,
    forward_embed,
    forward_features,
    forward_jvp,
    set_frozen,
)
from .seeding import substream

log = logging.getLogger(__name__)

OBJECTIVES = ("supcon", "contrastive")


@dataclass
class TrainConfig:
    batch_size: int = 32
    epochs: int = 60
    base_lr: float = 1e-3
    weight_decay: float = 5e-4
    warmup_epochs: int = 5
    stage_split: float = 0.7  # fraction of epochs trained before the meta stage
    val_subset_size: int = 64
    val_topk: int = 16
    val_batch_size: int = 32
    seed: int = 0  # a pipeline run sets it from the global seed
    noise_sigma: float = 0.05
    mask_prob: float = 0.1
    scale_jitter: float = 0.1
    objective: str = "supcon"

    def __post_init__(self) -> None:
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.base_lr < 0 or self.weight_decay < 0 or self.warmup_epochs < 0:
            raise ConfigError("learning-rate settings must be non-negative")
        if not 0.0 < self.stage_split <= 1.0:
            raise ConfigError(f"stage_split must be in (0, 1], got {self.stage_split}")
        if self.val_topk < 1 or self.val_subset_size < 1 or self.val_batch_size < 1:
            raise ConfigError("validation sizes must be >= 1")
        if self.noise_sigma < 0 or not 0.0 <= self.mask_prob < 1.0 or self.scale_jitter < 0:
            raise ConfigError("augmentation parameters out of range")
        if self.objective not in OBJECTIVES:
            raise ConfigError(f"objective must be one of {OBJECTIVES}")

    @property
    def stage1_epochs(self) -> int:
        return math.ceil(self.stage_split * self.epochs)

    @property
    def meta_epochs(self) -> int:
        return self.epochs - self.stage1_epochs


@dataclass
class MetaState:
    """Per-batch byproducts of the sample-weighting step: the raw alignment
    gradient, the normalized clamped weights, and whether the zero-sum guard
    suppressed the update."""

    grad_eps: np.ndarray
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

    Moments and scratch space are flat vectors in the layout and dtype of
    ``ModelParams.flat``; a step updates each run of adjacent trainable
    layers in place, with the per-element operations of a per-tensor loop in
    the same order. The bias corrections fold into the step size and epsilon
    (the note after Algorithm 1 of Kingma & Ba, arXiv 1412.6980); the
    decoupled decay uses the scheduled rate. Frozen layers' parameters and
    moments never change.

    A first moment below the dtype's smallest normal number is set to zero.
    numpy cannot flush subnormals, and a unit whose gradient stops (a dead
    relu) would keep its decaying moment in the float32 subnormal range for
    about 150 steps, where every operation on it is many times slower.
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
        self.m, self.v, self._a, self._b = (np.zeros_like(params.flat) for _ in range(4))
        self._tiny = np.finfo(params.flat.dtype).tiny

    def step(self, params: ModelParams, grads: GradientBundle) -> float:
        """Apply one update and return the gradient norm. A non-finite entry
        or an overflow makes the norm non-finite: then raise NumericError."""
        norm = grads.norm()
        if not math.isfinite(norm):
            bad = [n for n, s in grads.layout.items() if not np.isfinite(grads.flat[s.start : s.stop]).all()]
            why = f"non-finite gradient in layers {bad}" if bad else f"gradient norm overflows to {norm}"
            raise NumericError(f"{why}; aborting optimizer step")
        lr = self.schedule.lr(self.step_count)
        t = self.step_count + 1
        root2 = math.sqrt(1.0 - self.beta2**t)
        lr_t = lr * root2 / (1.0 - self.beta1**t)
        eps_t = self.eps * root2
        trainable = [params.layout[name] for name, layer in params.named_layers() if not layer.frozen]
        runs: list[list[int]] = []  # [start, stop) of maximal runs of adjacent trainable spans
        for span in trainable:
            if runs and runs[-1][1] == span.start:
                runs[-1][1] = span.stop
            else:
                runs.append([span.start, span.stop])
        buffers = (params.flat, grads.flat, self.m, self.v, self._a, self._b)
        for start, stop in runs:
            # m = b1 m + (1 - b1) g, its subnormals zeroed;  v = b2 v + ((1 - b2) g) g;
            # p -= lr_t (m / (sqrt(v) + eps_t)), rounded as written
            p, g, m, v, a, b = (x[start:stop] for x in buffers)
            m *= self.beta1
            m += np.multiply(1.0 - self.beta1, g, out=a)
            m *= np.greater_equal(np.abs(m, out=a), self._tiny, out=b)
            v *= self.beta2
            np.multiply(1.0 - self.beta2, g, out=a)
            v += np.multiply(a, g, out=a)
            np.sqrt(v, out=b)
            b += eps_t
            np.divide(m, b, out=a)
            p -= np.multiply(lr_t, a, out=a)
        if self.weight_decay:
            for span in trainable:
                w, a = params.flat[span.start : span.split], self._a[span.start : span.split]
                w -= np.multiply(lr * self.weight_decay, w, out=a)
        self.step_count += 1
        return norm


def make_views(
    x: np.ndarray, rng: np.random.Generator, *, noise_sigma: float, mask_prob: float, scale_jitter: float
) -> tuple[np.ndarray, np.ndarray]:
    """Two independently augmented copies of each row of the batch ``x`` (n, d),
    in the dtype of ``x`` if it is float32, else in float64.

    Each view applies, in order: coordinate masking with probability
    ``mask_prob``, additive Gaussian noise, and a single multiplicative
    jitter factor per row. Degenerate parameters (all zero) give identity
    views. The draws and the arithmetic are float64 whatever the dtype, so
    a float32 view is the rounding of the float64 one.
    """
    X = float_array(x)
    if X.ndim != 2:
        raise DataError(f"make_views takes a batch of rows, got shape {X.shape}")

    def one_view() -> np.ndarray:
        keep = rng.random(X.shape) >= mask_prob
        noise = rng.normal(0.0, noise_sigma, size=X.shape) if noise_sigma > 0 else 0.0
        scale = rng.uniform(1.0 - scale_jitter, 1.0 + scale_jitter, size=(X.shape[0], 1))
        return ((X * keep + noise) * scale).astype(X.dtype, copy=False)

    return one_view(), one_view()


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


def _embed_views(
    params: ModelParams, X: np.ndarray, labels: np.ndarray, idx: np.ndarray,
    rng: np.random.Generator, cfg: TrainConfig,
) -> tuple[np.ndarray, object, MultiviewedBatch]:
    """Two augmented views of the rows ``idx`` in the model's dtype,
    forwarded: (Z, tape, batch). View ``i`` pairs with view ``i + idx.size``,
    the batch's layout."""
    rows = X[idx].astype(params.flat.dtype, copy=False)
    v1, v2 = make_views(rows, rng, noise_sigma=cfg.noise_sigma, mask_prob=cfg.mask_prob,
                        scale_jitter=cfg.scale_jitter)
    _, Z, tape = forward_embed(params, np.vstack([v1, v2]))
    return Z, tape, MultiviewedBatch(Z, labels[idx])


def _run_epoch(step, n: int, cfg: TrainConfig, optimizer: AdamW, rng_shuffle: np.random.Generator,
               stratify_labels: np.ndarray | None) -> dict:
    """One shuffled pass of ``n`` samples: run ``step`` on every batch of
    indices and fold its per-step metrics into one history row.

    A step returns ``skipped`` and any of ``loss``, ``weight_entropy``,
    ``grad_norm`` and ``active_samples`` (a skipped one reports no loss).
    Skipped steps and batches that raise DegenerateBatchError count in
    ``skipped_batches``. A key folds over the steps that report it, or is
    NaN, as is ``val_topk_loss`` until a stage that validates sets it.
    ``lr`` is the rate of the epoch's last optimizer step, NaN if none ran.
    """
    if n == 0:
        raise DataError("cannot train on an empty dataset")
    first_step = optimizer.step_count
    skipped, values = 0, {key: [] for key in ("loss", "weight_entropy", "grad_norm", "active_samples")}
    for idx in stratified_batches(n, cfg.batch_size, rng_shuffle, stratify_labels):
        try:
            metrics = step(idx)
        except DegenerateBatchError as exc:
            log.warning("skipping degenerate batch: %s", exc)
            metrics = {"skipped": True}
        skipped += metrics["skipped"]
        for key in values.keys() & metrics.keys():
            values[key].append(metrics[key])

    def fold(key: str, reduce):
        return reduce(values[key]).item() if values[key] else float("nan")

    return {
        "loss": fold("loss", np.mean),
        "val_topk_loss": float("nan"),
        "weight_entropy": fold("weight_entropy", np.mean),
        "grad_norm_mean": fold("grad_norm", np.mean),
        "grad_norm_max": fold("grad_norm", np.max),
        "skipped_batches": skipped,
        "active_samples": fold("active_samples", np.sum),
        "lr": optimizer.schedule.lr(optimizer.step_count - 1) if optimizer.step_count > first_step else float("nan"),
    }


def pretrain_epoch(
    params: ModelParams,
    X: np.ndarray,
    labels: np.ndarray,
    loss_cfg: LossConfig,
    cfg: TrainConfig,
    optimizer: AdamW,
    rng_shuffle: np.random.Generator,
    rng_views: np.random.Generator,
    stratify_labels: np.ndarray | None = None,
) -> dict:
    """One shuffled pass with the stage-1 objective, which averages over
    every column of ``labels`` (N, A); returns the epoch's history row.

    The loss of a batch is the mean of its anchor terms, or with the top-k
    wrapper enabled the mean of the k largest; every path backpropagates
    exactly the loss it reports.
    """

    def step(idx: np.ndarray) -> dict:
        Z, tape, batch = _embed_views(params, X, labels, idx, rng_views, cfg)
        if cfg.objective == "contrastive":
            loss, dZ = contrastive_loss(batch, loss_cfg.temperature)
            loss /= batch.num_views
            dZ /= batch.num_views
        else:
            terms, R = multi_attribute_anchor_stats(batch, loss_cfg.temperature)
            k = min(loss_cfg.topk_count, terms.size) if loss_cfg.topk_enabled else terms.size
            loss, mask = topk_average(terms, k)
            dZ = weighted_grad_from_stats(Z, R, mask / k, loss_cfg.temperature)
        bundle = backward(params, tape, d_projection=dZ)
        return {"skipped": False, "loss": loss, "grad_norm": optimizer.step(params, bundle)}

    return _run_epoch(step, X.shape[0], cfg, optimizer, rng_shuffle, stratify_labels)


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
        return MetaState(grad_eps, np.zeros_like(w_tilde), skipped=True)
    return MetaState(grad_eps, w_tilde / total, skipped=False)


def per_sample_alignments(
    Z: np.ndarray,
    dZ_dir: np.ndarray,
    R: np.ndarray,
    temperature: float,
) -> np.ndarray:
    """<g_v, grad_theta loss_i> for every anchor view i, given the tangent
    dZ_dir of Z along g_v and the coefficient matrix R of the anchor terms.

    loss_i depends on the parameters only through Z, with dZ coefficients
    (e_i r_i^T + r_i e_i^T) Z / temperature, so the inner product reduces to
    row sums of (dZ_dir Z^T + Z dZ_dir^T) * R.
    """
    C = dZ_dir @ Z.T
    return np.sum((C + C.T) * R, axis=1) / temperature


def meta_step(
    params: ModelParams,
    X: np.ndarray,
    labels: np.ndarray,
    idx: np.ndarray,
    val_x: np.ndarray,
    val_y: np.ndarray,
    loss_cfg: LossConfig,
    cfg: TrainConfig,
    optimizer: AdamW,
    rng_views: np.random.Generator,
) -> dict:
    """One reweighted training step against a pseudo-labeled validation batch.

    Per-sample training losses are the two anchor terms of a sample's views,
    averaged. The final update applies the normalized alignment weights and
    adds the validation gradient of the head; if every alignment is
    non-positive the whole step (head update included) is skipped.
    """
    Z, tape, batch = _embed_views(params, X, labels, idx, rng_views, cfg)
    terms, R = multi_attribute_anchor_stats(batch, loss_cfg.temperature)
    n = idx.size
    sample_terms = 0.5 * (terms[:n] + terms[n:])

    k_val = min(cfg.val_topk, val_x.shape[0])
    _, g_v = validation_topk_loss(params, val_x, val_y, k_val)
    dZ_dir = forward_jvp(params, tape, g_v)
    anchor_align = per_sample_alignments(Z, dZ_dir, R, loss_cfg.temperature)
    sample_align = 0.5 * (anchor_align[:n] + anchor_align[n:])
    state = meta_weights(sample_align, 1.0)  # normalizing the weights cancels the step size

    metrics = {"skipped": state.skipped, "active_samples": int(np.count_nonzero(state.w))}
    if state.skipped:
        return metrics
    w = state.w
    metrics["weight_entropy"] = float(-np.sum(w[w > 0] * np.log(w[w > 0])))
    metrics["loss"] = float(np.dot(w, sample_terms))
    anchor_w = np.concatenate([w, w]) * 0.5  # each view carries half its sample weight
    dZ = weighted_grad_from_stats(Z, R, anchor_w, loss_cfg.temperature)
    bundle = backward(params, tape, d_projection=dZ)
    head = params.layout["head"]
    bundle.flat[head.start : head.stop] += g_v.flat[head.start : head.stop]
    metrics["grad_norm"] = optimizer.step(params, bundle)
    return metrics


def _optimizer(params: ModelParams, n: int, cfg: TrainConfig, epochs: int, warmup_epochs: int) -> AdamW:
    """AdamW with warmup, then cosine decay over ``epochs`` passes of ``n`` samples."""
    steps = max(1, n // cfg.batch_size)  # per epoch
    schedule = LrSchedule(cfg.base_lr, warmup_steps=warmup_epochs * steps, total_steps=epochs * steps)
    return AdamW(params, schedule, weight_decay=cfg.weight_decay)


def _run_stage(stage: str, epochs: range, run_epoch) -> list[dict]:
    """The history of one stage: ``run_epoch()`` once per epoch number, each
    row stamped with its epoch and stage."""
    history = []
    for epoch in epochs:
        row = run_epoch()
        row.update(epoch=epoch, stage=stage)
        history.append(row)
        log.info("%s epoch %d: loss=%.4f val_topk=%.4f skipped=%d lr=%.2e", stage, epoch,
                 row["loss"], row["val_topk_loss"], row["skipped_batches"], row["lr"])
    return history


def pretrain_stage(
    params: ModelParams,
    X: np.ndarray,
    labels: np.ndarray,
    loss_cfg: LossConfig,
    cfg: TrainConfig,
    stratify_labels: np.ndarray | None = None,
) -> list[dict]:
    """Stage 1: contrastive pretraining for ``cfg.stage1_epochs`` epochs,
    numbered from 1, with warmup."""
    optimizer = _optimizer(params, X.shape[0], cfg, cfg.stage1_epochs, cfg.warmup_epochs)
    rng_shuffle = substream(cfg.seed, "stage1", "shuffle")
    rng_views = substream(cfg.seed, "stage1", "views")
    return _run_stage("pretrain", range(1, cfg.stage1_epochs + 1), lambda: pretrain_epoch(
        params, X, labels, loss_cfg, cfg, optimizer, rng_shuffle, rng_views, stratify_labels,
    ))


def meta_stage(
    params: ModelParams,
    X: np.ndarray,
    labels: np.ndarray,
    val_idx: np.ndarray,
    val_y: np.ndarray,
    loss_cfg: LossConfig,
    cfg: TrainConfig,
    stratify_labels: np.ndarray | None = None,
) -> tuple[list[dict], dict]:
    """Stage 2: freeze every encoder layer but the last, fit the validation
    head on the high-confidence subset, then run reweighted steps for the
    epochs stage 1 leaves (``cfg.meta_epochs``), numbered from
    ``cfg.stage1_epochs + 1``, without warmup.

    Returns (per-epoch history, summary) where the summary records the
    validation top-k loss at the stage switch and at the end. An epoch's
    ``skipped_batches`` counts the meta steps whose update was suppressed.
    """
    if cfg.meta_epochs <= 0:
        raise ConfigError("meta stage has no epochs to run; increase epochs or lower stage_split")
    val_idx = np.asarray(val_idx, dtype=np.int64)
    val_y = np.asarray(val_y, dtype=np.int64)
    if val_idx.size == 0:
        raise DataError("validation subset is empty")

    set_frozen(params, [f"encoder.{i}" for i in range(len(params.encoder) - 1)])

    # The validation head is meaningless until it is fit to the proxy task;
    # a convex fit on the frozen-stage features does that deterministically.
    val_x = X[val_idx]
    probe = train_probe(forward_features(params, val_x)[0], val_y, l2=1e-3)
    log.info(
        "validation head fit: probe_iterations=%d probe_grad_norm=%.3e probe_loss=%.6f",
        probe.iterations, probe.grad_norm, probe.final_loss,
    )
    params.head.weight[...] = probe.weight
    params.head.bias[...] = probe.bias

    k_val = min(cfg.val_topk, val_idx.size)
    val_at_switch = validation_topk_loss(params, val_x, val_y, k_val)[0]

    n = X.shape[0]
    optimizer = _optimizer(params, n, cfg, cfg.meta_epochs, warmup_epochs=0)
    rng_shuffle = substream(cfg.seed, "stage2", "shuffle")
    rng_views = substream(cfg.seed, "stage2", "views")
    rng_val = substream(cfg.seed, "stage2", "valsample")

    def step(idx: np.ndarray) -> dict:
        chosen = rng_val.choice(val_idx.size, size=min(cfg.val_batch_size, val_idx.size), replace=False)
        return meta_step(
            params, X, labels, idx, val_x[chosen], val_y[chosen],
            loss_cfg, cfg, optimizer, rng_views,
        )

    def epoch() -> dict:
        return {**_run_epoch(step, n, cfg, optimizer, rng_shuffle, stratify_labels),
                "val_topk_loss": validation_topk_loss(params, val_x, val_y, k_val)[0]}

    history = _run_stage("meta", range(cfg.stage1_epochs + 1, cfg.epochs + 1), epoch)
    summary = {
        "val_topk_at_switch": val_at_switch,
        "val_topk_final": history[-1]["val_topk_loss"],
        "meta_epochs": cfg.meta_epochs,
    }
    return history, summary
