"""Independent reference implementations used as test oracles, and
library-shaped helpers that only tests use.

The oracles are deliberately written as plain double loops over the
defining formulas, sharing no code with the library paths they check. The
exceptions are marked: the single-attribute and multi-attribute supcon
wrappers (built from the library's anchor machinery, and checked against
the brute-force sums here), the per-layer AdamW step that the flat
optimizer must match bit for bit, and the whole-matrix normalization that
the blocked one must match byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

from fairssl.errors import ConfigError, DataError
from fairssl.evaluation import ProbeModel
from fairssl.losses import (
    LossConfig,
    MultiviewedBatch,
    _anchor_stats,
    _grad_from_coeffs,
    _positives_for_attribute,
    _scaled_similarities,
    multi_attribute_anchor_stats,
    weighted_grad_from_stats,
)
from fairssl.network import Layer, ModelParams
from fairssl.store import SOURCES, DatasetManifest
from fairssl.trainer import TrainConfig, meta_stage, pretrain_stage


def bruteforce_contrastive(Z: np.ndarray, pair: np.ndarray, tau: float) -> float:
    """Direct summation: -sum_i log(exp(z_i.z_j(i)/tau) / sum_{a!=i} exp(z_i.z_a/tau))."""
    m = Z.shape[0]
    total = 0.0
    for i in range(m):
        num = math.exp(float(np.dot(Z[i], Z[pair[i]])) / tau)
        den = 0.0
        for a in range(m):
            if a != i:
                den += math.exp(float(np.dot(Z[i], Z[a])) / tau)
        total += -math.log(num / den)
    return total


def bruteforce_supcon(Z: np.ndarray, labels: np.ndarray, tau: float) -> float:
    """Double-loop evaluation of the label-aware contrastive sum."""
    m = Z.shape[0]
    total = 0.0
    for i in range(m):
        positives = [p for p in range(m) if p != i and labels[p] == labels[i]]
        if not positives:
            raise ValueError(f"anchor {i} has no positive")
        den = 0.0
        for a in range(m):
            if a != i:
                den += math.exp(float(np.dot(Z[i], Z[a])) / tau)
        inner = 0.0
        for p in positives:
            inner += math.log(math.exp(float(np.dot(Z[i], Z[p])) / tau) / den)
        total += -inner / len(positives)
    return total


def bruteforce_supcon_anchor_terms(Z: np.ndarray, labels: np.ndarray, tau: float) -> np.ndarray:
    m = Z.shape[0]
    out = np.zeros(m)
    for i in range(m):
        positives = [p for p in range(m) if p != i and labels[p] == labels[i]]
        den = 0.0
        for a in range(m):
            if a != i:
                den += math.exp(float(np.dot(Z[i], Z[a])) / tau)
        inner = 0.0
        for p in positives:
            inner += math.log(math.exp(float(np.dot(Z[i], Z[p])) / tau) / den)
        out[i] = -inner / len(positives)
    return out


def _select_columns(batch: MultiviewedBatch, columns) -> MultiviewedBatch:
    """The batch's views with only the given label columns."""
    return MultiviewedBatch(batch.views, batch.labels[: batch.num_origins][:, columns])


def supcon_loss(
    batch: MultiviewedBatch, attribute: int, temperature: float
) -> tuple[float, np.ndarray]:
    """Label-aware contrastive objective: positives are all views sharing the
    anchor's label for the given attribute. Library machinery, test-only."""
    s, lse, q = _scaled_similarities(batch.views, temperature)
    terms, R = _anchor_stats(s, lse, q, _positives_for_attribute(_select_columns(batch, [attribute])))
    return float(terms.sum()), _grad_from_coeffs(batch.views, R, temperature)


def multi_attribute_supcon(
    batch: MultiviewedBatch, attributes: list[int], temperature: float
) -> tuple[float, np.ndarray]:
    """Mean of the per-attribute label-aware losses. Library machinery,
    test-only."""
    terms, R = multi_attribute_anchor_stats(_select_columns(batch, attributes), temperature)
    weights = np.ones(batch.num_views)
    grad = weighted_grad_from_stats(batch.views, R, weights, temperature)
    return float(terms.sum()), grad


def zero_shot_label(img: np.ndarray, pos: np.ndarray, neg: np.ndarray, scale: float) -> tuple[int, float]:
    """Label one unit embedding against one positive/negative template pair:
    a two-class softmax over the scaled similarities. Returns (label,
    confidence), label 1 iff the positive probability is at least the
    negative one, confidence the larger probability."""
    logits = scale * np.array([np.dot(img, pos), np.dot(img, neg)])
    ex = np.exp(logits - logits.max())
    probs = ex / ex.sum()
    return int(probs[0] >= probs[1]), float(probs.max())


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise float64 log-softmax by pairwise log-add-exp, with no max shift."""
    logits = np.asarray(logits, dtype=np.float64)
    return logits - np.logaddexp.reduce(logits, axis=1, keepdims=True)


def sorted_topk_mean(values: np.ndarray, k: int) -> float:
    """Mean of the k largest values via explicit sorting."""
    ordered = sorted(values, reverse=True)
    return float(sum(ordered[:k]) / k)


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of the angle between two vectors, clamped to [-1, 1]."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DataError(f"cosine_similarity needs equal-length vectors, got {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na < 1e-30 or nb < 1e-30:
        raise DataError("cosine_similarity undefined for zero vectors")
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


def greedy_dedup(data: np.ndarray, threshold: float) -> np.ndarray:
    """Per-row first-wins scan: keep row i iff its dot with every previously
    kept row stays below ``threshold``. Returns kept indices ascending."""
    data = np.asarray(data, dtype=np.float64)
    kept: list[int] = []
    kept_rows = np.empty_like(data)  # filled prefix only
    for i in range(data.shape[0]):
        if kept:
            sims = kept_rows[: len(kept)] @ data[i]
            if float(sims.max()) >= threshold:
                continue
        kept_rows[len(kept)] = data[i]
        kept.append(i)
    return np.asarray(kept, dtype=np.int64)


def stable_topm(queries: np.ndarray, candidates: np.ndarray, m: int) -> np.ndarray:
    """Top-m dot-product indices per query from a full stable argsort, so
    ties go to the lower candidate index."""
    return np.argsort(-(queries @ candidates.T), axis=1, kind="stable")[:, :m]


def exhaustive_knn(queries: np.ndarray, candidates: np.ndarray, m: int) -> list[list[int]]:
    """Per-query top-m candidate indices by cosine, ties to the lower index."""
    results = []
    for q in queries:
        sims = [(float(np.dot(q, c) / (np.linalg.norm(q) * np.linalg.norm(c))), idx)
                for idx, c in enumerate(candidates)]
        sims.sort(key=lambda t: (-t[0], t[1]))
        results.append([idx for _, idx in sims[:m]])
    return results


def fd_gradient(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function over an array."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        ix = it.multi_index
        old = x[ix]
        x[ix] = old + h
        fp = f()
        x[ix] = old - h
        fm = f()
        x[ix] = old
        g[ix] = (fp - fm) / (2.0 * h)
    return g


def fd_param_gradients(f, params, h: float = 1e-4) -> dict:
    """Central finite differences of a scalar closure over every model
    parameter; mutates and restores the parameters in place."""
    out = {}
    for name, layer in params.named_layers():
        gw = fd_gradient(f, layer.weight, h)
        gb = fd_gradient(f, layer.bias, h)
        out[name] = (gw, gb)
    return out


def assert_grad_close(analytic: np.ndarray, numeric: np.ndarray, rtol: float = 1e-4,
                      atol: float = 1e-7, what: str = "") -> None:
    """Elementwise |a - n| <= atol + rtol * max(|a|, |n|)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    scale = np.maximum(np.abs(a), np.abs(n))
    bad = np.abs(a - n) > atol + rtol * scale
    assert not bad.any(), (
        f"{what}: {bad.sum()} gradient entries disagree; worst "
        f"analytic={a[bad].ravel()[0]:.6e} numeric={n[bad].ravel()[0]:.6e}"
    )


def confusion_rates(pred, labels, groups):
    """Hand-rolled per-group TPR/FPR/accuracy/positive-rate."""
    stats = {}
    for g in sorted(set(groups)):
        tp = fp = tn = fn = 0
        for p, y, gg in zip(pred, labels, groups):
            if gg != g:
                continue
            if y == 1 and p == 1:
                tp += 1
            elif y == 1 and p == 0:
                fn += 1
            elif y == 0 and p == 1:
                fp += 1
            else:
                tn += 1
        total = tp + fp + tn + fn
        stats[g] = {
            "tpr": tp / (tp + fn) if (tp + fn) else None,
            "fpr": fp / (fp + tn) if (fp + tn) else None,
            "acc": 100.0 * (tp + tn) / total,
            "pos_rate": (tp + fp) / total,
        }
    return stats


def copy_params(params: ModelParams, dtype=None) -> ModelParams:
    """Same values, activations and freeze flags in a new flat vector, in
    ``dtype`` (default: the model's)."""

    def dup(layer: Layer) -> Layer:  # the new instance copies values into its own vector
        w, b = (x if dtype is None else x.astype(dtype) for x in (layer.weight, layer.bias))
        return Layer(w, b, layer.activation, layer.frozen)

    return ModelParams([dup(l) for l in params.encoder], [dup(l) for l in params.projection], dup(params.head))


def float64_params(params: ModelParams) -> ModelParams:
    """The model rebuilt from float64 layers, so every call on it computes in
    float64: what finite-difference and closed-form oracles check against."""
    return copy_params(params, np.float64)


def groups_with_accuracy(correct, sizes, keys=None):
    """Predictions, labels and groups in which group ``keys[g]`` (default
    ``g``) has ``sizes[g]`` samples with alternating labels, so both classes
    once it has two samples, and exactly ``correct[g]`` correct predictions:
    the last ``sizes[g] - correct[g]`` are flipped."""
    keys = list(range(len(sizes))) if keys is None else keys
    pred, lab, grp = [], [], []
    for key, c, n in zip(keys, correct, sizes):
        y = np.arange(n) % 2
        p = y.copy()
        p[c:] = 1 - p[c:]
        pred.append(p)
        lab.append(y)
        grp += [key] * n
    return np.concatenate(pred), np.concatenate(lab), np.array(grp)


def gd_probe(features, labels, l2: float = 1e-4, seed: int = 0, max_iter: int = 20000,
             tol: float = 1e-6) -> ProbeModel:
    """Reference probe fit: a two-class softmax regression with
    ``(l2/2)|W|^2`` by full-batch gradient descent with Armijo backtracking
    from a seeded random start, stopped at gradient norm ``tol`` or after
    ``max_iter`` iterations (whichever comes first, without error). Returned
    as the one-logit model of the class-score difference ``W[1] - W[0]``,
    ``b[1] - b[0]``."""
    X = np.atleast_2d(np.asarray(features, dtype=np.float64))
    y = np.asarray(labels, dtype=np.int64).ravel()
    n = X.shape[0]
    rows = np.arange(n)

    def objective(W, b):
        logits = X @ W.T + b
        shift = logits.max(axis=1, keepdims=True)
        ex = np.exp(logits - shift)
        denom = ex.sum(axis=1, keepdims=True)
        log_probs = (logits - shift) - np.log(denom)
        loss = float(-log_probs[rows, y].mean() + 0.5 * l2 * np.sum(W * W))
        d = ex / denom
        d[rows, y] -= 1.0
        d /= n
        return loss, d.T @ X + l2 * W, d.sum(axis=0)

    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, 0x70726F62]))
    W = 0.01 * rng.standard_normal((2, X.shape[1]))
    b = np.zeros(W.shape[0])
    loss, gW, gb = objective(W, b)
    step = 1.0
    iterations = 0
    for iterations in range(1, max_iter + 1):
        gnorm = float(np.sqrt(np.sum(gW * gW) + np.sum(gb * gb)))
        if gnorm <= tol:
            break
        for _ in range(60):
            new_loss, gW_new, gb_new = objective(W - step * gW, b - step * gb)
            if new_loss <= loss - 0.5 * step * gnorm * gnorm:
                W, b, loss, gW, gb = W - step * gW, b - step * gb, new_loss, gW_new, gb_new
                step *= 2.0
                break
            step *= 0.5
        else:
            raise AssertionError("reference line search stalled")
    gnorm = float(np.sqrt(np.sum(gW * gW) + np.sum(gb * gb)))
    return ProbeModel(W[1] - W[0], float(b[1] - b[0]), final_loss=loss, grad_norm=gnorm, iterations=iterations)


def layered_adamw(params, grads, moments: dict, t: int, lr: float, weight_decay: float = 0.0,
                  beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """Reference AdamW step number ``t`` (from 1): a loop over layers and
    tensors with a fresh temporary per operation, the bias corrections folded
    into the step size and epsilon, and first moments below the dtype's
    smallest normal number set to zero. ``moments`` maps layer names to
    per-tensor (m_w, m_b, v_w, v_b) buffers, created on first use. Frozen
    layers are skipped."""
    root2 = math.sqrt(1.0 - beta2**t)
    lr_t = lr * root2 / (1.0 - beta1**t)
    eps_t = eps * root2
    for name, layer in params.named_layers():
        if layer.frozen:
            continue
        zeros = tuple(np.zeros_like(x) for x in (layer.weight, layer.bias, layer.weight, layer.bias))
        mw, mb, vw, vb = moments.setdefault(name, zeros)
        dw, db = grads[name]
        for param, grad, m, v in ((layer.weight, dw, mw, vw), (layer.bias, db, mb, vb)):
            m *= beta1
            m += (1.0 - beta1) * grad
            m[np.abs(m) < np.finfo(m.dtype).tiny] = 0.0
            v *= beta2
            v += (1.0 - beta2) * grad * grad
            update = m / (np.sqrt(v) + eps_t)
            param -= lr_t * update
            if weight_decay and param is layer.weight:
                param -= lr * weight_decay * param


def whole_matrix_normalize(data: np.ndarray) -> np.ndarray:
    """``store.normalize_rows`` on the whole matrix at once, for rows that
    are not zero: float64 row norms, one float64 division, one rounding to
    float32. The blocked library path must match it byte for byte."""
    wide = np.asarray(data, dtype=np.float32).astype(np.float64)
    return (wide / np.linalg.norm(wide, axis=1)[:, None]).astype(np.float32)


def whole_matrix_norm_deviation(data: np.ndarray) -> float:
    """Largest ``|norm - 1|`` over the float64 row norms of the whole
    matrix, 0 for a matrix without rows: what the flagged-normalized check
    of ``EmbeddingMatrix`` compares with its tolerance."""
    norms = np.linalg.norm(np.asarray(data, dtype=np.float32).astype(np.float64), axis=1)
    return float(np.max(np.abs(norms - 1.0))) if norms.size else 0.0


def manifest_entries(m: DatasetManifest) -> list[tuple]:
    """One ``(id, row, source, quality, group)`` tuple per sample, None
    where an optional value is absent: the columns read back per sample.
    Sample i describes matrix row i, so its position is its row."""
    return [
        (sid, row, SOURCES[src], q if has_q else None, g if has_g else None)
        for row, (sid, src, q, has_q, g, has_g) in enumerate(zip(
            m.ids, m.sources.tolist(), m.quality.tolist(),
            m.has_quality.tolist(), m.group.tolist(), m.has_group.tolist(),
        ))
    ]


def dense_jvp(params, tape, direction) -> np.ndarray:
    """``forward_jvp`` computing every term: the tangent starts as zeros at
    the input, and every layer, frozen or not, adds its direction term."""
    u = np.zeros_like(tape.acts[0])
    for i, (name, layer) in enumerate(params.named_layers()[:-1]):
        dw, db = direction[name]
        u_pre = u @ layer.weight.T + tape.acts[i] @ dw.T + db
        u = u_pre * (tape.acts[i + 1] > 0.0) if layer.activation == "relu" else u_pre
    radial = np.sum(tape.z * u, axis=1, keepdims=True)
    return (u - tape.z * radial) / tape.norms[:, None]


def staged_train(
    params: ModelParams,
    X: np.ndarray,
    labels: np.ndarray,
    val_idx: np.ndarray | None,
    val_y: np.ndarray | None,
    loss_cfg: LossConfig,
    cfg: TrainConfig,
    stratify_labels: np.ndarray | None = None,
) -> tuple[list[dict], dict]:
    """Run stage 1 for ceil(stage_split * epochs) epochs, then the meta stage
    for the remainder, as the pretrain and train-meta stages chain them.
    With stage_split == 1.0 no meta stage runs and no validation subset is
    needed."""
    history = pretrain_stage(params, X, labels, loss_cfg, cfg, stratify_labels=stratify_labels)
    summary: dict = {"meta_epochs": 0}
    if cfg.meta_epochs > 0:
        if val_idx is None or val_y is None:
            raise ConfigError("meta stage requires a validation subset")
        meta_hist, summary = meta_stage(
            params, X, labels, val_idx, val_y, loss_cfg, cfg,
            stratify_labels=stratify_labels,
        )
        history.extend(meta_hist)
    return history, summary
