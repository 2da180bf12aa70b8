"""Independent reference implementations used as test oracles.

Everything here is deliberately written as plain double loops over the
defining formulas, sharing no code with the library paths it checks.
"""

from __future__ import annotations

import math

import numpy as np

from fairssl.errors import DataError
from fairssl.evaluation import ProbeModel


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


def gd_probe(features, labels, l2: float = 1e-4, seed: int = 0, max_iter: int = 20000,
             tol: float = 1e-6) -> ProbeModel:
    """Reference probe fit: full-batch gradient descent with Armijo
    backtracking from a seeded random start, stopped at gradient norm ``tol``
    or after ``max_iter`` iterations (whichever comes first, without error)."""
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
    W = 0.01 * rng.standard_normal((int(y.max()) + 1, X.shape[1]))
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
    return ProbeModel(W, b, final_loss=loss, grad_norm=gnorm, iterations=iterations)
