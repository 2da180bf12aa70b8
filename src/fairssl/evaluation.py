"""Linear probing on frozen features and group-fairness metrics.

This is the only part of the pipeline that may look at group labels. The
probe is an L2-regularised multinomial logistic regression (no penalty on
the bias), solved by damped Newton steps from zero. The objective is convex
and the problem tiny, (features + 1) x classes parameters, so each step
solves the exact Hessian system and about ten steps reach the optimum. The
bias-shift direction, along which softmax is invariant, is removed from
every step, so the returned biases sum to zero. The same solver fits the
validation head at the stage-2 switch. All metrics are reported in
percentage points.

Conventions worth calling out because they differ across the literature:
the equalized-odds difference is the larger of the across-group TPR gap and
FPR gap; the degree of bias is the population (not sample) standard
deviation of the per-group accuracies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError

_NEWTON_MAX_STEPS = 100
_GRAD_TOL = 1e-10  # per unit of the largest absolute feature value
_ARMIJO = 1e-4
_MAX_HALVINGS = 60
_EPS = np.finfo(np.float64).eps


@dataclass
class ProbeModel:
    """Affine classifier trained on frozen features."""

    weight: np.ndarray  # (classes, features)
    bias: np.ndarray  # (classes,)
    final_loss: float = float("nan")
    grad_norm: float = float("nan")
    iterations: int = 0

    def logits(self, features: np.ndarray) -> np.ndarray:
        return np.atleast_2d(np.asarray(features, dtype=np.float64)) @ self.weight.T + self.bias

    def predict(self, features: np.ndarray) -> np.ndarray:
        return np.argmax(self.logits(features), axis=1)


def _loss_and_probs(theta, Xa, y, l2):
    """Mean cross-entropy plus the L2 term on the weight columns, and the
    softmax probabilities, for parameters ``[W | b]`` over ``[X | 1]``."""
    logits = Xa @ theta.T
    logits -= logits.max(axis=1, keepdims=True)
    ex = np.exp(logits)
    denom = ex.sum(axis=1)
    W = theta[:, :-1]
    loss = float(np.mean(np.log(denom) - logits[np.arange(y.size), y]) + 0.5 * l2 * np.sum(W * W))
    return loss, ex / denom[:, None]


def _gradient(theta, probs, Xa, y, l2):
    """Gradient of ``_loss_and_probs``'s loss, shaped like ``theta``."""
    resid = probs.copy()
    resid[np.arange(y.size), y] -= 1.0
    grad = resid.T @ Xa / y.size
    grad[:, :-1] += l2 * theta[:, :-1]
    return grad


def _hessian(probs, Xa, l2):
    """Exact Hessian over the row-major flattened ``theta``: blocks
    ``Xa^T diag(p_c (delta_ck - p_k)) Xa / n`` plus the L2 diagonal."""
    n, cols = Xa.shape
    classes = probs.shape[1]
    Z = (probs[:, :, None] * Xa[:, None, :]).reshape(n, classes * cols)
    hess = -(Z.T @ Z) / n
    blocks = hess.reshape(classes, cols, classes, cols)
    diag = np.arange(classes)
    blocks[diag, :, diag, :] += (Z.T @ Xa).reshape(classes, cols, cols) / n
    weight_idx = (np.arange(classes)[:, None] * cols + np.arange(cols - 1)).ravel()
    hess[weight_idx, weight_idx] += l2
    return hess


def _newton_step(grad, hess):
    """Minimum-norm solution of ``hess @ step = -grad``.

    The bias shift (the same constant added to every class's bias) leaves
    the objective unchanged, so the Hessian is singular along it; with
    ``l2 = 0`` collinear features add more null directions. Eigenvalues at
    roundoff level are dropped, and the bias-shift component is projected
    out exactly so ``sum(b)`` stays at the 0 it starts from.
    """
    try:
        evals, evecs = np.linalg.eigh(hess)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"probe Hessian eigensolve failed: {exc}") from exc
    keep = evals > hess.shape[0] * _EPS * max(float(evals[-1]), 0.0)
    basis = evecs[:, keep]
    step = -(basis @ ((basis.T @ grad.ravel()) / evals[keep])).reshape(grad.shape)
    step[:, -1] -= step[:, -1].mean()
    return step


def train_probe(features: np.ndarray, labels: np.ndarray, l2: float = 1e-4) -> ProbeModel:
    """Fit a regularized logistic-regression probe on frozen features.

    Damped Newton from zero: each step solves the exact Hessian system
    (minimum-norm), tries the full step and halves it only while the Armijo
    test fails. Stops once the gradient norm is below ``_GRAD_TOL`` times
    the largest absolute feature value (at least 1), which full Newton
    steps reach quadratically; raises ``NumericError`` if the step cap is
    hit instead.
    """
    X = np.atleast_2d(np.asarray(features, dtype=np.float64))
    y = np.asarray(labels, dtype=np.int64).ravel()
    if y.shape[0] != X.shape[0]:
        raise DataError("labels do not match the feature row count")
    if not np.all(np.isfinite(X)):
        raise NumericError("probe features contain NaN or infinite values")
    classes = np.unique(y)
    if classes.size < 2:
        raise DataError("probe training needs at least two classes")
    if classes[0] < 0:
        raise DataError(f"probe labels must be non-negative, got {int(classes[0])}")
    n_classes = int(classes[-1]) + 1
    Xa = np.hstack([X, np.ones((X.shape[0], 1))])
    tol = _GRAD_TOL * max(1.0, float(np.abs(X).max()))

    theta = np.zeros((n_classes, Xa.shape[1]))
    loss, probs = _loss_and_probs(theta, Xa, y, l2)
    for steps in range(_NEWTON_MAX_STEPS + 1):
        grad = _gradient(theta, probs, Xa, y, l2)
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= tol:
            return ProbeModel(theta[:, :-1].copy(), theta[:, -1].copy(),
                              final_loss=loss, grad_norm=gnorm, iterations=steps)
        if steps == _NEWTON_MAX_STEPS:
            raise NumericError(
                f"probe solver did not converge in {_NEWTON_MAX_STEPS} Newton steps "
                f"(gradient norm {gnorm:.3e} > {tol:.1e})"
            )
        step = _newton_step(grad, _hessian(probs, Xa, l2))
        decrement = -float(np.sum(grad * step))
        # near the optimum the predicted decrease falls below the objective's
        # roundoff; the slack lets the full step through instead of halving
        slack = 8 * _EPS * max(1.0, abs(loss))
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            new_loss, new_probs = _loss_and_probs(theta + t * step, Xa, y, l2)
            if new_loss <= loss - _ARMIJO * t * decrement + slack:
                break
            t *= 0.5
        else:
            raise NumericError("probe line search stalled; objective may be ill-conditioned")
        theta = theta + t * step
        loss, probs = new_loss, new_probs


def _as_arrays(*arrays) -> list[np.ndarray]:
    out = [np.asarray(a).ravel() for a in arrays]
    lengths = {a.shape[0] for a in out}
    if len(lengths) != 1:
        raise DataError(f"inputs must have equal length, got {sorted(lengths)}")
    return out


def group_accuracy(predictions, labels, groups) -> dict:
    """Per-group percent correct."""
    pred, lab, grp = _as_arrays(predictions, labels, groups)
    result = {}
    for g in np.unique(grp):
        mask = grp == g
        if not mask.any():
            raise DataError(f"group {_plain(g)!r} is empty")
        result[_plain(g)] = float(100.0 * np.mean(pred[mask] == lab[mask]))
    return result


def degree_of_bias(per_group_acc) -> float:
    """Population standard deviation of the per-group accuracies."""
    values = np.asarray(list(per_group_acc.values()) if isinstance(per_group_acc, dict) else per_group_acc, dtype=np.float64)
    if values.size < 2:
        raise DataError("degree of bias needs at least two groups")
    return float(np.std(values))


def selection_rate(per_group_acc) -> float:
    """100 * (worst group accuracy / best group accuracy)."""
    values = np.asarray(list(per_group_acc.values()) if isinstance(per_group_acc, dict) else per_group_acc, dtype=np.float64)
    top = float(values.max())
    if top <= 0:
        raise DataError("selection rate undefined when the best group accuracy is 0")
    return float(100.0 * values.min() / top)


def _plain(g):
    return g.item() if hasattr(g, "item") else g


def _rates_by_group(pred, lab, grp) -> tuple[dict, dict]:
    tpr = {}
    fpr = {}
    for g in np.unique(grp):
        mask = grp == g
        pos = mask & (lab == 1)
        neg = mask & (lab == 0)
        if not pos.any():
            raise DataError(f"group {_plain(g)!r} has no positive samples; TPR undefined")
        if not neg.any():
            raise DataError(f"group {_plain(g)!r} has no negative samples; FPR undefined")
        tpr[g] = float(np.mean(pred[pos] == 1))
        fpr[g] = float(np.mean(pred[neg] == 1))
    return tpr, fpr


def equalized_odds_difference(predictions, labels, groups) -> float:
    """Largest across-group gap in either TPR or FPR, in points."""
    pred, lab, grp = _as_arrays(predictions, labels, groups)
    bad = set(np.unique(lab)) | set(np.unique(pred))
    if not bad <= {0, 1}:
        raise DataError(f"equalized odds is defined for binary tasks, got values {sorted(bad)}")
    tpr, fpr = _rates_by_group(pred, lab, grp)
    tpr_gap = max(tpr.values()) - min(tpr.values())
    fpr_gap = max(fpr.values()) - min(fpr.values())
    return float(100.0 * max(tpr_gap, fpr_gap))


def demographic_parity_difference(predictions, groups) -> float:
    """Largest across-group gap in the positive-prediction rate, in points."""
    pred, grp = _as_arrays(predictions, groups)
    if not set(np.unique(pred)) <= {0, 1}:
        raise DataError("demographic parity is defined for binary predictions")
    rates = []
    for g in np.unique(grp):
        mask = grp == g
        if not mask.any():
            raise DataError(f"group {g!r} is empty")
        rates.append(float(np.mean(pred[mask] == 1)))
    return float(100.0 * (max(rates) - min(rates)))


@dataclass
class FairnessReport:
    """All accuracy and fairness numbers for one probe task, in points."""

    avg_acc: float
    per_group_acc: dict
    group_mean_acc: float
    std_acc: float
    ser: float
    eod: float
    dpd: float
    min_grp_acc: float
    max_grp_acc: float

    def to_dict(self) -> dict:
        return {
            "avg_acc": self.avg_acc,
            "per_group_acc": {str(k): v for k, v in self.per_group_acc.items()},
            "group_mean_acc": self.group_mean_acc,
            "std_acc": self.std_acc,
            "ser": self.ser,
            "eod": self.eod,
            "dpd": self.dpd,
            "min_grp_acc": self.min_grp_acc,
            "max_grp_acc": self.max_grp_acc,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def to_text_table(self) -> str:
        headers = ["Avg. Acc", "STD", "SeR", "EOD", "DPD", "Min Grp Acc", "Max Grp Acc"]
        values = [
            self.avg_acc, self.std_acc, self.ser, self.eod, self.dpd,
            self.min_grp_acc, self.max_grp_acc,
        ]
        cells = [f"{v:.2f}" for v in values]
        widths = [max(len(h), len(c)) for h, c in zip(headers, cells)]
        header = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
        row = "  ".join(c.rjust(w) for c, w in zip(cells, widths))
        return header + "\n" + row


def build_report(predictions, labels, groups) -> FairnessReport:
    """Assemble every metric for one prediction set.

    ``avg_acc`` is the overall accuracy over all samples; the unweighted mean
    of the group accuracies is reported alongside for comparison.
    """
    pred, lab, grp = _as_arrays(predictions, labels, groups)
    per_group = group_accuracy(pred, lab, grp)
    accs = np.asarray(list(per_group.values()))
    return FairnessReport(
        avg_acc=float(100.0 * np.mean(pred == lab)),
        per_group_acc=per_group,
        group_mean_acc=float(accs.mean()),
        std_acc=degree_of_bias(per_group),
        ser=selection_rate(per_group),
        eod=equalized_odds_difference(pred, lab, grp),
        dpd=demographic_parity_difference(pred, grp),
        min_grp_acc=float(accs.min()),
        max_grp_acc=float(accs.max()),
    )
