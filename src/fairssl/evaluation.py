"""Linear probing on frozen features and group-fairness metrics.

This is the only part of the pipeline that may look at group labels. The
probe is an L2-regularised multinomial logistic regression (no penalty on
the bias), solved by damped Newton steps from zero. The objective is convex
and the problem tiny, (features + 1) x classes parameters, so each step
solves the exact Hessian system and about ten steps reach the optimum. The
bias-shift direction, along which softmax is invariant, is removed from
every step, so the returned biases sum to zero. The same solver fits the
validation head at the stage-2 switch.

``build_report`` is the only metric entry point. It tallies each group once
(samples, correct, positives, negatives, true and false positives, positive
predictions) and derives every metric from those counts, in percentage
points. Conventions worth calling out because they differ across the
literature: the equalized-odds difference is the larger of the across-group
TPR gap and FPR gap; the degree of bias (STD) is the population (not sample)
standard deviation of the per-group accuracies.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

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


def softmax(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Softmax over the last axis, from max-shifted logits: the shift (the
    maxima), the log of the shifted denominator and the probabilities. Their
    log-sum-exp is ``shift + log_denom``; a ``-inf`` logit gets probability 0."""
    shift = logits.max(axis=-1)
    ex = np.exp(logits - shift[..., None])
    denom = ex.sum(axis=-1)
    return shift, np.log(denom), ex / denom[..., None]


def softmax_cross_entropy(logits: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row softmax cross-entropy of the class logits against the labels
    ``y``, and the softmax probabilities."""
    shift, log_denom, probs = softmax(logits)
    return log_denom - (logits[np.arange(y.size), y] - shift), probs


def _loss_and_probs(theta, Xa, y, l2):
    """Mean cross-entropy plus the L2 term on the weight columns, and the
    softmax probabilities, for parameters ``[W | b]`` over ``[X | 1]``."""
    ce, probs = softmax_cross_entropy(Xa @ theta.T, y)
    W = theta[:, :-1]
    return float(np.mean(ce) + 0.5 * l2 * np.sum(W * W)), probs


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
        return {**asdict(self), "per_group_acc": {str(k): v for k, v in self.per_group_acc.items()}}

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
    """Assemble every metric for one prediction set from one per-group tally.

    ``avg_acc`` is the overall accuracy over all samples; the unweighted mean
    of the group accuracies is reported alongside for comparison. Every rate
    is a ratio of two tallied counts, so it equals the mean of its mask.
    """
    pred, lab, grp = (np.asarray(a).ravel() for a in (predictions, labels, groups))
    lengths = {pred.shape[0], lab.shape[0], grp.shape[0]}
    if len(lengths) != 1:
        raise DataError(f"inputs must have equal length, got {sorted(lengths)}")
    keys, inverse = np.unique(grp, return_inverse=True)
    names = keys.tolist()
    unequal = np.flatnonzero(keys != keys)  # NaN: a label that equals no label, itself included
    if unequal.size:
        raise DataError(f"group label {names[unequal[0]]!r} is NaN, which names no group")
    if keys.size < 2:
        raise DataError("degree of bias needs at least two groups")

    def tally(mask: np.ndarray) -> np.ndarray:
        return np.bincount(inverse[mask], minlength=keys.size)

    samples = np.bincount(inverse, minlength=keys.size)
    correct = tally(pred == lab)
    acc = 100.0 * (correct / samples)
    if acc.max() <= 0:
        raise DataError("selection rate undefined when the best group accuracy is 0")
    bad = set(np.unique(lab)) | set(np.unique(pred))
    if not bad <= {0, 1}:
        raise DataError(f"equalized odds is defined for binary tasks, got values {sorted(bad)}")
    positive, negative = lab == 1, lab == 0
    pos, neg = tally(positive), tally(negative)
    undefined = np.flatnonzero((pos == 0) | (neg == 0))
    if undefined.size:
        g = undefined[0]
        if pos[g] == 0:
            raise DataError(f"group {names[g]!r} has no positive samples; TPR undefined")
        raise DataError(f"group {names[g]!r} has no negative samples; FPR undefined")
    predicted = pred == 1
    tpr = tally(predicted & positive) / pos
    fpr = tally(predicted & negative) / neg
    selected = tally(predicted) / samples
    return FairnessReport(
        avg_acc=float(100.0 * (correct.sum() / samples.sum())),
        per_group_acc=dict(zip(names, acc.tolist())),
        group_mean_acc=float(acc.mean()),
        std_acc=float(np.std(acc)),
        ser=float(100.0 * acc.min() / acc.max()),
        eod=float(100.0 * max(tpr.max() - tpr.min(), fpr.max() - fpr.min())),
        dpd=float(100.0 * (selected.max() - selected.min())),
        min_grp_acc=float(acc.min()),
        max_grp_acc=float(acc.max()),
    )
