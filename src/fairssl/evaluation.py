"""Linear probing on frozen features and group-fairness metrics.

This is the only part of the pipeline that may look at group labels. Every
task here is binary: a classifier is one logit ``z`` that predicts class 1
where ``z > 0``, and the probe, its Newton steps and the stage-2 validation
loss share one :func:`logistic_loss`. The probe is one L2-regularised
logistic regression on labels that must be exactly {0, 1} (no penalty on the
bias), solved by damped Newton steps from zero: the problem is convex and
tiny, features + 1 parameters, so each step solves the exact Hessian system
and about ten steps reach the optimum. Its penalty ``(l2/4)|w|^2`` makes the
optimum that of a two-class softmax regression with ``(l2/2)`` on both class
weights, which are ``-w/2`` and ``w/2`` there. The same solver fits the
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
    """One-logit affine classifier trained on frozen features."""

    weight: np.ndarray  # (features,)
    bias: float
    final_loss: float = float("nan")
    grad_norm: float = float("nan")
    iterations: int = 0

    def logits(self, features: np.ndarray) -> np.ndarray:
        return _batch(features) @ self.weight + self.bias

    def predict(self, features: np.ndarray) -> np.ndarray:
        return (self.logits(features) > 0).astype(np.int64)


def _batch(features: np.ndarray) -> np.ndarray:
    """``features`` as float64 rows; any shape but (n, d) is a DataError."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise DataError(f"probe features must be a batch of rows, got shape {X.shape}")
    return X


def softmax(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Softmax over the last axis, from max-shifted logits: the shift (the
    maxima), the log of the shifted denominator and the probabilities. Their
    log-sum-exp is ``shift + log_denom``; a ``-inf`` logit gets probability 0."""
    shift = logits.max(axis=-1)
    ex = np.exp(logits - shift[..., None])
    denom = ex.sum(axis=-1)
    return shift, np.log(denom), ex / denom[..., None]


def logistic_loss(z: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row logistic loss ``logaddexp(0, z) - y z`` of the logits ``z``
    against the {0, 1} labels ``y``, and the sigmoid of ``z``, without overflow."""
    return np.logaddexp(0.0, z) - y * z, np.exp(-np.logaddexp(0.0, -z))


def _objective(theta, Xa, y, l2):
    """Mean logistic loss plus ``(l2/4)|w|^2`` at ``theta = [w | b]`` over
    ``[X | 1]``, and the sigmoid of the logits."""
    loss, p = logistic_loss(Xa @ theta, y)
    w = theta[:-1]
    return float(np.mean(loss) + 0.25 * l2 * np.dot(w, w)), p


def train_probe(features: np.ndarray, labels: np.ndarray, *, l2: float) -> ProbeModel:
    """Fit a regularized logistic-regression probe on frozen features.

    Labels other than exactly {0, 1}, or a negative or non-finite ``l2``,
    are a ``DataError``. Damped Newton from zero: each step is the
    minimum-norm solution of the exact Hessian system, so collinear
    features with ``l2 = 0`` keep it bounded; the full step is tried and
    halved only while the Armijo test fails.
    Stops once the gradient norm is below ``_GRAD_TOL`` times the largest
    absolute feature value (at least 1), which full Newton steps reach
    quadratically; raises ``NumericError`` if the step cap is hit instead.
    """
    if not 0 <= l2 < np.inf:  # NaN fails; an infinite penalty makes the Hessian solve hang
        raise DataError(f"probe l2 must be finite and non-negative, got {l2}")
    X = _batch(features)
    y = np.asarray(labels, dtype=np.int64).ravel()
    if y.shape[0] != X.shape[0]:
        raise DataError("labels do not match the feature row count")
    if not np.all(np.isfinite(X)):
        raise NumericError("probe features contain NaN or infinite values")
    classes = np.unique(y).tolist()
    if classes != [0, 1]:
        raise DataError(f"probe labels must be exactly {{0, 1}}, got {classes}")
    n, cols = X.shape[0], X.shape[1] + 1
    Xa = np.hstack([X, np.ones((n, 1))])
    y = y.astype(np.float64)
    weights = np.arange(cols - 1)
    tol = _GRAD_TOL * max(1.0, float(np.abs(X).max()))

    theta = np.zeros(cols)
    loss, p = _objective(theta, Xa, y, l2)
    for steps in range(_NEWTON_MAX_STEPS + 1):
        grad = Xa.T @ (p - y) / n
        grad[:-1] += 0.5 * l2 * theta[:-1]
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= tol:
            return ProbeModel(theta[:-1], float(theta[-1]), final_loss=loss, grad_norm=gnorm, iterations=steps)
        if steps == _NEWTON_MAX_STEPS:
            raise NumericError(
                f"probe solver did not converge in {_NEWTON_MAX_STEPS} Newton steps "
                f"(gradient norm {gnorm:.3e} > {tol:.1e})"
            )
        hess = (Xa.T * (p * (1.0 - p))) @ Xa / n
        hess[weights, weights] += 0.5 * l2
        try:
            step = np.linalg.lstsq(hess, -grad, rcond=cols * _EPS)[0]
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"probe Hessian solve failed: {exc}") from exc
        decrement = -float(grad @ step)
        # near the optimum the predicted decrease falls below the objective's
        # roundoff; the slack lets the full step through instead of halving
        slack = 8 * _EPS * max(1.0, abs(loss))
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            new_loss, new_p = _objective(theta + t * step, Xa, y, l2)
            if new_loss <= loss - _ARMIJO * t * decrement + slack:
                break
            t *= 0.5
        else:
            raise NumericError("probe line search stalled; objective may be ill-conditioned")
        theta = theta + t * step
        loss, p = new_loss, new_p


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
