"""Loss functions: classification, regression, and distillation losses."""

from __future__ import annotations

import numpy as np

from .. import tensor as T
from ..tensor import Tensor, as_tensor

__all__ = [
    "cross_entropy",
    "nll_loss",
    "binary_cross_entropy",
    "mse_loss",
    "l1_loss",
    "hinge_loss",
    "kl_divergence",
    "distillation_loss",
]


def _labels_array(labels):
    if isinstance(labels, Tensor):
        labels = labels.data
    return np.asarray(labels).astype(int).reshape(-1)


def _check_rows(loss, scores, labels):
    """Refuse scores that are not (batch, classes) or labels that are not
    one per row: indexing ``scores[arange(labels.size), labels]`` would
    silently pick the wrong entries."""
    if scores.ndim != 2 or labels.size != scores.shape[0]:
        raise ValueError(
            "{} needs (batch, classes) scores and one label per row; got "
            "scores of shape {} and {} labels".format(
                loss, scores.shape, labels.size))


def cross_entropy(logits, labels, weight=None, reduction="mean"):
    """Softmax cross-entropy from raw logits.

    Parameters
    ----------
    logits:
        Tensor of shape (batch, classes).
    labels:
        Integer class indices of shape (batch,).
    weight:
        Optional per-class weights of shape (classes,).
    reduction:
        'mean', 'sum', or 'none'.
    """
    logits = as_tensor(logits)
    labels = _labels_array(labels)
    _check_rows("cross_entropy", logits, labels)
    log_probs = T.log_softmax(logits, axis=-1)
    picked = log_probs[np.arange(labels.size), labels]
    losses = -picked
    if weight is not None:
        weight = np.asarray(weight, dtype=logits.dtype)
        losses = losses * Tensor(weight[labels])
    return _reduce(losses, reduction)


def nll_loss(log_probs, labels, reduction="mean"):
    """Negative log-likelihood given log-probabilities."""
    log_probs = as_tensor(log_probs)
    labels = _labels_array(labels)
    _check_rows("nll_loss", log_probs, labels)
    picked = log_probs[np.arange(labels.size), labels]
    return _reduce(-picked, reduction)


def binary_cross_entropy(logits, targets, reduction="mean"):
    """Binary cross-entropy from logits, numerically stable.

    Uses the identity BCE(z, y) = softplus(z) - z*y.
    """
    logits = as_tensor(logits)
    targets = as_tensor(targets)
    losses = T.softplus(logits) - logits * targets
    return _reduce(losses, reduction)


def mse_loss(prediction, target, reduction="mean"):
    """Mean squared error."""
    prediction = as_tensor(prediction)
    target = as_tensor(target)
    diff = prediction - target
    return _reduce(diff * diff, reduction)


def l1_loss(prediction, target, reduction="mean"):
    """Mean absolute error."""
    prediction = as_tensor(prediction)
    target = as_tensor(target)
    return _reduce(T.absolute(prediction - target), reduction)


def hinge_loss(scores, labels, margin=1.0, reduction="mean"):
    """Multi-class hinge (Crammer-Singer) loss on raw scores.

    Used by the from-scratch linear SVM baseline.
    """
    scores = as_tensor(scores)
    labels = _labels_array(labels)
    _check_rows("hinge_loss", scores, labels)
    n = labels.size
    correct = scores[np.arange(n), labels].reshape(n, 1)
    margins = T.relu(scores - correct + margin)
    # Subtract the margin counted for the correct class itself.
    total = margins.sum(axis=1) - margin
    return _reduce(total, reduction)


def kl_divergence(p_log, q_log, reduction="batchmean"):
    """KL(p || q) from log-probabilities ``p_log`` (target) and ``q_log``.

    ``p_log`` is treated as a constant (soft target).
    """
    q_log = as_tensor(q_log)
    p = np.exp(p_log.data if isinstance(p_log, Tensor) else np.asarray(p_log))
    p_log_data = np.log(np.clip(p, 1e-12, None))
    elementwise = Tensor(p * p_log_data) - Tensor(p) * q_log
    per_example = elementwise.sum(axis=-1)
    if reduction == "batchmean":
        return per_example.mean()
    return _reduce(per_example, reduction)


def distillation_loss(student_logits, teacher_logits, labels, temperature=2.0,
                      alpha=0.5):
    """Hinton et al. knowledge-distillation objective.

    Combines softened teacher-matching KL (scaled by T^2) with the usual
    hard-label cross-entropy:

        L = alpha * T^2 * KL(teacher_T || student_T) + (1-alpha) * CE
    """
    student_logits = as_tensor(student_logits)
    teacher = teacher_logits.data if isinstance(teacher_logits, Tensor) else np.asarray(teacher_logits)
    teacher_soft = teacher / temperature
    teacher_log = teacher_soft - np.log(
        np.exp(teacher_soft - teacher_soft.max(axis=-1, keepdims=True)).sum(
            axis=-1, keepdims=True
        )
    ) - teacher_soft.max(axis=-1, keepdims=True)
    student_log = T.log_softmax(student_logits / temperature, axis=-1)
    soft = kl_divergence(Tensor(teacher_log), student_log)
    hard = cross_entropy(student_logits, labels)
    return soft * (alpha * temperature ** 2) + hard * (1.0 - alpha)


def _reduce(losses, reduction):
    if reduction == "mean":
        return losses.mean()
    if reduction == "sum":
        return losses.sum()
    if reduction == "none":
        return losses
    raise ValueError("unknown reduction '{}'".format(reduction))
