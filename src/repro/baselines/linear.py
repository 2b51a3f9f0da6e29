"""Linear baselines: multinomial logistic regression and a linear SVM.

Table I of the paper compares DEEPSERVICE against LR and SVM; Sec. IV-A
additionally notes that these shallow models "are not a good fit" to
sequence prediction.  Both are trained on flat session-level features.

Optimization uses L-BFGS via :mod:`scipy.optimize` on smooth objectives
(softmax cross-entropy; squared hinge), which converges quickly and
deterministically for the feature sizes involved.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LogisticRegressionClassifier", "LinearSVMClassifier"]


def _add_bias(features):
    return np.hstack([features, np.ones((len(features), 1))])


class LogisticRegressionClassifier:
    """Multinomial logistic regression with L2 regularization."""

    def __init__(self, l2=1e-3, max_iter=300):
        self.l2 = l2
        self.max_iter = max_iter
        self.weights_ = None
        self.classes_ = None

    def fit(self, features, labels):
        # scipy loads lazily: ``import repro`` stays ~45 MB lighter.
        from scipy import optimize

        features = _add_bias(np.asarray(features, dtype=np.float64))
        labels = np.asarray(labels)
        self.classes_ = np.unique(labels)
        indices = np.searchsorted(self.classes_, labels)
        n, d = features.shape
        c = len(self.classes_)
        one_hot = np.zeros((n, c))
        one_hot[np.arange(n), indices] = 1.0

        def objective(flat):
            weights = flat.reshape(c, d)
            scores = features @ weights.T
            scores -= scores.max(axis=1, keepdims=True)
            log_norm = np.log(np.exp(scores).sum(axis=1, keepdims=True))
            log_probs = scores - log_norm
            loss = -(one_hot * log_probs).sum() / n
            loss += 0.5 * self.l2 * (weights[:, :-1] ** 2).sum()
            probs = np.exp(log_probs)
            grad = (probs - one_hot).T @ features / n
            grad[:, :-1] += self.l2 * weights[:, :-1]
            return loss, grad.reshape(-1)

        start = np.zeros(c * d)
        result = optimize.minimize(
            objective, start, jac=True, method="L-BFGS-B",
            options={"maxiter": self.max_iter},
        )
        self.weights_ = result.x.reshape(c, d)
        return self

    def decision_function(self, features):
        if self.weights_ is None:
            raise RuntimeError("classifier must be fitted first")
        return _add_bias(np.asarray(features, dtype=np.float64)) @ self.weights_.T

    def predict_proba(self, features):
        scores = self.decision_function(features)
        scores -= scores.max(axis=1, keepdims=True)
        exp = np.exp(scores)
        return exp / exp.sum(axis=1, keepdims=True)

    def predict(self, features):
        return self.classes_[self.decision_function(features).argmax(axis=1)]


class LinearSVMClassifier:
    """One-vs-rest linear SVM with the (smooth) squared hinge loss."""

    def __init__(self, c=1.0, max_iter=300):
        if c <= 0:
            raise ValueError("C must be positive")
        self.c = c
        self.max_iter = max_iter
        self.weights_ = None
        self.classes_ = None

    def fit(self, features, labels):
        from scipy import optimize

        features = _add_bias(np.asarray(features, dtype=np.float64))
        labels = np.asarray(labels)
        self.classes_ = np.unique(labels)
        n, d = features.shape
        weights = np.zeros((len(self.classes_), d))
        for row, value in enumerate(self.classes_):
            target = np.where(labels == value, 1.0, -1.0)

            def objective(w, target=target):
                margins = np.maximum(0.0, 1.0 - target * (features @ w))
                loss = 0.5 * (w[:-1] ** 2).sum() + self.c * (margins ** 2).sum() / n
                grad = np.concatenate([w[:-1], [0.0]])
                grad -= 2.0 * self.c / n * ((margins * target) @ features)
                return loss, grad

            result = optimize.minimize(
                objective, np.zeros(d), jac=True, method="L-BFGS-B",
                options={"maxiter": self.max_iter},
            )
            weights[row] = result.x
        self.weights_ = weights
        return self

    def decision_function(self, features):
        if self.weights_ is None:
            raise RuntimeError("classifier must be fitted first")
        return _add_bias(np.asarray(features, dtype=np.float64)) @ self.weights_.T

    def predict(self, features):
        scores = self.decision_function(features)
        if len(self.classes_) == 1:
            return np.full(len(scores), self.classes_[0])
        return self.classes_[scores.argmax(axis=1)]
