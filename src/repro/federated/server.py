"""The global parameter server."""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

__all__ = ["ParameterServer", "QuorumError", "update_is_corrupt"]


class QuorumError(RuntimeError):
    """Raised when fewer updates survive a round than the quorum requires."""


def update_is_corrupt(update):
    """Whether any array in a (state or gradient) dict carries NaN/inf.

    Server-side validation for fault-injected rounds: a corrupted upload
    must never poison the aggregate.
    """
    return any(not np.isfinite(np.asarray(v)).all() for v in update.values())


class ParameterServer:
    """Holds the shared model state and applies weighted aggregation.

    Implements the two update rules from Sec. II-B:

    * :meth:`apply_gradients` — w_{t+1} <- w_t - eta * sum_k (n_k/n) g_k
      (the "naively distributed SGD" rule);
    * :meth:`average_states` — w_{t+1} <- sum_k (n_k/n) w_{t+1}^k
      (the FedAvg rule over locally trained weights).

    ``version`` counts committed aggregations; the round engine
    (:func:`repro.federated.fleet.decide_round`) decides which lagged
    updates a round accepts.
    """

    def __init__(self, model_fn):
        self.model_fn = model_fn
        self.state = model_fn().state_dict()
        self.version = 0

    def broadcast(self):
        """A copy of the current global state for download."""
        return OrderedDict((k, v.copy()) for k, v in self.state.items())

    def apply_gradients(self, gradients, weights, lr):
        """Apply the sample-weighted average of client gradients."""
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("total client weight must be positive")
        for name in self.state:
            combined = sum(
                (w / total) * g[name] for g, w in zip(gradients, weights)
            )
            self.state[name] = self.state[name] - lr * combined
        self.version += 1

    def average_states(self, states, weights, min_quorum=None):
        """Replace the global state with the weighted client average.

        With ``min_quorum`` set, a partial aggregation over fewer than
        that many client states raises :class:`QuorumError` and leaves
        the global model untouched — the fault-tolerant loops skip the
        round rather than commit a low-confidence average.
        """
        if min_quorum is not None and len(states) < min_quorum:
            raise QuorumError(
                "only {} of the required {} updates survived the round".format(
                    len(states), min_quorum))
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("total client weight must be positive")
        new_state = OrderedDict()
        for name in self.state:
            new_state[name] = sum(
                (w / total) * s[name] for s, w in zip(states, weights)
            )
        self.state = new_state
        self.version += 1

    def evaluate(self, features, labels):
        """Accuracy of the current global model on the given arrays."""
        from ..tensor import Tensor, no_grad

        model = self.model_fn()
        model.load_state_dict(self.state)
        model.eval()
        with no_grad():
            logits = model(Tensor(np.asarray(features)))
        return float((logits.numpy().argmax(axis=1) == np.asarray(labels)).mean())
