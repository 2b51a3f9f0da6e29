"""Weight and connection pruning (Han et al., NIPS'15 / ICLR'16).

"Weight and connection pruning tries to prune the redundant weights in the
DNN model" (Sec. III-B).  We implement magnitude pruning with masks that
persist through retraining, plus the iterative prune-retrain loop that
recovers accuracy after aggressive sparsification.
"""

from __future__ import annotations

import numpy as np

from .. import nn

__all__ = ["MagnitudePruner", "sparsity", "prunable_parameters"]


def prunable_parameters(model):
    """(name, parameter) pairs worth pruning: weight matrices, not biases."""
    return [
        (name, param)
        for name, param in model.named_parameters()
        if param.data.ndim >= 2
    ]


def sparsity(model):
    """Fraction of exactly-zero entries among prunable weights."""
    total = 0
    zeros = 0
    for _, param in prunable_parameters(model):
        total += param.data.size
        zeros += int((param.data == 0.0).sum())
    return zeros / total if total else 0.0


class MagnitudePruner:
    """Global magnitude pruning with persistent masks.

    Parameters
    ----------
    model:
        The model to prune in place.
    scope:
        'global' ranks all weights together (layers with small weights are
        pruned more); 'layer' prunes each layer to the same sparsity.
    """

    def __init__(self, model, scope="global"):
        if scope not in ("global", "layer"):
            raise ValueError("scope must be 'global' or 'layer'")
        self.model = model
        self.scope = scope
        self.masks = {}

    def prune(self, target_sparsity):
        """Zero the smallest-magnitude weights to reach ``target_sparsity``."""
        if not 0.0 <= target_sparsity < 1.0:
            raise ValueError("target_sparsity must be in [0, 1)")
        params = prunable_parameters(self.model)
        if self.scope == "global":
            magnitudes = np.concatenate(
                [np.abs(p.data).reshape(-1) for _, p in params]
            )
            threshold = np.quantile(magnitudes, target_sparsity)
            for name, param in params:
                # Mask dtype follows the parameter: a float64 mask would
                # silently upcast a float32 model on multiply.
                mask = (np.abs(param.data) > threshold).astype(param.data.dtype)
                self.masks[name] = mask
                param.data = param.data * mask  # repro-lint: allow[param-data] weight surgery is the point of pruning
        else:
            for name, param in params:
                threshold = np.quantile(np.abs(param.data), target_sparsity)
                mask = (np.abs(param.data) > threshold).astype(param.data.dtype)
                self.masks[name] = mask
                param.data = param.data * mask  # repro-lint: allow[param-data] weight surgery is the point of pruning
        return self

    def apply_masks(self):
        """Re-zero pruned weights (call after every optimizer step)."""
        if not self.masks:
            return
        named = dict(self.model.named_parameters())
        for name, mask in self.masks.items():
            named[name].data = named[name].data * mask  # repro-lint: allow[param-data] re-applying the pruning mask

    def mask_gradients(self):
        """Zero gradients of pruned connections before the optimizer step."""
        named = dict(self.model.named_parameters())
        for name, mask in self.masks.items():
            param = named[name]
            if param.grad is not None:
                param.grad = param.grad * mask

    def retrain(self, features, labels, optimizer, loss_fn, epochs=3,
                batch_size=32, rng=None):
        """Fine-tune the pruned model while holding masks fixed."""
        from ..tensor import Tensor

        rng = rng or np.random.default_rng(0)
        features = np.asarray(features)
        labels = np.asarray(labels)
        n = len(features)
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                picks = order[start:start + batch_size]
                optimizer.zero_grad()
                loss = loss_fn(self.model(Tensor(features[picks])), labels[picks])
                loss.backward()
                self.mask_gradients()
                optimizer.step()
                self.apply_masks()
        return self

    def iterative_prune(self, features, labels, make_optimizer, loss_fn,
                        schedule, epochs_per_stage=2, batch_size=32, rng=None):
        """Han-style iterative pruning: prune a bit, retrain, repeat.

        ``schedule`` is an increasing sequence of target sparsities, e.g.
        [0.5, 0.7, 0.9].  Returns the per-stage sparsity actually reached.
        """
        reached = []
        for target in schedule:
            self.prune(target)
            self.retrain(features, labels, make_optimizer(self.model), loss_fn,
                         epochs=epochs_per_stage, batch_size=batch_size, rng=rng)
            reached.append(sparsity(self.model))
        return reached
