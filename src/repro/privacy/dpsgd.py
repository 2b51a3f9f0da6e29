"""Differentially private SGD (Abadi et al., CCS'16).

Per-example gradients are clipped to an L2 bound, summed, perturbed with
Gaussian noise scaled to that bound, and averaged over the *lot*.  Privacy
is tracked by the :class:`~repro.privacy.accountant.MomentsAccountant`.
"""

# repro-lint: privacy-critical

from __future__ import annotations

import numpy as np

from ..nn import losses
from ..rng import derive_key
from ..serve.plan import UnsupportedModuleError
from ..tensor import Tensor, no_grad
from . import flow
from .accountant import MomentsAccountant
from .mechanisms import clip_by_l2

__all__ = ["DPSGDTrainer"]


class DPSGDTrainer:
    """Train a model with (epsilon, delta)-DP guarantees.

    Parameters
    ----------
    model:
        A :class:`repro.nn.Module` trained in place.
    lr:
        Learning rate applied to the noisy averaged gradient.
    clip_norm:
        Per-example gradient L2 bound C.
    noise_multiplier:
        sigma; Gaussian noise stddev is sigma * C per coordinate of the sum.
    lot_size:
        Expected lot size L; examples are Poisson-sampled with q = L / N.
    loss_fn:
        Maps (logits, labels) to a scalar loss (default cross-entropy).
        With ``losses.cross_entropy`` each example's gradient replays a
        compiled batch-of-one :class:`repro.train.TrainPlan`, bit-identical
        to the eager engine on Linear/ReLU/Tanh models; any other loss,
        or a model with a layer the compiler has no rule for, trains
        eagerly.  Sampling, clipping, noise, taint marks and accounting
        run the same code either way.

    Notes
    -----
    Poisson sampling and noise generation draw from *independent* RNG
    streams (spawned from ``seed``).  Sharing one generator couples which
    examples participate with which noise is added — the two sources of
    randomness the accountant's analysis treats as independent — and is
    flagged by the ``dp-shared-rng`` lint rule.
    """

    def __init__(self, model, lr=0.1, clip_norm=1.0, noise_multiplier=1.0,
                 lot_size=64, loss_fn=None, seed=0):
        if clip_norm <= 0:
            raise ValueError("clip_norm must be positive")
        if noise_multiplier < 0:
            raise ValueError("noise_multiplier must be non-negative")
        self.model = model
        self.lr = lr
        self.clip_norm = clip_norm
        self.noise_multiplier = noise_multiplier
        self.lot_size = lot_size
        self.loss_fn = loss_fn or losses.cross_entropy
        # The spawn root is namespaced: a bare SeedSequence(seed) would
        # hand DPSGDTrainer(seed=s) and DPFedAvg(seed=s) *identical*
        # children (spawn keys (0,) and (1,) from the same entropy).
        sample_seq, noise_seq = np.random.SeedSequence(
            derive_key(seed, "dpsgd")).spawn(2)
        self.rng = np.random.default_rng(sample_seq)
        self.noise_rng = np.random.default_rng(noise_seq)
        self.accountant = MomentsAccountant()
        self._params = self.model.parameters()
        self._shapes = [p.data.shape for p in self._params]
        self._sizes = [p.data.size for p in self._params]
        self._plan = None
        self._flat = None
        if self.loss_fn is losses.cross_entropy:
            from ..train.plan import TrainPlan

            self._plan = TrainPlan(model, loss="cross_entropy",
                                   optimizer=None)

    def _flat_grad(self):
        pieces = []
        for param in self._params:
            grad = param.grad if param.grad is not None else np.zeros_like(param.data)
            pieces.append(grad.reshape(-1))
        return np.concatenate(pieces)

    def _example_grad(self, x, y):
        """Flat loss gradient of one example, by plan replay or eager."""
        if self._plan is not None:
            try:
                self._plan.grad_step(x, y)
            except UnsupportedModuleError:
                # A layer without a rule: the compile left the model as
                # it was, so train eagerly from here on.
                self._plan = None
            else:
                self._flat = self._plan.flat_grad(out=self._flat)
                return self._flat
        self.model.zero_grad()
        self.loss_fn(self.model(Tensor(x)), y).backward()
        return self._flat_grad()

    def _apply_flat(self, flat):
        # Step in each parameter's dtype, as repro.optim.SGD does: the
        # float64 noisy average must not turn a float32 model float64.
        offset = 0
        for param, size, shape in zip(self._params, self._sizes, self._shapes):
            update = flat[offset:offset + size].reshape(shape)
            param.data = param.data - self.lr * update.astype(param.data.dtype, copy=False)  # repro-lint: allow[param-data] DP-SGD applies the noised aggregate step itself
            offset += size

    def step(self, features, labels):
        """One DP-SGD step on a Poisson-sampled lot from (features, labels).

        Returns the number of examples in the lot.
        """
        features = np.asarray(features)
        labels = np.asarray(labels)
        flow.mark_private(features)
        n = len(features)
        q = min(self.lot_size / n, 1.0)
        mask = self.rng.random(n) < q
        if not mask.any():
            # An empty lot is a legitimate outcome of Poisson sampling.
            # Forcing a random example in (the old behaviour) biases the
            # subsampling distribution: every example's true inclusion
            # probability exceeds q, so the accountant's RDP analysis —
            # which assumes exactly-q Poisson sampling — would understate
            # epsilon.  Skip the model update but still charge the
            # accountant: the mechanism *did* release (noise-only, had we
            # computed it), and charging keeps the per-step privacy cost
            # independent of the sampled lot, as the analysis requires.
            self.accountant.step(q, max(self.noise_multiplier, 1e-9))
            return 0
        lot_x, lot_y = features[mask], labels[mask]

        total = np.zeros(sum(self._sizes))
        for i in range(len(lot_x)):
            flat = self._example_grad(lot_x[i:i + 1], lot_y[i:i + 1])
            # The per-example gradient is a function of one user's data:
            # taint it private so un-noised egress is caught by the
            # privacy-flow tracer.
            flow.mark_private(flat)
            clipped = clip_by_l2(flat, self.clip_norm)
            total += clipped
            flow.mark_derived(total, (clipped,))
        noise = self.noise_rng.normal(
            0.0, self.noise_multiplier * self.clip_norm, size=total.shape
        )
        averaged = (total + noise) / max(self.lot_size, 1)
        if self.noise_multiplier > 0:
            flow.mark_noised(total, averaged,
                             self.noise_multiplier * self.clip_norm)
        else:
            flow.mark_derived(averaged, (total,))
        flow.release(averaged, "dpsgd.update")
        self._apply_flat(averaged)
        self.accountant.step(q, max(self.noise_multiplier, 1e-9))
        return int(mask.sum())

    def train(self, features, labels, num_steps, delta=1e-5,
              epsilon_budget=None, callback=None):
        """Run ``num_steps`` steps, optionally stopping at an epsilon budget.

        Returns the spent epsilon at ``delta``.
        """
        for step_index in range(num_steps):
            self.step(features, labels)
            if epsilon_budget is not None:
                if self.accountant.spent(delta) >= epsilon_budget:
                    break
            if callback is not None:
                callback(step_index, self)
        return self.accountant.spent(delta)

    def certificate(self, delta=1e-5):
        """Machine-readable claim of this run's privacy parameters.

        The certificate carries everything the independent auditor
        (``python -m repro.analysis.privacy audit``) needs to recompute
        epsilon from scratch and cross-check it against the accountant's
        step ledger.
        """
        from ..analysis.privacy.certificate import PrivacyCertificate
        if not self.accountant.ledger:
            raise RuntimeError("no steps accounted yet; train first")
        last = self.accountant.ledger[-1]
        return PrivacyCertificate(
            mechanism="sampled-gaussian",
            q=last.q,
            sigma=last.sigma,
            steps=self.accountant.steps,
            clip_norm=self.clip_norm,
            delta=delta,
            claimed_epsilon=self.accountant.spent(delta),
            ledger=list(self.accountant.ledger),
        )

    def evaluate(self, features, labels):
        """Accuracy of the current model."""
        self.model.eval()
        with no_grad():
            logits = self.model(Tensor(np.asarray(features)))
        self.model.train()
        return float((logits.numpy().argmax(axis=1) == np.asarray(labels)).mean())
