"""User-level differentially private federated averaging (McMahan et al.).

Sec. II-C lists the four modifications that make federated training
differentially private, all implemented here:

1. participants are selected *independently with probability p* (Poisson
   sampling), not as a fixed set;
2. each participant's update is *bounded to a specific L2 norm* S;
3. a *bounded-sensitivity weighted estimator* is used so the moments
   accountant applies (we divide by the expected participation q*W, not
   the realized one);
4. *sufficient Gaussian noise* (z * S / (q*W)) is added to the average.

Privacy is tracked at user level by the moments accountant.
"""

# repro-lint: privacy-critical

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from . import flow
from .accountant import MomentsAccountant
from .mechanisms import clip_by_l2
from ..federated.algorithms import FederatedHistory, RoundRecord
from ..federated.comm import state_bytes
from ..federated.server import ParameterServer
from ..rng import derive_key

__all__ = ["DPFedAvg"]


def _flatten(state):
    return np.concatenate([v.reshape(-1) for v in state.values()])


def _unflatten_like(flat, template):
    out = OrderedDict()
    offset = 0
    for name, value in template.items():
        out[name] = flat[offset:offset + value.size].reshape(value.shape).copy()
        offset += value.size
    return out


class DPFedAvg:
    """Federated averaging with user-level (epsilon, delta)-DP."""

    def __init__(self, clients, model_fn, sample_prob=0.2, clip_norm=1.0,
                 noise_multiplier=1.0, local_epochs=2, batch_size=32,
                 lr=0.1, seed=0):
        if not clients:
            raise ValueError("need at least one client")
        if not 0.0 < sample_prob <= 1.0:
            raise ValueError("sample_prob must be in (0, 1]")
        if clip_norm <= 0:
            raise ValueError("clip_norm must be positive")
        self.clients = list(clients)
        self.server = ParameterServer(model_fn)
        self.sample_prob = sample_prob
        self.clip_norm = clip_norm
        self.noise_multiplier = noise_multiplier
        self.local_epochs = local_epochs
        self.batch_size = batch_size
        self.lr = lr
        # Participant sampling and noise use independent streams (spawned
        # from ``seed``): the accountant's amplification-by-sampling
        # analysis treats them as independent sources of randomness, and
        # the ``dp-shared-rng`` lint rule flags a shared generator.
        sample_seq, noise_seq = np.random.SeedSequence(
            derive_key(seed, "dpfedavg")).spawn(2)
        self.rng = np.random.default_rng(sample_seq)
        self.noise_rng = np.random.default_rng(noise_seq)
        self.accountant = MomentsAccountant()

    def _poisson_sample(self):
        picks = [c for c in self.clients if self.rng.random() < self.sample_prob]
        return picks

    def round(self):
        """One DP-FedAvg round; returns (participants, bytes_up, bytes_down)."""
        state = self.server.broadcast()
        flat_global = _flatten(state)
        participants = self._poisson_sample()
        per_client = state_bytes(state)
        # Equal per-user weights: the bounded-sensitivity estimator divides
        # by the *expected* total weight qW so one user's presence changes
        # the output by at most S / (qW).
        expected_weight = self.sample_prob * len(self.clients)
        total = np.zeros_like(flat_global)
        for client in participants:
            new_state, _ = client.local_train(
                state, epochs=self.local_epochs, batch_size=self.batch_size,
                lr=self.lr,
            )
            delta = _flatten(new_state) - flat_global
            # A model delta is a function of one user's entire shard:
            # born private, sanitized by the clip below.
            flow.mark_private(delta)
            clipped = clip_by_l2(delta, self.clip_norm)
            total += clipped
            flow.mark_derived(total, (clipped,))
        noise_std = self.noise_multiplier * self.clip_norm
        noised = total + self.noise_rng.normal(0.0, noise_std, size=total.shape)
        if self.noise_multiplier > 0:
            flow.mark_noised(total, noised, noise_std)
        else:
            flow.mark_derived(noised, (total,))
        update = noised / max(expected_weight, 1e-12)
        flow.mark_derived(update, (noised,))
        flow.release(update, "dpfedavg.server_update")
        self.server.state = _unflatten_like(flat_global + update, state)
        self.accountant.step(self.sample_prob, max(self.noise_multiplier, 1e-9))
        return participants, per_client * len(participants), per_client * len(participants)

    def run(self, num_rounds, eval_data, delta=1e-5, eval_every=1,
            epsilon_budget=None):
        """Train for ``num_rounds`` rounds (or until the budget is spent).

        An ``eval_every`` below 1 raises ``ValueError`` before any round
        trains or spends privacy budget.
        """
        if eval_every < 1:
            raise ValueError("eval_every must be at least 1")
        history = FederatedHistory()
        features, labels = eval_data
        for round_index in range(1, num_rounds + 1):
            participants, up, down = self.round()
            history.ledger.record_round(up, down)
            if round_index % eval_every == 0 or round_index == num_rounds:
                history.records.append(RoundRecord(
                    round_index=round_index,
                    accuracy=self.server.evaluate(features, labels),
                    participants=len(participants),
                    cumulative_megabytes=history.ledger.total_megabytes(),
                ))
            if epsilon_budget is not None and (
                self.accountant.spent(delta) >= epsilon_budget
            ):
                break
        return history

    def certificate(self, delta=1e-5):
        """Machine-readable claim of this run's user-level privacy.

        Verified end-to-end by ``python -m repro.analysis.privacy audit``.
        """
        from ..analysis.privacy.certificate import PrivacyCertificate
        if not self.accountant.ledger:
            raise RuntimeError("no rounds accounted yet; run first")
        return PrivacyCertificate(
            mechanism="sampled-gaussian",
            q=self.sample_prob,
            sigma=max(self.noise_multiplier, 1e-9),
            steps=self.accountant.steps,
            clip_norm=self.clip_norm,
            delta=delta,
            claimed_epsilon=self.accountant.spent(delta),
            ledger=list(self.accountant.ledger),
        )

    def epsilon_spent(self, delta=1e-5):
        """User-level epsilon spent so far."""
        return self.accountant.spent(delta)
