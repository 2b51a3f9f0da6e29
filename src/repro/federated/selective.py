"""Distributed selective SGD (Shokri & Shmatikov, CCS'15) — Sec. II-A.

Each participant keeps its *own* local model, trains on private data, and
after each local pass uploads only the gradients of a selected fraction
``theta_u`` of parameters (those with the largest accumulated magnitude)
to the global parameter server.  Before training, each participant
downloads a fraction ``theta_d`` of the freshest global parameters to
refresh its local model.  Participants therefore learn from each other's
data without ever sharing it — and with tunable communication.
"""

from __future__ import annotations

import numpy as np

from ..data import DataLoader
from ..nn import losses
from ..optim import SGD
from ..rng import derive_rng
from ..tensor import Tensor, no_grad
from .comm import CommunicationLedger, sparse_update_bytes
from .algorithms import FederatedHistory, RobustnessPolicy, RoundRecord

__all__ = ["SelectiveSGDParticipant", "DistributedSelectiveSGD"]


def _flatten_params(model):
    """Flat vector of trainable parameters (buffers stay local)."""
    return np.concatenate([p.data.reshape(-1) for p in model.parameters()])


def _unflatten_into(model, flat):
    offset = 0
    for param in model.parameters():
        size = param.data.size
        param.data = flat[offset:offset + size].reshape(param.data.shape).copy()  # repro-lint: allow[param-data] installing downloaded server weights
        offset += size


class SelectiveSSGDServer:
    """Global parameter store with a per-parameter update counter."""

    def __init__(self, model_fn):
        model = model_fn()
        self.flat = _flatten_params(model)
        self.update_counts = np.zeros_like(self.flat)

    def download(self, fraction, rng):
        """Return (indices, values) for a ``fraction`` of parameters.

        Preference is given to recently updated coordinates, as in the
        original protocol where participants fetch the freshest values.
        """
        count = max(1, int(round(fraction * self.flat.size)))
        if count >= self.flat.size:
            indices = np.arange(self.flat.size)
        else:
            # Rank by update count with random tie-breaking.
            noise = rng.random(self.flat.size) * 0.5
            indices = np.argsort(-(self.update_counts + noise))[:count]
        return indices, self.flat[indices].copy()

    def upload(self, indices, values):
        """Add selected gradient values into the global parameters."""
        np.add.at(self.flat, indices, values)
        np.add.at(self.update_counts, indices, 1.0)


class SelectiveSGDParticipant:
    """A participant with a persistent local model."""

    def __init__(self, participant_id, dataset, model_fn, lr=0.1, seed=0,
                 loss_fn=None):
        self.participant_id = participant_id
        self.dataset = dataset
        self.model = model_fn()
        self.lr = lr
        self.loss_fn = loss_fn or losses.cross_entropy
        self.rng = derive_rng(seed, "selective-participant", participant_id)

    def refresh(self, indices, values):
        """Overwrite selected local parameters with downloaded globals."""
        flat = _flatten_params(self.model)
        flat[indices] = values
        _unflatten_into(self.model, flat)

    def train_epoch(self, batch_size=32):
        """One local epoch of SGD; returns the accumulated parameter delta."""
        before = _flatten_params(self.model)
        optimizer = SGD(self.model.parameters(), lr=self.lr)
        loader = DataLoader(self.dataset, batch_size=batch_size, shuffle=True,
                            rng=self.rng)
        self.model.train()
        for features, labels in loader:
            optimizer.zero_grad()
            loss = self.loss_fn(self.model(Tensor(features)), labels)
            loss.backward()
            optimizer.step()
        after = _flatten_params(self.model)
        return after - before

    def select_upload(self, delta, fraction):
        """Pick the largest-magnitude ``fraction`` of the delta to share."""
        count = max(1, int(round(fraction * delta.size)))
        if count >= delta.size:
            indices = np.arange(delta.size)
        else:
            indices = np.argpartition(-np.abs(delta), count)[:count]
        return indices, delta[indices].copy()

    def evaluate(self, features, labels):
        self.model.eval()
        with no_grad():
            logits = self.model(Tensor(np.asarray(features)))
        return float((logits.numpy().argmax(axis=1) == np.asarray(labels)).mean())


class DistributedSelectiveSGD:
    """Round-robin driver for the selective-SGD protocol (Fig. 1)."""

    def __init__(self, participants, model_fn, upload_fraction=0.1,
                 download_fraction=0.1, seed=0, injector=None, policy=None):
        if not participants:
            raise ValueError("need at least one participant")
        if not 0.0 < upload_fraction <= 1.0:
            raise ValueError("upload_fraction must be in (0, 1]")
        if not 0.0 < download_fraction <= 1.0:
            raise ValueError("download_fraction must be in (0, 1]")
        self.participants = list(participants)
        self.server = SelectiveSSGDServer(model_fn)
        self.upload_fraction = upload_fraction
        self.download_fraction = download_fraction
        self.rng = np.random.default_rng(seed)
        self.injector = injector
        self.policy = policy or RobustnessPolicy()
        self.clock = None
        if injector is not None:
            from ..faults import SimulatedClock

            self.clock = SimulatedClock()

    def _faithful_participant_round(self, participant, batch_size):
        """The fault-free protocol step: download, refresh, train, upload."""
        indices, values = self.server.download(self.download_fraction, self.rng)
        participant.refresh(indices, values)
        down = sparse_update_bytes(len(indices))
        delta = participant.train_epoch(batch_size=batch_size)
        upload_idx, upload_val = participant.select_upload(
            delta, self.upload_fraction
        )
        self.server.upload(upload_idx, upload_val)
        return {"up": sparse_update_bytes(len(upload_idx)), "down": down}

    def _robust_participant_round(self, participant, round_index, batch_size):
        """The protocol step under fault injection with retry + backoff.

        The participant's local model keeps whatever training it managed
        even when its upload never lands (it owns the model in this
        protocol); only the *upload* is retried once training succeeded.
        Corrupted uploads are rejected by the server's finite-value check.
        Each byte is booked once: as delivered (``up``/``down``) if the
        server used it, as ``wasted`` otherwise.
        """
        policy, injector, clock = self.policy, self.injector, self.clock
        pid = participant.participant_id
        up = down = wasted = retries = 0
        upload_idx = upload_val = None
        delivered = False
        for attempt in range(policy.max_retries + 1):
            if attempt > 0:
                retries += 1
                clock.advance(policy.backoff_s(attempt))
            if not injector.link_available(clock.now):
                continue
            if upload_idx is None:
                # Still need to download + train.
                indices, values = self.server.download(
                    self.download_fraction, self.rng
                )
                down_bytes = sparse_update_bytes(len(indices))
                if injector.drops_out(round_index, pid, attempt):
                    wasted += down_bytes
                    continue
                participant.refresh(indices, values)
                down += down_bytes
                delta = participant.train_epoch(batch_size=batch_size)
                upload_idx, upload_val = participant.select_upload(
                    delta, self.upload_fraction
                )
            up_bytes = sparse_update_bytes(len(upload_idx))
            if injector.upload_lost(round_index, pid, attempt):
                wasted += up_bytes
                continue
            if injector.corrupts(round_index, pid, attempt):
                # The values arrive mangled; the server refuses them.
                wasted += up_bytes
                continue
            self.server.upload(upload_idx, upload_val)
            up += up_bytes
            delivered = True
            break
        return {"up": up, "down": down, "wasted": wasted, "retries": retries,
                "aborts": 0 if delivered else 1}

    def run(self, num_rounds, eval_data, batch_size=32, eval_every=1):
        """Run rounds in which every participant downloads, trains, uploads.

        Evaluation reports the *average* participant accuracy, since each
        participant ends with its own model in this protocol.  With an
        injector attached, each participant gets the retry/backoff policy;
        an ``abort`` counts a participant whose upload never landed that
        round (there is no round commit to quorum-gate here — the server
        is updated incrementally).  An ``eval_every`` below 1 raises
        ``ValueError`` before any participant trains.
        """
        if eval_every < 1:
            raise ValueError("eval_every must be at least 1")
        history = FederatedHistory()
        features, labels = eval_data
        for round_index in range(1, num_rounds + 1):
            up = down = wasted = retries = aborts = 0
            for participant in self.participants:
                if self.injector is None:
                    traffic = self._faithful_participant_round(
                        participant, batch_size
                    )
                else:
                    traffic = self._robust_participant_round(
                        participant, round_index, batch_size
                    )
                up += traffic["up"]
                down += traffic["down"]
                wasted += traffic.get("wasted", 0)
                retries += traffic.get("retries", 0)
                aborts += traffic.get("aborts", 0)
            history.ledger.record_round(up, down, wasted, retries, aborts)
            if round_index % eval_every == 0 or round_index == num_rounds:
                accuracies = [
                    p.evaluate(features, labels) for p in self.participants
                ]
                history.records.append(RoundRecord(
                    round_index=round_index,
                    accuracy=float(np.mean(accuracies)),
                    participants=len(self.participants),
                    cumulative_megabytes=history.ledger.total_megabytes(),
                ))
        return history
