"""Federated training loops: FedSGD and FedAvg (McMahan et al.).

Sec. II-B of the paper contrasts the naive distributed-SGD update (one
gradient step per client per round) with federated averaging (multiple
local epochs before aggregation), noting the latter needs 10-100x less
communication to converge.  Both loops share the same server, clients,
sampler and byte accounting so that comparison is apples-to-apples.

Both sample each round's participants with the fleet's keyed sampler
(:func:`repro.federated.fleet.sample_clients`), optionally under the
paper's hourly eligibility policy.  With a
:class:`repro.faults.FaultInjector` attached, FedAvg's rounds run on the
fleet round engine (:func:`repro.federated.fleet.decide_round`): it
decides what happened to each participant, and only the survivors train.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .comm import CommunicationLedger, RoundTraffic, state_bytes
from .server import ParameterServer, QuorumError

__all__ = ["RoundRecord", "FederatedHistory", "RobustnessPolicy", "FedSGD",
           "FedAvg"]


@dataclass(frozen=True)
class RobustnessPolicy:
    """Server-side tolerance knobs for fault-injected training.

    All times are *simulated* seconds (see
    :class:`repro.faults.SimulatedClock`); nothing here reads wall time.
    """

    timeout_s: float = 120.0        # per-attempt budget (download+compute+upload)
    max_retries: int = 2            # extra attempts after the first failure
    backoff_base_s: float = 1.0     # retry n waits base * 2**(n-1) first
    min_quorum: int = 1             # surviving updates needed to commit a round
    straggler_cutoff_s: float = 90.0  # cut clients whose compute alone exceeds this
    max_staleness: int = 0          # accepted version lag of an update
    base_compute_s: float = 10.0    # nominal local-training duration

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.min_quorum < 1:
            raise ValueError("min_quorum must be at least 1")
        if self.timeout_s <= 0 or self.straggler_cutoff_s <= 0:
            raise ValueError("timeout_s and straggler_cutoff_s must be positive")
        if self.backoff_base_s < 0 or self.base_compute_s < 0:
            raise ValueError("durations must be non-negative")
        if self.max_staleness < 0:
            raise ValueError("max_staleness must be non-negative")

    def backoff_s(self, retry_number):
        """Exponential backoff before the ``retry_number``-th retry (1-based)."""
        return self.backoff_base_s * (2.0 ** (max(retry_number, 1) - 1))


@dataclass
class RoundRecord:
    """Metrics captured after one communication round."""

    round_index: int
    accuracy: float
    participants: int
    cumulative_megabytes: float


@dataclass
class FederatedHistory:
    """Accuracy/communication trajectory of one training run."""

    records: list = field(default_factory=list)
    ledger: CommunicationLedger = field(default_factory=CommunicationLedger)

    def rounds_to_accuracy(self, target):
        """First round index reaching ``target`` accuracy (None if never)."""
        for record in self.records:
            if record.accuracy >= target:
                return record.round_index
        return None

    def megabytes_to_accuracy(self, target):
        """Communication spent when ``target`` accuracy is first reached."""
        for record in self.records:
            if record.accuracy >= target:
                return record.cumulative_megabytes
        return None

    def final_accuracy(self):
        return self.records[-1].accuracy if self.records else 0.0


class _FederatedLoop:
    """Shared machinery: client sampling, evaluation, accounting.

    The clients are the rows of a :class:`~repro.federated.fleet.FleetState`
    built from ``(len(clients), seed)``, and each round samples them with
    :func:`~repro.federated.fleet.sample_clients` under the keyed
    ``(seed, round)`` draw.  With ``hours_per_round`` set, round ``r``
    samples at hour ``r * hours_per_round`` under the paper's eligibility
    policy (idle, charging, on unmetered WiFi); a round nobody is
    eligible for trains nobody.
    """

    def __init__(self, clients, model_fn, client_fraction=1.0, seed=0,
                 hours_per_round=None, injector=None, policy=None):
        if not clients:
            raise ValueError("need at least one client")
        if not 0.0 < client_fraction <= 1.0:
            raise ValueError("client_fraction must be in (0, 1]")
        # Imported here: the fleet package imports this module.
        from .fleet.state import FleetState

        self.clients = list(clients)
        self.server = ParameterServer(model_fn)
        self.client_fraction = client_fraction
        self.seed = seed
        self.hours_per_round = hours_per_round
        self.injector = injector
        self.policy = policy or RobustnessPolicy()
        self.clock = None
        # Rows are client positions; the fault oracles key on client ids.
        self._devices = FleetState.build(len(self.clients), seed)
        self._state_history = []
        self._round_index = 0
        if injector is not None:
            from ..faults import SimulatedClock

            self.clock = SimulatedClock()

    def _sample_clients(self, round_index):
        """Ascending positions in ``clients`` of this round's participants."""
        from .fleet.sampling import sample_clients

        hour = (None if self.hours_per_round is None
                else round_index * self.hours_per_round)
        return sample_clients(self._devices, round_index,
                              self.client_fraction, seed=self.seed,
                              min_battery=0.0, hour=hour)

    def _remember_broadcast(self, version, state):
        """Keep ``state`` and what an injected lag can reach, so a lagging
        client trains on the state it lags to; returns the lags held, for
        ``decide_round(held_lags=)``."""
        spec = getattr(self.injector, "spec", None)
        horizon = max(self.policy.max_staleness,
                      getattr(spec, "max_injected_staleness", 0)) + 1
        self._state_history.append((version, state))
        del self._state_history[:-horizon]
        return [version - held for held, _ in self._state_history]

    def _stale_state(self, current_version, lag):
        """The newest held broadcast ``lag`` versions behind."""
        wanted = current_version - int(lag)
        return next(state for version, state
                    in reversed(self._state_history) if version == wanted)

    def run(self, num_rounds, eval_data, eval_every=1, target_accuracy=None,
            checkpoint_path=None, checkpoint_every=1, resume=False):
        """Train for ``num_rounds`` rounds; stop early at ``target_accuracy``.

        With ``checkpoint_path`` set, the loop writes a resumable snapshot
        every ``checkpoint_every`` completed rounds; ``resume=True`` picks
        up from that snapshot (if present) and reproduces the
        uninterrupted run bit-for-bit — RNG states, ledger, records, and
        the simulated clock all round-trip (see
        :mod:`repro.federated.checkpoint`).  An ``eval_every`` or
        ``checkpoint_every`` below 1 raises ``ValueError`` before any
        round runs.
        """
        from .checkpoint import load_checkpoint, save_checkpoint

        if eval_every < 1:
            raise ValueError("eval_every must be at least 1")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be at least 1")
        history = FederatedHistory()
        features, labels = eval_data
        start_round = 1
        if resume and checkpoint_path and os.path.exists(checkpoint_path):
            start_round = load_checkpoint(checkpoint_path, self, history) + 1
        for round_index in range(start_round, num_rounds + 1):
            self._round_index = round_index
            rows = self._sample_clients(round_index)
            # Nobody eligible: nothing trains, commits or moves a byte.
            traffic = self._round(rows) if len(rows) else RoundTraffic(0, 0)
            history.ledger.record_round(*traffic)
            if round_index % eval_every == 0 or round_index == num_rounds:
                acc = self.server.evaluate(features, labels)
                history.records.append(RoundRecord(
                    round_index=round_index,
                    accuracy=acc,
                    participants=len(rows),
                    cumulative_megabytes=history.ledger.total_megabytes(),
                ))
                if target_accuracy is not None and acc >= target_accuracy:
                    if checkpoint_path:
                        save_checkpoint(checkpoint_path, self, history, round_index)
                    break
            if checkpoint_path and (round_index % checkpoint_every == 0
                                    or round_index == num_rounds):
                save_checkpoint(checkpoint_path, self, history, round_index)
        return history

    def _round(self, rows):
        raise NotImplementedError


class FedSGD(_FederatedLoop):
    """Naive distributed SGD: one gradient per client per round."""

    def __init__(self, clients, model_fn, lr=0.1, batch_size=None, **kwargs):
        super().__init__(clients, model_fn, **kwargs)
        self.lr = lr
        self.batch_size = batch_size

    def _round(self, rows):
        state = self.server.broadcast()
        per_client = state_bytes(state)
        gradients, weights = [], []
        for row in rows:
            gradient, count = self.clients[row].compute_gradient(
                state, batch_size=self.batch_size)
            gradients.append(gradient)
            weights.append(count)
        self.server.apply_gradients(gradients, weights, self.lr)
        return per_client * len(rows), per_client * len(rows)


class FedAvg(_FederatedLoop):
    """Federated averaging: several local epochs, then weight averaging."""

    def __init__(self, clients, model_fn, local_epochs=5, batch_size=32,
                 lr=0.1, momentum=0.0, **kwargs):
        super().__init__(clients, model_fn, **kwargs)
        if local_epochs <= 0:
            raise ValueError("local_epochs must be positive")
        self.local_epochs = local_epochs
        self.batch_size = batch_size
        self.lr = lr
        self.momentum = momentum

    def _local_train(self, row, state):
        return self.clients[row].local_train(
            state, epochs=self.local_epochs, batch_size=self.batch_size,
            lr=self.lr, momentum=self.momentum)

    def _round(self, rows):
        if self.injector is not None:
            return self._robust_round(rows)
        state = self.server.broadcast()
        per_client = state_bytes(state)
        states, weights = [], []
        for row in rows:
            new_state, count = self._local_train(row, state)
            states.append(new_state)
            weights.append(count)
        self.server.average_states(states, weights)
        return per_client * len(rows), per_client * len(rows)

    def _robust_round(self, rows):
        """One round under fault injection, decided by the fleet engine.

        No round opens inside a link window.  Survivors train in
        participant order on the broadcast their lag names; a missed
        quorum re-books the round's deliveries as waste.
        """
        from .fleet.engine import decide_round

        self.clock.now = self.injector.link_opens_at(self.clock.now)
        state = self.server.broadcast()
        version = self.server.version
        held_lags = self._remember_broadcast(version, state)
        decisions = decide_round(
            self._devices, self.injector, self.policy, self._round_index,
            rows, client_ids=[self.clients[row].client_id for row in rows],
            model_bytes=state_bytes(state), clock_start=self.clock.now,
            held_lags=held_lags)
        states, weights = [], []
        for i in np.flatnonzero(decisions.survived):
            new_state, count = self._local_train(
                rows[i], self._stale_state(version, decisions.lag[i]))
            states.append(new_state)
            weights.append(count)
        up, down = int(decisions.up.sum()), int(decisions.down.sum())
        wasted = int(decisions.wasted.sum())
        retries = int(decisions.retries.sum())
        aborts = 0
        try:
            self.server.average_states(states, weights,
                                       min_quorum=self.policy.min_quorum)
        except QuorumError:
            # Too few survivors: skip the round; everything it moved is waste.
            aborts = 1
            wasted += up + down
            up = down = 0
        self.clock.advance(decisions.duration)
        return RoundTraffic(up, down, wasted, retries, aborts)
