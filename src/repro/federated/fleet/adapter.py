"""Object-client adapter: real local training over the fleet engine.

:class:`FleetFedAvg` runs the same sampling / decision / quorum /
ledger path as :class:`repro.federated.fleet.FleetSimulator`, but backs
each surviving participant with a real :class:`FederatedClient` that
trains actual model weights.  Beyond :class:`repro.federated.FedAvg`,
whose fault-injected rounds ask the same engine, it adds keyed
eligibility sampling, the edge tier of two-tier quorum aggregation, and
the device columns a round updates (battery, staleness, byte counters).
Both FedAvg loops hold recent broadcasts the same way, so a stale
survivor trains on the state its lag names.
"""

from __future__ import annotations

import numpy as np

from ...faults import FaultInjector, SimulatedClock
from ..algorithms import (FederatedHistory, RobustnessPolicy, RoundRecord,
                          _BroadcastHistory)
from ..comm import CommunicationLedger, state_bytes
from ..server import ParameterServer
from .engine import decide_round
from .hierarchy import EdgeTopology, edge_partition, hierarchical_average
from .sampling import sample_clients
from .state import FleetState

__all__ = ["FleetFedAvg"]


class FleetFedAvg(_BroadcastHistory):
    """FedAvg with real clients on the columnar fleet round engine."""

    def __init__(self, clients, model_fn, fleet_state=None, injector=None,
                 policy=None, topology=None, local_epochs=5, batch_size=32,
                 lr=0.1, momentum=0.0, client_fraction=1.0,
                 sampling="uniform", min_battery=0.0, seed=0):
        if not clients:
            raise ValueError("need at least one client")
        self.clients = list(clients)
        self.server = ParameterServer(model_fn)
        self.injector = injector if injector is not None \
            else FaultInjector(seed=seed)
        self.policy = policy or RobustnessPolicy()
        self.topology = topology or EdgeTopology()
        self.state = fleet_state if fleet_state is not None else \
            FleetState.build(len(self.clients), seed,
                             num_edges=self.topology.num_edges)
        if self.state.num_clients != len(self.clients):
            raise ValueError(
                "fleet state holds {} devices but {} clients were "
                "given".format(self.state.num_clients, len(self.clients)))
        if self.state.num_edges != self.topology.num_edges:
            raise ValueError(
                "fleet state has {} edges but the topology has {}".format(
                    self.state.num_edges, self.topology.num_edges))
        # Fault oracles key on the real client ids, as in FedAvg, so a
        # client meets the same fault schedule under either loop.
        self.client_ids = np.asarray(
            [client.client_id for client in self.clients], dtype=np.int64)
        self.local_epochs = local_epochs
        self.batch_size = batch_size
        self.lr = lr
        self.momentum = momentum
        self.client_fraction = float(client_fraction)
        self.sampling = sampling
        self.min_battery = float(min_battery)
        self.seed = int(seed)
        self.clock = SimulatedClock()
        self.ledger = CommunicationLedger()
        self.round_index = 0
        self._state_history = []

    # ------------------------------------------------------------------
    # Round loop
    # ------------------------------------------------------------------
    def run_round(self):
        """One FedAvg round over the fleet engine; returns the summary."""
        self.round_index += 1
        broadcast = self.server.broadcast()
        version = self.server.version
        held_lags = self._remember_broadcast(version, broadcast)
        per_client = state_bytes(broadcast)
        rows = sample_clients(self.state, self.round_index,
                              self.client_fraction, policy=self.sampling,
                              seed=self.seed, min_battery=self.min_battery)
        decisions = decide_round(
            self.state, self.injector, self.policy, self.round_index,
            rows, client_ids=self.client_ids[rows],
            model_bytes=per_client, clock_start=self.clock.now,
            held_lags=held_lags)
        edges_sel = self.state.edge[rows]
        summary = edge_partition(decisions, edges_sel, self.topology,
                                 per_client,
                                 min_survivors=self.policy.min_quorum)
        # Survivors train for real, in participant order, each on the
        # broadcast its lag names.  A survivor on a failed edge still
        # trained (the edge discarded it after).
        updates, weights, update_edges = [], [], []
        for i in np.flatnonzero(decisions.survived):
            new_state, count = self.clients[decisions.rows[i]].local_train(
                self._stale_state(version, decisions.lag[i]),
                epochs=self.local_epochs,
                batch_size=self.batch_size, lr=self.lr,
                momentum=self.momentum)
            updates.append(new_state)
            weights.append(count)
            update_edges.append(int(edges_sel[i]))
        if summary.cloud_commit:
            self.server.state = hierarchical_average(
                updates, weights, update_edges, summary.committed)
            self.server.version += 1
        args, kwargs = summary.ledger_args()
        self.ledger.record_cohort_round(*args, **kwargs)
        self.state.apply_round(rows, decisions.survived, decisions.lag,
                               decisions.up, decisions.down,
                               decisions.wasted)
        self.clock.advance(decisions.duration)
        return summary

    def run(self, num_rounds, eval_data=None, eval_every=1):
        """Train for ``num_rounds`` rounds; returns a FederatedHistory."""
        history = FederatedHistory()
        for _ in range(num_rounds):
            summary = self.run_round()
            if eval_data is not None and self.round_index % eval_every == 0:
                accuracy = self.server.evaluate(*eval_data)
                history.records.append(RoundRecord(
                    round_index=self.round_index, accuracy=accuracy,
                    participants=int(summary.participants.sum()),
                    cumulative_megabytes=self.ledger.total_megabytes()))
        history.ledger = self.ledger
        return history
