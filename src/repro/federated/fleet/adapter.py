"""Object-client adapter: real local training over the fleet engine.

:class:`FleetFedAvg` runs the same sampling / decision / quorum /
ledger path as :class:`repro.federated.fleet.FleetSimulator`, but backs
each surviving participant with a real :class:`FederatedClient` that
trains actual model weights.  The object-based ``FedAvg`` loop thereby
becomes a thin shell: for small fleets you get bit-identical behavior
between the vectorized and scalar decision engines — same selected
updates, same ledger totals, same client RNG streams — which is the
equivalence the tests pin.

Differences from the legacy ``FedAvg`` robust loop (documented, not
accidental): devices retry on their *own* timelines (the round lasts as
long as its slowest participant) instead of sharing one sequential
global clock, and failure bytes are booked disjointly so that
``sent == delivered + wasted`` holds exactly.
"""

from __future__ import annotations

import numpy as np

from ...faults import FaultInjector, SimulatedClock
from ..algorithms import FederatedHistory, RobustnessPolicy, RoundRecord
from ..comm import CommunicationLedger, state_bytes
from ..server import ParameterServer
from .engine import decide_round
from .hierarchy import EdgeTopology, edge_partition, hierarchical_average
from .sampling import sample_clients
from .state import FleetState

__all__ = ["FleetFedAvg"]


class FleetFedAvg:
    """FedAvg with real clients on the columnar fleet round engine."""

    def __init__(self, clients, model_fn, fleet_state=None, injector=None,
                 policy=None, topology=None, local_epochs=5, batch_size=32,
                 lr=0.1, momentum=0.0, client_fraction=1.0,
                 sampling="uniform", min_battery=0.0, seed=0,
                 vectorized=True):
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
        # Fault oracles key on the real client ids so chaos schedules
        # line up with the object stack's per-client streams.
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
        self.vectorized = bool(vectorized)
        self.clock = SimulatedClock()
        self.ledger = CommunicationLedger()
        self.round_index = 0
        self._state_history = []

    # ------------------------------------------------------------------
    # Broadcast history (stale-client training), as in _FederatedLoop
    # ------------------------------------------------------------------
    def _remember_broadcast(self, version, state):
        spec = getattr(self.injector, "spec", None)
        horizon = max(self.policy.max_staleness,
                      getattr(spec, "max_injected_staleness", 0)) + 1
        self._state_history.append((version, state))
        del self._state_history[:-horizon]

    def _stale_state(self, current_version, staleness):
        wanted = current_version - int(staleness)
        for version, state in self._state_history:
            if version == wanted:
                return state
        return None

    # ------------------------------------------------------------------
    # Round loop
    # ------------------------------------------------------------------
    def run_round(self):
        """One FedAvg round over the fleet engine; returns the summary."""
        self.round_index += 1
        broadcast = self.server.broadcast()
        version = self.server.version
        self._remember_broadcast(version, broadcast)
        per_client = state_bytes(broadcast)
        rows = sample_clients(self.state, self.round_index,
                              self.client_fraction, policy=self.sampling,
                              seed=self.seed, min_battery=self.min_battery)
        decisions = decide_round(
            self.state, self.injector, self.policy, self.round_index,
            rows, client_ids=self.client_ids[rows],
            model_bytes=per_client, clock_start=self.clock.now,
            vectorized=self.vectorized)
        edges_sel = self.state.edge[rows]
        summary = edge_partition(decisions, edges_sel, self.topology,
                                 per_client,
                                 min_survivors=self.policy.min_quorum)
        # Survivors train for real — in ascending row order, so both
        # engines drive every client RNG stream identically.  A survivor
        # on a failed edge still trained (the edge discarded it after).
        updates, weights, update_edges = [], [], []
        for i in np.flatnonzero(decisions.survived):
            row = int(decisions.rows[i])
            lag = int(decisions.lag[i])
            train_state = broadcast
            if lag > 0:
                stale = self._stale_state(version, lag)
                if stale is not None:
                    train_state = stale
            new_state, count = self.clients[row].local_train(
                train_state, epochs=self.local_epochs,
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
