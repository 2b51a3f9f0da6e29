"""Replay-certified scenarios and the injectable nondeterminism mutants.

Three end-to-end scenarios exercise the stochastic subsystems the paper
cares about — federated training under chaos, DP-SGD, and the serving
fleet under open-loop load.  Each is written against the dual-replay
contract (:mod:`.replay`): units execute in the **perturbed** order the
harness dictates, but events are recorded and aggregates folded in
**canonical** order, so a clean scenario fingerprints identically under
both runs and any divergence is a genuine determinism bug.

The ``MUTANTS`` table injects one representative bug per class the
auditor must catch; each flips the federated scenario into a buggy
variant whose first divergent event the bisector then pins down:

* ``shared-stream`` — every client samples batches from one shared
  generator, so executing clients in a different order changes every
  client's draws;
* ``wall-clock`` — the simulated clock is advanced by a read of
  ``time.time()``, leaking real time into the simulated timeline;
* ``unordered-iter`` — the round's participation trace and aggregation
  fold clients in dict-insertion (= execution) order instead of
  canonical order;
* ``unseeded-rng`` — one client's generator comes from
  ``default_rng()`` (OS entropy), so no two runs agree.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["SCENARIOS", "MUTANTS", "federated_chaos_round", "dpsgd_run",
           "fleet_soak"]


def _model_fn():
    from ... import nn

    # A fresh, identically initialized model per call: the factory owns
    # its seed so client/server copies never share parameter entropy.
    rng = np.random.default_rng(3)
    return nn.Sequential(nn.Linear(64, 16, rng=rng), nn.ReLU(),
                         nn.Linear(16, 10, rng=rng))


def federated_chaos_round(mutant=None):
    """Two FedAvg rounds, four clients, chaos faults; optionally buggy."""

    def scenario(log, perturbation):
        from ...data import ArrayDataset
        from ...faults import FaultInjector, FaultSpec, SimulatedClock
        from ...federated import FederatedClient, ParameterServer
        from ...federated.server import update_is_corrupt
        from ...rng import derive_rng
        from ...synth import iid_partition, make_digits

        features, labels = make_digits(96, seed=5)
        parts = iid_partition(len(labels), 4, seed=21)
        clients = []
        for client_id in range(4):
            shard = ArrayDataset(features[parts[client_id]],
                                 labels[parts[client_id]])
            client = FederatedClient(client_id, shard, _model_fn, seed=11)
            clients.append(client)
        if mutant == "shared-stream":
            shared = derive_rng(11, "fed-client", 0)
            for client in clients:
                client.rng = shared
        elif mutant == "unseeded-rng":
            clients[2].rng = np.random.default_rng()  # repro-lint: allow[det-unseeded-rng] the mutant the auditor must catch
        injector = FaultInjector(
            FaultSpec(dropout_rate=0.2, straggler_rate=0.3,
                      straggler_scale=3.0, corruption_rate=0.15),
            seed=7)
        clock = SimulatedClock()
        server = ParameterServer(_model_fn)
        for round_index in range(2):
            state = server.broadcast()
            results = {}
            slowest = 1.0
            for client in perturbation.order(clients):
                client_id = client.client_id
                if injector.drops_out(round_index, client_id):
                    results[client_id] = None
                    continue
                new_state, count = client.local_train(
                    state, epochs=1, batch_size=16, lr=0.05)
                if injector.corrupts(round_index, client_id):
                    new_state = injector.corrupt(new_state, round_index,
                                                 client_id)
                slowest = max(slowest, injector.straggler_factor(
                    round_index, client_id))
                results[client_id] = (new_state, count)
            if mutant == "unordered-iter":
                # The bug: fold participants in dict-insertion order,
                # i.e. whatever order the scheduler happened to run.
                ordered_ids = list(results)
            else:
                ordered_ids = sorted(results)
            for client_id in ordered_ids:
                outcome = results[client_id]
                log.record(
                    "federated.client",
                    "round{}/client{}".format(round_index, client_id),
                    "dropped" if outcome is None else outcome[0],
                    provenance=("rng:fed-client", "rng:faults-oracle"))
            survivors = [
                client_id for client_id in ordered_ids
                if results[client_id] is not None
                and not update_is_corrupt(results[client_id][0])
            ]
            if survivors:
                server.average_states(
                    [results[client_id][0] for client_id in survivors],
                    [results[client_id][1] for client_id in survivors])
            if mutant == "wall-clock":
                # The bug: real time leaks into the simulated timeline.
                clock.advance(time.time() % 60.0)  # repro-lint: allow[det-wall-clock] the mutant the auditor must catch
            else:
                clock.advance(30.0 * slowest)
            log.record(
                "federated.server",
                "round{}/aggregate".format(round_index),
                server.state, server.version, clock.now,
                ",".join(str(c) for c in survivors),
                provenance=("rng:fed-client", "rng:faults-oracle",
                            "clock:SimulatedClock"))

    return scenario


def dpsgd_run(mutant=None):
    """Four DP-SGD steps with accounting; fingerprints params + epsilon."""
    del mutant  # the mutant classes live in the federated scenario

    def scenario(log, perturbation):
        del perturbation  # sequential algorithm: no unit reordering
        from ...privacy import DPSGDTrainer
        from ...synth import make_digits

        features, labels = make_digits(80, seed=9)
        trainer = DPSGDTrainer(_model_fn(), lr=0.2, clip_norm=1.0,
                               noise_multiplier=0.8, lot_size=16, seed=13)
        for step in range(4):
            trainer.step(features, labels)
            log.record(
                "privacy.dpsgd", "step{}".format(step),
                [param.data for param in trainer.model.parameters()],
                provenance=("rng:dpsgd(spawned)",))
        epsilon = trainer.accountant.spent(1e-5)
        log.record("privacy.dpsgd", "certificate", float(epsilon), 1e-5,
                   provenance=("rng:dpsgd(spawned)",))

    return scenario


def fleet_soak(mutant=None):
    """~200 open-loop requests against a two-model fleet with a cascade."""
    del mutant

    def scenario(log, perturbation):
        del perturbation  # arrival schedule is canonical; axes: clock+global
        from ... import nn
        from ...faults import FaultInjector, FaultSpec, SimulatedClock
        from ...serve import FleetServer, ModelRegistry, TenantConfig
        from ...serve.server import VectorCollator
        from ...serve.traffic import (OpenLoopTraffic, TenantLoad,
                                      TrafficSpec, run_soak)

        def make_model(hidden, seed):
            rng = np.random.default_rng(seed)
            return nn.Sequential(nn.Linear(12, hidden, rng=rng), nn.Tanh(),
                                 nn.Linear(hidden, 4, rng=rng))

        registry = ModelRegistry()
        example = np.random.default_rng(99).normal(size=12)
        registry.register("fast", make_model(8, seed=1), VectorCollator(),
                          [example], max_batch=8)
        registry.register("full", make_model(32, seed=2), VectorCollator(),
                          [example], max_batch=8)
        registry.add_cascade("cascade", "fast", "full", threshold=1.0)
        registry.freeze()
        clock = SimulatedClock()
        fleet = FleetServer(
            registry,
            [TenantConfig("mobile", priority=0, rate=250.0, burst=50,
                          slo_s=0.050),
             TenantConfig("batch", priority=2, rate=150.0, burst=30),
             TenantConfig("partner", priority=1, rate=None, max_queue=64)],
            clock=clock, max_wait_ms=5.0,
            service_model=lambda name, b: (0.0004 if name == "fast"
                                           else 0.0008) * b)
        injector = FaultInjector(
            FaultSpec(straggler_rate=0.05, straggler_scale=3.0,
                      corruption_rate=0.02), seed=43)
        traffic = OpenLoopTraffic(
            TrafficSpec(base_rate=80.0, diurnal_amplitude=0.5, period_s=4.0,
                        burst_rate=0.5, burst_size=6, slow_upload_s=0.003),
            [TenantLoad("mobile", 2.0, route="cascade"),
             TenantLoad("batch", 1.0, model="full"),
             TenantLoad("partner", 1.0, model="fast")],
            seed=42, injector=injector)
        arrivals = traffic.arrivals(2.5)
        payloads = np.random.default_rng(44).normal(
            size=(len(arrivals), 12))
        index_of = {id(a): i for i, a in enumerate(arrivals)}
        tickets = run_soak(fleet, arrivals,
                           lambda a: payloads[index_of[id(a)]],
                           clock, injector=injector)
        for start in range(0, len(tickets), 32):
            chunk = []
            for ticket in tickets[start:start + 32]:
                if ticket.rejected:
                    chunk.append(("rejected", ticket.tenant))
                elif ticket.failed:
                    chunk.append((type(ticket._error).__name__,
                                  ticket.tenant))
                else:
                    chunk.append(("result", ticket.tenant, ticket.model,
                                  ticket.escalated, ticket._result,
                                  round(ticket.latency, 12)))
            log.record("serve.fleet", "tickets[{}:{}]".format(
                start, start + 32), chunk,
                provenance=("rng:serve-traffic", "rng:faults-oracle",
                            "clock:SimulatedClock"))
        log.record("serve.fleet", "summary", len(tickets), clock.now,
                   provenance=("rng:serve-traffic",
                               "clock:SimulatedClock"))

    return scenario


SCENARIOS = {
    "federated-chaos-round": federated_chaos_round,
    "dpsgd-run": dpsgd_run,
    "fleet-soak": fleet_soak,
}

# Every mutant class the ISSUE's acceptance bar names, injected into the
# federated scenario (the one that exercises all three perturbation
# axes).
MUTANTS = ("shared-stream", "wall-clock", "unordered-iter", "unseeded-rng")
