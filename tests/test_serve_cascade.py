"""Cascade correctness: the fleet's escalation gate cannot drift.

The speculative cascade answers from the Deep-Compression model and
escalates to the full model when the early-exit confidence gate fires.
These tests pin the two equivalences that make that trustworthy:

* **bit-identical decisions** — for every model in the registry, the
  fleet's escalation mask equals an eager reference that runs the same
  plan and calls :func:`repro.inference.earlyexit.exit_gate` directly
  (they share one gate implementation, so any divergence is a wiring
  bug);
* **answer regression** — the rows the cascade returns for escalated
  requests are bit-identical to serving the same payloads directly from
  the full model, and fast-exit rows are bit-identical to direct
  fast-model serving.
"""

import numpy as np
import pytest

from repro import nn
from repro.compression import DeepCompressionPipeline
from repro.faults import SimulatedClock
from repro.inference import exit_gate
from repro.nn import losses
from repro.optim import Adam
from repro.serve import (
    FleetServer,
    ModelRegistry,
    TenantConfig,
)
from repro.serve.server import VectorCollator
from repro.synth import make_digits
from repro.tensor import Tensor

THRESHOLD = 1.2
MAX_BATCH = 16


def _train(model, x, y, epochs=6, lr=0.02, seed=0):
    rng = np.random.default_rng(seed)
    optimizer = Adam(model.parameters(), lr=lr)
    for _ in range(epochs):
        order = rng.permutation(len(x))
        for start in range(0, len(x), 64):
            picks = order[start:start + 64]
            optimizer.zero_grad()
            losses.cross_entropy(model(Tensor(x[picks])), y[picks]).backward()
            optimizer.step()
    return model


@pytest.fixture(scope="module")
def fleet_setup():
    """A trained full model, its Deep-Compression plan, and the registry."""
    x, y = make_digits(600, seed=1)
    rng = np.random.default_rng(0)
    full = _train(nn.Sequential(
        nn.Linear(64, 48, rng=rng), nn.Tanh(),
        nn.Linear(48, 10, rng=rng)), x, y)
    compressed = _train(nn.Sequential(
        nn.Linear(64, 16, rng=rng), nn.Tanh(),
        nn.Linear(16, 10, rng=rng)), x, y, epochs=4)
    pipeline = DeepCompressionPipeline(compressed, prune_sparsity=0.6,
                                       quant_bits=5, retrain_epochs=2)
    pipeline.run((x, y), (x[:200], y[:200]))
    fast_plan = pipeline.serving_plan(x[:1])

    registry = ModelRegistry()
    registry.register("fast", fast_plan, VectorCollator(), [x[0]],
                      max_batch=MAX_BATCH)
    registry.register("full", full, VectorCollator(), [x[0]],
                      max_batch=MAX_BATCH)
    registry.add_cascade("cascade", "fast", "full", threshold=THRESHOLD)
    # Reverse route so the decision-equivalence test gates EVERY
    # registry model, not just the compressed one.
    registry.add_cascade("reverse", "full", "fast", threshold=THRESHOLD)
    registry.freeze()
    return registry, x[:64]


def serve_batch(registry, samples, route=None, model=None):
    """Serve ``samples`` in one dispatched batch; returns the tickets."""
    fleet = FleetServer(registry, [TenantConfig("t", rate=None)],
                        clock=SimulatedClock(), max_wait_ms=1e6,
                        service_model=lambda name, b: 0.001)
    tickets = [fleet.submit("t", s, route=route, model=model)
               for s in samples]
    fleet.flush()
    assert all(t.done for t in tickets)
    return fleet, tickets


class TestCascadeDecisions:
    @pytest.mark.parametrize("model_name", ["fast", "full"])
    def test_escalation_mask_bit_identical_to_eager_reference(
            self, fleet_setup, model_name):
        """Every registry model: fleet gating == plan logits + exit_gate."""
        registry, samples = fleet_setup
        # Route whose first stage is this model, so the gate runs on it.
        route_name = "cascade" if model_name == "fast" else "reverse"
        batch = samples[:MAX_BATCH]
        fleet, tickets = serve_batch(registry, batch, route=route_name)

        entry = registry.entries[model_name]
        logits = entry.plan.run(
            entry.collator.collate([entry.collator.validate(s)
                                    for s in batch], MAX_BATCH))
        reference = exit_gate(np.asarray(logits)[:len(batch)], THRESHOLD)
        fleet_mask = np.array([not t.escalated for t in tickets])
        np.testing.assert_array_equal(fleet_mask, reference.exit_mask)

    def test_gate_sees_exact_served_logits(self, fleet_setup):
        """The mask above is bit-identical, not approximately equal: the
        cascade gates the very rows the plan replay produced."""
        registry, samples = fleet_setup
        batch = samples[:MAX_BATCH]
        fleet, tickets = serve_batch(registry, batch, route="cascade")
        entry = registry.entries["fast"]
        rows = np.asarray(entry.plan.run(
            entry.collator.collate([entry.collator.validate(s)
                                    for s in batch], MAX_BATCH)))
        for index, ticket in enumerate(tickets):
            if not ticket.escalated:
                np.testing.assert_array_equal(ticket.result(), rows[index])

    def test_threshold_extremes(self, fleet_setup):
        registry, samples = fleet_setup
        entry = registry.entries["fast"]
        batch = entry.collator.collate(
            [entry.collator.validate(s) for s in samples[:8]], 8)
        logits = np.asarray(entry.plan.run(batch))
        assert exit_gate(logits, 1e9).exit_mask.all()
        assert not exit_gate(logits, 0.0).exit_mask.any()

    def test_some_exit_and_some_escalate(self, fleet_setup):
        """THRESHOLD was chosen so the soak exercises both paths."""
        registry, samples = fleet_setup
        _, tickets = serve_batch(registry, samples, route="cascade")
        escalated = sum(t.escalated for t in tickets)
        assert 0 < escalated < len(tickets)


class TestCascadeAnswers:
    def test_escalated_answers_equal_direct_full_serving(self, fleet_setup):
        registry, samples = fleet_setup
        _, cascade_tickets = serve_batch(registry, samples, route="cascade")
        escalated = [t for t in cascade_tickets if t.escalated]
        assert escalated
        entry = registry.entries["full"]
        from repro.serve.server import _bucket_size
        # Replay each full-model dispatch the fleet actually made with
        # the same batch composition; rows must match bit for bit.
        groups = {}
        for ticket in escalated:
            groups.setdefault(ticket.batch, []).append(ticket)
        for group in groups.values():
            group.sort(key=lambda t: t.slot)
            size = _bucket_size(len(group), MAX_BATCH)
            rows = np.asarray(entry.plan.run(
                entry.collator.collate([t.payload for t in group], size)))
            for index, ticket in enumerate(group):
                np.testing.assert_array_equal(ticket.result(), rows[index])

    def test_fast_exits_equal_direct_fast_serving(self, fleet_setup):
        registry, samples = fleet_setup
        _, cascade_tickets = serve_batch(registry, samples, route="cascade")
        _, direct_tickets = serve_batch(registry, samples, model="fast")
        for cascade_t, direct_t in zip(cascade_tickets, direct_tickets):
            if not cascade_t.escalated:
                np.testing.assert_array_equal(cascade_t.result(),
                                              direct_t.result())

    def test_escalated_tickets_keep_original_submit_time(self, fleet_setup):
        registry, samples = fleet_setup
        fleet, tickets = serve_batch(registry, samples, route="cascade")
        escalated = [t for t in tickets if t.escalated]
        fast_only = [t for t in tickets if not t.escalated]
        assert escalated and fast_only
        # Escalation pays two service legs on the simulated clock.
        assert min(t.latency for t in escalated) \
            > min(t.latency for t in fast_only)
        assert all(t.model == "full" for t in escalated)

    def test_cascade_metrics_account_every_path(self, fleet_setup):
        registry, samples = fleet_setup
        fleet, tickets = serve_batch(registry, samples, route="cascade")
        metrics = fleet.metrics()
        tenant = metrics["tenants"]["t"]
        escalated = sum(t.escalated for t in tickets)
        assert tenant["cascade_requests"] == len(tickets)
        assert tenant["cascade_escalated"] == escalated
        assert metrics["escalation_rate"] \
            == pytest.approx(escalated / len(tickets))
