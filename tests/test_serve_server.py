"""Dynamic batching: policy, bucketing, and per-request fault isolation.

A one-model, one-tenant, no-SLO :class:`~repro.serve.FleetServer` is the
plain dynamic batcher, and these tests pin its policy.  Batching must
never change an answer (padded batching + masks reproduce the
lone-request result), and one bad request must never poison its
batchmates — injected NaN corruption (via
:func:`repro.faults.corrupt_state`) fails exactly one ticket, malformed
payloads never enter a batch, and a batch-level crash falls back to
per-request execution.
"""

import numpy as np
import pytest

from repro import nn
from repro.analysis.sanitize import NumericError
from repro.core.model import MultiViewGRUClassifier
from repro.faults import SimulatedClock, corrupt_state
from repro.serve import (
    AdmissionError,
    FleetServer,
    ModelRegistry,
    TenantConfig,
)
from repro.serve.server import (
    MultiViewCollator,
    SequenceCollator,
    VectorCollator,
    _bucket_size,
)
from repro.tensor import Tensor, no_grad

FEATURES = 6


def _rng(seed=0):
    return np.random.default_rng(seed)


def _batcher(module, collator, examples, max_batch_size=4, max_wait_ms=2.0):
    """Freeze ``module`` into a one-model registry behind one tenant."""
    registry = ModelRegistry()
    registry.register("model", module, collator, examples,
                      max_batch=max_batch_size)
    registry.freeze()
    clock = SimulatedClock()
    fleet = FleetServer(registry, [TenantConfig("tenant")], clock=clock,
                        max_wait_ms=max_wait_ms)
    return fleet, clock


def _submit(fleet, payload):
    return fleet.submit("tenant", payload, model="model")


def _vector_server(max_batch_size=4, max_wait_ms=2.0, out=3):
    module = nn.Linear(FEATURES, out, rng=_rng(0))
    module.eval()
    fleet, clock = _batcher(module, VectorCollator(), [np.zeros(FEATURES)],
                            max_batch_size, max_wait_ms)
    return fleet, module, clock


def _eager_row(module, vector):
    module.eval()
    with no_grad():
        return module(Tensor(vector[None, :])).numpy()[0]


def _resolved(**counts):
    outcome = {"result": 0, "numeric_error": 0, "rejected": 0, "error": 0}
    outcome.update(counts)
    return outcome


class _FlakyPlan:
    """Wraps a plan: every multi-row replay crashes, and so does any
    replay whose first feature is ``poison``."""

    def __init__(self, plan, poison=None):
        self.plan = plan
        self.poison = poison
        self.batch_calls = 0

    def run(self, inputs, copy=True):
        if inputs.shape[0] > 1:
            self.batch_calls += 1
            raise RuntimeError("injected batch-level crash")
        if inputs[0, 0] == self.poison:
            raise RuntimeError("injected request crash")
        return self.plan.run(inputs, copy=copy)


def _fallback_events(server, submit):
    before = server.metrics()["fallbacks"]
    tickets = submit()
    return tickets, server.metrics()["fallbacks"] - before


def test_bucket_size_rounds_to_power_of_two():
    assert [_bucket_size(n, 8) for n in (1, 2, 3, 5, 8, 9)] == \
        [1, 2, 4, 8, 8, 8]


def test_full_bucket_flushes_at_submit():
    server, module, _ = _vector_server(max_batch_size=3)
    payloads = [_rng(i + 1).standard_normal(FEATURES) for i in range(3)]
    tickets = [_submit(server, p) for p in payloads]
    assert tickets[0].done and tickets[-1].done
    assert server.pending == 0
    assert server.metrics()["batches"] == 1
    for ticket, payload in zip(tickets, payloads):
        np.testing.assert_allclose(ticket.result(),
                                   _eager_row(module, payload), rtol=1e-7)


@pytest.mark.parametrize("max_batch", [3, 6])
def test_non_power_of_two_max_batch_replays_full_batches_whole(max_batch):
    """Every size a dispatch pads to is warm, max_batch included, so a
    full batch replays once instead of falling back row by row."""
    server, module, _ = _vector_server(max_batch_size=max_batch)
    entry = server.registry.entries["model"]
    assert entry.batch_sizes == {3: (1, 2, 3), 6: (1, 2, 4, 6)}[max_batch]
    replays = []

    class CountingPlan:
        def run(self, inputs, copy=True):
            replays.append(inputs.shape[0])
            return plan.run(inputs, copy=copy)

    plan, entry.plan = entry.plan, CountingPlan()
    payloads = [_rng(i + 1).standard_normal(FEATURES)
                for i in range(max_batch)]
    tickets, fallbacks = _fallback_events(
        server, lambda: [_submit(server, p) for p in payloads])
    assert fallbacks == 0
    assert replays == [max_batch]
    for ticket, payload in zip(tickets, payloads):
        np.testing.assert_allclose(ticket.result(),
                                   _eager_row(module, payload), rtol=1e-7)


def test_partial_bucket_waits_for_deadline():
    server, module, clock = _vector_server(max_batch_size=8, max_wait_ms=5.0)
    ticket = _submit(server, _rng(1).standard_normal(FEATURES))
    server.poll()
    assert not ticket.done and server.pending == 1
    clock.advance(0.004)
    server.poll()  # 4 ms < 5 ms: still waiting
    assert not ticket.done
    clock.advance(0.002)
    server.poll()  # 6 ms >= 5 ms: deadline flush
    assert ticket.done
    assert ticket.latency == pytest.approx(0.006)


def test_incompatible_requests_bucket_separately():
    module = nn.GRU(4, 5, rng=_rng(0))
    module.eval()
    # One warm example per length bucket the stream uses: 4 and 16.
    server, _ = _batcher(module, SequenceCollator(max_length=16),
                         [np.zeros((4, 4)), np.zeros((16, 4))],
                         max_batch_size=8)
    short = _rng(1).standard_normal((3, 4))   # buckets to length 4
    long = _rng(2).standard_normal((9, 4))    # buckets to length 16
    t_short, t_long = _submit(server, short), _submit(server, long)
    assert len(server._queues["model"]) == 2
    server.flush()
    # Padded batching must reproduce the lone, unpadded eager result.
    for ticket, seq in ((t_short, short), (t_long, long)):
        with no_grad():
            expected = module(Tensor(seq[None]), mask=None).numpy()[0]
        np.testing.assert_allclose(ticket.result(), expected,
                                   rtol=1e-7, atol=1e-9)


def test_same_bucket_mixed_lengths_match_lone_results():
    module = nn.GRU(4, 5, rng=_rng(0))
    module.eval()
    server, _ = _batcher(module, SequenceCollator(max_length=16),
                         [np.zeros((4, 4))], max_batch_size=2)
    seqs = [_rng(3).standard_normal((3, 4)), _rng(4).standard_normal((4, 4))]
    tickets = [_submit(server, s) for s in seqs]
    assert all(t.done for t in tickets)  # both bucket to length 4: one batch
    assert server.metrics()["batches"] == 1
    for ticket, seq in zip(tickets, seqs):
        with no_grad():
            expected = module(Tensor(seq[None]), mask=None).numpy()[0]
        np.testing.assert_allclose(ticket.result(), expected,
                                   rtol=1e-7, atol=1e-9)


def test_cold_bucket_is_refused_not_compiled():
    """A bucket no example warmed fails with AdmissionError: the frozen
    fleet never compiles a trace mid-request."""
    module = nn.GRU(4, 5, rng=_rng(0))
    module.eval()
    server, _ = _batcher(module, SequenceCollator(max_length=16),
                         [np.zeros((4, 4))], max_batch_size=2)
    plan = server.registry.entries["model"].plan
    compiled = plan.compile_count
    warm = _submit(server, _rng(1).standard_normal((3, 4)))
    cold = _submit(server, _rng(2).standard_normal((9, 4)))
    server.flush()
    assert warm.done and not warm.failed
    with pytest.raises(AdmissionError, match="not warmed"):
        cold.result()
    assert plan.compile_count == compiled


def test_malformed_payload_fails_alone_at_submit():
    server, module, _ = _vector_server(max_batch_size=4)
    bad = _submit(server, np.zeros((2, FEATURES)))  # 2-D, not a vector
    assert bad.done and bad.failed and not bad.rejected
    with pytest.raises(ValueError):
        bad.result()
    assert server.pending == 0  # never entered a queue
    good = [_submit(server, _rng(i + 1).standard_normal(FEATURES))
            for i in range(4)]
    assert all(t.done and not t.failed for t in good)
    assert server.metrics()["resolved"] == _resolved(result=4, error=1)


def test_nan_corruption_fails_only_the_corrupted_request():
    server, module, _ = _vector_server(max_batch_size=3)
    payloads = [_rng(i + 1).standard_normal(FEATURES) for i in range(3)]
    # Reuse the federated stack's fault injection: NaN-splatter one payload.
    payloads[1] = corrupt_state({"x": payloads[1]}, _rng(9), fraction=0.3)["x"]
    tickets, fallbacks = _fallback_events(
        server, lambda: [_submit(server, p) for p in payloads])
    # NaN rows are isolated by the per-row check, not by a fallback.
    assert fallbacks == 0
    assert all(t.done for t in tickets)
    assert tickets[1].failed
    with pytest.raises(NumericError):
        tickets[1].result()
    for index in (0, 2):
        assert not tickets[index].failed
        np.testing.assert_allclose(tickets[index].result(),
                                   _eager_row(module, payloads[index]),
                                   rtol=1e-7)
    assert server.metrics()["resolved"] == _resolved(result=2,
                                                     numeric_error=1)


def test_batch_failure_falls_back_to_individual_requests():
    server, module, _ = _vector_server(max_batch_size=2)
    entry = server.registry.entries["model"]
    entry.plan = _FlakyPlan(entry.plan)
    payloads = [_rng(i + 1).standard_normal(FEATURES) for i in range(2)]
    tickets, fallbacks = _fallback_events(
        server, lambda: [_submit(server, p) for p in payloads])
    assert fallbacks == 1
    assert entry.plan.batch_calls == 1
    for ticket, payload in zip(tickets, payloads):
        assert not ticket.failed
        np.testing.assert_allclose(ticket.result(),
                                   _eager_row(module, payload), rtol=1e-7)
    assert server.metrics()["resolved"] == _resolved(result=2)


def test_fallback_fails_only_the_bad_requests():
    """After a batch crash, each request's own outcome is kept apart: a
    request that crashes alone and a NaN request fail, their batchmates
    are answered, and every ticket is counted once."""
    poison = 1e3
    server, module, _ = _vector_server(max_batch_size=4)
    entry = server.registry.entries["model"]
    entry.plan = _FlakyPlan(entry.plan, poison=poison)
    good = _rng(1).standard_normal(FEATURES)
    crashing = np.full(FEATURES, poison)
    corrupt = corrupt_state({"x": _rng(2).standard_normal(FEATURES)},
                            _rng(9), fraction=0.3)["x"]
    tickets, fallbacks = _fallback_events(
        server, lambda: [_submit(server, p)
                 for p in (good, crashing, corrupt, good)])
    assert fallbacks == 1
    assert entry.plan.batch_calls == 1
    with pytest.raises(RuntimeError, match="injected request crash"):
        tickets[1].result()
    with pytest.raises(NumericError):
        tickets[2].result()
    for index in (0, 3):
        np.testing.assert_allclose(tickets[index].result(),
                                   _eager_row(module, good), rtol=1e-7)
    assert server.metrics()["resolved"] == _resolved(
        result=2, numeric_error=1, error=1)


def test_latency_is_recorded_per_request():
    server, _, clock = _vector_server(max_batch_size=8, max_wait_ms=1.0)
    first = _submit(server, _rng(1).standard_normal(FEATURES))
    clock.advance(0.0005)
    second = _submit(server, _rng(2).standard_normal(FEATURES))
    clock.advance(0.0006)
    server.poll()
    assert first.latency == pytest.approx(0.0011)
    assert second.latency == pytest.approx(0.0006)
    metrics = server.metrics()
    assert sum(metrics["resolved"].values()) == 2
    assert metrics["tenants"]["tenant"]["p50_latency_s"] == \
        pytest.approx(0.00085)


def test_multiview_requests_served_end_to_end():
    view_dims = (4, 6, 3)
    model = MultiViewGRUClassifier(view_dims, hidden_size=8, fusion="mvm",
                                   fusion_units=4, seed=5)
    model.eval()
    collator = MultiViewCollator(view_dims, max_length=16)
    # View j of every request has 3 + j steps: one (4, 4, 8) bucket.
    example = [np.zeros((3 + j, d)) for j, d in enumerate(view_dims)]
    server, _ = _batcher(model, collator, [example], max_batch_size=2)
    requests = [
        [_rng(10 + i * 3 + j).standard_normal((3 + j, d))
         for j, d in enumerate(view_dims)]
        for i in range(2)
    ]
    tickets = [_submit(server, r) for r in requests]
    assert all(t.done for t in tickets)
    for ticket, views in zip(tickets, requests):
        with no_grad():
            expected = model(collator.collate([views], 1)).numpy()[0]
        np.testing.assert_allclose(ticket.result(), expected,
                                   rtol=1e-7, atol=1e-9)


def test_unpolled_requests_stay_pending():
    server, _, clock = _vector_server(max_batch_size=8, max_wait_ms=2.0)
    ticket = _submit(server, _rng(1).standard_normal(FEATURES))
    clock.advance(1.0)  # way past the deadline, but nobody polled
    assert not ticket.done and server.pending == 1
    with pytest.raises(RuntimeError):
        ticket.result()
    server.flush()
    assert ticket.done


def test_overlong_view_fails_alone_at_submit(monkeypatch):
    """A view longer than max_length is refused at submit, as a plain
    sequence is, so it never reaches collation and its batchmates are
    served in one replay without a fallback."""
    view_dims = (4, 3)
    model = MultiViewGRUClassifier(view_dims, hidden_size=6, fusion="fc",
                                   fusion_units=4, seed=5)
    model.eval()
    collator = MultiViewCollator(view_dims, max_length=16)
    server, _ = _batcher(model, collator,
                         [[np.zeros((12, d)) for d in view_dims]],
                         max_batch_size=4)
    plan = server.registry.entries["model"].plan
    replays = []
    run = plan.run

    def counting_run(inputs, copy=True):
        replays.append(inputs[0][0].shape[0])
        return run(inputs, copy=copy)

    monkeypatch.setattr(plan, "run", counting_run)
    good = [[_rng(20 + i * 2 + j).standard_normal((12, d))
             for j, d in enumerate(view_dims)] for i in range(3)]
    overlong = [_rng(30).standard_normal((20, 4)),
                _rng(31).standard_normal((12, 3))]

    def submit_all():
        tickets = [_submit(server, views) for views in good + [overlong]]
        server.flush()
        return tickets

    tickets, fallbacks = _fallback_events(server, submit_all)
    bad = tickets[-1]
    assert bad.done and bad.failed
    with pytest.raises(ValueError, match="exceeds max_length 16"):
        bad.result()
    assert fallbacks == 0
    assert replays == [4]  # the three good requests, padded to one batch
    for ticket, views in zip(tickets[:-1], good):
        with no_grad():
            expected = model(collator.collate([views], 1)).numpy()[0]
        np.testing.assert_allclose(ticket.result(), expected,
                                   rtol=1e-7, atol=1e-9)
