"""Happens-before analysis of the shared-memory training protocol.

:class:`~repro.train.parallel.ParallelTrainer` coordinates a parent and
``N`` worker processes over two shared slabs: a parameter slab every
worker reads and a gradient slab each worker writes one row of.  The
protocol's only cross-process ordering comes from the pipe messages
(parent publishes params then sends the shard → worker reads; worker
writes its gradient row then acks → parent receives) plus each actor's
program order.  :func:`parallel_trainer_model` builds exactly that
event graph over the byte segments from
:func:`~repro.train.parallel.shared_slab_layout`, and
:func:`find_races` reports every conflicting access pair the
happens-before relation leaves unordered.

:func:`audit_parallel_trainer` additionally cross-checks the modeled
layout against live numpy arrays shaped like the real slabs (row
disjointness and coverage via byte bounds), so the model cannot drift
from the code.

:func:`audit_server_isolation` is dynamic: it drives the serving
runtime, a :class:`~repro.serve.fleet.FleetServer` over a frozen,
slot-colored registry, and verifies each ticket's result is numerically
correct and owns its memory — no aliasing with other tickets or with
any warm trace's reused output buffer.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .extract import byte_bounds
from .ir import Violation

__all__ = [
    "Event",
    "HBGraph",
    "find_races",
    "parallel_trainer_model",
    "audit_parallel_trainer",
    "audit_server_isolation",
]


class Event:
    """One protocol action: an actor touching byte segments.

    Segments are ``(slab, lo, hi)`` triples; events in different slabs
    never conflict.
    """

    __slots__ = ("index", "actor", "label", "reads", "writes")

    def __init__(self, index, actor, label, reads, writes):
        self.index = index
        self.actor = actor
        self.label = label
        self.reads = tuple(reads)
        self.writes = tuple(writes)

    def __repr__(self):
        return "Event({}, {}:{})".format(self.index, self.actor, self.label)


class HBGraph:
    """Events plus happens-before edges; program order is implicit."""

    def __init__(self):
        self.events = []
        self._edges = {}     # index -> set of successor indices
        self._last_of = {}   # actor -> most recent event index

    def event(self, actor, label, reads=(), writes=()):
        node = Event(len(self.events), actor, label, reads, writes)
        self.events.append(node)
        self._edges[node.index] = set()
        prev = self._last_of.get(actor)
        if prev is not None:
            self._edges[prev].add(node.index)
        self._last_of[actor] = node.index
        return node

    def edge(self, before, after):
        """Add a cross-actor ordering edge (a pipe message)."""
        self._edges[before.index].add(after.index)

    def happens_before(self):
        """Transitive closure: list of reachable-successor sets."""
        n = len(self.events)
        closure = [set() for _ in range(n)]
        # Events only point forward (edges are added as the trace is
        # built), so a reverse sweep lets each node reuse the closures
        # of its successors.
        for start in range(n - 1, -1, -1):
            reach = closure[start]
            queue = deque(self._edges[start])
            while queue:
                nxt = queue.popleft()
                if nxt in reach:
                    continue
                reach.add(nxt)
                reach |= closure[nxt]
        return closure


def _segments_conflict(a, b):
    return a[0] == b[0] and a[1] < b[2] and b[1] < a[2]


def _events_conflict(a, b):
    for seg_a in a.writes:
        for seg_b in b.reads + b.writes:
            if _segments_conflict(seg_a, seg_b):
                return True
    for seg_a in a.reads:
        for seg_b in b.writes:
            if _segments_conflict(seg_a, seg_b):
                return True
    return False


def find_races(graph, case=None):
    """Conflicting cross-actor event pairs left unordered by HB."""
    closure = graph.happens_before()
    violations = []
    events = graph.events
    for a in events:
        for b in events[a.index + 1:]:
            if a.actor == b.actor:
                continue
            if not _events_conflict(a, b):
                continue
            if b.index in closure[a.index] or a.index in closure[b.index]:
                continue
            violations.append(Violation(
                "race",
                "unordered conflicting accesses: {} {!r} vs {} "
                "{!r}".format(a.actor, a.label, b.actor, b.label),
                case=case,
            ))
    return violations


def parallel_trainer_model(workers, flat_size=8, itemsize=8,
                           drop_ack_edges=False, overlap_rows=False):
    """HB graph of one ``ParallelTrainer.step()`` plus the next publish.

    ``drop_ack_edges`` removes the gradient-write → ack-receive ordering
    (a parent that reduces without waiting); ``overlap_rows`` widens
    each gradient row into its neighbour.  Both are negative-test knobs
    that must make :func:`find_races` fire.
    """
    from ...train.parallel import shared_slab_layout

    params_seg, grad_rows = shared_slab_layout(workers, flat_size, itemsize)
    _, p_lo, p_hi = params_seg
    param_seg = ("param_slab", p_lo, p_hi)
    grad_segs = []
    for index, (_, lo, hi) in enumerate(grad_rows):
        if overlap_rows and index + 1 < len(grad_rows):
            hi += itemsize
        grad_segs.append(("grad_slab", lo, hi))

    graph = HBGraph()
    publish = graph.event("parent", "publish params", writes=[param_seg])
    acks = []
    for index in range(workers):
        worker = "worker[{}]".format(index)
        send = graph.event("parent", "send shard[{}]".format(index))
        read = graph.event(worker, "read params", reads=[param_seg])
        graph.edge(send, read)
        grad = graph.event(worker, "write grads[{}]".format(index),
                           writes=[grad_segs[index]])
        acks.append((graph.event(worker, "send ack"), grad))
    for index, (ack, _) in enumerate(acks):
        recv = graph.event("parent", "recv ack[{}]".format(index))
        if not drop_ack_edges:
            graph.edge(ack, recv)
    graph.event("parent", "reduce grads", reads=list(grad_segs))
    graph.event("parent", "publish params (next step)",
                writes=[param_seg])
    del publish
    return graph


def audit_parallel_trainer(workers=3, flat_size=17, itemsize=8, case=None):
    """Race-check the trainer protocol and validate the slab layout.

    The layout check instantiates arrays shaped exactly like the real
    shared slabs (a flat param vector and a ``(workers, flat_size)``
    gradient matrix) and verifies, via byte bounds, that the modeled
    gradient rows are pairwise disjoint and tile the slab — the same
    invariant the fixed-order reduction relies on.
    """
    from ...train.parallel import shared_slab_layout

    case = case or "parallel-trainer"
    violations = find_races(
        parallel_trainer_model(workers, flat_size, itemsize), case=case)

    dtype = np.dtype("f8") if itemsize == 8 else np.dtype("f4")
    grads = np.zeros((workers, flat_size), dtype)
    params = np.zeros(flat_size, dtype)
    params_seg, grad_rows = shared_slab_layout(workers, flat_size,
                                               dtype.itemsize)
    slab_lo, slab_hi = byte_bounds(grads)
    if params_seg[2] - params_seg[1] != params.nbytes:
        violations.append(Violation(
            "layout",
            "modeled param segment is {} bytes but the slab holds "
            "{}".format(params_seg[2] - params_seg[1], params.nbytes),
            case=case,
        ))
    covered = 0
    for index, (name, lo, hi) in enumerate(grad_rows):
        row_lo, row_hi = byte_bounds(grads[index])
        if (row_lo - slab_lo, row_hi - slab_lo) != (lo, hi):
            violations.append(Violation(
                "layout",
                "modeled segment {!r} [{}, {}) does not match the live "
                "row at [{}, {})".format(name, lo, hi, row_lo - slab_lo,
                                         row_hi - slab_lo),
                case=case,
            ))
        covered += hi - lo
    if covered != slab_hi - slab_lo:
        violations.append(Violation(
            "layout",
            "gradient rows cover {} of {} slab bytes".format(
                covered, slab_hi - slab_lo),
            case=case,
        ))
    return violations


def audit_server_isolation(case=None):
    """Drive the serving fleet; check per-ticket memory isolation.

    A one-model, one-tenant registry is frozen, so its traces are
    audited and slot-colored over the shared arena pool.  More vectors
    than one batch holds are then submitted (so both the batch-full and
    the deadline flush run, at two batch sizes), and every ticket's
    result row must be numerically correct and share no memory with any
    other ticket's result or with the output buffer of any warm trace:
    the fleet reads each replay via ``run(copy=False)``, and pooled
    traces lease the same arena slabs.
    """
    from ... import nn
    from ...faults import SimulatedClock
    from ...serve.fleet import FleetServer, ModelRegistry, TenantConfig
    from ...serve.plan import _call_eager, _strip_output
    from ...serve.server import VectorCollator

    case = case or "server-isolation"
    rng = np.random.default_rng(7)
    model = nn.Sequential(nn.Linear(6, 4, rng=rng), nn.Tanh())
    model.train(False)
    registry = ModelRegistry()
    entry = registry.register("model", model, VectorCollator(),
                              [np.zeros(6)], max_batch=4)
    registry.freeze()
    clock = SimulatedClock()
    fleet = FleetServer(registry, [TenantConfig("tenant")], clock=clock,
                        max_wait_ms=1.0)

    payloads = [rng.standard_normal(6) for _ in range(9)]
    tickets = [fleet.submit("tenant", p, model="model") for p in payloads]
    clock.advance(0.01)
    fleet.poll()
    fleet.flush()

    violations = []
    results = []
    for index, ticket in enumerate(tickets):
        if not ticket.done:
            violations.append(Violation(
                "isolation",
                "ticket {} never resolved".format(index), case=case))
            continue
        results.append((index, ticket.result()))

    outputs = [trace.output for trace in entry.plan._traces.values()]
    for index, row in results:
        expected = _strip_output(
            _call_eager(model, payloads[index][None, :]))[0]
        if not np.allclose(row, expected, rtol=1e-10, atol=1e-12):
            violations.append(Violation(
                "isolation",
                "ticket {} result differs from the eager model".format(
                    index),
                case=case,
            ))
        if any(np.shares_memory(row, output) for output in outputs):
            violations.append(Violation(
                "isolation",
                "ticket {} result aliases a warm trace's reused output "
                "buffer".format(index),
                case=case,
            ))
    for pos, (index_a, row_a) in enumerate(results):
        for index_b, row_b in results[pos + 1:]:
            if np.shares_memory(row_a, row_b):
                violations.append(Violation(
                    "isolation",
                    "tickets {} and {} share result memory".format(
                        index_a, index_b),
                    case=case,
                ))
    return violations
