"""Serving-runtime benchmark: eager vs compiled plan vs plan + batching.

The workload is the DeepMood GRU classifier the paper serves on-device
(three typing-dynamics views, MVM fusion): a stream of single requests
with variable sequence lengths, exactly what the dynamic batcher was
built for.  Three strategies serve the same stream:

* **eager** — one autodiff-engine forward per request (the seed path);
* **plan** — one compiled-:class:`repro.serve.Plan` replay per request
  (no graph, no allocations, still batch size 1);
* **plan+batching** — requests coalesced by a one-model, one-tenant
  :class:`~repro.serve.FleetServer` into padded buckets of up to 8.

Asserts the acceptance bar — plan+batching at least 3x the eager
throughput — and the arena contract: zero new serving allocations after
warm-up.  ``make bench-record`` writes the results (throughput, p50/p99
per-request latency) to ``BENCH_serving.json`` at the repo root.
"""

import pathlib
import time

import numpy as np
import pytest

from conftest import record_results

from repro import nn, profiler
from repro.core.model import MultiViewGRUClassifier
from repro.faults import FaultInjector, FaultSpec, SimulatedClock
from repro.serve import (
    FleetServer,
    ModelRegistry,
    OpenLoopTraffic,
    TenantConfig,
    TenantLoad,
    TrafficSpec,
    compile_plan,
    run_soak,
)
from repro.serve.server import MultiViewCollator, VectorCollator
from repro.tensor import Tensor, no_grad

RESULTS_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_serving.json"

VIEW_DIMS = (4, 6, 3)
HIDDEN = 16
FUSION_UNITS = 8
REQUESTS = 64
MAX_BATCH = 8
REPS = 3

FLEET_FEATURES = 64
FLEET_CLASSES = 10
FLEET_REQUESTS = 2000

_results = {}
_coloring = {}
_fleet = {}


@pytest.fixture(scope="module")
def workload():
    model = MultiViewGRUClassifier(VIEW_DIMS, hidden_size=HIDDEN,
                                   fusion="mvm", fusion_units=FUSION_UNITS,
                                   seed=0)
    model.eval()
    rng = np.random.default_rng(1)
    requests = []
    for _ in range(REQUESTS):
        steps = int(rng.integers(5, 9))  # all bucket to padded length 8
        requests.append([rng.standard_normal((steps, dim))
                         for dim in VIEW_DIMS])
    return model, requests


@pytest.fixture(scope="module", autouse=True)
def write_results():
    yield
    if _results:
        payload = {
            "workload": {
                "model": "MultiViewGRUClassifier(view_dims={}, hidden={}, "
                         "fusion='mvm', fusion_units={})".format(
                             VIEW_DIMS, HIDDEN, FUSION_UNITS),
                "requests": REQUESTS,
                "max_batch_size": MAX_BATCH,
                "timing": "best of {} passes over the stream; latencies "
                          "from the best pass, seconds".format(REPS),
            },
            "strategies": _results,
        }
        if "eager" in _results and "plan_batched" in _results:
            payload["speedup_plan_batched_vs_eager"] = round(
                _results["eager"]["total_s"]
                / _results["plan_batched"]["total_s"], 2)
        if _coloring:
            payload["arena_slot_coloring"] = dict(_coloring)
        if _fleet:
            payload["fleet"] = dict(_fleet)
        record_results(RESULTS_PATH, payload)


def _record(name, total, latencies):
    ordered = np.sort(np.asarray(latencies))
    _results[name] = {
        "total_s": round(float(total), 6),
        "requests_per_s": round(REQUESTS / float(total), 1),
        "p50_latency_s": round(float(np.percentile(ordered, 50)), 6),
        "p99_latency_s": round(float(np.percentile(ordered, 99)), 6),
    }


def _batcher(model, collator, example):
    """A one-tenant fleet over a frozen one-model registry.

    Freezing warms every batch-size trace of ``example``'s bucket, so
    serving the stream never compiles.
    """
    registry = ModelRegistry()
    registry.register("deepmood", model, collator, [example],
                      max_batch=MAX_BATCH)
    registry.freeze()
    return FleetServer(registry, [TenantConfig("stream")], max_wait_ms=2.0)


def _serve(fleet, requests):
    tickets = [fleet.submit("stream", views, model="deepmood")
               for views in requests]
    fleet.flush()
    return tickets


def _arena_state(registry):
    """What a replay that traced or allocated would change."""
    return registry.arena_bytes(), [
        entry.plan.compile_count for entry in registry.entries.values()]


def _best_pass(serve_stream):
    """Run the stream REPS times; keep the fastest pass's numbers."""
    best_total, best_latencies = float("inf"), None
    for _ in range(REPS):
        total, latencies = serve_stream()
        if total < best_total:
            best_total, best_latencies = total, latencies
    return best_total, best_latencies


def test_serving_strategies(workload):
    model, requests = workload
    collator = MultiViewCollator(VIEW_DIMS, max_length=8)

    # -- eager: one engine forward per request -------------------------
    def eager_stream():
        latencies = []
        start = time.perf_counter()
        for views in requests:
            t0 = time.perf_counter()
            with no_grad():
                model(collator.collate([views], 1))
            latencies.append(time.perf_counter() - t0)
        return time.perf_counter() - start, latencies

    eager_total, eager_latencies = _best_pass(eager_stream)
    _record("eager", eager_total, eager_latencies)

    # -- plan: compiled replay, still one request at a time ------------
    plan = compile_plan(model, collator.collate([requests[0]], 1))

    def plan_stream():
        latencies = []
        start = time.perf_counter()
        for views in requests:
            t0 = time.perf_counter()
            plan.run(collator.collate([views], 1), copy=False)
            latencies.append(time.perf_counter() - t0)
        return time.perf_counter() - start, latencies

    plan_total, plan_latencies = _best_pass(plan_stream)
    _record("plan", plan_total, plan_latencies)

    # -- plan + dynamic batching ---------------------------------------
    fleet = _batcher(model, collator, requests[0])

    def batched_stream():
        start = time.perf_counter()
        tickets = _serve(fleet, requests)
        total = time.perf_counter() - start
        assert all(t.done and not t.failed for t in tickets)
        return total, [t.latency for t in tickets]

    batched_total, batched_latencies = _best_pass(batched_stream)
    _record("plan_batched", batched_total, batched_latencies)

    speedup = eager_total / batched_total
    print("\nserving: eager {:.1f} req/s, plan {:.1f} req/s, "
          "plan+batching {:.1f} req/s ({:.1f}x eager)".format(
              REQUESTS / eager_total, REQUESTS / plan_total,
              REQUESTS / batched_total, speedup))
    assert plan_total < eager_total, "compiled replay slower than eager"
    assert speedup >= 3.0, (
        "plan+batching must be >= 3x eager throughput, got {:.2f}x".format(
            speedup))


def test_no_serving_allocations_after_warmup(workload):
    model, requests = workload
    collator = MultiViewCollator(VIEW_DIMS, max_length=8)
    # Warm-up: the registry freeze traces every bucket shape the stream
    # will produce.
    fleet = _batcher(model, collator, requests[0])
    frozen = _arena_state(fleet.registry)
    profiler.reset()
    with profiler.profile():
        tickets = _serve(fleet, requests)
    stats = profiler.get_stats()
    profiler.reset()
    assert all(t.done and not t.failed for t in tickets)
    assert _arena_state(fleet.registry) == frozen, \
        "serving traced or allocated arena buffers after warm-up"
    assert not stats["ops"], "serving routed work through the autodiff engine"
    assert all(t.latency is not None for t in tickets)
    assert sum(fleet.metrics()["resolved"].values()) == REQUESTS


def test_arena_slot_coloring(workload):
    """Audit + color the batched serving plan; record the arena shrink.

    The acceptance bar: liveness-driven slot reuse frees at least 25%
    of the frozen arena on the DeepMood multi-view plan, the audit
    finds no violations, and the colored replay stays zero-alloc and
    bit-identical.
    """
    from repro.analysis.plans import color_plan, extract_plan_ir

    model, requests = workload
    collator = MultiViewCollator(VIEW_DIMS, max_length=8)
    batch = collator.collate([requests[0]] * MAX_BATCH, MAX_BATCH)
    plan = compile_plan(model, batch)
    reference = np.array(plan.run(batch), copy=True)

    ir, violations = extract_plan_ir(plan, batch)
    assert violations == [], violations
    report = color_plan(plan, batch, ir)
    assert report.reduction >= 0.25, report

    before = (plan.compile_count, plan.arena_nbytes)
    colored = plan.run(batch, copy=False)
    np.testing.assert_array_equal(reference, np.asarray(colored))
    assert (plan.compile_count, plan.arena_nbytes) == before, \
        "colored replay traced again or grew the arena"

    _coloring.update({
        "plan": report.label,
        "arena_bytes_before": report.before_bytes,
        "arena_bytes_after": report.after_bytes,
        "reduction_pct": round(100.0 * report.reduction, 1),
        "shared_slots": len(report.slots),
    })
    print("\nserving arena coloring: {} -> {} bytes (-{:.1f}%)".format(
        report.before_bytes, report.after_bytes, 100.0 * report.reduction))


def test_fleet_multi_tenant_under_load():
    """Serving-fleet benchmark: p50/p99 under open-loop load per tenant.

    Three tenants share a two-model registry (compressed-sized "fast"
    model behind the early-exit cascade, plus the full model) over one
    arena pool.  Per-batch service times are *measured* first
    (``plan.measure`` on every warm (model, batch-size) trace), then an
    open-loop diurnal-plus-bursts arrival schedule replays on the
    simulated clock with those measured costs charged per batch — so the
    reported per-tenant p50/p99 include real queueing-under-load, not
    just isolated replay latency.  Asserts the arena contract (zero
    ``serve.arena`` bytes after registry freeze) and ticket
    conservation.
    """
    from repro.nn import losses
    from repro.optim import Adam
    from repro.synth import make_digits

    digits_x, digits_y = make_digits(600, seed=3)

    def make_model(hidden, seed, epochs):
        rng = np.random.default_rng(seed)
        model = nn.Sequential(
            nn.Linear(FLEET_FEATURES, hidden, rng=rng), nn.Tanh(),
            nn.Linear(hidden, FLEET_CLASSES, rng=rng))
        optimizer = Adam(model.parameters(), lr=0.02)
        for _ in range(epochs):
            order = rng.permutation(len(digits_x))
            for start in range(0, len(digits_x), 64):
                picks = order[start:start + 64]
                optimizer.zero_grad()
                losses.cross_entropy(model(Tensor(digits_x[picks])),
                                     digits_y[picks]).backward()
                optimizer.step()
        return model

    example = digits_x[0]
    registry = ModelRegistry()
    registry.register("fast", make_model(16, seed=1, epochs=3),
                      VectorCollator(), [example], max_batch=MAX_BATCH)
    registry.register("full", make_model(64, seed=2, epochs=6),
                      VectorCollator(), [example], max_batch=MAX_BATCH)
    registry.add_cascade("cascade", "fast", "full", threshold=1.2)
    registry.freeze()

    # Measured per-batch service cost for every warm trace.
    costs = {}
    for name, entry in registry.entries.items():
        for size in entry.batch_sizes:
            batch = entry.collator.collate([example] * size, size)
            costs[(name, size)] = entry.plan.measure(batch, repeats=5)

    clock = SimulatedClock()
    fleet = FleetServer(
        registry,
        [TenantConfig("mobile", priority=0, rate=400.0, burst=80,
                      slo_s=0.020),
         TenantConfig("batch", priority=2, rate=250.0, burst=40),
         TenantConfig("partner", priority=1, rate=None, max_queue=128)],
        clock=clock, max_wait_ms=2.0,
        service_model=lambda name, size: costs[(name, size)])
    traffic = OpenLoopTraffic(
        TrafficSpec(base_rate=700.0, diurnal_amplitude=0.5, period_s=4.0,
                    burst_rate=1.0, burst_size=10, slow_upload_s=0.001),
        [TenantLoad("mobile", 2.0, route="cascade"),
         TenantLoad("batch", 1.0, model="full"),
         TenantLoad("partner", 1.0, model="fast")],
        seed=5,
        injector=FaultInjector(FaultSpec(straggler_rate=0.05), seed=6))
    arrivals = traffic.arrivals(6.0)[:FLEET_REQUESTS]
    assert len(arrivals) == FLEET_REQUESTS
    picks = np.random.default_rng(7).integers(0, len(digits_x),
                                              size=FLEET_REQUESTS)
    payloads = digits_x[picks]
    index_of = {id(a): i for i, a in enumerate(arrivals)}

    frozen = _arena_state(registry)
    profiler.reset()
    with profiler.profile():
        tickets = run_soak(fleet, arrivals,
                           lambda a: payloads[index_of[id(a)]], clock)
    stats = profiler.get_stats()
    profiler.reset()

    metrics = fleet.metrics()
    assert all(t.done for t in tickets)
    assert sum(metrics["resolved"].values()) == FLEET_REQUESTS
    assert metrics["resolved"]["error"] == 0
    assert _arena_state(registry) == frozen, \
        "fleet serving traced or allocated after registry freeze"
    assert not stats["ops"], "fleet serving touched the autodiff engine"

    pool_bytes = registry.arena_bytes()
    _fleet.update({
        "workload": {
            "models": {"fast": "64-16-10 MLP (3 epochs)",
                       "full": "64-64-10 MLP (6 epochs)"},
            "requests": FLEET_REQUESTS,
            "tenants": 3,
            "traffic": "open-loop diurnal +50% swing, 10-request bursts, "
                       "5% slow clients; measured per-batch service "
                       "times on a simulated clock",
        },
        "arena_pool_bytes": pool_bytes["pool"],
        "arena_bytes_without_sharing": pool_bytes["traces"],
        "zero_alloc_after_warmup": True,
        "escalation_rate": round(metrics["escalation_rate"], 4),
        "batches": metrics["batches"],
        "measured_service_s": {
            "{}[{}]".format(name, size): round(cost, 6)
            for (name, size), cost in sorted(costs.items())},
        "tenants": {
            name: {
                "served": tenant["served"],
                "rejected": tenant["rejected"],
                "p50_latency_s": None if tenant["p50_latency_s"] is None
                else round(tenant["p50_latency_s"], 6),
                "p99_latency_s": None if tenant["p99_latency_s"] is None
                else round(tenant["p99_latency_s"], 6),
                "slo_s": tenant["slo_s"],
                "slo_misses": tenant["slo_misses"],
            }
            for name, tenant in metrics["tenants"].items()},
    })
    for name, tenant in metrics["tenants"].items():
        print("fleet tenant {}: p50 {} p99 {} served {} rejected {}".format(
            name, tenant["p50_latency_s"], tenant["p99_latency_s"],
            tenant["served"], tenant["rejected"]))
