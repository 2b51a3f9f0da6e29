"""Serving-fleet tests: registry, admission, scheduling, and the soak.

The centerpiece is the deterministic soak: ten thousand simulated-clock
requests from three tenants across two models (one behind the cascade),
with corruption and slow-client faults injected, asserting

* **conservation** — every submitted ticket resolves exactly once, as a
  result, a :class:`~repro.analysis.sanitize.NumericError`, or an
  admission rejection;
* **zero allocation** after warm-up — the shared arena pool records no
  new ``serve.arena`` bytes while serving;
* **determinism** — the same seeds replay to bit-identical per-ticket
  outcomes.

Alongside it: hypothesis properties for the token bucket (never admits
above its rate), priority scheduling (dispatch order sorted by tenant
priority then arrival), and the SLO batch policy (monotone shrink in
queue delay).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn, profiler
from repro.analysis.sanitize import NumericError
from repro.faults import FaultInjector, FaultSpec, SimulatedClock
from repro.serve import (
    AdmissionError,
    ArenaPool,
    FleetServer,
    ModelRegistry,
    TenantConfig,
    TokenBucket,
    slo_batch_size,
)
from repro.serve.fleet import ServiceEstimator
from repro.serve.server import VectorCollator
from repro.serve.traffic import (
    OpenLoopTraffic,
    TenantLoad,
    TrafficSpec,
    run_soak,
)

FEATURES = 12
CLASSES = 4


def make_model(hidden, seed):
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Linear(FEATURES, hidden, rng=rng), nn.Tanh(),
        nn.Linear(hidden, CLASSES, rng=rng),
    )


def make_registry(max_batch=8, threshold=1.0):
    registry = ModelRegistry()
    example = np.random.default_rng(99).normal(size=FEATURES)
    registry.register("fast", make_model(8, seed=1), VectorCollator(),
                      [example], max_batch=max_batch)
    registry.register("full", make_model(32, seed=2), VectorCollator(),
                      [example], max_batch=max_batch)
    registry.add_cascade("cascade", "fast", "full", threshold=threshold)
    registry.freeze()
    return registry


@pytest.fixture(scope="module")
def registry():
    return make_registry()


class TestTokenBucket:
    def test_burst_then_starvation_then_refill(self):
        clock = SimulatedClock()
        bucket = TokenBucket(rate=2.0, burst=3, clock=clock)
        assert [bucket.try_take() for _ in range(4)] == [True] * 3 + [False]
        clock.advance(0.5)  # one token refilled
        assert bucket.try_take()
        assert not bucket.try_take()

    def test_unlimited(self):
        bucket = TokenBucket(rate=None, burst=1, clock=SimulatedClock())
        assert all(bucket.try_take() for _ in range(100))

    @settings(deadline=None, max_examples=60)
    @given(
        rate=st.floats(min_value=0.5, max_value=50.0),
        burst=st.integers(min_value=1, max_value=10),
        steps=st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=2.0),
                      st.integers(min_value=1, max_value=5)),
            min_size=1, max_size=50),
    )
    def test_never_exceeds_rate(self, rate, burst, steps):
        """Admissions over any prefix stay below burst + rate * elapsed."""
        clock = SimulatedClock()
        bucket = TokenBucket(rate=rate, burst=burst, clock=clock)
        admitted = 0
        for gap, tries in steps:
            clock.advance(gap)
            for _ in range(tries):
                if bucket.try_take():
                    admitted += 1
            assert admitted <= burst + rate * clock.now + 1e-6


class TestSloBatchSize:
    def test_no_slo_uses_full_batch(self):
        assert slo_batch_size(8, 10.0, None, lambda b: 1.0) == 8

    def test_shrinks_under_delay(self):
        estimate = {1: 0.01, 2: 0.02, 4: 0.04, 8: 0.08}.__getitem__
        assert slo_batch_size(8, 0.0, 0.1, estimate) == 8
        assert slo_batch_size(8, 0.07, 0.1, estimate) == 2
        assert slo_batch_size(8, 0.5, 0.1, estimate) == 1  # floor: must drain

    @settings(deadline=None, max_examples=100)
    @given(
        max_batch=st.integers(min_value=1, max_value=64),
        slo=st.floats(min_value=1e-3, max_value=1.0),
        d1=st.floats(min_value=0.0, max_value=1.0),
        d2=st.floats(min_value=0.0, max_value=1.0),
        costs=st.lists(st.floats(min_value=0.0, max_value=0.5),
                       min_size=7, max_size=7),
    )
    def test_monotone_in_queue_delay(self, max_batch, slo, d1, d2, costs):
        """More queue delay never grows the chosen batch."""
        table = {2 ** i: costs[i] for i in range(7)}
        estimate = lambda b: table[b]
        low, high = sorted((d1, d2))
        b_low = slo_batch_size(max_batch, low, slo, estimate)
        b_high = slo_batch_size(max_batch, high, slo, estimate)
        assert b_high <= b_low
        assert 1 <= b_high <= b_low <= max_batch
        assert b_low & (b_low - 1) == 0  # power of two

    def test_estimator_pessimism_tracks_jitter(self):
        steady = ServiceEstimator()
        for _ in range(20):
            steady.observe(4, 0.010)
        jittery = ServiceEstimator()
        for i in range(20):
            jittery.observe(4, 0.010 + (0.008 if i % 2 else 0.0))
        assert steady.estimate(4) == pytest.approx(0.010, rel=1e-6)
        assert jittery.estimate(4) > steady.estimate(4)
        # Unobserved sizes scale from the nearest observed one.
        assert steady.estimate(8) == pytest.approx(0.020, rel=1e-6)


class TestAdmission:
    def tenants(self):
        return [TenantConfig("gold", priority=0, rate=None),
                TenantConfig("bronze", priority=2, rate=2.0, burst=2,
                             max_queue=3)]

    def test_rate_limited_tenant_rejected(self, registry):
        clock = SimulatedClock()
        fleet = FleetServer(registry, self.tenants(), clock=clock,
                            service_model=lambda name, b: 0.001)
        payload = np.random.default_rng(0).normal(size=FEATURES)
        tickets = [fleet.submit("bronze", payload, model="fast")
                   for _ in range(5)]
        rejected = [t for t in tickets if t.rejected]
        assert len(rejected) == 3  # burst of 2, no time to refill
        with pytest.raises(AdmissionError, match="request rate"):
            rejected[0].result()
        assert fleet.metrics()["tenants"]["bronze"]["rejected"] == 3

    def test_queue_depth_cap(self, registry):
        clock = SimulatedClock()
        fleet = FleetServer(registry, [TenantConfig("t", rate=None,
                                                    max_queue=2)],
                            clock=clock, max_wait_ms=1e6,
                            service_model=lambda name, b: 0.001)
        # max_batch=8 > 3 submissions, so nothing dispatches and the
        # third hits the depth cap.
        payload = np.zeros(FEATURES)
        tickets = [fleet.submit("t", payload, model="full")
                   for _ in range(3)]
        assert [t.rejected for t in tickets] == [False, False, True]
        fleet.flush()
        assert tickets[0].result().shape == (CLASSES,)

    def test_malformed_payload_resolves_with_validation_error(self, registry):
        fleet = FleetServer(registry, [TenantConfig("t")],
                            clock=SimulatedClock())
        ticket = fleet.submit("t", np.zeros((3, 3)), model="fast")
        assert ticket.failed and not ticket.rejected
        with pytest.raises(ValueError, match="1-D feature vector"):
            ticket.result()

    def test_unknown_tenant_model_route(self, registry):
        fleet = FleetServer(registry, [TenantConfig("t")],
                            clock=SimulatedClock())
        with pytest.raises(KeyError):
            fleet.submit("ghost", np.zeros(FEATURES), model="fast")
        with pytest.raises(KeyError):
            fleet.submit("t", np.zeros(FEATURES), model="ghost")
        with pytest.raises(KeyError):
            fleet.submit("t", np.zeros(FEATURES), route="ghost")
        with pytest.raises(ValueError, match="route= or model="):
            fleet.submit("t", np.zeros(FEATURES))

    def test_requires_frozen_registry(self):
        registry = ModelRegistry()
        registry.register("m", make_model(4, seed=0), VectorCollator(),
                          [np.zeros(FEATURES)])
        with pytest.raises(RuntimeError, match="freeze the registry"):
            FleetServer(registry, [TenantConfig("t")])


class TestPriorityScheduling:
    @settings(deadline=None, max_examples=25)
    @given(order=st.permutations(list(range(12))))
    def test_dispatch_pops_best_priority_then_arrival(self, order):
        """Under any arrival interleaving, every dispatched batch takes
        exactly the (priority, arrival)-smallest tickets queued at that
        moment — checked against a reference heap simulation."""
        registry = _REGISTRY_SMALL
        max_batch = 4
        priorities = {"p0": 0, "p1": 1, "p2": 2}
        fleet = FleetServer(
            registry,
            [TenantConfig(name, priority=p, rate=None)
             for name, p in priorities.items()],
            clock=SimulatedClock(), max_wait_ms=1e6,
            service_model=lambda name, b: 0.001)
        payload = np.zeros(FEATURES)
        tickets = []
        for index in order:
            tenant = "p{}".format(index % 3)
            tickets.append(fleet.submit(tenant, payload, model="fast"))
        fleet.flush()

        # Reference: same arrival sequence through a plain sorted queue
        # with the same dispatch trigger (queue fills to max_batch) and
        # the same final flush.
        expected_batches = []
        pending = []
        for seq, ticket in enumerate(tickets):
            pending.append((priorities[ticket.tenant], seq))
            if len(pending) >= max_batch:
                pending.sort()
                expected_batches.append([s for _, s in pending[:max_batch]])
                del pending[:max_batch]
        while pending:
            pending.sort()
            expected_batches.append([s for _, s in pending[:max_batch]])
            del pending[:max_batch]

        actual_batches = {}
        for ticket in tickets:
            actual_batches.setdefault(ticket.batch, []).append(ticket)
        ordered = [
            [t.seq for t in sorted(batch, key=lambda t: t.slot)]
            for _, batch in sorted(actual_batches.items())
        ]
        assert ordered == expected_batches


# Shared by the hypothesis scheduling test: building a registry per
# example would recompile and re-color plans hundreds of times.
_REGISTRY_SMALL = None


def setup_module(module):
    module._REGISTRY_SMALL = make_registry(max_batch=4)


class TestRegistryPool:
    def test_pool_shares_slots_across_models(self):
        # Two hidden layers: the Linear rule fuses each Tanh into its
        # producer, so a one-hidden-layer MLP's trace has a single
        # intermediate and no slot for the colorer to pool.
        registry = ModelRegistry()
        example = np.random.default_rng(99).normal(size=FEATURES)
        for name, hidden, seed in (("fast", 8, 1), ("full", 32, 2)):
            rng = np.random.default_rng(seed)
            model = nn.Sequential(
                nn.Linear(FEATURES, hidden, rng=rng), nn.Tanh(),
                nn.Linear(hidden, hidden, rng=rng), nn.Tanh(),
                nn.Linear(hidden, CLASSES, rng=rng))
            registry.register(name, model, VectorCollator(), [example],
                              max_batch=8)
        registry.freeze()
        accounting = registry.arena_bytes()
        assert accounting["pool"] > 0
        # Every warm trace leases the same slabs, so the sum of per-trace
        # arena bytes counts the pool many times over: sharing is real.
        assert accounting["traces"] > accounting["pool"]
        assert registry.pool.frozen
        assert registry.pool.leases >= 2 * len(registry.pool)

    def test_pool_rejects_post_freeze_growth(self, registry):
        from repro.serve import ArenaFrozenError
        with pytest.raises(ArenaFrozenError):
            registry.pool.lease(10_000, 64)

    def test_pool_undersized_lease_rejected(self):
        pool = ArenaPool()
        slab = pool.lease(0, 128)
        assert slab.nbytes == 128
        with pytest.raises(ValueError, match="reserve"):
            pool.lease(0, 256)

    def test_frozen_registry_rejects_registration(self, registry):
        with pytest.raises(RuntimeError, match="frozen"):
            registry.register("late", make_model(4, seed=3),
                              VectorCollator(), [np.zeros(FEATURES)])
        with pytest.raises(RuntimeError, match="frozen"):
            registry.add_cascade("late", "fast", "full")

    def test_colored_fleet_matches_uncolored_outputs(self):
        plain = make_registry()
        uncolored = ModelRegistry()
        example = np.random.default_rng(99).normal(size=FEATURES)
        uncolored.register("fast", make_model(8, seed=1), VectorCollator(),
                           [example], max_batch=8)
        uncolored.register("full", make_model(32, seed=2), VectorCollator(),
                           [example], max_batch=8)
        uncolored.freeze(color=False)
        batch = np.random.default_rng(5).normal(size=(8, FEATURES))
        for name in ("fast", "full"):
            colored_rows = plain.entries[name].plan.run(batch)
            plain_rows = uncolored.entries[name].plan.run(batch)
            np.testing.assert_array_equal(colored_rows, plain_rows)


# ----------------------------------------------------------------------
# The soak
# ----------------------------------------------------------------------
SOAK_REQUESTS = 10_000


class TestSoak:
    @pytest.fixture(scope="class")
    def soak(self):
        return _soak_once(seed=42)

    def test_scale(self, soak):
        _, fleet, arrivals, tickets, _, _ = soak
        assert len(tickets) == SOAK_REQUESTS
        assert fleet.submitted == SOAK_REQUESTS
        assert len({a.tenant for a in arrivals}) == 3
        assert len(fleet.registry.entries) == 2

    def test_conservation_every_ticket_resolves_exactly_once(self, soak):
        _, fleet, _, tickets, _, _ = soak
        assert all(t.done for t in tickets)
        outcomes = fleet.resolved
        assert sum(outcomes.values()) == len(tickets)
        by_class = {"result": 0, "numeric_error": 0, "rejected": 0,
                    "error": 0}
        for ticket in tickets:
            if ticket.rejected:
                by_class["rejected"] += 1
            elif isinstance(ticket._error, NumericError):
                by_class["numeric_error"] += 1
            elif ticket.failed:
                by_class["error"] += 1
            else:
                by_class["result"] += 1
        assert by_class == outcomes
        assert by_class["error"] == 0  # only the three sanctioned outcomes
        assert by_class["result"] > 0 and by_class["rejected"] > 0

    def test_every_resolution_charged_exactly_one_latency_sample(self, soak):
        _, _, _, tickets, stats, _ = soak
        assert stats["timers"]["serve.request_latency"]["calls"] \
            == len(tickets)

    def test_injected_corruption_resolves_as_numeric_error(self, soak):
        _, _, arrivals, tickets, _, injector = soak
        corrupted = [t for a, t in zip(arrivals, tickets)
                     if injector.corrupts(0, a.client)]
        assert corrupted, "fault schedule injected no corruption"
        for ticket in corrupted:
            assert ticket.rejected or isinstance(ticket._error, NumericError)
        hit = [t for t in corrupted if not t.rejected]
        assert hit, "every corrupted request was rejected by admission"

    def test_zero_arena_allocations_after_warmup(self, soak):
        _, _, _, _, stats, _ = soak
        assert stats["extra_bytes"].get("serve.arena", 0) == 0, \
            "fleet serving allocated arena bytes after registry freeze"
        assert not stats["ops"], "serving touched the autodiff engine"

    def test_cascade_escalations_happened(self, soak):
        _, fleet, _, _, _, _ = soak
        metrics = fleet.metrics()
        mobile = metrics["tenants"]["mobile"]
        assert mobile["cascade_requests"] > 0
        assert 0.0 <= metrics["escalation_rate"] <= 1.0
        assert mobile["p50_latency_s"] is not None
        assert mobile["p99_latency_s"] >= mobile["p50_latency_s"]

    def test_slo_tenant_latency_bounded(self, soak):
        _, fleet, _, _, _, _ = soak
        mobile = fleet.metrics()["tenants"]["mobile"]
        # SLO-aware shrink keeps the p99 within a small factor of the
        # 50 ms objective even under bursts (hard guarantee is p50).
        assert mobile["p50_latency_s"] < 0.050
        assert mobile["slo_misses"] <= mobile["served"] * 0.1

    def test_deterministic_replay(self, soak):
        first = _fingerprint(soak)
        second = _fingerprint(_soak_once(seed=42))
        assert first == second

    def test_different_seed_differs(self, soak):
        other = _fingerprint(_soak_once(seed=43, requests=2000))
        assert _fingerprint(soak)[:len(other)] != other


def _soak_once(seed, requests=SOAK_REQUESTS):
    registry = make_registry()
    clock = SimulatedClock()
    fleet = FleetServer(
        registry,
        [TenantConfig("mobile", priority=0, rate=250.0, burst=50,
                      slo_s=0.050),
         TenantConfig("batch", priority=2, rate=150.0, burst=30),
         TenantConfig("partner", priority=1, rate=None, max_queue=64)],
        clock=clock,
        max_wait_ms=5.0,
        service_model=lambda name, b: (0.0004 if name == "fast"
                                       else 0.0008) * b,
    )
    spec = TrafficSpec(base_rate=480.0, diurnal_amplitude=0.6,
                       period_s=8.0, burst_rate=0.8, burst_size=12,
                       slow_upload_s=0.003)
    injector = FaultInjector(
        FaultSpec(straggler_rate=0.05, straggler_scale=3.0,
                  corruption_rate=0.01), seed=seed + 1)
    traffic = OpenLoopTraffic(
        spec,
        [TenantLoad("mobile", 2.0, route="cascade"),
         TenantLoad("batch", 1.0, model="full"),
         TenantLoad("partner", 1.0, model="fast")],
        seed=seed, injector=injector)
    arrivals = traffic.arrivals(40.0)[:requests]
    assert len(arrivals) == requests, \
        "traffic window produced only {} arrivals".format(len(arrivals))
    payloads = np.random.default_rng(seed + 2).normal(
        size=(len(arrivals), FEATURES))
    index_of = {id(a): i for i, a in enumerate(arrivals)}

    profiler.reset()
    tickets = run_soak(fleet, arrivals,
                       lambda a: payloads[index_of[id(a)]],
                       clock, injector=injector)
    stats = profiler.get_stats()
    profiler.reset()
    return registry, fleet, arrivals, tickets, stats, injector


def _fingerprint(soak):
    """Bit-exact per-ticket outcome trace of one soak run."""
    _, _, _, tickets, _, _ = soak
    trace = []
    for ticket in tickets:
        if ticket.rejected:
            kind = ("rejected",)
        elif ticket.failed:
            kind = (type(ticket._error).__name__,)
        else:
            kind = ("result", ticket._result.tobytes())
        trace.append(kind + (ticket.tenant, ticket.model, ticket.escalated,
                             round(ticket.latency, 12)))
    return trace
