"""Multi-tenant, multi-model, SLO-aware serving fleet.

The paper's premise is serving deep models to large mobile user
populations under tight latency and resource budgets.  Single requests
arrive at arbitrary times, but a compiled plan is most efficient on
batches, so :class:`FleetServer` coalesces them: requests are grouped
into *buckets* by their model's collator (:mod:`repro.serve.server`),
padded to a small set of batch sizes, and replayed through one frozen
:class:`~repro.serve.plan.Plan`.  A bucket flushes as soon as it fills
its target batch (throughput bound) or once its oldest request has
waited ``max_wait_ms`` (latency bound).  A one-model, one-tenant
registry with no SLO is exactly that dynamic batcher; the rest of the
module grows it into a fleet:

* :class:`ModelRegistry` — hosts multiple compiled plans.  At
  :meth:`~ModelRegistry.freeze` every (model, batch-size) trace is
  audited by the plan IR auditor, slot-colored, and re-traced over one
  shared :class:`~repro.serve.arena.ArenaPool`: replays are serialized
  on a single-threaded server, so the scratch slots of different models
  occupy the *same bytes* — the pool costs the per-slot maximum over
  the fleet instead of the sum.
* per-tenant **admission control** — a :class:`TokenBucket` rate limit
  plus a queue-depth cap per :class:`TenantConfig`; rejected tickets
  resolve immediately with :class:`AdmissionError`.
* **priority scheduling** — queues are heaps ordered by
  ``(tenant priority, arrival sequence)``, so a batch always serves the
  most important, oldest-waiting requests first.
* **SLO-aware batch sizing** — :func:`slo_batch_size` picks the largest
  power-of-two batch whose p99-style service estimate
  (:class:`ServiceEstimator`) still lands the oldest queued request
  inside the tightest tenant SLO; under queue delay the batch shrinks
  monotonically down to 1.
* a **speculative cascade** (:class:`CascadeRoute`) — requests are
  answered from a cheap (Deep-Compression) model and escalated to the
  full model only when the early-exit confidence gate
  (:func:`repro.inference.earlyexit.exit_gate`) fires, wiring in the
  paper's distributed-DNN early-exit machinery as the gate.

**Fault isolation**: a failing request must not poison its batchmates.
Malformed payloads are rejected at submit time with the collator's
error on that ticket alone; if a *batched* replay raises, the server
falls back to running each request alone (counted as
``metrics()["fallbacks"]``) so only the genuinely bad request fails;
and every output row is checked for NaN/Inf, so numeric corruption in
one row raises :class:`~repro.analysis.sanitize.NumericError` on that
ticket only.

Time is injectable (``clock=SimulatedClock()``, from
:mod:`repro.faults`); with a ``service_model`` the fleet charges
deterministic simulated service time per batch, which is what the soak
test replays.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass

import numpy as np

from ..analysis.sanitize import NumericError
from ..inference.earlyexit import exit_gate
from .arena import ArenaPool, BufferArena
from .plan import Plan, _signature, _to_arrays
from .server import _bucket_size

__all__ = [
    "AdmissionError",
    "CascadeRoute",
    "FleetServer",
    "FleetTicket",
    "ModelRegistry",
    "RegistryAuditError",
    "ServiceEstimator",
    "TenantConfig",
    "TokenBucket",
    "slo_batch_size",
]


class AdmissionError(RuntimeError):
    """The fleet refused a request before it entered any queue."""


class RegistryAuditError(RuntimeError):
    """A registered plan failed the IR audit at registry freeze."""


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TenantConfig:
    """Per-tenant serving contract.

    ``priority`` orders dispatch (lower value = served first);
    ``rate``/``burst`` parameterize the token-bucket rate limit
    (``rate=None`` disables it); ``slo_s`` is the per-request latency
    objective driving batch shrink (``None`` = no SLO); ``max_queue``
    caps this tenant's simultaneously queued requests.
    """

    name: str
    priority: int = 1
    rate: float = None
    burst: float = 8.0
    slo_s: float = None
    max_queue: int = None

    def __post_init__(self):
        if self.rate is not None and self.rate <= 0:
            raise ValueError("rate must be positive (or None to disable)")
        if self.burst < 1:
            raise ValueError("burst must be at least 1 token")
        if self.slo_s is not None and self.slo_s <= 0:
            raise ValueError("slo_s must be positive (or None)")
        if self.max_queue is not None and self.max_queue < 1:
            raise ValueError("max_queue must be at least 1 (or None)")


class TokenBucket:
    """Classic token-bucket rate limiter over an injectable clock.

    Admits at most ``burst + rate * elapsed`` requests over any window
    starting from a full bucket — the invariant the property tests
    check.  A ``rate`` of ``None`` admits everything.
    """

    def __init__(self, rate, burst, clock):
        self.rate = rate
        self.burst = float(burst)
        self.clock = clock
        self.tokens = float(burst)
        self._last = clock()

    def try_take(self, now=None):
        """Consume one token if available; returns whether it was."""
        if self.rate is None:
            return True
        now = self.clock() if now is None else now
        elapsed = max(0.0, now - self._last)
        self._last = now
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


# ----------------------------------------------------------------------
# SLO-aware batch sizing
# ----------------------------------------------------------------------
def slo_batch_size(max_batch, queue_delay_s, slo_s, estimate):
    """Largest power-of-two batch that still meets the tightest SLO.

    ``estimate`` maps a batch size to a (p99-style) service-time
    estimate in seconds.  The oldest queued request has already waited
    ``queue_delay_s``; the chosen batch ``B`` is the largest power of
    two ``<= max_batch`` with ``queue_delay_s + estimate(B) <= slo_s``,
    floored at 1 (an overloaded queue must still drain).  For a fixed
    estimate the result is monotone non-increasing in ``queue_delay_s``
    — more delay can only shrink the batch — which is the property the
    hypothesis suite checks.  ``slo_s=None`` means no objective: use
    the full batch.
    """
    if max_batch < 1:
        raise ValueError("max_batch must be >= 1")
    if slo_s is None or not math.isfinite(slo_s):
        return max_batch
    best = 1
    size = 1
    while size <= max_batch:
        if queue_delay_s + float(estimate(size)) <= slo_s:
            best = size
        size *= 2
    return best


class ServiceEstimator:
    """Per-batch-size p99-style service-time estimates for one model.

    Keeps an exponential moving average of observed batch service times
    and of their absolute deviation; the estimate is
    ``mean + 3 * deviation`` — a cheap, allocation-free stand-in for a
    p99 that tracks both level and jitter.  Unobserved batch sizes
    scale the nearest observed size by row count (service time on these
    plans is close to linear in rows); with no observations at all the
    estimate is 0, so a cold fleet starts at full batches.
    """

    def __init__(self, alpha=0.2):
        self.alpha = float(alpha)
        self._mean = {}
        self._dev = {}

    def observe(self, batch_size, seconds):
        seconds = float(seconds)
        mean = self._mean.get(batch_size)
        if mean is None:
            self._mean[batch_size] = seconds
            self._dev[batch_size] = 0.0
            return
        delta = abs(seconds - mean)
        self._mean[batch_size] = mean + self.alpha * (seconds - mean)
        dev = self._dev[batch_size]
        self._dev[batch_size] = dev + self.alpha * (delta - dev)

    def estimate(self, batch_size):
        mean = self._mean.get(batch_size)
        if mean is not None:
            return mean + 3.0 * self._dev[batch_size]
        if not self._mean:
            return 0.0
        nearest = min(self._mean, key=lambda b: (abs(b - batch_size), b))
        scale = batch_size / float(nearest)
        return (self._mean[nearest] + 3.0 * self._dev[nearest]) * scale


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class _ModelEntry:
    __slots__ = ("name", "plan", "collator", "max_batch", "batch_sizes",
                 "examples", "estimator", "signatures", "report")

    def __init__(self, name, plan, collator, max_batch, examples):
        self.name = name
        self.plan = plan
        self.collator = collator
        self.max_batch = max_batch
        # Every size a dispatch of 1..max_batch tickets pads to: the
        # powers of two below max_batch, and max_batch itself.
        self.batch_sizes = tuple(sorted({
            _bucket_size(count, max_batch)
            for count in range(1, max_batch + 1)}))
        self.examples = examples
        self.estimator = ServiceEstimator()
        self.signatures = set()
        self.report = None


class CascadeRoute:
    """Speculative two-model route: cheap model first, escalate on doubt.

    Requests are served from ``fast`` (typically the Deep-Compression
    model); each answer's logits run through the early-exit confidence
    gate, and rows whose softmax entropy is ``threshold`` or above are
    re-queued — same payload, same ticket — on ``full``.  The gate is
    the *same function* :class:`~repro.inference.earlyexit.
    EarlyExitNetwork` uses, so escalation decisions are bit-identical
    to the eager early-exit reference.
    """

    __slots__ = ("name", "fast", "full", "threshold", "normalize")

    def __init__(self, name, fast, full, threshold=0.5, normalize=False):
        self.name = name
        self.fast = fast
        self.full = full
        self.threshold = float(threshold)
        self.normalize = bool(normalize)

    def decide(self, logits):
        """Gate a batch of fast-model logits; returns an ExitDecision."""
        return exit_gate(logits, self.threshold, normalize=self.normalize)


class ModelRegistry:
    """Named frozen plans sharing one buffer-arena pool.

    ``register`` accepts a module (compiled here) or a prebuilt
    :class:`~repro.serve.plan.Plan` together with its collator and one
    example payload per bucket shape the fleet must serve.  ``freeze``
    then warms every (example bucket, dispatch batch size) trace,
    audits each trace's buffer IR (write-before-read, aliasing, dead
    buffers), and applies verified slot coloring over the shared
    :class:`~repro.serve.arena.ArenaPool`.  After freeze the registry
    is immutable and replays never allocate.
    """

    def __init__(self, pool=None):
        self.pool = pool if pool is not None else ArenaPool()
        self.entries = {}
        self.routes = {}
        self.frozen = False

    def register(self, name, model, collator, examples, max_batch=8):
        """Add a model under ``name``; not servable until :meth:`freeze`.

        ``model`` is a module (compiled here) or a prebuilt plan.  A
        Deep-Compression model registers as ``pipeline.model``: pruning
        and quantization leave plain dense weights in ``param.data``.
        """
        if self.frozen:
            raise RuntimeError("registry is frozen; register before freeze")
        if name in self.entries:
            raise ValueError("model {!r} is already registered".format(name))
        plan = model if isinstance(model, Plan) else Plan(model)
        validated = [collator.validate(example) for example in examples]
        if not validated:
            raise ValueError("at least one example payload is required")
        entry = _ModelEntry(name, plan, collator, int(max_batch), validated)
        needed = len(entry.examples) * len(entry.batch_sizes)
        plan._cache_limit = max(plan._cache_limit, needed + 1)
        self.entries[name] = entry
        return entry

    def add_cascade(self, name, fast, full, threshold=0.5, normalize=False):
        """Register a speculative cascade route over two entries."""
        if self.frozen:
            raise RuntimeError("registry is frozen; add routes before freeze")
        for model in (fast, full):
            if model not in self.entries:
                raise KeyError("cascade references unknown model "
                               "{!r}".format(model))
        route = CascadeRoute(name, fast, full, threshold, normalize)
        self.routes[name] = route
        return route

    def _warm_batches(self, entry):
        for example in entry.examples:
            for size in entry.batch_sizes:
                yield entry.collator.collate([example] * size, size)

    def freeze(self, color=True):
        """Warm, audit, color, and seal every registered plan.

        Two passes: the first extracts every trace's IR (raising
        :class:`RegistryAuditError` on any violation) and reserves its
        slot plan's capacities in the pool, so slabs are created at
        their final cross-model size; the second re-traces each plan
        over pooled arenas via the auditor's verified
        :func:`~repro.analysis.plans.color_plan`.  Returns per-entry
        :class:`~repro.analysis.plans.color.SlotReport` lists.
        """
        from ..analysis.plans import build_slot_plan, color_plan, \
            extract_plan_ir

        if self.frozen:
            raise RuntimeError("registry is already frozen")
        audited = []
        for entry in self.entries.values():
            for index, batch in enumerate(self._warm_batches(entry)):
                values = _to_arrays(batch)
                entry.plan.run(values, copy=False)
                entry.signatures.add(_signature(values))
                if not color:
                    continue
                label = "fleet:{}#{}".format(entry.name, index)
                ir, violations = extract_plan_ir(entry.plan, values,
                                                 label=label)
                if violations:
                    raise RegistryAuditError(
                        "plan audit failed for model {!r}: {}".format(
                            entry.name, violations))
                self.pool.reserve(build_slot_plan(ir))
                audited.append((entry, values, ir))
        reports = {}
        for entry, values, ir in audited:
            report = color_plan(
                entry.plan, values, ir,
                arena_factory=lambda sp: BufferArena(slot_plan=sp,
                                                     pool=self.pool))
            reports.setdefault(entry.name, []).append(report)
            entry.report = reports[entry.name]
        self.pool.freeze()
        self.frozen = True
        return reports

    def arena_bytes(self):
        """Byte accounting: shared pool slabs vs per-trace arena totals.

        ``traces`` counts every warm trace's arena (slot backings
        included, so pooled slabs are counted once per trace that
        leases them); ``pool`` is the shared slabs' true footprint.
        ``traces - pool`` overstates real memory by exactly the bytes
        the pool deduplicated across traces.
        """
        traces = sum(
            trace.arena.nbytes
            for entry in self.entries.values()
            for trace in entry.plan._traces.values())
        return {"pool": self.pool.nbytes, "traces": traces}


# ----------------------------------------------------------------------
# Tickets and the fleet server
# ----------------------------------------------------------------------
class FleetTicket:
    """Ticket for one submitted request; resolved when its batch runs.

    Besides the outcome it carries the fleet's routing state: the
    tenant, the model currently serving it, its cascade ``route`` (if
    any) and whether it ``escalated``, its arrival ``seq``, and the
    ``batch``/``slot`` that answered it.
    """

    __slots__ = ("payload", "submitted_at", "done", "_result", "_error",
                 "latency", "tenant", "model", "route", "escalated", "seq",
                 "batch", "slot")

    def __init__(self, payload, submitted_at, tenant, model, route=None):
        self.payload = payload
        self.submitted_at = submitted_at
        self.done = False
        self._result = None
        self._error = None
        self.latency = None
        self.tenant = tenant
        self.model = model
        self.route = route
        self.escalated = False
        self.seq = None
        self.batch = None
        self.slot = None

    def result(self):
        """Return the output row, or raise the error this request hit."""
        if not self.done:
            raise RuntimeError(
                "request not completed yet; call fleet.flush() or poll()")
        if self._error is not None:
            raise self._error
        return self._result

    @property
    def failed(self):
        return self.done and self._error is not None

    @property
    def rejected(self):
        return self.done and isinstance(self._error, AdmissionError)

    def _resolve(self, result, error, now):
        if self.done:
            # Conservation invariant: every ticket resolves exactly once
            # (result, error, or rejection).  A second resolution means a
            # scheduling bug — double dispatch, or a cascade escalation
            # racing its own fast answer — and must never be silent.
            raise RuntimeError("request ticket was already resolved")
        self._result = result
        self._error = error
        self.done = True
        self.latency = now - self.submitted_at


class _TenantStats:
    __slots__ = ("latencies", "served", "rejected", "failed",
                 "cascade_fast", "cascade_escalated", "slo_s", "slo_misses")

    def __init__(self, slo_s):
        self.latencies = []
        self.served = 0
        self.rejected = 0
        self.failed = 0
        self.cascade_fast = 0
        self.cascade_escalated = 0
        self.slo_s = slo_s
        self.slo_misses = 0


class FleetServer:
    """Admission-controlled, priority-scheduled serving over a registry.

    Parameters
    ----------
    registry:
        A frozen :class:`ModelRegistry`; freezing first is mandatory so
        no trace compiles (and no arena allocates) mid-serving.
    tenants:
        Iterable of :class:`TenantConfig`.
    clock:
        Zero-argument callable returning seconds (defaults to
        ``time.monotonic``); tests and the soak harness inject
        :class:`~repro.faults.SimulatedClock`.
    max_wait_ms:
        Deadline-based flush for partially filled batches.
    service_model:
        Optional ``fn(model_name, batch_size) -> seconds``.  When given
        (and the clock is advanceable) every batch advances the clock
        by its simulated service time and the estimator observes those
        simulated seconds — the deterministic mode the soak test uses.
        Without it, wall-clock replay time is observed.
    """

    def __init__(self, registry, tenants, clock=None, max_wait_ms=2.0,
                 service_model=None):
        if not registry.frozen:
            raise RuntimeError(
                "freeze the registry before serving: an unfrozen registry "
                "would compile traces (and allocate arenas) mid-request")
        self.registry = registry
        self.tenants = {}
        self.buckets = {}
        self.stats = {}
        self.clock = clock if clock is not None else time.monotonic  # repro-lint: allow[det-wall-clock] documented real-time default; simulated runs inject SimulatedClock
        self.max_wait_ms = float(max_wait_ms)
        self.service_model = service_model
        for tenant in tenants:
            if tenant.name in self.tenants:
                raise ValueError("duplicate tenant {!r}".format(tenant.name))
            self.tenants[tenant.name] = tenant
            self.buckets[tenant.name] = TokenBucket(
                tenant.rate, tenant.burst, self.clock)
            self.stats[tenant.name] = _TenantStats(tenant.slo_s)
        self._queues = {}       # model name -> {bucket key -> heap}
        self._tenant_depth = {name: 0 for name in self.tenants}
        self._seq = 0
        self._batches = 0
        self._fallbacks = 0
        self.submitted = 0
        self.resolved = {"result": 0, "numeric_error": 0, "rejected": 0,
                         "error": 0}

    # -- submission ----------------------------------------------------
    def submit(self, tenant, payload, route=None, model=None):
        """Enqueue one request for ``tenant``; returns its ticket.

        Exactly one of ``route`` (a cascade name) or ``model`` (a
        registry entry name) selects the serving path; passing both or
        neither raises :class:`ValueError`, and an unknown tenant, model
        or route raises :class:`KeyError`.  Admission failures — an
        empty token bucket, a full tenant queue — resolve the ticket
        immediately with :class:`AdmissionError`; a payload the
        collator rejects resolves it with the collator's error.
        """
        now = self.clock()
        config = self.tenants[tenant]
        cascade = None
        if route is not None:
            if model is not None:
                raise ValueError("pass either route= or model=, not both")
            cascade = self.registry.routes[route]
            target = cascade.fast
        elif model is not None:
            if model not in self.registry.entries:
                raise KeyError("unknown model {!r}".format(model))
            target = model
        else:
            raise ValueError("pass route= or model=")
        ticket = FleetTicket(payload, now, tenant, target, cascade)
        self.submitted += 1
        if not self.buckets[tenant].try_take(now):
            self._resolve_error(ticket, AdmissionError(
                "tenant {!r} exceeded its request rate".format(tenant)), now)
            return ticket
        config_queue = config.max_queue
        if config_queue is not None \
                and self._tenant_depth[tenant] >= config_queue:
            self._resolve_error(ticket, AdmissionError(
                "tenant {!r} queue is full ({} pending)".format(
                    tenant, config_queue)), now)
            return ticket
        entry = self.registry.entries[target]
        try:
            validated = entry.collator.validate(payload)
        except Exception as error:
            self._resolve_error(ticket, error, now)
            return ticket
        ticket.payload = validated
        self._enqueue(entry, ticket, config.priority)
        self._drain_ready(now)
        return ticket

    def _enqueue(self, entry, ticket, priority):
        key = entry.collator.bucket_key(ticket.payload)
        queues = self._queues.setdefault(entry.name, {})
        heap = queues.setdefault(key, [])
        ticket.seq = self._seq
        self._seq += 1
        heapq.heappush(heap, (priority, ticket.seq, ticket))
        self._tenant_depth[ticket.tenant] += 1

    # -- scheduling ----------------------------------------------------
    def _queue_state(self, entry, heap, now):
        """(oldest queue delay, tightest SLO) over a bucket's tickets."""
        oldest = min(item[2].submitted_at for item in heap)
        slos = [self.stats[item[2].tenant].slo_s for item in heap]
        finite = [s for s in slos if s is not None]
        return now - oldest, (min(finite) if finite else None)

    def _target_batch(self, entry, heap, now):
        delay, slo = self._queue_state(entry, heap, now)
        return slo_batch_size(entry.max_batch, delay, slo,
                              entry.estimator.estimate)

    def _drain_ready(self, now):
        """Dispatch every bucket that already fills its target batch."""
        progress = True
        while progress:
            progress = False
            for model_name in list(self._queues):
                entry = self.registry.entries[model_name]
                queues = self._queues[model_name]
                for key in list(queues):
                    heap = queues[key]
                    if not heap:
                        continue
                    if len(heap) >= self._target_batch(entry, heap, now):
                        self._dispatch(entry, key)
                        progress = True

    def poll(self):
        """Flush buckets whose wait deadline or SLO slack has run out."""
        now = self.clock()
        deadline = self.max_wait_ms / 1000.0
        for model_name in list(self._queues):
            entry = self.registry.entries[model_name]
            queues = self._queues[model_name]
            for key in list(queues):
                heap = queues[key]
                if not heap:
                    continue
                delay, slo = self._queue_state(entry, heap, now)
                out_of_slack = slo is not None and \
                    delay + entry.estimator.estimate(1) >= slo
                if delay >= deadline or out_of_slack:
                    self._dispatch(entry, key)
        self._drain_ready(self.clock())

    def flush(self):
        """Run every pending batch (and every cascade escalation)."""
        while self.pending:
            for model_name in list(self._queues):
                entry = self.registry.entries[model_name]
                queues = self._queues[model_name]
                for key in list(queues):
                    while queues[key]:
                        self._dispatch(entry, key)

    @property
    def pending(self):
        return sum(len(heap) for queues in self._queues.values()
                   for heap in queues.values())

    # -- execution -----------------------------------------------------
    def _dispatch(self, entry, key):
        heap = self._queues[entry.name][key]
        if not heap:
            return
        now = self.clock()
        take = min(len(heap), self._target_batch(entry, heap, now))
        tickets = []
        for slot in range(take):  # repro-lint: allow[alloc-in-loop] heap pops, no numpy allocation
            ticket = heapq.heappop(heap)[2]
            ticket.batch = self._batches
            ticket.slot = slot
            tickets.append(ticket)
            self._tenant_depth[ticket.tenant] -= 1
        self._batches += 1
        batch_size = _bucket_size(len(tickets), entry.max_batch)
        try:
            rows = self._run(entry, [t.payload for t in tickets], batch_size)
        except Exception:
            self._fallbacks += 1
            self._run_individually(entry, tickets)
            return
        self._resolve_rows(entry, tickets, rows)

    def _run(self, entry, payloads, batch_size):
        batch = entry.collator.collate(payloads, batch_size)
        values = _to_arrays(batch)
        if _signature(values) not in entry.signatures:
            raise AdmissionError(
                "model {!r} was not warmed for this batch signature; "
                "register an example payload with this shape".format(
                    entry.name))
        # Measure through the injected clock: under a SimulatedClock the
        # measurement is 0.0 (and the service model below supplies the
        # modeled cost), so wall time never leaks into estimator state
        # on a simulated timeline — replays stay bit-exact.
        start = self.clock()
        rows = entry.plan.run(values, copy=False)
        elapsed = self.clock() - start
        if self.service_model is not None \
                and hasattr(self.clock, "advance"):
            elapsed = float(self.service_model(entry.name, batch_size))
            self.clock.advance(elapsed)
        entry.estimator.observe(batch_size, elapsed)
        return rows

    def _run_individually(self, entry, tickets):
        for ticket in tickets:
            try:
                rows = self._run(entry, [ticket.payload], 1)
            except Exception as error:  # repro-lint: allow[alloc-in-loop] fallback path, one request at a time
                self._resolve_error(ticket, error, self.clock())
                continue
            self._resolve_rows(entry, [ticket], rows)

    def _resolve_rows(self, entry, tickets, rows):
        now = self.clock()
        rows = np.asarray(rows)
        for index, ticket in enumerate(tickets):
            row = np.array(rows[index], copy=True)  # repro-lint: allow[alloc-in-loop] per-request result copy out of the arena
            bad = np.issubdtype(row.dtype, np.floating) \
                and not np.all(np.isfinite(row))
            if bad:
                self._resolve_error(ticket, NumericError(
                    "inference output for this request contains NaN/Inf "
                    "(row {} of a batch of {})".format(index, len(tickets))
                ), now)
                continue
            route = ticket.route
            if route is not None and not ticket.escalated \
                    and ticket.model == route.fast:
                # Counted where the gate decides, so an escalated ticket
                # that then fails on the full model is still counted.
                decision = route.decide(row[None, :])
                if decision.exit_mask[0]:
                    self.stats[ticket.tenant].cascade_fast += 1
                    self._resolve_result(ticket, row, now)
                else:
                    self.stats[ticket.tenant].cascade_escalated += 1
                    self._escalate(ticket, route)
                continue
            self._resolve_result(ticket, row, now)

    def _escalate(self, ticket, route):
        """Re-queue an uncertain cascade answer on the full model.

        The ticket keeps its original ``submitted_at`` (the client has
        been waiting the whole time) and is not re-admitted: its token
        was charged once at submit.
        """
        entry = self.registry.entries[route.full]
        ticket.model = route.full
        ticket.escalated = True
        ticket.batch = None
        ticket.slot = None
        self._enqueue(entry, ticket, self.tenants[ticket.tenant].priority)

    # -- resolution accounting ----------------------------------------
    def _resolve_result(self, ticket, row, now):
        ticket._resolve(row, None, now)
        stats = self.stats[ticket.tenant]
        stats.served += 1
        stats.latencies.append(ticket.latency)
        if stats.slo_s is not None and ticket.latency > stats.slo_s:
            stats.slo_misses += 1
        self.resolved["result"] += 1

    def _resolve_error(self, ticket, error, now):
        ticket._resolve(None, error, now)
        stats = self.stats[ticket.tenant]
        if isinstance(error, AdmissionError):
            stats.rejected += 1
            self.resolved["rejected"] += 1
        elif isinstance(error, NumericError):
            stats.failed += 1
            self.resolved["numeric_error"] += 1
        else:
            stats.failed += 1
            self.resolved["error"] += 1

    # -- reporting -----------------------------------------------------
    def metrics(self):
        """Per-tenant latency percentiles and outcome counters."""
        tenants = {}
        for name, stats in self.stats.items():
            ordered = np.sort(np.asarray(stats.latencies)) \
                if stats.latencies else np.zeros(0)  # repro-lint: allow[alloc-in-loop] reporting path, not a replay step
            cascade_total = stats.cascade_fast + stats.cascade_escalated
            tenants[name] = {
                "served": stats.served,
                "rejected": stats.rejected,
                "failed": stats.failed,
                "p50_latency_s": float(np.percentile(ordered, 50))
                if ordered.size else None,
                "p99_latency_s": float(np.percentile(ordered, 99))
                if ordered.size else None,
                "slo_s": stats.slo_s,
                "slo_misses": stats.slo_misses,
                "cascade_requests": cascade_total,
                "cascade_escalated": stats.cascade_escalated,
            }
        total_cascade = sum(t["cascade_requests"] for t in tenants.values())
        total_escalated = sum(t["cascade_escalated"]
                              for t in tenants.values())
        return {
            "tenants": tenants,
            "submitted": self.submitted,
            "resolved": dict(self.resolved),
            "batches": self._batches,
            "fallbacks": self._fallbacks,
            "escalation_rate": (total_escalated / total_cascade)
            if total_cascade else 0.0,
        }
