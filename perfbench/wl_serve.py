"""serve-openloop: a two-model DeepMood fleet under open-loop arrivals.

A :class:`~repro.serve.ModelRegistry` holds two compiled
``MultiViewGRUClassifier`` plans, ``full`` (hidden 16, MVM fusion) and a
smaller ``fast`` one, behind a fast -> full cascade.  Three tenants
share it: ``mobile`` (cascade, 20 ms SLO, priority 0), ``batch``
(direct ``full``, no SLO) and ``partner`` (direct ``fast``, capped
queue).

The :class:`~repro.serve.FleetServer` runs on the real clock and the
load is open loop: the whole schedule is drawn from the seed before
serving starts (diurnal Poisson arrivals plus bursts; every view's
length drawn from 3 to 16 steps, so three length buckets are live), and
one thread submits each request at its due time whatever the backlog.
The fleet has no timer of its own, so the same thread calls ``poll``
when the oldest queued request reaches its ``max_wait_ms`` deadline, as
a server's event loop would.  Latency is timed from the due time: when
a busy server holds the generator up, the delay counts against the
server.

A ladder of fixed offered rates runs ``CYCLES`` times over, each phase
(one rung in one cycle) for an equal share of the run, so every rung
samples the host across the whole run rather than one stretch of it.
Per rung the benchmark pools its phases and reports latency from due
time, generator lag, the backlog trend and whether the rung was
sustained; a rung is invalid when the generator itself, not the server,
fell behind.

"""

import collections

import numpy as np

from common import (clock, digest, input_rng, mean, median, percentile_ms,
                    span_mean_ms)
from repro.core.model import MultiViewGRUClassifier
from repro.serve import FleetServer, ModelRegistry, TenantConfig
from repro.serve import fleet as fleet_module
from repro.serve.server import MultiViewCollator

VIEW_DIMS = (4, 6, 3)
# (shortest, longest) steps of every view of a request in each bucket.
LENGTH_BUCKETS = ((3, 4), (5, 8), (9, 16))
MAX_BATCH = 8
SLO_S = 0.020
MAX_WAIT_S = 0.002
PARTNER_QUEUE = 64
# Normalized-entropy gate of the cascade: about half of the fast
# model's answers go on to the full model.
CASCADE_THRESHOLD = 0.97
# Offered requests/s per rung; the NOMINAL rung gives the end-to-end
# latencies.
RUNGS = (100.0, 200.0, 400.0, 800.0)
NOMINAL = 1
CYCLES = 4
TENANTS = (("mobile", 2.0, {"route": "cascade"}),
           ("batch", 1.0, {"model": "full"}),
           ("partner", 1.0, {"model": "fast"}))
DIURNAL_SWING = 0.5
BURST_SHARE = 0.2
BURST_SIZE = 4
CHECKS_PER_PHASE = 8
DRAIN_S = 2.0
# A rung is invalid when the p99 of the generator's own lateness (not
# explained by a fleet call still running at the due time) exceeds this.
GENERATOR_LAG_LIMIT_S = 0.001
TAIL_Q = 75
PLAN_SPANS = ("serve.plan.run.fast", "serve.plan.run.full")


def make_inputs(seed, seconds):
    """Arrival schedule and payloads of every phase, drawn from ``seed``.

    Phase ``i`` runs rung ``i % len(RUNGS)``.
    """
    rng = input_rng(seed, "serve-openloop")
    duration = float(seconds) / (len(RUNGS) * CYCLES)
    weights = np.array([weight for _, weight, _ in TENANTS])
    phases = []
    for rate in RUNGS * CYCLES:
        offsets = _arrival_offsets(rng, rate, duration)
        tenants = rng.choice(len(TENANTS), size=offsets.size,
                             p=weights / weights.sum())
        payloads = []
        for bucket in rng.integers(0, len(LENGTH_BUCKETS), size=offsets.size):
            low, high = LENGTH_BUCKETS[bucket]
            payloads.append([
                rng.standard_normal((int(rng.integers(low, high + 1)), dim))
                for dim in VIEW_DIMS])
        phases.append({"rate": rate, "offsets": offsets, "tenants": tenants,
                       "payloads": payloads})
    return {"seed": seed, "phases": phases, "digest": digest(phases)}


def _arrival_offsets(rng, rate, duration):
    """Diurnal Poisson arrivals by thinning, plus bursts, sorted.

    The smooth part ramps from (1 - swing) to (1 + swing) times its mean
    across the phase, so each phase ends at its peak load, where a
    growing backlog shows.
    """
    smooth = rate * (1.0 - BURST_SHARE)
    peak = smooth * (1.0 + DIURNAL_SWING)
    times = rng.uniform(0.0, duration, rng.poisson(peak * duration))
    level = smooth * (1.0 - DIURNAL_SWING * np.cos(np.pi * times / duration))
    times = times[rng.random(times.size) * peak <= level]
    events = rng.uniform(0.0, duration, rng.poisson(
        rate * BURST_SHARE / BURST_SIZE * duration))
    return np.sort(np.concatenate([times, np.repeat(events, BURST_SIZE)]))


def build_registry():
    """Compile, audit, color and freeze both plans behind the cascade."""
    models = {
        "fast": MultiViewGRUClassifier(VIEW_DIMS, hidden_size=6, fusion="fc",
                                       fusion_units=4, seed=12),
        "full": MultiViewGRUClassifier(VIEW_DIMS, hidden_size=16,
                                       fusion="mvm", fusion_units=8, seed=11),
    }
    examples = [[np.zeros((high, dim)) for dim in VIEW_DIMS]
                for _, high in LENGTH_BUCKETS]
    registry = ModelRegistry()
    for name, model in models.items():
        model.eval()
        registry.register(name, model, MultiViewCollator(
            VIEW_DIMS, max_length=LENGTH_BUCKETS[-1][1]), examples,
            max_batch=MAX_BATCH)
    registry.add_cascade("cascade", "fast", "full",
                         threshold=CASCADE_THRESHOLD, normalize=True)
    registry.freeze()
    return registry


def make_fleet(registry):
    return FleetServer(registry, [
        TenantConfig("mobile", priority=0, slo_s=SLO_S),
        TenantConfig("batch", priority=2),
        TenantConfig("partner", priority=1, max_queue=PARTNER_QUEUE),
    ], clock=clock, max_wait_ms=1000.0 * MAX_WAIT_S)


class _Driver:
    """Submits schedules on time and polls the fleet at queue deadlines."""

    def __init__(self, fleet, tracer):
        self.fleet = fleet
        self.tracer = tracer
        self.queued = collections.deque()   # unresolved tickets, oldest first
        self.busy = 0.0                     # seconds inside fleet calls
        self.last_end = -np.inf             # when the last fleet call returned

    def wait(self, target, until_empty=False):
        """Poll at every queue deadline until ``target``; returns the time.

        It spins rather than sleeps: a process that sleeps between
        arrivals on a shared host wakes late, and on a cold CPU, by an
        amount that follows the neighbours' load, and that lateness
        would count as latency.
        """
        queued = self.queued
        while True:
            now = clock()
            while queued and queued[0].done:
                queued.popleft()
            if until_empty and not queued:
                return now
            if queued and queued[0].submitted_at + MAX_WAIT_S <= now:
                self.fleet.poll()
                self.last_end = clock()
                self.busy += self.last_end - now
                continue
            if now >= target:
                return now

    def drive(self, phase, label):
        """Submit one phase's schedule, then drain; returns its timings."""
        offsets = phase["offsets"]
        count = offsets.size
        due = np.empty(count)
        lag = np.empty(count)
        gen_lag = np.empty(count)
        backlog = np.empty(count)
        tickets = []
        busy = self.busy
        start = clock() + 0.001
        for index in range(count):
            due[index] = start + offsets[index]
            now = self.wait(due[index])
            lag[index] = now - due[index]
            gen_lag[index] = max(0.0, now - max(due[index], self.last_end))
            name, _, route = TENANTS[phase["tenants"][index]]
            if self.tracer is not None:
                self.tracer.tag = "{}:{}".format(label, index)
            ticket = self.fleet.submit(name, phase["payloads"][index], **route)
            self.last_end = clock()
            self.busy += self.last_end - now
            backlog[index] = self.fleet.pending
            tickets.append(ticket)
            if not ticket.done:
                self.queued.append(ticket)
        if self.tracer is not None:
            self.tracer.tag = label
        self.wait(clock() + DRAIN_S, until_empty=True)
        if self.fleet.pending:
            now = clock()
            self.fleet.flush()
            self.busy += clock() - now
        return {"tickets": tickets, "due": due, "lag": lag,
                "gen_lag": gen_lag, "backlog": backlog,
                "busy": self.busy - busy}


def _latency(run):
    """Seconds from due time to answer of each served request of a phase."""
    return np.array([ticket.submitted_at + ticket.latency - due
                     for ticket, due in zip(run["tickets"], run["due"])
                     if not ticket.failed])


def _backlog_trend(backlog):
    """Mean queue depth over a phase's last quarter minus its second."""
    quarter = max(1, len(backlog) // 4)
    return mean(backlog[-quarter:]) - mean(backlog[quarter:2 * quarter])


def _summarize(rate, runs):
    """One rung's outcome counts, latencies from due time and hygiene.

    ``runs`` are the rung's phases, one per cycle; their requests pool,
    and the backlog trend is that of the phase where it grew most.
    """
    tickets = [ticket for run in runs for ticket in run["tickets"]]
    lag, gen_lag = (np.concatenate([run[key] for run in runs])
                    for key in ("lag", "gen_lag"))
    sent = len(tickets)
    served = sum(not ticket.failed for ticket in tickets)
    rejected = sum(ticket.rejected for ticket in tickets)
    latency = np.concatenate([_latency(run) for run in runs])
    on_time = int(np.count_nonzero(latency <= SLO_S))
    trend = max(_backlog_trend(run["backlog"]) for run in runs)
    valid = percentile_ms(gen_lag, 99) <= 1000.0 * GENERATOR_LAG_LIMIT_S
    return {
        "rate": rate, "sent": sent, "served": served, "rejected": rejected,
        "failed": sent - served - rejected,
        "p50_ms": percentile_ms(latency, 50),
        "tail_ms": percentile_ms(latency, TAIL_Q),
        "p99_ms": percentile_ms(latency, 99),
        "on_time_frac": on_time / sent if sent else 1.0,
        "lag_p50_ms": percentile_ms(lag, 50),
        "lag_p99_ms": percentile_ms(lag, 99),
        "gen_lag_p99_ms": percentile_ms(gen_lag, 99),
        "backlog_trend": trend,
        "valid": valid,
        # Sustained: 99% of sent requests answered within the SLO, no
        # backlog growth of a full batch or more, generator on time.
        "sustained": valid and trend < MAX_BATCH and on_time >= 0.99 * sent,
        "busy_s": sum(run["busy"] for run in runs),
    }


def _check_answers(registry, runs, seed):
    """Re-run sampled answers one at a time; returns (checked, mismatches).

    Direct answers must equal their model's ``Plan.run``; cascade answers
    must follow the gate on the fast model's answer and equal the model
    that gate picks.
    """
    rng = input_rng(seed, "serve-checks")
    route = registry.routes["cascade"]

    def direct(name, payload):
        entry = registry.entries[name]
        return entry.plan.run(entry.collator.collate([payload], 1))[0]

    checked = mismatches = 0
    for run in runs:
        answered = [ticket for ticket in run["tickets"] if not ticket.failed]
        for pick in rng.permutation(len(answered))[:CHECKS_PER_PHASE]:
            ticket = answered[pick]
            if ticket.route is None:
                expected = direct(ticket.model, ticket.payload)
            else:
                fast = direct(route.fast, ticket.payload)
                exits = bool(route.decide(fast[None, :]).exit_mask[0])
                mismatches += exits == ticket.escalated
                expected = direct(route.full, ticket.payload) \
                    if ticket.escalated else fast
            mismatches += not np.allclose(ticket.result(), expected,
                                          rtol=1e-6, atol=1e-9)
            checked += 1
    return checked, mismatches


def _install(tracer, fleet, registry):
    for method in ("submit", "poll", "flush"):
        tracer.patch(fleet, method, "serve.fleet." + method)
    for name, entry in registry.entries.items():
        tracer.patch(entry.plan, "run", "serve.plan.run." + name)
        tracer.patch(entry.collator, "collate", "serve.server.collate." + name,
                     note=lambda args, kwargs: len(args[0]))
    tracer.patch(fleet_module, "exit_gate", "serve.cascade.decide")


def _layers(tracer, fleet, tickets):
    """Per-layer figures from the spans; False when batches do not join."""
    table = tracer.self_times()
    layers = {}
    collates = []
    for name in ("fast", "full"):
        layers["serve.plan.run_us." + name] = \
            1000.0 * span_mean_ms(tracer, "serve.plan.run." + name)
        spans = tracer.named("serve.server.collate." + name)
        collates.extend(spans)
        layers["serve.fleet.batch_rows." + name] = \
            mean([span[5] for span in spans])
    layers["serve.server.collate_us"] = 1e6 * mean(
        [end - start for _, start, end, _, _, _ in collates])
    # Scheduling self time: submit/poll/flush minus their plan, collate
    # and gate children.
    sched = sum(table.get("serve.fleet." + method, (0, 0.0, 0.0))[2]
                for method in ("submit", "poll", "flush"))
    layers["serve.fleet.sched_us_per_req"] = 1e6 * sched / len(tickets)
    # Batch k of the fleet is its k-th plan run: join tickets on it.
    starts = [span[1] for span in tracer.spans if span[0] in PLAN_SPANS]
    joined = len(starts) == fleet.metrics()["batches"]
    waits = [starts[ticket.batch] - ticket.submitted_at for ticket in tickets
             if joined and not ticket.failed]
    layers["serve.fleet.queue_wait_ms.p50"] = percentile_ms(waits, 50)
    layers["serve.fleet.queue_wait_ms.p99"] = percentile_ms(waits, 99)
    layers["serve.cascade.decide_us"] = \
        1000.0 * span_mean_ms(tracer, "serve.cascade.decide")
    return layers, joined


def _counters(rungs, tickets):
    nominal = rungs[NOMINAL]
    cascade = [ticket for ticket in tickets
               if ticket.route is not None and not ticket.failed]
    escalated = sum(ticket.escalated for ticket in cascade)
    return {
        "serve.fleet.reject_frac":
            sum(ticket.rejected for ticket in tickets) / len(tickets),
        "serve.cascade.escalation_frac":
            escalated / len(cascade) if cascade else 0.0,
        "serve.cascade.fast_answer_frac":
            1.0 - escalated / len(cascade) if cascade else 0.0,
        "serve.max_rps": max([rung["rate"] for rung in rungs
                              if rung["sustained"]], default=0.0),
        "serve.fail_frac": (nominal["rejected"] + nominal["failed"])
        / max(1, nominal["sent"]),
        "serve.gen_lag_ms.p99": nominal["gen_lag_p99_ms"],
        "serve.backlog_trend": nominal["backlog_trend"],
    }


def _build(setup, tracer=None):
    """Build a registry, appending the time taken to ``setup``.

    A traced build inside the run gets its own span, so it does not count
    as the benchmark's own time.
    """
    index = None if tracer is None else tracer.begin("serve.registry.build")
    started = clock()
    registry = build_registry()
    setup.append(clock() - started)
    if index is not None:
        tracer.end(index)
    return registry


def run(inputs, seconds, tracer, scratch):
    # Set-up time is the median of one build before the first phase and
    # one after each cycle, so it samples the host across the whole run.
    setup = []
    registry = _build(setup)
    fleet = make_fleet(registry)
    driver = _Driver(fleet, tracer)
    if tracer is not None:
        _install(tracer, fleet, registry)
        root = tracer.begin("bench.serve")
    started = clock()
    runs = []
    for index, phase in enumerate(inputs["phases"]):
        runs.append(driver.drive(phase, "phase{}".format(index)))
        if (index + 1) % len(RUNGS) == 0:
            _build(setup, tracer)
    wall = clock() - started
    if tracer is not None:
        tracer.end(root)
        tracer.restore()
    tickets = [ticket for run in runs for ticket in run["tickets"]]
    rungs = [_summarize(rate, runs[index::len(RUNGS)])
             for index, rate in enumerate(RUNGS)]
    nominal = rungs[NOMINAL]
    metrics = fleet.metrics()
    served = sum(rung["served"] for rung in rungs)
    rejected = sum(rung["rejected"] for rung in rungs)
    errors = sum(rung["failed"] for rung in rungs)
    checked, mismatches = _check_answers(registry, runs, inputs["seed"])
    gates = {
        "tickets_resolve_once": all(ticket.done for ticket in tickets)
        and served + rejected + errors == len(tickets)
        and metrics["submitted"] == len(tickets)
        and sum(metrics["resolved"].values()) == len(tickets),
        "answers_match_direct_plan": checked > 0 and mismatches == 0,
    }
    layers = {}
    if tracer is not None:
        layers, gates["spans_join_batches"] = _layers(tracer, fleet, tickets)
    busy = sum(rung["busy_s"] for rung in rungs)
    counters = _counters(rungs, tickets)
    return {
        "ops": {"attempted": len(tickets),
                "failed": rejected + errors + mismatches,
                "served": served, "rejected": rejected, "errors": errors,
                "escalated": sum(ticket.escalated for ticket in tickets),
                "batches": metrics["batches"], "answers_checked": checked},
        "gates": gates,
        "e2e": {"ops_per_s": served / busy,
                "p50_ms": nominal["p50_ms"],
                "tail_ms": nominal["tail_ms"],
                "setup_s": median(setup)},
        "counters": counters,
        "named": {"serve_p50_ms": (nominal["p50_ms"], "ms"),
                  "serve_p99_ms": (nominal["p99_ms"], "ms"),
                  "serve_max_rps": (counters["serve.max_rps"], "1/s"),
                  "serve_fail_frac": (counters["serve.fail_frac"], "ratio")},
        "layers": layers,
        "busy_s": busy, "busy_ops": len(tickets), "wall_s": wall,
        "detail": {"rungs": rungs, "nominal_rate": RUNGS[NOMINAL],
                   "cycles": CYCLES, "setup_s": setup},
    }
