"""Open-loop traffic generation and the fleet soak harness.

Serving benchmarks that submit a request only after the previous one
resolves (closed loop) hide queueing delay — the very thing an SLO is
about.  This module generates *open-loop* arrivals: a timestamped
schedule drawn up front from a seeded RNG, independent of how fast the
server drains it.

The workload model follows the paper's mobile-population setting:

* a **diurnal** base rate — a sinusoid over ``period_s`` scaled by
  ``diurnal_amplitude``, sampled by Poisson thinning, standing in for
  the day/night cycle of a mobile user base;
* **bursts** — a secondary Poisson process of burst events, each
  injecting ``burst_size`` back-to-back arrivals (push-notification
  fan-in);
* **slow clients** — each arrival's submit time is shifted by an upload
  delay scaled by :meth:`repro.faults.FaultInjector.straggler_factor`,
  so the keyed-RNG straggler oracle decides which clients are on bad
  links, deterministically per seed.

Everything is fixed the moment ``seed`` is: the same spec and seed
produce the identical arrival list, which is what makes the 10k-request
soak test (:func:`run_soak`) replayable bit-for-bit on a
:class:`~repro.faults.SimulatedClock`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..rng import derive_rng

__all__ = [
    "Arrival",
    "OpenLoopTraffic",
    "TenantLoad",
    "TrafficSpec",
    "run_soak",
]


@dataclass(frozen=True)
class TrafficSpec:
    """Shape of one open-loop workload."""

    base_rate: float = 50.0         # mean arrivals per second
    diurnal_amplitude: float = 0.0  # [0, 1): rate swing around the mean
    period_s: float = 240.0         # one simulated "day"
    burst_rate: float = 0.0         # burst events per second (Poisson)
    burst_size: int = 0             # arrivals injected per burst event
    slow_upload_s: float = 0.0      # nominal upload time (stragglers scale it)

    def __post_init__(self):
        if self.base_rate <= 0:
            raise ValueError("base_rate must be positive")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if self.period_s <= 0:
            raise ValueError("period_s must be positive")
        if self.burst_rate < 0 or self.burst_size < 0:
            raise ValueError("burst_rate and burst_size must be >= 0")
        if self.slow_upload_s < 0:
            raise ValueError("slow_upload_s must be >= 0")


@dataclass(frozen=True)
class TenantLoad:
    """One tenant's share of the generated traffic.

    Exactly one of ``route`` (cascade name) or ``model`` (registry entry
    name) says where this tenant's requests go.
    """

    name: str
    weight: float = 1.0
    route: str = None
    model: str = None

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if (self.route is None) == (self.model is None):
            raise ValueError("set exactly one of route= or model=")


class Arrival:
    """One scheduled request: who submits what, where, and when."""

    __slots__ = ("time", "tenant", "route", "model", "client",
                 "upload_delay_s")

    def __init__(self, time, tenant, route, model, client, upload_delay_s):
        self.time = time
        self.tenant = tenant
        self.route = route
        self.model = model
        self.client = client
        self.upload_delay_s = upload_delay_s

    def __repr__(self):
        return "Arrival(t={:.3f}, tenant={!r}, client={})".format(
            self.time, self.tenant, self.client)


class OpenLoopTraffic:
    """Seeded open-loop arrival generator over a set of tenants.

    ``injector`` (a :class:`~repro.faults.FaultInjector`) supplies the
    slow-client oracle; without one every upload takes the nominal
    ``slow_upload_s``.

    ``seed`` is required: an open-loop schedule exists to be replayed,
    and a silent default would share one arrival stream across every
    benchmark that forgot to pick a seed (the mechanisms convention from
    :mod:`repro.privacy.mechanisms`, applied to traffic).
    """

    def __init__(self, spec, loads, seed=None, injector=None):
        if not loads:
            raise ValueError("at least one TenantLoad is required")
        if seed is None:
            raise ValueError(
                "OpenLoopTraffic needs an explicit seed= so the arrival "
                "schedule is a replayable artifact, not ambient state")
        self.spec = spec
        self.loads = tuple(loads)
        self.seed = int(seed)
        self.injector = injector

    def rate(self, t):
        """Instantaneous arrival rate at simulated time ``t``."""
        spec = self.spec
        swing = math.sin(2.0 * math.pi * t / spec.period_s)
        return spec.base_rate * (1.0 + spec.diurnal_amplitude * swing)

    def _assign(self, times, rng):
        weights = np.asarray([load.weight for load in self.loads],
                             dtype=np.float64)  # repro-lint: allow[dtype-literal] rng.choice probabilities, not model data
        weights = weights / weights.sum()
        picks = rng.choice(len(self.loads), size=len(times), p=weights)
        arrivals = []
        for client, (t, pick) in enumerate(zip(times, picks)):
            load = self.loads[pick]
            delay = 0.0
            if self.spec.slow_upload_s > 0.0:
                factor = 1.0
                if self.injector is not None:
                    factor = self.injector.straggler_factor(0, client)
                delay = self.spec.slow_upload_s * factor
            arrivals.append(Arrival(t + delay, load.name, load.route,
                                    load.model, client, delay))
        arrivals.sort(key=lambda a: (a.time, a.client))
        return arrivals

    def arrivals(self, duration_s):
        """The full arrival schedule for ``duration_s`` simulated seconds.

        Diurnal arrivals come from Poisson thinning of a homogeneous
        process at the peak rate; bursts from an independent Poisson
        event stream.  Deterministic given (spec, loads, seed).
        """
        spec = self.spec
        rng = derive_rng(self.seed, "serve-traffic")
        peak = spec.base_rate * (1.0 + spec.diurnal_amplitude)
        times = []
        t = 0.0
        while True:
            t += rng.exponential(1.0 / peak)
            if t >= duration_s:
                break
            if rng.random() * peak <= self.rate(t):
                times.append(t)
        if spec.burst_rate > 0.0 and spec.burst_size > 0:
            t = 0.0
            while True:
                t += rng.exponential(1.0 / spec.burst_rate)
                if t >= duration_s:
                    break
                times.extend([t] * spec.burst_size)
        times.sort()
        return self._assign(times, rng)


def run_soak(fleet, arrivals, payload_for, clock, injector=None,
             corruption_round=0):
    """Replay an arrival schedule against a fleet; returns the tickets.

    The simulated ``clock`` is advanced to each arrival's submit time
    (polling the fleet first, so wait deadlines and SLO slack fire at
    the right simulated moments); after the last arrival the fleet is
    flushed, so every ticket comes back resolved.  ``payload_for`` maps
    an :class:`Arrival` to the request payload; when ``injector`` says
    :meth:`~repro.faults.FaultInjector.corrupts` for the arrival's
    client, the payload is NaN-splattered through the injector's keyed
    RNG — the soak asserts those tickets resolve as numeric errors, not
    as answers.
    """
    tickets = []
    for arrival in arrivals:
        if arrival.time > clock.now:
            clock.advance(arrival.time - clock.now)
        fleet.poll()
        payload = payload_for(arrival)
        if injector is not None \
                and injector.corrupts(corruption_round, arrival.client):
            payload = injector.corrupt(
                {"payload": np.asarray(payload)},
                corruption_round, arrival.client)["payload"]
        tickets.append(fleet.submit(arrival.tenant, payload,
                                    route=arrival.route,
                                    model=arrival.model))
    fleet.flush()
    return tickets
