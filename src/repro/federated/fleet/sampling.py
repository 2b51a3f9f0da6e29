"""Vectorized per-round client sampling: every federated loop's sampler.

Selection is a pure function of ``(seed, round_index)`` through the
``fleet-sample`` RNG namespace: one uniform vector per round drives
every policy, so two loops configured alike pick the same devices no
matter how many rounds either has already run — which is also what
makes checkpoint resume free of sampler state.  ``FedAvg``, ``FedSGD``
and the :class:`~repro.federated.fleet.FleetSimulator` all sample here.

Three policies:

* ``uniform`` — a uniform ``count``-subset of the eligible devices;
* ``battery-aware`` — an exponential race weighted by state of charge,
  so full devices are proportionally more likely without starving
  low-battery ones entirely;
* ``stratified-by-link`` — slots split across connectivity tiers
  proportionally to each tier's eligible population (largest-remainder
  rounding), then uniform within a tier, so constrained links stay
  represented instead of being crowded out.

Given an ``hour``, the paper's eligibility policy (Sec. II-B) narrows
the eligible set further: a device trains only while it is idle,
charging and on unmetered WiFi.  How much battery it needs is the
``min_battery`` rule on the fleet's own ``battery`` column, which
applies with or without an hour.  Each device's daily schedule is a
pure function of the seed (the ``mobile-device`` stream); its
conditions in a round are drawn from the round's generator after the
uniform keys, so an hour changes who is eligible, never the keys.
"""

from __future__ import annotations

import numpy as np

from ...rng import derive_rng
from .state import LINK_TIERS

__all__ = ["SAMPLING_POLICIES", "sample_clients"]

SAMPLING_POLICIES = ("uniform", "battery-aware", "stratified-by-link")

# Floor for the battery weight: keeps the race finite for devices at
# exactly the eligibility threshold.
_MIN_WEIGHT = 1e-9


def sample_clients(state, round_index, fraction, policy="uniform", seed=0,
                   min_battery=0.2, hour=None):
    """Row indices (ascending) of this round's participants.

    ``fraction`` is relative to the *eligible* population; at least one
    device is selected whenever any is eligible.  With ``hour`` (hours
    since the start, any float) only the devices the eligibility policy
    admits at that hour are eligible; without it, the columns alone
    decide.
    """
    if policy not in SAMPLING_POLICIES:
        raise ValueError(
            "unknown sampling policy {!r}; pick one of {}".format(
                policy, SAMPLING_POLICIES))
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    eligible = state.eligible(min_battery)
    rng = derive_rng(seed, "fleet-sample", int(round_index))
    uniforms = rng.random(state.num_clients)
    if hour is not None:
        eligible &= _policy_admits(state.num_clients, hour, rng, seed)
    num_eligible = int(eligible.sum())
    if num_eligible == 0:
        return np.empty(0, dtype=np.int64)
    count = min(max(1, int(round(fraction * num_eligible))), num_eligible)
    if policy == "stratified-by-link":
        return _stratified(state, eligible, uniforms, count)
    if policy == "uniform":
        keys = uniforms
    else:  # battery-aware
        keys = -np.log1p(-uniforms) / np.maximum(state.battery, _MIN_WEIGHT)
    keys[~eligible] = np.inf  # in place: keys is this call's own array
    picks = np.argpartition(keys, count - 1)[:count]
    return np.sort(picks).astype(np.int64)


def _policy_admits(num_clients, hour, rng, seed):
    """Mask of devices idle, charging and on unmetered WiFi at ``hour``.

    Users charge overnight, are idle while asleep and are on home WiFi
    in the evening and at night; each device shifts that day by up to
    6 h and has its own home-WiFi probability, both drawn from the
    seed's ``mobile-device`` stream.  The conditions themselves are
    drawn from ``rng``.
    """
    schedule = derive_rng(seed, "mobile-device")
    night_owl = schedule.uniform(-0.5, 1.0, num_clients)
    wifi_at_home = np.clip(schedule.normal(0.9, 0.08, num_clients), 0.4, 1.0)
    local = (float(hour) % 24.0 + 6.0 * night_owl) % 24.0
    asleep = np.where((local >= 23.0) | (local < 7.0), 0.9, 0.1)
    charging_p = np.where((local >= 22.0) | (local < 7.5), 0.85, 0.15)
    wifi_p = np.where((local >= 18.0) | (local < 8.5), wifi_at_home, 0.35)
    charging = rng.random(num_clients) < charging_p
    idle = ((rng.random(num_clients) < asleep)
            | (rng.random(num_clients) < 0.15))
    wifi = rng.random(num_clients) < wifi_p
    return charging & idle & wifi


def _stratified(state, eligible, uniforms, count):
    """Proportional allocation across link tiers, uniform within each."""
    tiers = state.link_tier
    num_tiers = len(LINK_TIERS)
    sizes = np.bincount(tiers[eligible], minlength=num_tiers)
    quota = count * sizes / max(int(sizes.sum()), 1)
    alloc = np.floor(quota).astype(np.int64)
    order = np.argsort(-(quota - alloc), kind="stable")
    alloc[order[:count - int(alloc.sum())]] += 1
    alloc = np.minimum(alloc, sizes)
    # Rounding can leave slots unfilled when a tier saturates; hand them
    # to the tiers with spare eligible devices (tier order, O(tiers)).
    deficit = count - int(alloc.sum())
    for tier in range(num_tiers):
        if deficit <= 0:
            break
        grant = min(deficit, int(sizes[tier] - alloc[tier]))
        alloc[tier] += grant
        deficit -= grant
    keys = np.where(eligible, uniforms, np.inf)
    order = np.lexsort((keys, tiers))
    counts_all = np.bincount(tiers, minlength=num_tiers)
    starts = np.concatenate([[0], np.cumsum(counts_all)[:-1]])
    ranks = np.empty(state.num_clients, dtype=np.int64)
    ranks[order] = (np.arange(state.num_clients, dtype=np.int64)
                    - np.repeat(starts, counts_all))
    return np.flatnonzero(ranks < alloc[tiers]).astype(np.int64)
