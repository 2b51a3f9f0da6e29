"""Vectorized per-round client sampling policies.

Selection is a pure function of ``(seed, round_index)`` through the
``fleet-sample`` RNG namespace: one uniform vector per round drives
every policy, so two simulators configured alike pick the same devices
no matter how many rounds either has already run — which is also what
makes checkpoint resume free of sampler state.

Three policies (the tentpole's eligibility/sampling trio):

* ``uniform`` — a uniform ``count``-subset of the eligible devices;
* ``battery-aware`` — an exponential race weighted by state of charge,
  so full devices are proportionally more likely without starving
  low-battery ones entirely;
* ``stratified-by-link`` — slots split across connectivity tiers
  proportionally to each tier's eligible population (largest-remainder
  rounding), then uniform within a tier, so constrained links stay
  represented instead of being crowded out.
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
                   min_battery=0.2):
    """Row indices (ascending) of this round's participants.

    ``fraction`` is relative to the *eligible* population; at least one
    device is selected whenever any is eligible.
    """
    if policy not in SAMPLING_POLICIES:
        raise ValueError(
            "unknown sampling policy {!r}; pick one of {}".format(
                policy, SAMPLING_POLICIES))
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    eligible = state.eligible(min_battery)
    num_eligible = int(eligible.sum())
    if num_eligible == 0:
        return np.empty(0, dtype=np.int64)
    count = min(max(1, int(round(fraction * num_eligible))), num_eligible)
    rng = derive_rng(seed, "fleet-sample", int(round_index))
    uniforms = rng.random(state.num_clients)
    if policy == "stratified-by-link":
        return _stratified(state, eligible, uniforms, count)
    if policy == "uniform":
        keys = uniforms
    else:  # battery-aware
        keys = -np.log1p(-uniforms) / np.maximum(state.battery, _MIN_WEIGHT)
    keys[~eligible] = np.inf  # in place: keys is this call's own array
    picks = np.argpartition(keys, count - 1)[:count]
    return np.sort(picks).astype(np.int64)


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
