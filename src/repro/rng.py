"""Central keyed-RNG derivation: one namespace registry, zero collisions.

Every stochastic subsystem in this repository derives its random streams
from a user seed plus a *coordinate* — ``(seed, client_id)`` for a
federated participant, ``(seed, 0x70AF)`` for the traffic generator, and
so on.  Grown organically, those ad-hoc tuples can collide: with the
same user seed, a :class:`~repro.federated.FederatedClient` with
``client_id=3`` and a selective-SGD participant with
``participant_id=3`` would draw from the *same* PCG64 stream, silently
coupling two subsystems the replay-determinism story treats as
independent.

This module closes that hole structurally.  A keyed stream is derived as

    ``np.random.default_rng((int(seed), NAMESPACES[name], *coords))``

where ``NAMESPACES`` assigns each stream family a distinct constant
``>= 2**16``.  Two facts make cross-family collisions impossible, and
:mod:`repro.analysis.determinism.streams` machine-checks both:

* two derived families always differ at the namespace position, and
* legacy families that keep their historical tuples (the
  :class:`~repro.faults.FaultInjector` schedule contract, secure
  aggregation's pair masks, the typing-dynamics cohort) carry small
  bounded integers (tags ``< 16``, ids ``< 2**14``) where a namespace
  constant would sit, so they can never unify with a derived tuple.

``NAMESPACES`` is append-only: renumbering an entry silently reshuffles
every stream derived under it, which breaks bit-exact replay of recorded
runs.

One numpy subtlety: ``SeedSequence`` zero-pads entropy tuples shorter
than its 4-word pool, so ``(seed, ns)`` and ``(seed, ns, 0)`` alias the
same stream.  Each namespace is therefore used with exactly one
coordinate signature (one derivation site per namespace, enforced by
the registry cross-check), and the collision checker compares families
after pool padding.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NAMESPACES", "ID_BOUND", "derive_key", "derive_rng",
           "require_rng"]

# Append-only.  Constants must stay >= 2**16: everything below is
# reserved for the bounded coordinates (fault tags, client/device ids)
# of the legacy tuple families, which is what keeps the two keying
# schemes provably disjoint (see repro.analysis.determinism.streams).
NAMESPACES = {
    "fed-client": 0x10001,            # FederatedClient batch sampling
    "selective-participant": 0x10002, # SelectiveSGDParticipant shuffling
    "chaos-spec": 0x10003,            # random_fault_spec rate draws
    "serve-traffic": 0x10004,         # OpenLoopTraffic arrivals
    "mobile-device": 0x10005,         # per-device diurnal schedules (sampler)
    "dpsgd": 0x10006,                 # DPSGDTrainer sample/noise spawn root
    "dpfedavg": 0x10007,              # DPFedAvg sample/noise spawn root
    "pate": 0x10008,                  # PATE aggregation noise spawn root
    # 0x10009 is retired (the deleted multi-process trainer's spawn
    # root); never reuse it.
    "fleet-init": 0x1000A,            # FleetState column initialization
    "fleet-sample": 0x1000B,          # per-round fleet client sampling
}

# Upper bound on client/device/participant ids used inside legacy keyed
# tuples (secure aggregation pair masks).  Namespace constants live at
# 2**16 and above, so ids below this bound can never alias one.
ID_BOUND = 2 ** 14


def derive_key(seed, namespace, *coords):
    """The entropy tuple for a namespaced stream: ``(seed, ns, *coords)``.

    Exposed separately from :func:`derive_rng` so checkpointing and the
    determinism auditor can reason about the key itself.
    """
    try:
        ns = NAMESPACES[namespace]
    except KeyError:
        raise KeyError(
            "unknown RNG namespace {!r}; register it in "
            "repro.rng.NAMESPACES (append-only)".format(namespace))
    return (int(seed), ns) + tuple(int(c) for c in coords)


def derive_rng(seed, namespace, *coords):
    """A fresh Generator on the namespaced stream ``(seed, ns, *coords)``.

    Same arguments always produce the same stream; distinct namespaces
    (or distinct coordinates within one namespace) never share one.
    """
    return np.random.default_rng(derive_key(seed, namespace, *coords))


def require_rng(rng, seed, owner):
    """Resolve an explicit randomness source, refusing silent fallbacks.

    The PR-4 mechanisms convention, generalized: a helper that silently
    substitutes ``default_rng(0)`` makes every caller that forgot to
    pass a source draw the *same* stream — the exact sharing bug the
    determinism auditor exists to catch.  Callers must pass either a
    Generator they own or a seed they chose.
    """
    if rng is not None:
        return rng
    if seed is not None:
        return np.random.default_rng(seed)
    raise ValueError(
        "{} needs an explicit randomness source: pass rng=<Generator> or "
        "seed=<int>.  A silent default_rng(0) fallback would share one "
        "stream across every caller that omitted it.".format(owner))
