"""Columnar (struct-of-arrays) device state for million-client fleets.

The object-based federated stack keeps one Python object per client,
which caps simulated populations at the tens of thousands the paper's
deployment story starts from, not the millions it targets.  Here the
whole fleet is a handful of numpy columns — battery level, link
bandwidth/latency/tier, compute slowdown, edge assignment — so a round
over 1M devices touches arrays, never per-client Python.  The fleet
keeps only what sampling, the round engine, the battery update and the
edge partition read; per-round byte accounting lives in the ledger.

Each column is stored at the width its values need: 53 bytes a device,
so a 1M-client fleet is 53 MB.  A fleet is built from its key
``(seed, num_clients, num_edges)`` and keeps it.  Every column except
``battery`` is a pure function of that key, so the streaming checkpoint
(:mod:`repro.federated.fleet.checkpoint`) stores the key and the
``battery`` column alone and rebuilds the rest: any change to
:meth:`FleetState.build`'s draws, or to ``battery``'s width, needs a
new snapshot format tag.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

import numpy as np

from ...rng import derive_rng

__all__ = ["FleetState", "COLUMNS", "LINK_TIERS"]

# (name, dtype string) in fingerprint order; tiers fit "u1" and edge ids
# "i4".  Only ``battery`` changes after ``build``, and it is the only
# column a snapshot stores: the others follow from the build key.
COLUMNS = (
    ("battery", "f8"),          # state of charge in [0, 1]
    ("charge_rate", "f8"),      # recharge per idle round
    ("drain", "f8"),            # discharge per participating round
    ("link_bw", "f8"),          # bytes/second
    ("link_latency", "f8"),     # seconds per transfer setup
    ("link_tier", "u1"),        # index into LINK_TIERS (sampling strata)
    ("slowdown", "f8"),         # persistent compute factor >= 1
    ("edge", "i4"),             # edge-aggregator assignment
)

# (bandwidth bytes/s, latency s) per connectivity tier: wifi, cellular,
# constrained/metered.  Build-time draws jitter around these bases.
LINK_TIERS = ((2.5e6, 0.02), (6.0e5, 0.08), (1.0e5, 0.30))

_FINGERPRINT_CHUNK = 1 << 20


class FleetState:
    """Per-client simulation state as struct-of-arrays columns.

    Construct with :meth:`build` (seeded synthesis through the
    ``fleet-init`` RNG namespace), which records the build key
    ``(seed, num_clients, num_edges)``.  All mutation happens through
    whole-column array ops; no method loops over clients.
    """

    __slots__ = ("seed", "num_clients", "num_edges") + tuple(
        n for n, _ in COLUMNS)

    def __init__(self, seed, num_clients, num_edges, columns):
        self.seed = seed
        self.num_clients = num_clients
        self.num_edges = num_edges
        for name, dtype in COLUMNS:
            setattr(self, name, columns[name].astype(dtype, copy=False))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, num_clients, seed, num_edges=1):
        """Synthesize a fleet of ``num_clients`` devices.

        Every draw comes from the single ``fleet-init`` stream, so the
        fleet is a pure function of ``(seed, num_clients, num_edges)``.
        Devices partition into ``num_edges`` contiguous edge cohorts:
        device ``i`` is in edge ``i * num_edges // num_clients``.  Values
        are drawn at 64 bits, then stored at their column's width.
        """
        n = int(num_clients)
        num_edges = int(num_edges)
        if n <= 0:
            raise ValueError("num_clients must be positive")
        if not 1 <= num_edges <= n:
            raise ValueError("num_edges must be in [1, num_clients]")
        rng = derive_rng(seed, "fleet-init")
        tiers = np.asarray(LINK_TIERS)
        tier = (rng.random(n) * len(LINK_TIERS)).astype(np.int64)
        # Edge e's first device is the least i with i * num_edges >= e * n.
        firsts = -(-np.arange(num_edges + 1) * n // num_edges)
        drawn = {
            "battery": rng.uniform(0.05, 1.0, n),
            "charge_rate": rng.uniform(0.02, 0.10, n),
            "drain": rng.uniform(0.05, 0.15, n),
            "link_bw": tiers[tier, 0] * rng.uniform(0.5, 1.5, n),
            "link_latency": tiers[tier, 1] * rng.uniform(0.8, 1.5, n),
            "link_tier": tier,
            "slowdown": 1.0 + rng.exponential(0.25, n),
            "edge": np.repeat(np.arange(num_edges), np.diff(firsts)),
        }
        return cls(int(seed), n, num_edges, drawn)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def columns(self):
        """The columns in :data:`COLUMNS` order (live views, not copies)."""
        return OrderedDict((name, getattr(self, name))
                           for name, _ in COLUMNS)

    def eligible(self, min_battery=0.2):
        """Boolean mask of devices allowed into a round right now."""
        return (self.battery >= float(min_battery)) & (self.link_bw > 0.0)

    def memory_bytes(self):
        """Resident size of all columns."""
        return int(sum(column.nbytes for column in self.columns().values()))

    def fingerprint(self):
        """SHA-256 over names and values — the bit-exact resume oracle.

        Every column is hashed widened to 64 bits (integers as int64,
        floats as float64), so the fingerprint depends on the values,
        not on the width they are stored at.  Hashing is chunked so the
        fingerprint never materializes a second copy of a full column.
        """
        digest = hashlib.sha256()
        digest.update("{}:{}".format(self.num_clients,
                                     self.num_edges).encode())
        for name, column in self.columns().items():
            wide = np.dtype("f8" if column.dtype.kind == "f" else "i8")
            digest.update(name.encode())
            digest.update(wide.str.encode())
            step = _FINGERPRINT_CHUNK // wide.itemsize
            for start in range(0, column.shape[0], step):
                digest.update(np.ascontiguousarray(
                    column[start:start + step], dtype=wide))
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Round bookkeeping (whole-column ops only)
    # ------------------------------------------------------------------
    def apply_round(self, rows):
        """Drain the round's participants (``rows``), recharge the rest.

        Battery clamps to [0, 1].  The column updates in place: the
        drained rows are computed first, the whole column recharges, and
        the drained rows are written back over it.
        """
        drained = self.battery[rows] - self.drain[rows]
        self.battery += self.charge_rate
        self.battery[rows] = drained
        np.clip(self.battery, 0.0, 1.0, out=self.battery)
