"""Columnar (struct-of-arrays) device state for million-client fleets.

The object-based federated stack keeps one Python object per client,
which caps simulated populations at the tens of thousands the paper's
deployment story starts from, not the millions it targets.  Here the
whole fleet is a handful of numpy columns — battery level, link
bandwidth/latency, compute slowdown, staleness, byte counters — so a
round over 1M devices touches arrays, never per-client Python.

Column layout (name, dtype) is a contract shared with the streaming
checkpoint format (:mod:`repro.federated.fleet.checkpoint`): append new
columns at the end, never reorder.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

import numpy as np

from ...rng import derive_rng

__all__ = ["FleetState", "COLUMNS", "LINK_TIERS"]

# (name, dtype string) in checkpoint order.  "f8" columns are simulation
# state; "i8" columns are counters the simulator accumulates.
COLUMNS = (
    ("battery", "f8"),          # state of charge in [0, 1]
    ("charge_rate", "f8"),      # recharge per idle round
    ("drain", "f8"),            # discharge per participating round
    ("link_bw", "f8"),          # bytes/second
    ("link_latency", "f8"),     # seconds per transfer setup
    ("link_tier", "i8"),        # index into LINK_TIERS (sampling strata)
    ("slowdown", "f8"),         # persistent compute factor >= 1
    ("num_samples", "i8"),      # local dataset size (aggregation weight)
    ("edge", "i8"),             # edge-aggregator assignment
    ("staleness", "i8"),        # last observed version lag
    ("bytes_up", "i8"),         # delivered uplink bytes, lifetime
    ("bytes_down", "i8"),       # delivered downlink bytes, lifetime
    ("bytes_wasted", "i8"),     # wasted bytes, lifetime
    ("rounds_selected", "i8"),  # times sampled into a round
    ("rounds_completed", "i8"), # times the upload survived
)

# (bandwidth bytes/s, latency s) per connectivity tier: wifi, cellular,
# constrained/metered.  Build-time draws jitter around these bases.
LINK_TIERS = ((2.5e6, 0.02), (6.0e5, 0.08), (1.0e5, 0.30))

_FINGERPRINT_CHUNK = 1 << 20


class FleetState:
    """Per-client simulation state as struct-of-arrays columns.

    Construct with :meth:`build` (seeded synthesis through the
    ``fleet-init`` RNG namespace) or :meth:`from_columns` (checkpoint
    restore).  All mutation happens through whole-column array ops; no
    method loops over clients.
    """

    __slots__ = ("num_clients", "num_edges") + tuple(n for n, _ in COLUMNS)

    def __init__(self, num_clients, num_edges, columns):
        self.num_clients = int(num_clients)
        self.num_edges = int(num_edges)
        for name, dtype in COLUMNS:
            column = columns[name]
            if column.shape != (self.num_clients,):
                raise ValueError(
                    "column {!r} has shape {}, expected ({},)".format(
                        name, column.shape, self.num_clients))
            if column.dtype.str[1:] != dtype:
                raise ValueError(
                    "column {!r} has dtype {}, expected {}".format(
                        name, column.dtype.str, dtype))
            setattr(self, name, column)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, num_clients, seed, num_edges=1, samples_range=(16, 64)):
        """Synthesize a fleet of ``num_clients`` devices.

        Every draw comes from the single ``fleet-init`` stream, so the
        fleet is a pure function of ``(seed, num_clients, num_edges)``.
        Devices partition into ``num_edges`` contiguous edge cohorts.
        """
        n = int(num_clients)
        if n <= 0:
            raise ValueError("num_clients must be positive")
        if not 1 <= int(num_edges) <= n:
            raise ValueError("num_edges must be in [1, num_clients]")
        rng = derive_rng(seed, "fleet-init")
        tiers = np.asarray(LINK_TIERS)
        tier = (rng.random(n) * len(LINK_TIERS)).astype(np.int64)
        ids = np.arange(n, dtype=np.int64)
        columns = {
            "battery": rng.uniform(0.05, 1.0, n),
            "charge_rate": rng.uniform(0.02, 0.10, n),
            "drain": rng.uniform(0.05, 0.15, n),
            "link_bw": tiers[tier, 0] * rng.uniform(0.5, 1.5, n),
            "link_latency": tiers[tier, 1] * rng.uniform(0.8, 1.5, n),
            "link_tier": tier,
            "slowdown": 1.0 + rng.exponential(0.25, n),
            "num_samples": rng.integers(samples_range[0],
                                        samples_range[1] + 1, n),
            "edge": (ids * int(num_edges)) // n,
            "staleness": np.zeros(n, dtype=np.int64),
            "bytes_up": np.zeros(n, dtype=np.int64),
            "bytes_down": np.zeros(n, dtype=np.int64),
            "bytes_wasted": np.zeros(n, dtype=np.int64),
            "rounds_selected": np.zeros(n, dtype=np.int64),
            "rounds_completed": np.zeros(n, dtype=np.int64),
        }
        return cls(n, num_edges, columns)

    @classmethod
    def from_columns(cls, num_edges, columns):
        """Rebuild a fleet from restored columns (checkpoint path)."""
        num_clients = columns[COLUMNS[0][0]].shape[0]
        return cls(num_clients, num_edges, columns)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def columns(self):
        """The columns in checkpoint order (live views, not copies)."""
        return OrderedDict((name, getattr(self, name))
                           for name, _ in COLUMNS)

    def eligible(self, min_battery=0.2):
        """Boolean mask of devices allowed into a round right now."""
        return (self.battery >= float(min_battery)) & (self.link_bw > 0.0)

    def memory_bytes(self):
        """Resident size of all columns."""
        return int(sum(column.nbytes for column in self.columns().values()))

    def fingerprint(self):
        """SHA-256 over layout and contents — the bit-exact resume oracle.

        Hashing is chunked so the fingerprint never materializes a
        second copy of a full column.
        """
        digest = hashlib.sha256()
        digest.update("{}:{}".format(self.num_clients,
                                     self.num_edges).encode())
        for name, column in self.columns().items():
            digest.update(name.encode())
            digest.update(column.dtype.str.encode())
            flat = np.ascontiguousarray(column)
            step = max(1, _FINGERPRINT_CHUNK // max(column.itemsize, 1))
            for start in range(0, flat.shape[0], step):
                digest.update(flat[start:start + step].tobytes())
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Round bookkeeping (whole-column ops only)
    # ------------------------------------------------------------------
    def apply_round(self, rows, survived, lag, up, down, wasted):
        """Fold one round's per-participant outcome arrays into the fleet.

        ``rows`` indexes the participating devices; the other arrays are
        aligned with it.  Non-participants recharge, participants drain;
        battery clamps to [0, 1].  The battery column updates in place:
        the drained rows are computed first, the whole column recharges,
        and the drained rows are written back over it.
        """
        drained = self.battery[rows] - self.drain[rows]
        self.battery += self.charge_rate
        self.battery[rows] = drained
        np.clip(self.battery, 0.0, 1.0, out=self.battery)
        self.staleness[rows] = lag
        self.bytes_up[rows] += up
        self.bytes_down[rows] += down
        self.bytes_wasted[rows] += wasted
        self.rounds_selected[rows] += 1
        self.rounds_completed[rows] += survived.astype(np.int64)
