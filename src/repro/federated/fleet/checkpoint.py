"""Streaming round checkpoints for million-client fleets.

A fleet snapshot (``fleet-checkpoint-v4``) is the snapshot container of
:mod:`repro.federated.checkpoint` with

* ``meta.json`` — the fleet's build key (``seed``, ``num_clients``,
  ``num_edges``), the round counter, clock, ledger and history;
* ``battery.npy`` — the one column that changes after
  :meth:`~repro.federated.fleet.state.FleetState.build` (8 bytes a
  device).

Every other column is a pure function of the build key, so the
simulator a snapshot is loaded into already holds it: the loader checks
the key against that fleet and restores ``battery`` alone.
``fleet-checkpoint-v1``, ``-v2`` and ``-v3`` files, which stored every
column, are refused with a
:class:`~repro.federated.checkpoint.CheckpointError` naming both
formats.

The writer streams the column into its member straight from its memory,
and the reader ``readinto``s bounded chunks directly into the live
column, so peak extra memory is O(chunk) — never a second copy of a
1M-row column, never an in-memory zip.  Combined with the simulator's
stateless keyed RNG design, restoring a snapshot reproduces the
uninterrupted run bit-for-bit.
"""

from __future__ import annotations

from ..checkpoint import META, check_record, read_snapshot, write_snapshot
from ..comm import CommunicationLedger
from .engine import OUTCOME_NAMES

__all__ = ["save_fleet_checkpoint", "load_fleet_checkpoint"]

FORMAT = "fleet-checkpoint-v4"
BATTERY = "battery.npy"

# The fields of the simulator's round summary, which are those of each
# saved history record; ``outcomes`` counts every outcome name.
_RECORD_FIELDS = {"round": int, "selected": int, "survived": int,
                  "dropout_fraction": float, "committed_edges": int,
                  "cloud_commit": bool, "sent_bytes": int,
                  "wasted_bytes": int, "duration_s": float, "outcomes": dict}
_OUTCOME_FIELDS = dict.fromkeys(OUTCOME_NAMES, int)


def save_fleet_checkpoint(path, sim):
    """Write ``sim`` (a :class:`FleetSimulator`) to ``path`` atomically."""
    state = sim.state
    meta = {
        "format": FORMAT,
        "round_index": sim.round_index,
        "clock_now": sim.clock.now,
        "seed": state.seed,
        "num_clients": state.num_clients,
        "num_edges": state.num_edges,
        "ledger": sim.ledger.to_dict(),
        "history": sim.history,
    }
    write_snapshot(path, meta, [(BATTERY, state.battery)])


def load_fleet_checkpoint(path, sim):
    """Restore ``sim`` in place from a snapshot written by the saver.

    The simulator's fleet must have been built with the snapshot's key
    (seed, fleet size and edge count), and the simulator configured as
    the one that wrote it; ``battery`` streams into the live column, so
    no second fleet is ever resident.  Every ``meta.json`` field, and
    ``battery.npy``'s member and ``.npy`` header, is checked before
    anything is overwritten.  A CRC-32 mismatch shows only once the
    member has been read to the end: that
    :class:`~repro.federated.checkpoint.CheckpointError` comes after
    ``battery`` was (partly) overwritten, and leaves ``sim`` to be
    rebuilt.
    """
    state = sim.state
    with read_snapshot(path, FORMAT) as snapshot:
        for key in ("seed", "num_clients", "num_edges"):
            found, built = snapshot.field(key, int), getattr(state, key)
            if found != built:
                raise snapshot.error(META, "{} is {} but the simulator's "
                                     "fleet has {}".format(key, found, built))
        round_index = snapshot.field("round_index", int)
        clock_now = snapshot.field("clock_now", float)
        ledger = snapshot.parse("ledger", dict, CommunicationLedger.from_dict)
        history = snapshot.parse("history", list, lambda records: [
            _record(record) for record in records])
        snapshot.read_into(BATTERY, state.battery)
    sim.round_index = round_index
    sim.clock.now = clock_now
    sim.ledger = ledger
    sim.history = history
    return sim


def _record(record):
    check_record(record, _RECORD_FIELDS)
    check_record(record["outcomes"], _OUTCOME_FIELDS)
    return record
