"""Streaming round checkpoints for million-client fleets.

A fleet snapshot (``fleet-checkpoint-v3``) is the snapshot container of
:mod:`repro.federated.checkpoint` with

* ``meta.json`` — round counter, clock, topology, ledger, history, and
  the column manifest;
* ``col_<name>.npy`` — one ``.npy`` member per fleet column, at the
  column's width in :data:`~repro.federated.fleet.state.COLUMNS`
  (53 bytes a device).

``fleet-checkpoint-v1`` (every integer column int64) and
``fleet-checkpoint-v2`` (seven more columns that nothing read) are
refused with a :class:`~repro.federated.checkpoint.CheckpointError`
naming both formats.

The writer streams each column into its member straight from the
column's memory, and the reader ``readinto``s bounded chunks directly
into the preallocated column, so peak extra memory is O(chunk) — never
a second copy of a 1M-row column, never an in-memory zip.  Combined
with the simulator's stateless keyed RNG design, restoring a snapshot
reproduces the uninterrupted run bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from ..checkpoint import META, read_snapshot, write_snapshot
from ..comm import CommunicationLedger
from .state import COLUMNS, FleetState

__all__ = ["save_fleet_checkpoint", "load_fleet_checkpoint",
           "load_fleet_state"]

FORMAT = "fleet-checkpoint-v3"


def _member(name):
    return "col_{}.npy".format(name)


def save_fleet_checkpoint(path, sim):
    """Write ``sim`` (a :class:`FleetSimulator`) to ``path`` atomically."""
    state = sim.state
    meta = {
        "format": FORMAT,
        "round_index": sim.round_index,
        "clock_now": sim.clock.now,
        "num_clients": state.num_clients,
        "num_edges": state.num_edges,
        "ledger": sim.ledger.to_dict(),
        "history": sim.history,
        "columns": [name for name, _ in COLUMNS],
    }
    write_snapshot(path, meta, ((_member(name), column)
                                for name, column in state.columns().items()))


def load_fleet_checkpoint(path, sim):
    """Restore ``sim`` in place from a snapshot written by the saver.

    The simulator must be configured identically to the one that wrote
    the snapshot (same fleet size and topology); columns stream into
    the existing arrays, so no second fleet is ever resident.  Every
    ``meta.json`` field, and every column's member and ``.npy`` header,
    is checked before anything is overwritten.  A CRC-32 mismatch shows
    only once its member has been read to the end: that
    :class:`~repro.federated.checkpoint.CheckpointError` comes after
    the columns before it were restored, and leaves ``sim`` to be
    rebuilt.
    """
    state = sim.state
    columns = [(_member(name), column)
               for name, column in state.columns().items()]
    with read_snapshot(path, FORMAT) as snapshot:
        for key, size in (("num_clients", state.num_clients),
                          ("num_edges", state.num_edges),
                          ("columns", list(state.columns()))):
            found = snapshot.field(key, type(size))
            if found != size:
                raise snapshot.error(META, "{} is {} but the simulator "
                                           "has {}".format(key, found, size))
        round_index = snapshot.field("round_index", int)
        clock_now = snapshot.field("clock_now", float)
        ledger = snapshot.parse("ledger", dict, CommunicationLedger.from_dict)
        history = snapshot.parse("history", list, lambda records: [
            dict(record) for record in records])
        for member, column in columns:
            snapshot.check(member, column.shape, column.dtype)
        for member, column in columns:
            snapshot.read_into(member, column)
    sim.round_index = round_index
    sim.clock.now = clock_now
    sim.ledger = ledger
    sim.history = history
    return sim


def load_fleet_state(path, num_edges=None):
    """Standalone restore: allocate fresh columns and return a FleetState.

    For tooling that wants the fleet without a simulator around it.
    """
    with read_snapshot(path, FORMAT) as snapshot:
        n = snapshot.field("num_clients", int)
        if num_edges is None:
            num_edges = snapshot.field("num_edges", int)
        columns = {name: np.zeros(n, dtype=dtype)
                   for name, dtype in COLUMNS}
        for name, column in columns.items():
            snapshot.read_into(_member(name), column)
    return FleetState.from_columns(int(num_edges), columns)
