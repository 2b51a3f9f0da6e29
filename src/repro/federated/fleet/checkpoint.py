"""Streaming round checkpoints for million-client fleets.

A fleet snapshot (``fleet-checkpoint-v2``) is the snapshot container of
:mod:`repro.federated.checkpoint` with

* ``meta.json`` — round counter, clock, topology, ledger, history, and
  the column manifest;
* ``col_<name>.npy`` — one ``.npy`` member per fleet column, at the
  column's width in :data:`~repro.federated.fleet.state.COLUMNS`
  (93 bytes a device).

``fleet-checkpoint-v1`` held every integer column as int64; such a file
is refused with a :class:`~repro.federated.checkpoint.CheckpointError`
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

FORMAT = "fleet-checkpoint-v2"


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
    the existing arrays, so no second fleet is ever resident.  The
    metadata and every column's member and ``.npy`` header are checked
    before any column is overwritten.  A CRC-32 mismatch, though, shows
    only once its member has been read to the end: that
    :class:`~repro.federated.checkpoint.CheckpointError` comes after
    the columns before it were restored, and leaves ``sim`` to be
    rebuilt.
    """
    state = sim.state
    columns = [(_member(name), column)
               for name, column in state.columns().items()]
    with read_snapshot(path, FORMAT) as snapshot:
        meta = snapshot.meta
        for key, size in (("num_clients", state.num_clients),
                          ("num_edges", state.num_edges)):
            if meta[key] != size:
                raise snapshot.error(META, "{} is {} but the simulator "
                                           "has {}".format(key, meta[key], size))
        ledger = CommunicationLedger.from_dict(meta["ledger"])
        for member, column in columns:
            snapshot.check(member, column.shape, column.dtype)
        for member, column in columns:
            snapshot.read_into(member, column)
    sim.round_index = int(meta["round_index"])
    sim.clock.now = float(meta["clock_now"])
    sim.ledger = ledger
    sim.history = meta["history"]
    return sim


def load_fleet_state(path, num_edges=None):
    """Standalone restore: allocate fresh columns and return a FleetState.

    For tooling that wants the fleet without a simulator around it.
    """
    with read_snapshot(path, FORMAT) as snapshot:
        meta = snapshot.meta
        n = int(meta["num_clients"])
        columns = {name: np.zeros(n, dtype=dtype)
                   for name, dtype in COLUMNS}
        for name, column in columns.items():
            snapshot.read_into(_member(name), column)
    edges = int(num_edges if num_edges is not None else meta["num_edges"])
    return FleetState.from_columns(edges, columns)
