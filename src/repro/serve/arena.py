"""Preallocated buffer arena for the plan executor.

Every intermediate a compiled plan writes lives in one of these arenas.
Buffers are allocated exactly once, at compile (trace) time; after the
arena is frozen, any attempt to allocate from a replay step raises
immediately instead of silently growing memory per request.  The arena
counts every byte it allocates in ``nbytes``, which is what the
benchmarks' zero-allocation-after-warm-up assertions read.

Two extensions support the plan auditor (:mod:`repro.analysis.plans`):

* ``alloc(..., persistent=True)`` marks a buffer whose contents must
  survive across replays — either compile-time-initialised constants
  (the ones column of a fusion concat, a conv padding ring) or
  cross-replay state (optimizer momentum).  The auditor's definedness
  pass treats persistent buffers as defined at entry and refuses to
  recycle their storage.
* A :class:`SlotPlan` (produced by liveness-interval coloring) maps
  allocation indices onto shared byte slots.  An arena built with a
  slot plan hands out views into per-slot backings instead of fresh
  arrays, so buffers whose live ranges never overlap share memory.
  ``nbytes`` then counts each slot backing once.

The serving fleet adds a third layer: an :class:`ArenaPool` shares slot
*backings* across the colored arenas of several models.  A single-
threaded server only ever replays one plan at a time, so the scratch
slots of model A and model B can occupy the same bytes; the pool sizes
each slab to the largest capacity any member slot plan reserves for it.
Pool slabs are allocated once (at registry freeze) and counted in the
pool's ``nbytes``, so a pool that grows after warm-up trips the same
zero-alloc assertions a thawed arena would.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ArenaPool", "BufferArena", "ArenaFrozenError", "SlotPlan"]


class ArenaFrozenError(RuntimeError):
    """A replay step tried to allocate after compilation finished."""


class SlotPlan:
    """Assignment of arena allocation indices onto shared byte slots.

    ``assignments`` maps allocation index -> slot id; ``capacities``
    maps slot id -> backing size in bytes (the max member size).  The
    mapping is positional: it only makes sense when the trace that
    produced the liveness intervals is re-traced deterministically, so
    the N-th ``alloc`` call lands on the N-th analysed buffer.
    """

    def __init__(self, assignments, capacities):
        self.assignments = dict(assignments)
        self.capacities = dict(capacities)

    def __len__(self):
        return len(self.assignments)


class ArenaPool:
    """Slot backings shared by the colored arenas of multiple plans.

    Replays on a single-threaded server are serialized, so the scratch
    slots of different models (and of different batch-size traces of
    the same model) may alias: the pool keys slabs by slot id and sizes
    each to the maximum capacity reserved across every member slot
    plan.  Call :meth:`reserve` with each model's slot plan before the
    first lease so slabs are allocated at their final size; after
    :meth:`freeze`, leasing a new slot raises instead of allocating.
    """

    def __init__(self):
        self._capacities = {}
        self._slabs = {}
        self.leases = 0
        self.frozen = False

    def reserve(self, slot_plan):
        """Grow the planned per-slot capacities to cover ``slot_plan``."""
        if self.frozen:
            raise ArenaFrozenError(
                "arena pool is frozen: reserve slot capacities before freeze"
            )
        for slot, capacity in slot_plan.capacities.items():
            self._capacities[slot] = max(int(capacity),
                                         self._capacities.get(slot, 0))

    def lease(self, slot, capacity):
        """The shared backing for ``slot`` (allocated on first lease)."""
        slab = self._slabs.get(slot)
        if slab is None:
            if self.frozen:
                raise ArenaFrozenError(
                    "arena pool is frozen: slot {} was never reserved "
                    "before freeze".format(slot)
                )
            size = max(int(capacity), self._capacities.get(slot, 0))
            self._capacities[slot] = size
            slab = np.zeros(size, dtype=np.uint8)
            self._slabs[slot] = slab
        elif slab.nbytes < capacity:
            raise ValueError(
                "pool slab for slot {} holds {} bytes but the arena needs "
                "{}; reserve() every slot plan before leasing".format(
                    slot, slab.nbytes, capacity)
            )
        self.leases += 1
        return slab

    @property
    def nbytes(self):
        """Total bytes of the materialized shared slabs."""
        return sum(slab.nbytes for slab in self._slabs.values())

    def freeze(self):
        """Seal the pool; leasing an unmaterialized slot then raises."""
        self.frozen = True
        return self

    def __len__(self):
        return len(self._slabs)


class BufferArena:
    """Owns the preallocated numpy buffers of one compiled trace."""

    def __init__(self, slot_plan=None, pool=None):
        self._buffers = []
        self._persistent = []
        self._slot_backings = {}
        self.slot_plan = slot_plan
        self.pool = pool
        self.nbytes = 0
        self.frozen = False

    def alloc(self, shape, dtype, persistent=False):
        """Allocate a zero-initialised buffer (compile time only).

        ``persistent=True`` declares that the buffer's contents carry
        meaning across replays (compile-time constants, optimizer
        state); such buffers are never placed in a shared slot.
        """
        if self.frozen:
            raise ArenaFrozenError(
                "arena is frozen: plan replay must not allocate buffers "
                "(requested shape {} dtype {})".format(shape, np.dtype(dtype))
            )
        index = len(self._buffers)
        slot = None
        if self.slot_plan is not None:
            slot = self.slot_plan.assignments.get(index)
        if slot is None:
            buffer = np.zeros(shape, dtype=dtype)
            self.nbytes += buffer.nbytes
        else:
            if persistent:
                raise ValueError(
                    "allocation {} is persistent but the slot plan maps it "
                    "into shared slot {}".format(index, slot)
                )
            buffer = self._slot_view(slot, shape, dtype)
        self._buffers.append(buffer)
        self._persistent.append(bool(persistent))
        return buffer

    def _slot_view(self, slot, shape, dtype):
        """A view of ``slot``'s backing with the requested shape/dtype."""
        dtype = np.dtype(dtype)
        backing = self._slot_backings.get(slot)
        if backing is None:
            capacity = int(self.slot_plan.capacities[slot])
            if self.pool is not None:
                # Shared bytes: the pool counts them once at slab
                # creation; each arena still counts the slab towards its
                # own nbytes so SlotReport stays honest per trace.
                backing = self.pool.lease(slot, capacity)
            else:
                backing = np.zeros(capacity, dtype=np.uint8)
            self.nbytes += backing.nbytes
            self._slot_backings[slot] = backing
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if nbytes > backing.nbytes:
            raise ValueError(
                "slot {} backing of {} bytes cannot hold a {} byte "
                "allocation".format(slot, backing.nbytes, nbytes)
            )
        return backing[:nbytes].view(dtype).reshape(shape)

    @property
    def buffers(self):
        """The allocated buffers, in allocation order."""
        return tuple(self._buffers)

    @property
    def persistent_flags(self):
        """Per-allocation persistence flags, in allocation order."""
        return tuple(self._persistent)

    def freeze(self):
        """Seal the arena; later :meth:`alloc` calls raise."""
        self.frozen = True
        return self

    def __len__(self):
        return len(self._buffers)
