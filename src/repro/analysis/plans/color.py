"""Liveness-driven arena slot coloring: provably-safe buffer reuse.

Two buffers may share storage iff their live intervals never overlap.
:func:`build_slot_plan` greedily colors the extracted IR's buffers
(largest first) into shared byte slots — classic interference-graph
coloring over interval graphs — and :func:`color_plan` applies the
result by re-tracing a serve plan over a
:class:`~repro.serve.arena.SlotPlan` arena.  Persistent buffers and
observable outputs are never colored; inputs are (they are rewritten
at the start of every replay, which is exactly their IR interval).

Safety is checked three ways after the re-trace:

1. the plan's own compile-time eager-equivalence verification re-runs
   as part of re-tracing;
2. the re-trace's allocation sequence is structurally checked against
   the analysed IR (same count, shapes, dtypes) — positional slot
   assignment is only sound if the trace is deterministic;
3. a two-fill check dirties every non-persistent buffer (slot backings
   included) with run-specific random data, replays, and requires the
   outputs to be bit-identical across fills *and* to the uncolored
   trace's outputs.
"""

from __future__ import annotations

import numpy as np

from ...serve.arena import BufferArena, SlotPlan
from .analyses import liveness
from .extract import (
    _checksum,
    _flatten_arrays,
    _poison,
    _Pristine,
    byte_bounds,
    collect_arrays,
)
__all__ = ["SlotReport", "build_slot_plan", "color_plan"]


class SlotReport:
    """Outcome of coloring one trace: byte counts and slot membership."""

    __slots__ = ("label", "before_bytes", "after_bytes", "slots")

    def __init__(self, label, before_bytes, after_bytes, slots):
        self.label = label
        self.before_bytes = before_bytes
        self.after_bytes = after_bytes
        self.slots = slots  # [(capacity, [buffer names])]

    @property
    def saved_bytes(self):
        return self.before_bytes - self.after_bytes

    @property
    def reduction(self):
        if not self.before_bytes:
            return 0.0
        return self.saved_bytes / float(self.before_bytes)

    def __repr__(self):
        return ("SlotReport({!r}: {} -> {} bytes, -{:.1f}%, "
                "{} shared slots)".format(
                    self.label, self.before_bytes, self.after_bytes,
                    100.0 * self.reduction, len(self.slots)))


def build_slot_plan(ir):
    """Greedy interference coloring of the IR's buffers into byte slots.

    Returns a :class:`SlotPlan` covering only slots with two or more
    members (singleton slots would change nothing).  Buffers are placed
    largest-first so big scratch buffers anchor the slot capacities.
    """
    intervals = liveness(ir)
    candidates = [
        b for b in ir.buffers
        if not b.persistent and not b.is_output and b.index in intervals
    ]
    candidates.sort(key=lambda b: (-b.nbytes, b.index))
    slots = []
    for buf in candidates:
        first, last = intervals[buf.index]
        for slot in slots:
            if all(last < o_first or o_last < first
                   for o_first, o_last in slot["intervals"]):
                slot["members"].append(buf.index)
                slot["intervals"].append((first, last))
                slot["capacity"] = max(slot["capacity"], buf.nbytes)
                break
        else:
            slots.append({"capacity": buf.nbytes,
                          "members": [buf.index],
                          "intervals": [(first, last)]})
    assignments = {}
    capacities = {}
    slot_id = 0
    for slot in slots:
        if len(slot["members"]) < 2:
            continue
        for index in slot["members"]:
            assignments[index] = slot_id
        capacities[slot_id] = slot["capacity"]
        slot_id += 1
    return SlotPlan(assignments, capacities)


class ColoringError(RuntimeError):
    """The re-traced plan did not line up with the analysed IR."""


def _check_structure(ir, arena):
    if len(arena.buffers) != len(ir.buffers):
        raise ColoringError(
            "re-trace allocated {} buffers, the analysed trace had {} — "
            "the trace is not deterministic; refusing to color".format(
                len(arena.buffers), len(ir.buffers)))
    for node, buf, persistent in zip(ir.buffers, arena.buffers,
                                     arena.persistent_flags):
        if buf.shape != node.shape or buf.dtype != node.dtype \
                or persistent != node.persistent:
            raise ColoringError(
                "re-trace allocation {} is ({}, {}, persistent={}) but the "
                "analysed trace had ({}, {}, persistent={})".format(
                    node.index, buf.shape, buf.dtype, persistent,
                    node.shape, node.dtype, node.persistent))


def _arena_spans(arena):
    spans = [byte_bounds(buf) for buf in arena.buffers]
    spans.extend(byte_bounds(b) for b in arena._slot_backings.values())
    return spans


def _collect_env(steps, arena):
    """External writable arrays + RNGs reachable from colored steps."""
    spans = _arena_spans(arena)
    externals, rngs, seen = [], [], set()
    for fn in steps:
        arrays, step_rngs = collect_arrays(fn)
        rngs.extend(step_rngs)
        for arr in arrays:
            if id(arr) in seen or arr.size == 0:
                continue
            seen.add(id(arr))
            lo, hi = byte_bounds(arr)
            if any(lo >= s_lo and hi <= s_hi for s_lo, s_hi in spans):
                continue
            externals.append(arr)
    return externals, rngs


def _dirty_fill(arena, rng):
    for buf, persistent in zip(arena.buffers, arena.persistent_flags):
        if not persistent:
            _poison(buf, rng)


def _two_fill_outputs(arena, write_inputs, execute, outputs, externals, rngs):
    """Output checksums of two replays from differently-dirtied arenas."""
    pristine = _Pristine(arena, externals, rngs)
    sums = []
    try:
        for seed in (0xD1217, 0x2B4D5):
            pristine.restore()
            _dirty_fill(arena, np.random.default_rng(seed))
            with np.errstate(all="ignore"):
                write_inputs()
                execute()
            sums.append([_checksum(out) for out in outputs])
    finally:
        pristine.restore()
    return sums


def color_plan(plan, inputs, ir, arena_factory=None):
    """Apply slot coloring to a serve plan trace; returns a SlotReport.

    ``arena_factory``, if given, is called with the built
    :class:`~repro.serve.arena.SlotPlan` and must return the arena the
    colored re-trace allocates from — the serving fleet passes a
    factory that leases slot backings from a cross-model
    :class:`~repro.serve.arena.ArenaPool`.  On any verification failure
    the plan is restored to an uncolored trace before the error
    propagates.
    """
    from ...serve import plan as serve_plan

    values = serve_plan._to_arrays(inputs)
    trace = plan._trace_for(values)
    before_bytes = trace.arena.nbytes
    reference = serve_plan._copy_output(plan.run(values))
    reference_sums = [_checksum(np.asarray(o))
                      for o in _flatten_arrays(reference)]
    slot_plan = build_slot_plan(ir)
    slots = [
        (capacity, [ir.buffers[i].name
                    for i, s in slot_plan.assignments.items() if s == sid])
        for sid, capacity in sorted(slot_plan.capacities.items())
    ]
    if not slot_plan.assignments:
        return SlotReport(ir.label, before_bytes, before_bytes, [])
    if arena_factory is None:
        arena_factory = lambda sp: BufferArena(slot_plan=sp)
    try:
        trace = plan.retrace(
            values,
            arena_factory=lambda: arena_factory(slot_plan))
        # Only the audited signature is colored; later signatures would
        # reuse the positional assignments against a different
        # allocation sequence, so new traces get plain arenas.
        plan._arena_factory = BufferArena
        _check_structure(ir, trace.arena)
        outputs = _flatten_arrays(trace.output)
        externals, rngs = _collect_env(trace.steps, trace.arena)
        sums = _two_fill_outputs(
            trace.arena,
            lambda: serve_plan._write_inputs(trace.inputs, values),
            trace.execute, outputs, externals, rngs)
        if sums[0] != sums[1] or sums[0] != reference_sums:
            raise ColoringError(
                "colored replay output is not bit-identical to the "
                "uncolored trace — slot reuse rejected")
    except Exception:
        plan.retrace(values, arena_factory=BufferArena)
        raise
    return SlotReport(ir.label, before_bytes, trace.arena.nbytes, slots)
