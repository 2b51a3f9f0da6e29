"""Graph-capture plan executor: compile a module once, replay it forever.

``compile_plan(module, example_input)`` runs one traced forward through
the existing module tree and records, per layer, a sequence of *step
closures* — plain numpy calls writing into buffers preallocated in a
:class:`~repro.serve.arena.BufferArena`.  ``Plan.run(x)`` then replays
the steps with

* **no graph construction** — nothing goes through ``Tensor._make``, so
  no backward closures, no parent tuples, no profiler op traffic;
* **no grad bookkeeping** — plans capture eval-mode semantics (dropout
  off, batch norm normalised with its running statistics);
* **no allocation** — every intermediate lives in the arena, which is
  frozen after compilation; all replay kernels use ``out=`` forms (see
  :mod:`repro.serve.kernels`).  The one documented exception is
  numpy-internal buffering for dtype-mixed ufuncs.

There is one layer compiler.  A trace is built by the training rules
(:func:`repro.train.plan.register_train_rule`) in their forward-only
mode, ``TrainContext(arena, training=False)``: no gradient, loss or
optimizer buffer is built, and only the forward steps are kept.  Like
training traces, serving traces read parameters in place (see
:class:`Plan` for what that means after compilation).

Shape changes are handled transparently: ``run`` keys compiled traces by
the input *signature* (the nested structure of shapes and dtypes) and
re-traces on a miss, so a server that pads batches into a small set of
buckets compiles a handful of traces and then replays forever.

Input convention (shared with :func:`repro.analysis.check_module`):

* a bare ndarray/Tensor is passed as ``module(x)``;
* a tuple is an argument pack — ``(x, mask)`` for GRU/LSTM/Bidirectional
  (``mask`` may be ``None``), ``(x, h)`` for GRUCell, ``(x, (h, c))``
  for LSTMCell;
* a list is a multi-view input — per-view arrays or ``(padded, mask)``
  pairs for :class:`~repro.core.model.MultiViewGRUClassifier`, per-view
  2-D arrays for the fusion heads.

Every compile self-verifies: the trace executes once on the example and
the output is compared against the eager forward to floating-point
tolerance before the plan is accepted.
"""

from __future__ import annotations

import time
from collections import OrderedDict

import numpy as np

from .. import nn
from ..tensor import Tensor, no_grad
from .arena import BufferArena

__all__ = [
    "Plan",
    "compile_plan",
    "UnsupportedModuleError",
    "ShapeError",
    "PlanVerificationError",
]


class UnsupportedModuleError(TypeError):
    """No layer rule is registered for a module class."""


class ShapeError(ValueError):
    """A layer rule refused an input of the wrong shape."""


class PlanVerificationError(RuntimeError):
    """A compiled trace disagreed with the eager forward on the example."""


# ----------------------------------------------------------------------
# Input/output structure helpers
# ----------------------------------------------------------------------
def _to_arrays(value):
    """Strip Tensors to ndarrays through the nested input structure."""
    if value is None:
        return None
    if isinstance(value, Tensor):
        return value.data
    if isinstance(value, np.ndarray):
        return value
    if isinstance(value, tuple):
        return tuple(_to_arrays(v) for v in value)
    if isinstance(value, list):
        return [_to_arrays(v) for v in value]
    return np.asarray(value)


def _signature(value):
    if value is None:
        return None
    if isinstance(value, np.ndarray):
        return (value.shape, value.dtype.str)
    if isinstance(value, tuple):
        return ("T",) + tuple(_signature(v) for v in value)
    return ("L",) + tuple(_signature(v) for v in value)


def _alloc_inputs(value, arena):
    if value is None:
        return None
    if isinstance(value, np.ndarray):
        return arena.alloc(value.shape, value.dtype)
    if isinstance(value, tuple):
        return tuple(_alloc_inputs(v, arena) for v in value)
    return [_alloc_inputs(v, arena) for v in value]


def _write_inputs(buffers, value):
    if buffers is None:
        return
    if isinstance(buffers, np.ndarray):
        np.copyto(buffers, value)
        return
    for buf, val in zip(buffers, value):
        _write_inputs(buf, val)


def _strip_output(out):
    if isinstance(out, Tensor):
        return out.data
    if isinstance(out, tuple):
        return tuple(_strip_output(o) for o in out)
    return np.asarray(out)


def _copy_output(out):
    if isinstance(out, tuple):
        return tuple(_copy_output(o) for o in out)
    return np.array(out, copy=True)


def _call_eager(module, inputs):
    """Run the real (eval-mode) forward on an example input structure."""
    from ..core.model import MultiViewGRUClassifier

    if isinstance(inputs, np.ndarray):
        return module(Tensor(inputs))
    if isinstance(inputs, tuple):
        if isinstance(module, nn.LSTMCell):
            x, state = inputs
            h, c = state
            return module(Tensor(x), (Tensor(h), Tensor(c)))
        if isinstance(module, nn.GRUCell):
            x, h = inputs
            return module(Tensor(x), Tensor(h))
        x, mask = inputs
        return module(Tensor(x), mask=mask)
    if isinstance(inputs, list):
        if isinstance(module, MultiViewGRUClassifier):
            return module(inputs)
        return module([Tensor(v) for v in inputs])
    raise TypeError(
        "unsupported plan input structure: {!r}".format(type(inputs).__name__)
    )


def _tolerance(dtype):
    if np.dtype(dtype).itemsize >= 8:
        return 1e-7, 1e-9
    return 2e-3, 1e-5


def _verify_close(produced, reference, path="output"):
    if isinstance(reference, tuple):
        for index, (p, r) in enumerate(zip(produced, reference)):
            _verify_close(p, r, "{}[{}]".format(path, index))
        return
    reference = np.asarray(reference)
    produced = np.asarray(produced)
    if produced.shape != reference.shape:
        raise PlanVerificationError(
            "compiled {} has shape {}, eager forward produced {}".format(
                path, produced.shape, reference.shape
            )
        )
    rtol, atol = _tolerance(reference.dtype)
    if not np.allclose(produced, reference, rtol=rtol, atol=atol,
                       equal_nan=True):
        gap = float(np.max(np.abs(produced - reference)))
        raise PlanVerificationError(
            "compiled {} deviates from the eager forward "
            "(max abs diff {:.3e}, dtype {})".format(path, gap, reference.dtype)
        )


# ----------------------------------------------------------------------
# Plan object
# ----------------------------------------------------------------------
class _CompiledTrace:
    __slots__ = ("inputs", "output", "steps", "arena")

    def __init__(self, inputs, output, steps, arena):
        self.inputs = inputs
        self.output = output
        self.steps = steps
        self.arena = arena

    def execute(self):
        for step in self.steps:
            step()


class Plan:
    """A forward-only executable snapshot of a module.

    Traces copy no weights: they read parameters and batch-norm running
    statistics in place, through the arrays bound when the trace was
    compiled.  An in-place update of those arrays (a compiled
    :class:`~repro.train.TrainPlan` step, ``TrainPlan.load_state``) is
    seen by the next replay.  Rebinding them (``load_state_dict``, an
    eager optimizer step) is not: compile a new plan after that.

    Parameters
    ----------
    module:
        The module to capture.  Plans replay eval-mode semantics; the
        module's training flag is saved/restored around each trace, and
        compiling or replaying never writes training state (batch-norm
        running statistics, dropout generators).
    cache_limit:
        Maximum number of shape-signature traces kept before the oldest
        is evicted.
    """

    def __init__(self, module, cache_limit=16):
        self.module = module
        self._cache_limit = cache_limit
        # Zero-argument arena constructor for new traces; :meth:`retrace`
        # swaps in a slot-plan arena to re-trace with colored reuse.
        self._arena_factory = BufferArena
        self._traces = OrderedDict()
        self.compile_count = 0

    # -- compilation ----------------------------------------------------
    def _trace(self, values):
        # Imported here: repro.train.plan imports this module's helpers.
        from ..train.plan import TrainContext

        module = self.module
        was_training = module.training
        module.eval()
        try:
            # Rules first: an input they refuse raises their ShapeError
            # instead of whatever the eager reference would raise.
            arena = self._arena_factory()
            input_buffers = _alloc_inputs(values, arena)
            context = TrainContext(arena, training=False)
            output = context.build(module, input_buffers)
            with no_grad():
                reference = _strip_output(_call_eager(module, values))
            _write_inputs(input_buffers, values)
            trace = _CompiledTrace(input_buffers, output,
                                   tuple(context.fwd_steps), arena)
            trace.execute()
            _verify_close(trace.output, reference)
            arena.freeze()
        finally:
            module.train(was_training)
        return trace

    def _trace_for(self, values):
        signature = _signature(values)
        trace = self._traces.get(signature)
        if trace is None:
            trace = self._trace(values)
            if len(self._traces) >= self._cache_limit:
                self._traces.popitem(last=False)
            self._traces[signature] = trace
            self.compile_count += 1
        return trace

    # -- execution ------------------------------------------------------
    def run(self, inputs, copy=True):
        """Replay the plan on ``inputs``; re-traces on a new signature.

        Returns ndarray(s).  With ``copy=False`` the caller receives the
        arena's output buffer directly — valid only until the next
        ``run`` — which the server's batching loop uses to avoid one
        copy per batch.
        """
        values = _to_arrays(inputs)
        trace = self._trace_for(values)
        _write_inputs(trace.inputs, values)
        trace.execute()
        if copy:
            return _copy_output(trace.output)
        return trace.output

    def measure(self, inputs, repeats=10):
        """Best replay wall-clock seconds over ``repeats`` (after warm-up).

        Deployment planning uses this as the measured per-forward cost.
        """
        self.run(inputs, copy=False)  # warm the trace cache
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            self.run(inputs, copy=False)
            best = min(best, time.perf_counter() - start)
        return best

    def retrace(self, inputs, arena_factory=None):
        """Recompile the trace for ``inputs``' signature from scratch.

        Optionally swaps the plan's arena factory first — the auditor
        uses this to rebuild a verified trace over a slot-plan arena.
        Compilation is deterministic (eval mode, no RNG), so the N-th
        allocation of the re-trace corresponds to the N-th buffer of
        the analysed trace.
        """
        values = _to_arrays(inputs)
        if arena_factory is not None:
            self._arena_factory = arena_factory
        self._traces.pop(_signature(values), None)
        return self._trace_for(values)

    # -- introspection --------------------------------------------------
    @property
    def signatures(self):
        """Signatures of the currently compiled traces."""
        return list(self._traces)

    @property
    def arena_nbytes(self):
        """Total bytes preallocated across every compiled trace."""
        return sum(t.arena.nbytes for t in self._traces.values())


def compile_plan(module, example_input, cache_limit=16):
    """Compile ``module`` against ``example_input`` and return the Plan."""
    plan = Plan(module, cache_limit=cache_limit)
    plan._trace_for(_to_arrays(example_input))
    return plan
