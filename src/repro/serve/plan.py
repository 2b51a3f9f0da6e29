"""Graph-capture plan executor: compile a module once, replay it forever.

``compile_plan(module, example_input)`` runs one traced forward through
the existing module tree and records, per layer, a sequence of *step
closures* — plain numpy calls writing into buffers preallocated in a
:class:`~repro.serve.arena.BufferArena`.  ``Plan.run(x)`` then replays
the steps with

* **no graph construction** — nothing goes through ``Tensor._make``, so
  no backward closures, no parent tuples, no profiler op traffic;
* **no grad bookkeeping** — plans capture eval-mode semantics (dropout
  off, batch-norm running statistics pinned);
* **no allocation** — every intermediate lives in the arena, which is
  frozen after compilation; all replay kernels use ``out=`` forms (see
  :mod:`repro.serve.kernels`).  Two documented exceptions allocate: the
  sparse fast path (scipy SpMM has no ``out=``) and numpy-internal
  buffering for dtype-mixed ufuncs.

Compilation is *rule-driven*: each module class registers a plan rule
(:func:`register_plan_rule`, mirroring the shape interpreter's registry
in :mod:`repro.analysis.shapes`) that allocates its output buffers and
appends its step closures.  Weights are **pinned at compile time** —
contiguous copies of transposed weight matrices, concatenated GRU gate
kernels, precomputed batch-norm scale vectors.  Mutating parameters
after compilation does not affect a plan; build a new one.

Shape changes are handled transparently: ``run`` keys compiled traces by
the input *signature* (the nested structure of shapes and dtypes) and
re-traces on a miss, so a server that pads batches into a small set of
buckets compiles a handful of traces and then replays forever.

Input convention (mirrors the shape interpreter):

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
from .. import profiler
from ..tensor import Tensor, no_grad
from ..tensor import conv as conv_mod
from . import kernels
from .arena import BufferArena

__all__ = [
    "Plan",
    "compile_plan",
    "register_plan_rule",
    "PlanContext",
    "UnsupportedModuleError",
    "PlanVerificationError",
]


class UnsupportedModuleError(TypeError):
    """No plan rule is registered for a module class."""


class PlanVerificationError(RuntimeError):
    """A compiled trace disagreed with the eager forward on the example."""


# ----------------------------------------------------------------------
# Rule registry (mirrors repro.analysis.shapes.register_rule)
# ----------------------------------------------------------------------
_PLAN_RULES = {}


def register_plan_rule(*classes):
    """Decorator: register a plan rule ``fn(module, inputs, ctx)``.

    ``inputs`` follows the module docstring's convention with ndarray
    leaves (arena buffers); the rule returns its output buffer(s) and
    appends replay steps to ``ctx``.
    """
    def decorate(fn):
        for cls in classes:
            _PLAN_RULES[cls] = fn
        return fn
    return decorate


def _find_plan_rule(module):
    for cls in type(module).__mro__:
        rule = _PLAN_RULES.get(cls)
        if rule is not None:
            return rule
    return None


class PlanContext:
    """Compilation state handed to plan rules: arena, step list, hints."""

    def __init__(self, arena, hints=None, sparse_threshold=0.5):
        self.arena = arena
        self.hints = hints or {}
        self.sparse_threshold = sparse_threshold
        self.steps = []

    def alloc(self, shape, dtype, persistent=False):
        """Allocate an intermediate buffer in the plan's arena.

        ``persistent=True`` marks a buffer whose compile-time contents
        matter at replay (e.g. a pre-written constant region); the plan
        auditor excludes such buffers from poisoning and slot reuse.
        """
        return self.arena.alloc(shape, dtype, persistent=persistent)

    def bool_buf(self, shape):
        """Allocate a boolean scratch buffer (where-masks, comparisons)."""
        return self.arena.alloc(shape, np.dtype(bool))

    def step(self, fn):
        """Append a replay step (a zero-argument closure)."""
        self.steps.append(fn)

    def pin(self, array):
        """Compile-time contiguous copy of a constant (weights, indices)."""
        return np.ascontiguousarray(np.asarray(array))

    def hint(self, param):
        """Optional per-parameter hint (e.g. a codebook QuantizedTensor)."""
        return self.hints.get(id(param))

    def build(self, module, inputs):
        """Recursively compile a child module."""
        rule = _find_plan_rule(module)
        if rule is None:
            raise UnsupportedModuleError(
                "no plan rule registered for {}; add one with "
                "@register_plan_rule({})".format(
                    type(module).__name__, type(module).__name__
                )
            )
        return rule(module, inputs, self)


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

    Parameters
    ----------
    module:
        The module to capture.  Plans replay eval-mode semantics; the
        module's training flag is saved/restored around each trace.
    hints:
        Optional ``{id(param): QuantizedTensor}`` mapping letting layer
        rules pin weights from a compression codebook (see
        ``DeepCompressionPipeline.serving_plan``).
    sparse_threshold:
        Density below which a Linear weight is pinned as a scipy CSR
        matrix and served through SpMM.
    cache_limit:
        Maximum number of shape-signature traces kept before the oldest
        is evicted.
    arena_factory:
        Zero-argument callable producing the arena each trace allocates
        from; defaults to :class:`~repro.serve.arena.BufferArena`.  The
        plan auditor passes a slot-plan arena here to re-trace with
        liveness-colored buffer reuse.
    """

    def __init__(self, module, hints=None, sparse_threshold=0.5,
                 cache_limit=16, arena_factory=None):
        self.module = module
        self._hints = hints
        self._sparse_threshold = sparse_threshold
        self._cache_limit = cache_limit
        self._arena_factory = arena_factory or BufferArena
        self._traces = OrderedDict()
        self.compile_count = 0

    # -- compilation ----------------------------------------------------
    def _trace(self, values):
        module = self.module
        was_training = module.training
        module.eval()
        try:
            with no_grad():
                reference = _strip_output(_call_eager(module, values))
            arena = self._arena_factory()
            input_buffers = _alloc_inputs(values, arena)
            context = PlanContext(arena, self._hints, self._sparse_threshold)
            output = context.build(module, input_buffers)
            _write_inputs(input_buffers, values)
            trace = _CompiledTrace(input_buffers, output,
                                   tuple(context.steps), arena)
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
            profiler.record_event("serve.plan_trace")
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

        Accumulates the measured time under the ``serve.plan_run``
        profiler timer; deployment planning uses this as the measured
        per-forward cost.
        """
        self.run(inputs, copy=False)  # warm the trace cache
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            self.run(inputs, copy=False)
            best = min(best, time.perf_counter() - start)
        profiler.record_time("serve.plan_run", best)
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


def compile_plan(module, example_input, hints=None, sparse_threshold=0.5,
                 cache_limit=16):
    """Compile ``module`` against ``example_input`` and return the Plan."""
    plan = Plan(module, hints=hints, sparse_threshold=sparse_threshold,
                cache_limit=cache_limit)
    plan._trace_for(_to_arrays(example_input))
    return plan


# ----------------------------------------------------------------------
# Rules: elementwise layers
# ----------------------------------------------------------------------
def _expect_array(module, inputs):
    if not isinstance(inputs, np.ndarray):
        raise UnsupportedModuleError(
            "{} plan rule expects a single array input, got {!r}".format(
                type(module).__name__, type(inputs).__name__
            )
        )
    return inputs


@register_plan_rule(nn.Identity, nn.Dropout)
def _plan_identity(module, inputs, ctx):
    # Dropout is inert in eval mode, which is what plans capture.
    return _expect_array(module, inputs)


@register_plan_rule(nn.ReLU)
def _plan_relu(module, inputs, ctx):
    x = _expect_array(module, inputs)
    out = ctx.alloc(x.shape, x.dtype)
    ctx.step(lambda: kernels.relu_(x, out))
    return out


@register_plan_rule(nn.Tanh)
def _plan_tanh(module, inputs, ctx):
    x = _expect_array(module, inputs)
    out = ctx.alloc(x.shape, x.dtype)
    ctx.step(lambda: kernels.tanh_(x, out))
    return out


@register_plan_rule(nn.Sigmoid)
def _plan_sigmoid(module, inputs, ctx):
    x = _expect_array(module, inputs)
    out = ctx.alloc(x.shape, x.dtype)
    scratch = ctx.alloc(x.shape, x.dtype)
    mask = ctx.bool_buf(x.shape)
    ctx.step(lambda: kernels.sigmoid_(x, out, scratch, mask))
    return out


@register_plan_rule(nn.LeakyReLU)
def _plan_leaky_relu(module, inputs, ctx):
    x = _expect_array(module, inputs)
    out = ctx.alloc(x.shape, x.dtype)
    mask = ctx.bool_buf(x.shape)
    slope = module.negative_slope
    ctx.step(lambda: kernels.leaky_relu_(x, out, mask, slope))
    return out


@register_plan_rule(nn.Softmax)
def _plan_softmax(module, inputs, ctx):
    x = _expect_array(module, inputs)
    axis = module.axis % x.ndim
    red_shape = tuple(
        1 if i == axis else d for i, d in enumerate(x.shape)
    )
    out = ctx.alloc(x.shape, x.dtype)
    red = ctx.alloc(red_shape, x.dtype)
    ctx.step(lambda: kernels.softmax_(x, out, red, axis))
    return out


@register_plan_rule(nn.Flatten)
def _plan_flatten(module, inputs, ctx):
    x = _expect_array(module, inputs)
    view = x.reshape(x.shape[0], -1)
    if not np.shares_memory(view, x):  # pragma: no cover - buffers are contiguous
        raise UnsupportedModuleError("Flatten input buffer is not reshapeable")
    return view


# ----------------------------------------------------------------------
# Rules: affine and normalisation layers
# ----------------------------------------------------------------------
@register_plan_rule(nn.Linear)
def _plan_linear(module, inputs, ctx):
    x = _expect_array(module, inputs)
    weight = module.weight.data
    quantized = ctx.hint(module.weight)
    if quantized is not None:
        # Codebook fast path: pin the dense weight by gathering the
        # shared codebook once at compile time; the replay then serves
        # the compressed model at dense-matmul speed.
        weight = np.asarray(quantized.dequantize())
        profiler.record_event("serve.codebook_pin")
    bias = None if module.bias is None else ctx.pin(module.bias.data)
    dtypes = [x.dtype, weight.dtype] + ([bias.dtype] if bias is not None else [])
    out = ctx.alloc(x.shape[:-1] + (module.out_features,),
                    np.result_type(*dtypes))

    density = np.count_nonzero(weight) / max(weight.size, 1)
    if x.ndim == 2 and density < ctx.sparse_threshold:
        try:
            from scipy import sparse as sp
        except ImportError:  # pragma: no cover - scipy ships with the repo
            sp = None
        if sp is not None:
            matrix = sp.csr_matrix(weight)
            profiler.record_event("serve.sparse_pin")

            def step():
                # Documented exception to the zero-allocation contract:
                # scipy SpMM has no out= form, so the product allocates.
                out[...] = matrix.dot(x.T).T
                if bias is not None:
                    np.add(out, bias, out=out)

            ctx.step(step)
            return out

    w_t = ctx.pin(weight.T)

    def step():
        np.matmul(x, w_t, out=out)
        if bias is not None:
            np.add(out, bias, out=out)

    ctx.step(step)
    return out


@register_plan_rule(nn.BatchNorm1d)
def _plan_batchnorm(module, inputs, ctx):
    x = _expect_array(module, inputs)
    mean = ctx.pin(module._buffers["running_mean"])
    denom = ctx.pin(np.sqrt(module._buffers["running_var"] + module.eps))
    gamma = ctx.pin(module.gamma.data)
    beta = ctx.pin(module.beta.data)
    out = ctx.alloc(
        x.shape,
        np.result_type(x.dtype, mean.dtype, gamma.dtype, beta.dtype),
    )

    def step():
        np.subtract(x, mean, out=out)
        np.divide(out, denom, out=out)
        np.multiply(out, gamma, out=out)
        np.add(out, beta, out=out)

    ctx.step(step)
    return out


@register_plan_rule(nn.LayerNorm)
def _plan_layernorm(module, inputs, ctx):
    x = _expect_array(module, inputs)
    gamma = ctx.pin(module.gamma.data)
    beta = ctx.pin(module.beta.data)
    eps = module.eps
    dtype = np.result_type(x.dtype, gamma.dtype, beta.dtype)
    red = ctx.alloc(x.shape[:-1] + (1,), dtype)
    centered = ctx.alloc(x.shape, dtype)
    out = ctx.alloc(x.shape, dtype)

    def step():
        np.mean(x, axis=-1, keepdims=True, out=red)
        np.subtract(x, red, out=centered)
        np.multiply(centered, centered, out=out)      # squared deviations
        np.mean(out, axis=-1, keepdims=True, out=red)  # variance
        np.add(red, eps, out=red)
        np.sqrt(red, out=red)
        np.divide(centered, red, out=out)
        np.multiply(out, gamma, out=out)
        np.add(out, beta, out=out)

    ctx.step(step)
    return out


@register_plan_rule(nn.Sequential)
def _plan_sequential(module, inputs, ctx):
    out = inputs
    for child in module:
        out = ctx.build(child, out)
    return out


# ----------------------------------------------------------------------
# Rules: convolution and pooling
# ----------------------------------------------------------------------
@register_plan_rule(nn.Conv2d)
def _plan_conv2d(module, inputs, ctx):
    x = _expect_array(module, inputs)
    weight = module.weight.data
    n, c, h, w = x.shape
    f, c_per_group, kh, kw = weight.shape
    stride, padding, groups = module.stride, module.padding, module.groups
    f_per_group = f // groups
    oh = conv_mod._out_size(h, kh, stride, padding)
    ow = conv_mod._out_size(w, kw, stride, padding)
    dtype = np.result_type(x.dtype, weight.dtype)

    # Persistent: replay steps only rewrite the interior view; the zero
    # padding ring comes from the alloc-time fill and must survive reuse.
    padded = ctx.alloc((n, c, h + 2 * padding, w + 2 * padding), dtype,
                       persistent=True)
    interior = padded[:, :, padding:padding + h, padding:padding + w]
    flat = padded.reshape(-1)
    index = conv_mod._gather_index(n, c, h, w, kh, kw, stride, padding, oh, ow)
    group_rows = c_per_group * kh * kw
    cols_t = ctx.alloc((group_rows, n * oh * ow), dtype)
    feature_map = ctx.alloc((f, n * oh * ow), dtype)
    out = ctx.alloc((n, f, oh, ow), dtype)
    out_src = feature_map.reshape(f, n, oh, ow).transpose(1, 0, 2, 3)

    group_weights = []
    group_indices = []
    group_maps = []
    for g in range(groups):
        group_weights.append(  # repro-lint: allow[alloc-in-loop] compile-time weight pinning, not a replay step
            ctx.pin(weight[g * f_per_group:(g + 1) * f_per_group]
                    .reshape(f_per_group, -1))
        )
        group_indices.append(index[g * group_rows:(g + 1) * group_rows])
        group_maps.append(feature_map[g * f_per_group:(g + 1) * f_per_group])
    bias = None
    if module.bias is not None:
        bias = ctx.pin(module.bias.data).reshape(1, f, 1, 1)

    def step():
        np.copyto(interior, x)
        for wg, idx, fm in zip(group_weights, group_indices, group_maps):
            np.take(flat, idx, out=cols_t)
            np.matmul(wg, cols_t, out=fm)
        np.copyto(out, out_src)
        if bias is not None:
            np.add(out, bias, out=out)

    ctx.step(step)
    return out


def _plan_pool(module, inputs, ctx, reducer):
    x = _expect_array(module, inputs)
    n, c, h, w = x.shape
    kernel, stride = module.kernel, module.stride
    reshaped = x.reshape(n * c, 1, h, w)
    windows, oh, ow = conv_mod._patch_view(reshaped, kernel, kernel, stride, 0)
    out = ctx.alloc((n, c, oh, ow), x.dtype)
    out_view = out.reshape(n * c, oh, ow)
    ctx.step(lambda: reducer(windows, axis=(3, 4, 5), out=out_view))
    return out


@register_plan_rule(nn.MaxPool2d)
def _plan_maxpool(module, inputs, ctx):
    return _plan_pool(module, inputs, ctx, np.max)


@register_plan_rule(nn.AvgPool2d)
def _plan_avgpool(module, inputs, ctx):
    return _plan_pool(module, inputs, ctx, np.mean)


@register_plan_rule(nn.GlobalAvgPool2d)
def _plan_global_avgpool(module, inputs, ctx):
    x = _expect_array(module, inputs)
    out = ctx.alloc(x.shape[:2], x.dtype)
    ctx.step(lambda: np.mean(x, axis=(2, 3), out=out))
    return out


@register_plan_rule(nn.DepthwiseSeparableConv2d)
def _plan_depthwise(module, inputs, ctx):
    x = ctx.build(module.depthwise, _expect_array(module, inputs))
    x = ctx.build(module.activation, x)
    x = ctx.build(module.pointwise, x)
    return ctx.build(module.activation, x)


# ----------------------------------------------------------------------
# Rules: recurrent layers
# ----------------------------------------------------------------------
def _sequence_inputs(module, inputs):
    if isinstance(inputs, tuple):
        x, mask = inputs
    else:
        x, mask = inputs, None
    if not isinstance(x, np.ndarray) or x.ndim != 3:
        raise UnsupportedModuleError(
            "{} plan rule expects (batch, time, features) input".format(
                type(module).__name__
            )
        )
    return x, mask


class _GateBuffers:
    """Shared per-gate scratch for the recurrent rules.

    ``pre`` holds gate pre-activations in the GRU step and doubles as
    mask-blend scratch; the LSTM rules sum pre-activations directly in
    ``gates4``, so they only allocate ``pre`` when a mask blend needs
    it (``with_pre=False`` otherwise — the plan auditor flags the dead
    buffer if it is allocated unused).
    """

    def __init__(self, ctx, batch, hidden, dtype, with_pre=True):
        self.pre = ctx.alloc((batch, hidden), dtype) if with_pre else None
        self.tmp = ctx.alloc((batch, hidden), dtype)
        self.scratch = ctx.alloc((batch, hidden), dtype)
        self.mask = ctx.bool_buf((batch, hidden))

    def sigmoid(self, x, out):
        kernels.sigmoid_(x, out, self.scratch, self.mask)


def _gru_cell_buffers(ctx, cell, batch, dtype):
    gates = _GateBuffers(ctx, batch, cell.hidden_size, dtype)
    pins = {
        "u_r": ctx.pin(cell.u_r.data.T),
        "u_z": ctx.pin(cell.u_z.data.T),
        "u_h": ctx.pin(cell.u_h.data.T),
    }
    bufs = {
        "r": ctx.alloc((batch, cell.hidden_size), dtype),
        "z": ctx.alloc((batch, cell.hidden_size), dtype),
        "cand": ctx.alloc((batch, cell.hidden_size), dtype),
    }
    return gates, pins, bufs


def _gru_step(gates, pins, bufs, h, h_next, p_r, p_z, p_h):
    """One recurrence step: mirrors GRUCell.step given pre-projections."""
    pre, tmp = gates.pre, gates.tmp
    r, z, cand = bufs["r"], bufs["z"], bufs["cand"]
    np.matmul(h, pins["u_r"], out=pre)
    np.add(pre, p_r, out=pre)
    gates.sigmoid(pre, r)
    np.matmul(h, pins["u_z"], out=pre)
    np.add(pre, p_z, out=pre)
    gates.sigmoid(pre, z)
    np.multiply(r, h, out=tmp)
    np.matmul(tmp, pins["u_h"], out=pre)
    np.add(pre, p_h, out=pre)
    np.tanh(pre, out=cand)
    np.multiply(z, h, out=tmp)
    np.subtract(1.0, z, out=pre)
    pre *= cand
    np.add(tmp, pre, out=h_next)


@register_plan_rule(nn.GRUCell)
def _plan_gru_cell(module, inputs, ctx):
    if not isinstance(inputs, tuple) or len(inputs) != 2:
        raise UnsupportedModuleError("GRUCell plan rule expects (x, h) inputs")
    x, h = inputs
    batch = x.shape[0]
    dtype = np.result_type(x.dtype, h.dtype, module.w_r.data.dtype)
    gates, pins, bufs = _gru_cell_buffers(ctx, module, batch, dtype)
    w_r = ctx.pin(module.w_r.data.T)
    w_z = ctx.pin(module.w_z.data.T)
    w_h = ctx.pin(module.w_h.data.T)
    b_r = ctx.pin(module.b_r.data)
    b_z = ctx.pin(module.b_z.data)
    b_h = ctx.pin(module.b_h.data)
    p_r = ctx.alloc((batch, module.hidden_size), dtype)
    p_z = ctx.alloc((batch, module.hidden_size), dtype)
    p_h = ctx.alloc((batch, module.hidden_size), dtype)
    out = ctx.alloc((batch, module.hidden_size), dtype)

    def step():
        np.matmul(x, w_r, out=p_r)
        np.add(p_r, b_r, out=p_r)
        np.matmul(x, w_z, out=p_z)
        np.add(p_z, b_z, out=p_z)
        np.matmul(x, w_h, out=p_h)
        np.add(p_h, b_h, out=p_h)
        _gru_step(gates, pins, bufs, h, out, p_r, p_z, p_h)

    ctx.step(step)
    return out


def _mask_blend_buffers(ctx, mask, batch, dtype):
    if mask is None:
        return None
    return {
        "col": ctx.alloc((batch, 1), dtype),
        "inv": ctx.alloc((batch, 1), dtype),
    }


def _mask_blend(blend, mask_t, new, prev, tmp_a, tmp_b, out):
    """out = new * m + prev * (1 - m), matching recurrent._mask_step."""
    np.copyto(blend["col"], mask_t)
    np.subtract(1.0, blend["col"], out=blend["inv"])
    np.multiply(new, blend["col"], out=tmp_a)
    np.multiply(prev, blend["inv"], out=tmp_b)
    np.add(tmp_a, tmp_b, out=out)


@register_plan_rule(nn.GRU)
def _plan_gru(module, inputs, ctx):
    x, mask = _sequence_inputs(module, inputs)
    cell = module.cell
    batch, steps, features = x.shape
    hidden = module.hidden_size
    dtype = np.result_type(x.dtype, cell.w_r.data.dtype)
    # Concatenated input projection [reset; update; candidate] — one
    # (B*T, F) @ (F, 3H) matmul replaces three, matching
    # GRUCell.input_projection's column layout.
    w_cat = ctx.pin(np.concatenate(
        [cell.w_r.data, cell.w_z.data, cell.w_h.data], axis=0).T)
    b_cat = ctx.pin(np.concatenate(
        [cell.b_r.data, cell.b_z.data, cell.b_h.data]))
    gates, pins, bufs = _gru_cell_buffers(ctx, cell, batch, dtype)
    projected = ctx.alloc((batch * steps, 3 * hidden), dtype)
    projected3 = projected.reshape(batch, steps, 3 * hidden)
    x2 = x.reshape(batch * steps, features)
    h = ctx.alloc((batch, hidden), dtype)
    h_next = ctx.alloc((batch, hidden), dtype)
    blend = _mask_blend_buffers(ctx, mask, batch, dtype)

    def step():
        np.matmul(x2, w_cat, out=projected)
        np.add(projected, b_cat, out=projected)
        h[:] = 0.0
        for t in range(steps):
            p_t = projected3[:, t, :]
            _gru_step(gates, pins, bufs, h, h_next,
                      p_t[:, :hidden], p_t[:, hidden:2 * hidden],
                      p_t[:, 2 * hidden:])
            if blend is None:
                np.copyto(h, h_next)
            else:
                _mask_blend(blend, mask[:, t:t + 1], h_next, h,
                            gates.pre, gates.tmp, h)

    ctx.step(step)
    return h


def _lstm_gate_step(gates4, parts, c_prev, h_out, c_out, gbuf):
    """Gate math from LSTMCell.step given summed pre-activations."""
    i, f, g, o = parts
    hidden = i.shape[1]
    gbuf.sigmoid(gates4[:, :hidden], i)
    gbuf.sigmoid(gates4[:, hidden:2 * hidden], f)
    np.tanh(gates4[:, 2 * hidden:3 * hidden], out=g)
    gbuf.sigmoid(gates4[:, 3 * hidden:], o)
    np.multiply(f, c_prev, out=c_out)
    np.multiply(i, g, out=gbuf.tmp)
    c_out += gbuf.tmp
    np.tanh(c_out, out=gbuf.tmp)
    np.multiply(o, gbuf.tmp, out=h_out)


def _lstm_buffers(ctx, cell, batch, dtype, with_pre=False, with_rec=False):
    hidden = cell.hidden_size
    gbuf = _GateBuffers(ctx, batch, hidden, dtype, with_pre=with_pre)
    pins = {"u": ctx.pin(cell.u.data.T)}
    parts = tuple(
        ctx.alloc((batch, hidden), dtype) for _ in range(4)
    )  # repro-lint: allow[alloc-in-loop] compile-time gate buffers
    gates4 = ctx.alloc((batch, 4 * hidden), dtype)
    # The sequence rule hoists the input projection and sums recurrent
    # terms into gates4 directly, so only the cell rule needs rec.
    rec = ctx.alloc((batch, 4 * hidden), dtype) if with_rec else None
    return gbuf, pins, parts, gates4, rec


@register_plan_rule(nn.LSTMCell)
def _plan_lstm_cell(module, inputs, ctx):
    if not isinstance(inputs, tuple) or len(inputs) != 2 \
            or not isinstance(inputs[1], tuple):
        raise UnsupportedModuleError(
            "LSTMCell plan rule expects (x, (h, c)) inputs")
    x, (h, c) = inputs
    batch = x.shape[0]
    hidden = module.hidden_size
    dtype = np.result_type(x.dtype, h.dtype, c.dtype, module.w.data.dtype)
    gbuf, pins, parts, gates4, rec = _lstm_buffers(ctx, module, batch, dtype,
                                                   with_rec=True)
    w_t = ctx.pin(module.w.data.T)
    b = ctx.pin(module.b.data)
    h_out = ctx.alloc((batch, hidden), dtype)
    c_out = ctx.alloc((batch, hidden), dtype)

    def step():
        np.matmul(x, w_t, out=gates4)
        np.add(gates4, b, out=gates4)
        np.matmul(h, pins["u"], out=rec)
        np.add(gates4, rec, out=gates4)
        _lstm_gate_step(gates4, parts, c, h_out, c_out, gbuf)

    ctx.step(step)
    return h_out, c_out


@register_plan_rule(nn.LSTM)
def _plan_lstm(module, inputs, ctx):
    x, mask = _sequence_inputs(module, inputs)
    cell = module.cell
    batch, steps, features = x.shape
    hidden = module.hidden_size
    dtype = np.result_type(x.dtype, cell.w.data.dtype)
    gbuf, pins, parts, gates4, _ = _lstm_buffers(ctx, cell, batch, dtype,
                                                 with_pre=mask is not None)
    w_t = ctx.pin(cell.w.data.T)
    b = ctx.pin(cell.b.data)
    projected = ctx.alloc((batch * steps, 4 * hidden), dtype)
    projected3 = projected.reshape(batch, steps, 4 * hidden)
    x2 = x.reshape(batch * steps, features)
    h = ctx.alloc((batch, hidden), dtype)
    c = ctx.alloc((batch, hidden), dtype)
    h_next = ctx.alloc((batch, hidden), dtype)
    c_next = ctx.alloc((batch, hidden), dtype)
    blend = _mask_blend_buffers(ctx, mask, batch, dtype)

    def step():
        np.matmul(x2, w_t, out=projected)
        np.add(projected, b, out=projected)
        h[:] = 0.0
        c[:] = 0.0
        for t in range(steps):
            np.matmul(h, pins["u"], out=gates4)
            np.add(gates4, projected3[:, t, :], out=gates4)
            _lstm_gate_step(gates4, parts, c, h_next, c_next, gbuf)
            if blend is None:
                np.copyto(h, h_next)
                np.copyto(c, c_next)
            else:
                mask_t = mask[:, t:t + 1]
                _mask_blend(blend, mask_t, h_next, h,
                            gbuf.pre, gbuf.tmp, h)
                _mask_blend(blend, mask_t, c_next, c,
                            gbuf.pre, gbuf.tmp, c)

    ctx.step(step)
    return h


@register_plan_rule(nn.Bidirectional)
def _plan_bidirectional(module, inputs, ctx):
    x, mask = _sequence_inputs(module, inputs)
    batch, steps, _ = x.shape
    ahead = ctx.build(module.forward_layer, (x, mask))

    reversed_x = ctx.alloc(x.shape, x.dtype)
    if mask is None:
        reversed_mask = None
        ctx.step(lambda: np.copyto(reversed_x, x[:, ::-1, :]))
    else:
        ldt = np.result_type(mask.dtype, 1.0)
        positions = ctx.pin(np.arange(steps).astype(ldt)[None, :])
        lengths = ctx.alloc((batch, 1), ldt)
        gather_f = ctx.alloc((batch, steps), ldt)
        gather_i = ctx.alloc((batch, steps), np.dtype(np.intp))
        valid = ctx.bool_buf((batch, steps))
        invalid = ctx.bool_buf((batch, steps))
        valid_f = ctx.alloc((batch, steps), x.dtype)
        reversed_mask = ctx.alloc(mask.shape, mask.dtype)

        def reverse_step():
            np.sum(mask, axis=1, keepdims=True, out=lengths)
            np.less(positions, lengths, out=valid)
            np.logical_not(valid, out=invalid)
            # Within the valid prefix read index length-1-t, else t
            # (tail zeroed below) — mirrors Bidirectional.forward.
            np.subtract(lengths, 1.0, out=lengths)
            np.subtract(lengths, positions, out=gather_f)
            np.copyto(gather_f, positions, where=invalid)
            np.copyto(gather_i, gather_f, casting="unsafe")
            for b in range(batch):
                np.take(x[b], gather_i[b], axis=0, out=reversed_x[b])
            np.copyto(valid_f, valid)
            np.multiply(reversed_x, valid_f[:, :, None], out=reversed_x)
            np.copyto(reversed_mask, valid)

        ctx.step(reverse_step)

    behind = ctx.build(module.backward_layer, (reversed_x, reversed_mask))
    split = ahead.shape[1]
    out = ctx.alloc((batch, split + behind.shape[1]),
                    np.result_type(ahead.dtype, behind.dtype))

    def concat_step():
        np.copyto(out[:, :split], ahead)
        np.copyto(out[:, split:], behind)

    ctx.step(concat_step)
    return out


# ----------------------------------------------------------------------
# Rules: fusion heads and the multi-view classifier
# ----------------------------------------------------------------------
def _expect_views(module, inputs):
    if not isinstance(inputs, list):
        raise UnsupportedModuleError(
            "{} plan rule expects a list of per-view inputs".format(
                type(module).__name__
            )
        )
    return inputs


def _concat_with_ones(ctx, views, dtype):
    """Buffer holding [views...; 1] with the ones column set at compile."""
    batch = views[0].shape[0]
    total = sum(v.shape[1] for v in views)
    # Persistent: the ones column is written once here at compile time
    # and only the view columns are refilled per replay.
    buffer = ctx.alloc((batch, total + 1), dtype, persistent=True)
    buffer[:, total] = 1.0
    slices = []
    start = 0
    for view in views:
        slices.append((buffer[:, start:start + view.shape[1]], view))
        start += view.shape[1]

    def fill():
        for target, source in slices:
            np.copyto(target, source)

    return buffer, fill, total


@register_plan_rule(nn.FullyConnectedFusion)
def _plan_fc_fusion(module, inputs, ctx):
    views = _expect_views(module, inputs)
    hidden_dtype = np.result_type(
        *([v.dtype for v in views] + [module.w1.data.dtype]))
    cat_dtype = np.result_type(*[v.dtype for v in views])
    hcat, fill, _ = _concat_with_ones(ctx, views, cat_dtype)
    w1 = ctx.pin(module.w1.data.T)
    w2 = ctx.pin(module.w2.data.T)
    batch = views[0].shape[0]
    q = ctx.alloc((batch, module.w1.shape[0]), hidden_dtype)
    out = ctx.alloc((batch, module.w2.shape[0]),
                    np.result_type(hidden_dtype, module.w2.data.dtype))

    def step():
        fill()
        np.matmul(hcat, w1, out=q)
        np.maximum(q, 0.0, out=q)
        np.matmul(q, w2, out=out)

    ctx.step(step)
    return out


@register_plan_rule(nn.FactorizationMachineFusion)
def _plan_fm_fusion(module, inputs, ctx):
    views = _expect_views(module, inputs)
    cat_dtype = np.result_type(*[v.dtype for v in views])
    hcat, fill, total = _concat_with_ones(ctx, views, cat_dtype)
    h = hcat[:, :total]
    u = ctx.pin(module.u.data.T)
    w = ctx.pin(module.w.data.T)
    batch = views[0].shape[0]
    classes, factors = module.num_classes, module.factor_units
    q_dtype = np.result_type(cat_dtype, module.u.data.dtype)
    out_dtype = np.result_type(q_dtype, module.w.data.dtype)
    q = ctx.alloc((batch, classes * factors), q_dtype)
    q3 = q.reshape(batch, classes, factors)
    quadratic = ctx.alloc((batch, classes), q_dtype)
    linear = ctx.alloc((batch, classes),
                       np.result_type(cat_dtype, module.w.data.dtype))
    out = ctx.alloc((batch, classes), out_dtype)

    def step():
        fill()
        np.matmul(h, u, out=q)
        np.multiply(q3, q3, out=q3)
        np.sum(q3, axis=2, out=quadratic)
        np.matmul(hcat, w, out=linear)
        np.add(quadratic, linear, out=out)

    ctx.step(step)
    return out


@register_plan_rule(nn.MultiViewMachineFusion)
def _plan_mvm_fusion(module, inputs, ctx):
    views = _expect_views(module, inputs)
    if len(views) != len(module.view_sizes):
        raise UnsupportedModuleError(
            "expected {} views, got {}".format(
                len(module.view_sizes), len(views))
        )
    batch = views[0].shape[0]
    classes, factors = module.num_classes, module.factor_units
    factor_params = [getattr(module, name) for name in module._factor_names]
    dtype = np.result_type(
        *([v.dtype for v in views] + [p.data.dtype for p in factor_params]))
    product = ctx.alloc((batch, classes * factors), dtype)
    product3 = product.reshape(batch, classes, factors)
    q_tmp = ctx.alloc((batch, classes * factors), dtype)
    q_tmp3 = q_tmp.reshape(batch, classes, factors)
    out = ctx.alloc((batch, classes), dtype)

    stages = []
    for view, param in zip(views, factor_params):
        vcat, fill, _ = _concat_with_ones(ctx, [view], view.dtype)  # repro-lint: allow[alloc-in-loop] compile-time per-view buffers
        stages.append((fill, vcat, ctx.pin(param.data.T)))

    def step():
        for index, (fill, vcat, u) in enumerate(stages):
            fill()
            if index == 0:
                np.matmul(vcat, u, out=product)
            else:
                np.matmul(vcat, u, out=q_tmp)
                np.multiply(product3, q_tmp3, out=product3)
        np.sum(product3, axis=2, out=out)

    ctx.step(step)
    return out


def _register_core_rules():
    from ..core.model import MultiViewGRUClassifier

    @register_plan_rule(MultiViewGRUClassifier)
    def _plan_multiview_classifier(module, inputs, ctx):
        views = _expect_views(module, inputs)
        if len(views) != len(module.view_dims):
            raise UnsupportedModuleError(
                "expected {} views, got {}".format(
                    len(module.view_dims), len(views))
            )
        encoded = []
        for name, view in zip(module._encoder_names, views):
            pair = view if isinstance(view, tuple) else (view, None)
            encoded.append(ctx.build(getattr(module, name), pair))
            # module.dropout is inert in eval mode (what plans capture).
        return ctx.build(module.fusion, encoded)


_register_core_rules()
