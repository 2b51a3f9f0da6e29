"""Training compiler: capture forward+backward+update as replayable steps.

``compile_train_plan(module, example_input, example_target)`` traces one
training step through the module tree and records three step lists —
forward, backward, and optimizer update — of zero-argument closures over
buffers preallocated in a :class:`~repro.serve.arena.BufferArena`.
``TrainPlan.step`` then replays them with

* **no graph construction** — nothing goes through ``Tensor._make``;
  gradients flow through per-buffer gradient arrays the compiler pairs
  with every forward intermediate;
* **fused elementwise chains** — gate nonlinearities inside the GRU/LSTM
  recurrences (a cell compiles as one step of its layer's recurrence),
  bias+activation after Linear/Conv (peepholed by the
  Sequential rule), and softmax+cross-entropy run as single closures
  over preallocated scratch instead of one autograd node per ufunc;
* **reused im2col columns** — conv backward consumes the forward's
  gathered column buffer and cached gather indices instead of
  recomputing them;
* **no allocation** — the arena is frozen after compilation and any
  replay-step allocation raises :class:`~repro.serve.arena.ArenaFrozenError`.
  Two documented exceptions allocate inside numpy: the ``np.bincount``
  scatter in conv backward (no ``out=`` form) and numpy-internal
  buffering for dtype-mixed ufuncs.

Weights are **live**: forward and backward matmuls read transposed
*views* of ``param.data`` and the update closures modify the same
arrays in place, so a compiled step is a complete SGD/Adam iteration.
``TrainPlan`` re-binds parameters that user code rebinds
(``load_state_dict``, an eager optimizer step) back onto the captured
arrays before each replay.

The same rules compile serving plans.  ``TrainContext(arena,
training=False)`` is a forward-only mode: :meth:`TrainContext.grad`
returns ``None``, so every rule returns after its forward steps and no
gradient, loss or optimizer buffer is built; dropout is the identity,
batch norm normalises with its running statistics, and no rule keeps a
buffer that only backward reads.  :class:`repro.serve.Plan` builds
every trace this way and keeps only the forward steps.

Every compile self-verifies: the traced step runs once on the example
and its loss, every parameter gradient, and every updated buffer
(batch-norm running statistics) are compared against an eager
forward+backward at gradcheck tolerance before the plan is accepted.

Training semantics are captured: dropout draws from the module's own
``Generator`` each replayed step (identical stream to eager training),
and batch-norm updates its running statistics in place.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager

import numpy as np

from .. import nn
from ..nn import losses
from ..tensor import Tensor
from ..tensor import conv as conv_mod
from ..nn import module as module_mod
from ..serve import kernels
from ..serve.arena import BufferArena
from ..serve.plan import (
    ShapeError,
    UnsupportedModuleError,
    _alloc_inputs,
    _call_eager,
    _signature,
    _to_arrays,
    _write_inputs,
)

__all__ = [
    "TrainContext",
    "TrainPlan",
    "TrainVerificationError",
    "compile_train_plan",
    "register_train_rule",
]


class TrainVerificationError(RuntimeError):
    """A compiled training step disagreed with the eager forward+backward."""


# ----------------------------------------------------------------------
# Rule registry: the one table of per-layer knowledge (training, serving
# and repro.analysis.check_module all build through it)
# ----------------------------------------------------------------------
_TRAIN_RULES = {}


def register_train_rule(*classes):
    """Decorator: register a layer rule ``fn(module, inputs, ctx)``.

    The one rule registry of both compilers and of
    :func:`repro.analysis.check_module`.  The rule allocates its output
    buffer(s) and appends forward steps with :meth:`TrainContext.fwd`.
    When its output has a gradient buffer it then appends one backward
    closure with :meth:`TrainContext.bwd` that *accumulates* (``+=``)
    into the gradient buffers of its inputs and parameters; in
    forward-only mode it returns after the forward.  A rule raises
    :class:`~repro.serve.plan.ShapeError` for an input numpy would
    broadcast or slice into a wrong but well-formed result.
    """
    def decorate(fn):
        for cls in classes:
            _TRAIN_RULES[cls] = fn
        return fn
    return decorate


def _find_train_rule(module):
    for cls in type(module).__mro__:
        rule = _TRAIN_RULES.get(cls)
        if rule is not None:
            return rule
    return None


def _grad_dtype(buffer):
    return np.result_type(buffer.dtype, np.float32)  # repro-lint: allow[dtype-literal] float32 is the floor precision for gradient buffers, independent of the session default


class TrainContext:
    """Compilation state handed to training rules.

    Besides the arena and step lists, the context owns the gradient
    pairing: :meth:`grad` maps any forward buffer to its gradient buffer
    (allocated on first request, shared between the producing and the
    consuming rule because both hold the *same* buffer object), returns
    ``None`` for buffers marked constant (plan inputs, targets, detached
    intermediates) so rules elide dead gradient computations, and
    resolves reshape aliases (Flatten) onto the base buffer's gradient.

    Backward closures are registered in build (forward) order and
    executed **reversed**, which is reverse-topological order for the
    traced graph; the loss rule registers last and therefore runs first.

    ``training=False`` is the forward-only mode serving plans compile
    through: :meth:`grad` returns ``None`` for every buffer, rules
    apply eval semantics (dropout is the identity, batch norm reads its
    running statistics) and keep no buffer that only backward reads.
    """

    def __init__(self, arena, training=True):
        self.arena = arena
        self.training = training
        self.fwd_steps = []
        self.bwd_steps = []
        self.param_grads = OrderedDict()
        self._grad_bufs = {}
        self._alias = {}
        self._constants = set()
        self._keepalive = []

    # -- buffers --------------------------------------------------------
    def alloc(self, shape, dtype, persistent=False):
        return self.arena.alloc(shape, dtype, persistent=persistent)

    def bool_buf(self, shape):
        return self.arena.alloc(shape, np.dtype(bool))

    def pin(self, array):
        """Compile-time contiguous copy of a true constant (indices)."""
        return np.ascontiguousarray(np.asarray(array))

    def keep(self, obj):
        """Keep a view object alive so ``id``-keyed lookups stay stable."""
        self._keepalive.append(obj)
        return obj

    # -- steps ----------------------------------------------------------
    def fwd(self, fn):
        self.fwd_steps.append(fn)

    def bwd(self, fn):
        self.bwd_steps.append(fn)

    # -- gradient pairing -----------------------------------------------
    def mark_constant(self, value):
        """Mark buffer(s) as requiring no gradient (inputs, targets)."""
        if value is None:
            return
        if isinstance(value, np.ndarray):
            self._constants.add(id(value))
            self._keepalive.append(value)
            return
        for item in value:
            self.mark_constant(item)

    def alias_grad(self, view, base):
        """Declare ``view``'s gradient to be ``grad(base)`` reshaped."""
        self._alias[id(view)] = base
        self._keepalive.append(view)

    def grad(self, buffer):
        """Gradient buffer paired with ``buffer`` (``None`` if constant
        or in forward-only mode)."""
        key = id(buffer)
        if not self.training or key in self._constants:
            return None
        base = self._alias.get(key)
        if base is not None:
            g = self.grad(base)
            return None if g is None else g.reshape(buffer.shape)
        g = self._grad_bufs.get(key)
        if g is None:
            g = self.arena.alloc(buffer.shape, _grad_dtype(buffer))
            self._grad_bufs[key] = g
            self._keepalive.append(buffer)
        return g

    def param_grad(self, param):
        """Gradient buffer for a Parameter (allocated once per param)."""
        entry = self.param_grads.get(id(param))
        if entry is None:
            g = self.arena.alloc(param.data.shape, _grad_dtype(param.data))
            entry = (param, g)
            self.param_grads[id(param)] = entry
        return entry[1]

    def all_grad_buffers(self):
        bufs = list(self._grad_bufs.values())
        bufs.extend(g for _, g in self.param_grads.values())
        return bufs

    # -- recursion ------------------------------------------------------
    def build(self, module, inputs, activation=None):
        """Compile a child module; ``activation`` requests output fusion.

        ``activation`` is an activation *module* (ReLU/Tanh) a composite
        rule wants fused into the producer's closures; rules that
        support fusion accept it, others are handed inputs unchanged and
        the activation is compiled as its own rule by the caller.
        """
        rule = _find_train_rule(module)
        if rule is None:
            raise UnsupportedModuleError(
                "no layer rule registered for {}; add one with "
                "@register_train_rule({})".format(
                    type(module).__name__, type(module).__name__
                )
            )
        if activation is not None and rule in _FUSES_ACTIVATION:
            return rule(module, inputs, self, activation=activation)
        return rule(module, inputs, self)


# Rules that accept the Sequential peephole's ``activation=`` keyword.
_FUSES_ACTIVATION = set()


def _fuses_activation(fn):
    _FUSES_ACTIVATION.add(fn)
    return fn


# Activation classes the Sequential rule may fold into a producer.
_FUSABLE_ACTIVATIONS = (nn.ReLU, nn.Tanh)


def _apply_fused_activation(activation, out):
    """In-place activation on the producer's output buffer (fwd side)."""
    if isinstance(activation, nn.ReLU):
        return lambda: np.maximum(out, 0.0, out=out)
    if isinstance(activation, nn.Tanh):
        return lambda: np.tanh(out, out=out)
    raise UnsupportedModuleError(
        "unsupported fused activation {}".format(type(activation).__name__))


def _fused_activation_grad(activation, out, g_out, tmp):
    """Return a closure computing ``g_pre`` into ``tmp`` from ``g_out``.

    The derivative is evaluated from the activation *output* (valid for
    ReLU and tanh), which the fused producer left in ``out``.
    """
    if isinstance(activation, nn.ReLU):
        def relu_grad():
            np.greater(out, 0.0, out=tmp)
            np.multiply(g_out, tmp, out=tmp)
        return relu_grad

    def tanh_grad():
        np.multiply(out, out, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        np.multiply(g_out, tmp, out=tmp)
    return tanh_grad


# ----------------------------------------------------------------------
# Structure helpers
# ----------------------------------------------------------------------
def _primary(output):
    """First element of a tuple output (LSTMCell's hidden state)."""
    if isinstance(output, tuple):
        return output[0]
    return output


def _grad_tolerance(dtype):
    if np.dtype(dtype).itemsize >= 8:
        return 1e-6, 1e-8
    return 5e-3, 1e-4


def _assert_close(kind, produced, reference, dtype):
    rtol, atol = _grad_tolerance(dtype)
    produced = np.asarray(produced)
    reference = np.asarray(reference)
    if produced.shape != reference.shape:
        raise TrainVerificationError(
            "compiled {} has shape {}, eager produced {}".format(
                kind, produced.shape, reference.shape))
    if not np.allclose(produced, reference, rtol=rtol, atol=atol,
                       equal_nan=True):
        gap = float(np.max(np.abs(produced - reference)))
        raise TrainVerificationError(
            "compiled {} deviates from eager (max abs diff {:.3e}, "
            "dtype {})".format(kind, gap, np.dtype(dtype)))


# ----------------------------------------------------------------------
# Fused loss rules
# ----------------------------------------------------------------------
def _build_cross_entropy(ctx, logits, labels):
    """Softmax+NLL fused: forward computes the scalar loss, backward
    writes ``(softmax - onehot) / batch`` straight into the logits'
    gradient buffer (sole writer; everything upstream accumulates).

    The backward rounds as eager's ``log_softmax`` backward does: the
    softmax is ``exp(shifted - logsum)``, scaled by ``1/batch`` before
    the label entries lose ``1/batch``, so compiled and eager gradients
    are bit-identical."""
    if logits.ndim != 2 or labels.size != logits.shape[0]:
        raise ShapeError(
            "cross-entropy training plans need (batch, classes) logits and "
            "one label per row; got logits of shape {} and {} labels".format(
                logits.shape, labels.size))
    batch, classes = logits.shape
    dtype = _grad_dtype(logits)
    maxes = ctx.alloc((batch, 1), dtype)
    shifted = ctx.alloc((batch, classes), dtype)
    exps = ctx.alloc((batch, classes), dtype)
    sums = ctx.alloc((batch, 1), dtype)
    logsum = ctx.alloc((batch, 1), dtype)
    picked = ctx.alloc((batch,), dtype)
    flat_idx = ctx.alloc((batch,), np.dtype(np.intp))
    row_start = ctx.pin(np.arange(batch, dtype=np.intp) * classes)
    loss = ctx.alloc((), dtype)
    mean_buf = ctx.alloc((), dtype)
    shifted_flat = ctx.keep(shifted.reshape(-1))
    g_logits = ctx.grad(logits)
    g_flat = ctx.keep(g_logits.reshape(-1))
    inv_batch = 1.0 / batch

    def forward():
        # ufunc .reduce directly: same math as np.max/np.sum/np.mean
        # without the fromnumeric dispatch wrappers
        np.maximum.reduce(logits, axis=1, keepdims=True, out=maxes)
        np.subtract(logits, maxes, out=shifted)
        np.exp(shifted, out=exps)
        np.add.reduce(exps, axis=1, keepdims=True, out=sums)
        np.log(sums, out=logsum)
        np.add(row_start, labels, out=flat_idx)
        np.take(shifted_flat, flat_idx, out=picked)
        np.add.reduce(logsum, axis=None, out=loss)
        np.add.reduce(picked, out=mean_buf)
        np.subtract(loss, mean_buf, out=loss)
        np.multiply(loss, inv_batch, out=loss)

    def backward():
        np.subtract(shifted, logsum, out=g_logits)
        np.exp(g_logits, out=g_logits)
        np.multiply(g_logits, inv_batch, out=g_logits)
        g_flat[flat_idx] -= inv_batch

    ctx.fwd(forward)
    ctx.bwd(backward)
    return loss


def _build_mse(ctx, pred, target):
    dtype = _grad_dtype(pred)
    diff = ctx.alloc(pred.shape, dtype)
    sq = ctx.alloc(pred.shape, dtype)
    loss = ctx.alloc((), dtype)
    g_pred = ctx.grad(pred)
    scale = 2.0 / pred.size

    def forward():
        np.subtract(pred, target, out=diff)
        np.multiply(diff, diff, out=sq)
        np.mean(sq, out=loss)

    def backward():
        np.multiply(diff, scale, out=g_pred)

    ctx.fwd(forward)
    ctx.bwd(backward)
    return loss


_LOSS_BUILDERS = {
    "cross_entropy": _build_cross_entropy,
    "mse": _build_mse,
}


# ----------------------------------------------------------------------
# Optimizer update closures
# ----------------------------------------------------------------------
class _OptimizerSpec:
    """Normalised optimizer hyperparameters (from a name or an instance)."""

    def __init__(self, kind, lr, momentum=0.0, nesterov=False,
                 weight_decay=0.0, beta1=0.9, beta2=0.999, eps=1e-8):
        self.kind = kind
        self.lr = lr
        self.momentum = momentum
        self.nesterov = nesterov
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps

    @classmethod
    def resolve(cls, optimizer, optimizer_args):
        from ..optim import SGD, Adam

        args = dict(optimizer_args or {})
        if optimizer is None:
            return None
        if isinstance(optimizer, SGD):
            return cls("sgd", optimizer.lr, momentum=optimizer.momentum,
                       nesterov=optimizer.nesterov,
                       weight_decay=optimizer.weight_decay)
        if isinstance(optimizer, Adam):
            return cls("adam", optimizer.lr, weight_decay=optimizer.weight_decay,
                       beta1=optimizer.beta1, beta2=optimizer.beta2,
                       eps=optimizer.eps)
        if optimizer == "sgd":
            return cls("sgd", args.pop("lr", 0.01), **args)
        if optimizer == "adam":
            betas = args.pop("betas", (0.9, 0.999))
            return cls("adam", args.pop("lr", 0.001),
                       beta1=betas[0], beta2=betas[1], **args)
        raise ValueError(
            "optimizer must be None, 'sgd', 'adam', or an SGD/Adam "
            "instance; got {!r}".format(optimizer))


def _build_sgd_update(spec, lr_cell, param_array, grad, state, ctx):
    p = param_array
    tmp = ctx.alloc(p.shape, grad.dtype)
    momentum, nesterov, wd = spec.momentum, spec.nesterov, spec.weight_decay
    velocity = state.get("velocity")
    if momentum and velocity is None:
        # Persistent: momentum carries across steps.
        velocity = state["velocity"] = ctx.alloc(p.shape, grad.dtype,
                                                 persistent=True)

    def update():
        if wd:
            np.multiply(p, wd, out=tmp)
            np.add(grad, tmp, out=grad)
        if momentum:
            np.multiply(velocity, momentum, out=velocity)
            np.add(velocity, grad, out=velocity)
            if nesterov:
                np.multiply(velocity, momentum, out=tmp)
                np.add(tmp, grad, out=tmp)
                src = tmp
            else:
                src = velocity
        else:
            src = grad
        np.multiply(src, lr_cell[0], out=tmp)
        np.subtract(p, tmp, out=p)

    return update


def _build_adam_update(spec, lr_cell, counter, param_array, grad, state, ctx):
    p = param_array
    tmp = ctx.alloc(p.shape, grad.dtype)
    tmp2 = ctx.alloc(p.shape, grad.dtype)
    b1, b2, eps, wd = spec.beta1, spec.beta2, spec.eps, spec.weight_decay
    m = state.get("m")
    if m is None:
        # Persistent: Adam moments carry across steps.
        m = state["m"] = ctx.alloc(p.shape, grad.dtype, persistent=True)
        state["v"] = ctx.alloc(p.shape, grad.dtype, persistent=True)
    v = state["v"]

    def update():
        t = counter[0]
        if wd:
            np.multiply(p, wd, out=tmp)
            np.add(grad, tmp, out=grad)
        np.multiply(m, b1, out=m)
        np.multiply(grad, 1.0 - b1, out=tmp)
        np.add(m, tmp, out=m)
        np.multiply(v, b2, out=v)
        np.multiply(grad, grad, out=tmp)
        np.multiply(tmp, 1.0 - b2, out=tmp)
        np.add(v, tmp, out=v)
        np.divide(m, 1.0 - b1 ** t, out=tmp)
        np.divide(v, 1.0 - b2 ** t, out=tmp2)
        np.sqrt(tmp2, out=tmp2)
        np.add(tmp2, eps, out=tmp2)
        np.divide(tmp, tmp2, out=tmp)
        np.multiply(tmp, lr_cell[0], out=tmp)
        np.subtract(p, tmp, out=p)

    return update


# ----------------------------------------------------------------------
# Compiled trace and plan object
# ----------------------------------------------------------------------
class _CompiledTrainTrace:
    __slots__ = ("inputs", "target", "loss", "fwd_steps", "bwd_steps",
                 "updates", "grad_zero", "named_grads", "arena", "classes")

    def __init__(self, inputs, target, loss, ctx, updates, named_grads,
                 arena, classes):
        self.inputs = inputs
        self.target = target
        self.loss = loss
        self.classes = classes  # logit width for class labels, else None
        self.fwd_steps = tuple(ctx.fwd_steps)
        self.bwd_steps = tuple(reversed(ctx.bwd_steps))
        self.updates = tuple(updates)
        self.grad_zero = tuple(ctx.all_grad_buffers())
        self.named_grads = named_grads  # [(name, param, grad_buffer)]
        self.arena = arena

    def check_target(self, target):
        """Raise IndexError for a class label outside [0, classes).

        The fused cross-entropy gathers each row's logit at
        ``row * classes + label``, so such a label would silently read
        and write a neighbouring row's logit instead of failing."""
        # Viewed as unsigned, a negative label exceeds every class.
        if (self.classes is not None and target.size
                and np.maximum.reduce(target.view(np.uintp)) >= self.classes):
            bad = target[(target < 0) | (target >= self.classes)][0]
            raise IndexError("label {} is out of range for {} classes".format(
                bad, self.classes))

    def run_forward(self):
        for step in self.fwd_steps:
            step()

    def zero_grads(self):
        for g in self.grad_zero:
            g[...] = 0.0

    def run_backward(self):
        for step in self.bwd_steps:
            step()

    def run_updates(self):
        for step in self.updates:
            step()


class TrainPlan:
    """A compiled training step for one module + loss + optimizer.

    Parameters
    ----------
    module:
        The module to train.  Plans capture training-mode semantics.
    loss:
        ``"cross_entropy"`` (integer labels) or ``"mse"``.
    optimizer:
        ``"sgd"``, ``"adam"``, an ``SGD``/``Adam`` instance to copy
        hyperparameters from, or ``None`` for a gradient-only plan
        (``step`` then leaves parameters untouched; pair with
        :meth:`flat_grad` for DP-SGD style aggregation).
    optimizer_args:
        Hyperparameter overrides when ``optimizer`` is a name.
    cache_limit:
        Maximum number of shape-signature traces kept.
    """

    def __init__(self, module, loss="cross_entropy", optimizer="sgd",
                 optimizer_args=None, cache_limit=8, arena_factory=None):
        if loss not in _LOSS_BUILDERS:
            raise ValueError(
                "loss must be one of {}; got {!r}".format(
                    sorted(_LOSS_BUILDERS), loss))
        self.module = module
        self.loss_kind = loss
        self.spec = _OptimizerSpec.resolve(optimizer, optimizer_args)
        self._cache_limit = cache_limit
        self._arena_factory = arena_factory or BufferArena
        self._traces = OrderedDict()
        self._last = None
        self._bound_params = None   # [(name, param, array)]
        self._bound_buffers = None  # [(module, name, array)]
        self._dropouts = None
        self._opt_state = {}
        self._lr = [self.spec.lr if self.spec else 0.0]
        self._counter = [0]
        self.compile_count = 0

    # -- binding --------------------------------------------------------
    def _ensure_bound(self):
        if self._bound_params is not None:
            return
        self._bound_params = [
            (name, param, param.data)
            for name, param in self.module.named_parameters()
        ]
        buffers = []
        dropouts = []
        seen = set()
        for _, mod in self.module.named_modules():
            if id(mod) in seen:
                continue
            seen.add(id(mod))
            for bname in mod._buffers:
                buffers.append((mod, bname, mod._buffers[bname]))
            if isinstance(mod, nn.Dropout):
                dropouts.append(mod)
        self._bound_buffers = buffers
        self._dropouts = dropouts

    def _rebind(self):
        """Re-point rebound parameters/buffers onto the captured arrays.

        Eager optimizer steps and ``load_state_dict`` rebind
        ``param.data``; plan closures hold views of the *captured*
        arrays, so copy the new values in and restore the binding.
        """
        for _, param, arr in self._bound_params:
            if param.data is not arr:
                np.copyto(arr, param.data)
                param.data = arr  # repro-lint: allow[param-data] restore the compiled binding after an external rebind
        for mod, name, arr in self._bound_buffers:
            if mod._buffers[name] is not arr:
                np.copyto(arr, mod._buffers[name])
                mod._buffers[name] = arr
                object.__setattr__(mod, name, arr)

    @contextmanager
    def _unlocked(self):
        """Temporarily unfreeze sanitizer-frozen parameter arrays.

        Under ``REPRO_SANITIZE`` the mutation sanitizer write-protects
        parameters between steps; compiled updates legitimately mutate
        them in place, so writeability is restored for the duration of
        one step (mirroring the gradcheck harness).
        """
        relock = []
        for _, _, arr in self._bound_params:
            if arr.flags.owndata and not arr.flags.writeable:
                arr.flags.writeable = True
                relock.append(arr)
        for _, _, arr in self._bound_buffers:
            if arr.flags.owndata and not arr.flags.writeable:
                arr.flags.writeable = True
                relock.append(arr)
        try:
            yield
        finally:
            for arr in relock:
                arr.flags.writeable = False

    def _restore_buffers(self, snapshot):
        for mod, name, arr, saved in snapshot:
            np.copyto(arr, saved)
            mod._buffers[name] = arr
            object.__setattr__(mod, name, arr)

    # -- compilation ----------------------------------------------------
    def _coerce_target(self, target):
        if self.loss_kind == "cross_entropy":
            return np.asarray(target).astype(np.intp).reshape(-1)
        return np.asarray(target)

    def _eager_reference(self, values, target):
        module = self.module
        out = _call_eager(module, values)
        pred = _primary(out)
        if self.loss_kind == "cross_entropy":
            loss = losses.cross_entropy(pred, target)
        else:
            loss = losses.mse_loss(pred, Tensor(target))
        loss.backward()
        grads = {}
        for name, param, _ in self._bound_params:
            if param.grad is None:
                grads[name] = np.zeros_like(param.data)  # repro-lint: allow[alloc-in-loop] compile-time eager reference, never replayed
            else:
                grads[name] = np.array(param.grad, copy=True)  # repro-lint: allow[alloc-in-loop] compile-time eager reference, never replayed
        buffer_values = [
            (mod, name, np.array(mod._buffers[name], copy=True))
            for mod, name, _ in self._bound_buffers
        ]
        return {
            "loss": float(loss.data),
            "grads": grads,
            "buffers": buffer_values,
            "dtype": pred.data.dtype,
        }

    def _build_updates(self, ctx):
        if self.spec is None:
            return []
        updates = []
        for _, (param, grad) in ctx.param_grads.items():
            arr = param.data
            state = self._opt_state.setdefault(id(param), {})
            if self.spec.kind == "sgd":
                updates.append(  # repro-lint: allow[alloc-in-loop] compile-time closure construction
                    _build_sgd_update(self.spec, self._lr, arr, grad,
                                      state, ctx))
            else:
                updates.append(  # repro-lint: allow[alloc-in-loop] compile-time closure construction
                    _build_adam_update(self.spec, self._lr, self._counter,
                                       arr, grad, state, ctx))
        return updates

    def _verify_trace(self, trace, reference):
        dtype = reference["dtype"]
        _assert_close("loss", trace.loss, reference["loss"], dtype)
        for name, _, grad in trace.named_grads:
            _assert_close("grad[{}]".format(name), grad,
                          reference["grads"][name], dtype)
        for mod, name, _ in self._bound_buffers:
            ref_value = next(v for m, n, v in reference["buffers"]
                             if m is mod and n == name)
            _assert_close("buffer[{}.{}]".format(type(mod).__name__, name),
                          mod._buffers[name], ref_value, dtype)

    def _trace(self, values, target):
        module = self.module
        was_training = module.training
        module.train(True)
        # Announce the compile window instead of silencing hooks: the
        # sanitizer's default mode skips capture here (the trace is
        # verified against the eager reference before use), while its
        # strict mode and the NaN tripwire keep full coverage.
        module_mod._plan_compile_depth += 1
        try:
            self._ensure_bound()
            self._rebind()
            rng_states = [
                (drop.rng, drop.rng.bit_generator.state)
                for drop in self._dropouts
            ]
            snapshot = [
                (mod, name, arr, arr.copy())
                for mod, name, arr in self._bound_buffers
            ]
            module.zero_grad()
            reference = self._eager_reference(values, target)
            module.zero_grad()
            self._restore_buffers(snapshot)
            for rng, state in rng_states:
                rng.bit_generator.state = state

            arena = self._arena_factory()
            ctx = TrainContext(arena)
            input_buffers = _alloc_inputs(values, arena)
            target_buffer = arena.alloc(target.shape, target.dtype)
            ctx.mark_constant(input_buffers)
            ctx.mark_constant(target_buffer)
            output = ctx.build(module, input_buffers)
            logits = _primary(output)
            loss_buffer = _LOSS_BUILDERS[self.loss_kind](
                ctx, logits, target_buffer)
            classes = (logits.shape[1] if self.loss_kind == "cross_entropy"
                       else None)
            named_grads = []
            for name, param, _ in self._bound_params:
                named_grads.append(  # repro-lint: allow[alloc-in-loop] compile-time gradient table
                    (name, param, ctx.param_grad(param)))
            updates = self._build_updates(ctx)
            trace = _CompiledTrainTrace(
                input_buffers, target_buffer, loss_buffer, ctx, updates,
                named_grads, arena, classes)
            trace.check_target(target)

            _write_inputs(input_buffers, values)
            np.copyto(target_buffer, target)
            with self._unlocked():
                trace.run_forward()
                trace.zero_grads()
                trace.run_backward()
            self._verify_trace(trace, reference)
            # Compilation is side-effect-free: restore the statistics the
            # trace run just updated and rewind the dropout generators, so
            # the first replayed step matches the first eager step.
            self._restore_buffers(snapshot)
            for rng, state in rng_states:
                rng.bit_generator.state = state
            arena.freeze()
            return trace
        finally:
            module_mod._plan_compile_depth -= 1
            module.train(was_training)

    def _trace_for(self, values, target):
        signature = (_signature(values), _signature(target))
        trace = self._traces.get(signature)
        if trace is None:
            trace = self._trace(values, target)
            if len(self._traces) >= self._cache_limit:
                self._traces.popitem(last=False)
            self._traces[signature] = trace
            self.compile_count += 1
        return trace

    # -- execution ------------------------------------------------------
    def _run(self, inputs, target, update):
        values = _to_arrays(inputs)
        coerced = self._coerce_target(target)
        trace = self._trace_for(values, coerced)
        trace.check_target(coerced)
        self._rebind()
        _write_inputs(trace.inputs, values)
        np.copyto(trace.target, coerced)
        with self._unlocked():
            trace.run_forward()
            trace.zero_grads()
            trace.run_backward()
            if update and trace.updates:
                self._counter[0] += 1
                trace.run_updates()
        self._last = trace
        return float(trace.loss[()])

    def step(self, inputs, target):
        """One compiled training step (forward+backward+update) → loss."""
        return self._run(inputs, target, update=True)

    def grad_step(self, inputs, target):
        """Forward+backward only → loss; read results via :meth:`flat_grad`."""
        return self._run(inputs, target, update=False)

    def set_lr(self, lr):
        """Adjust the learning rate used by subsequent update steps."""
        self._lr[0] = float(lr)

    def reset_optimizer_state(self):
        """Zero momentum/Adam state — fresh-optimizer-per-round semantics.

        FedAvg creates a new local optimizer every round; a cached plan
        keeps its state buffers across rounds, so round boundaries call
        this to match the eager path.
        """
        self._counter[0] = 0
        with self._unlocked():
            for state in self._opt_state.values():
                for buf in state.values():
                    buf[...] = 0.0

    # -- gradient / parameter access ------------------------------------
    def flat_size(self):
        self._ensure_bound()
        return sum(param.data.size for _, param, _ in self._bound_params)

    def flat_grad(self, out=None):
        """Concatenated parameter gradients of the last (grad_)step.

        Layout follows ``module.named_parameters()`` order.  Pass a
        preallocated ``out`` to keep the hot path allocation-free.
        """
        if self._last is None:
            raise RuntimeError("no step has run yet; call grad_step first")
        if out is None:
            out = np.empty(self.flat_size(),
                           _grad_dtype(self._bound_params[0][2]))
        offset = 0
        for _, _, grad in self._last.named_grads:
            np.copyto(out[offset:offset + grad.size], grad.reshape(-1))
            offset += grad.size
        return out

    def load_state(self, state_dict):
        """In-place ``load_state_dict``: keeps the compiled binding valid.

        Every key and shape is checked before anything is written, with
        ``Module.load_state_dict``'s errors, so a bad state leaves the
        parameters untouched.
        """
        self._ensure_bound()
        self._rebind()
        prefixes = {id(m): n for n, m in self.module.named_modules()}
        entries = [(name, arr) for name, _, arr in self._bound_params]
        missing = [name for name, _ in entries if name not in state_dict]
        if missing:
            raise KeyError(
                "missing parameters in state dict: {}".format(missing))
        for mod, bname, arr in self._bound_buffers:
            prefix = prefixes.get(id(mod), "")
            key = bname if not prefix else prefix + "." + bname
            if key in state_dict:
                entries.append((key, arr))
        values = []
        for key, arr in entries:
            value = np.asarray(state_dict[key], dtype=arr.dtype)
            if value.shape != arr.shape:
                raise ValueError(
                    "shape mismatch for '{}': checkpoint {} vs model {}".format(
                        key, value.shape, arr.shape))
            values.append((arr, value))
        with self._unlocked():
            for arr, value in values:
                np.copyto(arr, value)

    def retrace(self, inputs, target, arena_factory=None):
        """Recompile the trace for this input/target signature from scratch.

        The plan auditor uses this to rebuild a verified trace over a
        slot-plan arena.  Optimizer state buffers live in ``_opt_state``
        and are shared across traces, which would shift allocation
        order on a re-trace; instead the state is saved, reallocated
        fresh (so the re-trace's allocation sequence matches the
        original compile exactly), and the saved values are copied in.
        All cached traces are dropped — older traces would otherwise
        keep closures over the orphaned state buffers.
        """
        values = _to_arrays(inputs)
        coerced = self._coerce_target(target)
        if arena_factory is not None:
            self._arena_factory = arena_factory
        saved_state = {
            key: {name: np.array(buf, copy=True)
                  for name, buf in state.items()}
            for key, state in self._opt_state.items()
        }
        self._opt_state.clear()
        self._traces.clear()
        self._last = None
        trace = self._trace_for(values, coerced)
        with self._unlocked():
            for key, state in self._opt_state.items():
                for name, buf in state.items():
                    old = saved_state.get(key, {}).get(name)
                    if old is not None:
                        np.copyto(buf, old)
        return trace

    # -- introspection --------------------------------------------------
    @property
    def signatures(self):
        return list(self._traces)

    @property
    def arena_nbytes(self):
        return sum(t.arena.nbytes for t in self._traces.values())


def compile_train_plan(module, example_input, example_target,
                       loss="cross_entropy", optimizer="sgd",
                       optimizer_args=None, cache_limit=8):
    """Compile a training step for ``module`` and return the TrainPlan."""
    plan = TrainPlan(module, loss=loss, optimizer=optimizer,
                     optimizer_args=optimizer_args, cache_limit=cache_limit)
    plan._trace_for(_to_arrays(example_input),
                    plan._coerce_target(example_target))
    return plan


# ----------------------------------------------------------------------
# Rules: elementwise layers
# ----------------------------------------------------------------------
def _expect_array(module, inputs):
    if not isinstance(inputs, np.ndarray):
        raise ShapeError(
            "{} training rule expects a single array input, got {!r}".format(
                type(module).__name__, type(inputs).__name__
            )
        )
    return inputs


@register_train_rule(nn.Identity)
def _train_identity(module, inputs, ctx):
    # Output IS the input buffer; gradients unify through the id pairing.
    return _expect_array(module, inputs)


@register_train_rule(nn.Dropout)
def _train_dropout(module, inputs, ctx):
    x = _expect_array(module, inputs)
    if module.rate <= 0.0 or not ctx.training:
        return x
    keep = 1.0 - module.rate
    rng = module.rng
    # Generator.random(out=) with a float64 buffer consumes the identical
    # stream as the eager path's rng.random(shape), which is what makes
    # compiled training bit-compatible with eager dropout masks.
    rand = ctx.alloc(x.shape, np.float64)  # repro-lint: allow[dtype-literal] must match the eager f64 draw stream
    keep_mask = ctx.bool_buf(x.shape)
    scaled = ctx.alloc(x.shape, x.dtype)
    out = ctx.alloc(x.shape, x.dtype)
    inv_keep = x.dtype.type(keep)
    g_x = ctx.grad(x)
    g_out = ctx.grad(out)
    tmp = None if g_x is None else ctx.alloc(x.shape, g_x.dtype)

    def forward():
        rng.random(out=rand)
        np.less(rand, keep, out=keep_mask)
        np.copyto(scaled, keep_mask)
        np.divide(scaled, inv_keep, out=scaled)
        np.multiply(x, scaled, out=out)

    ctx.fwd(forward)

    if g_x is not None:
        def backward():
            np.multiply(g_out, scaled, out=tmp)
            np.add(g_x, tmp, out=g_x)
        ctx.bwd(backward)
    return out


def _elementwise_backward(ctx, g_x, g_out, compute_into_tmp, tmp):
    """Register the standard accumulate-into-g_x backward closure."""
    if g_x is None:
        return

    def backward():
        compute_into_tmp()
        np.add(g_x, tmp, out=g_x)

    ctx.bwd(backward)


@register_train_rule(nn.ReLU)
def _train_relu(module, inputs, ctx):
    x = _expect_array(module, inputs)
    out = ctx.alloc(x.shape, x.dtype)
    ctx.fwd(lambda: kernels.relu_(x, out))
    g_x = ctx.grad(x)
    g_out = ctx.grad(out)
    if g_x is not None:
        tmp = ctx.alloc(x.shape, g_x.dtype)

        def deriv():
            np.greater(out, 0.0, out=tmp)
            np.multiply(g_out, tmp, out=tmp)

        _elementwise_backward(ctx, g_x, g_out, deriv, tmp)
    return out


@register_train_rule(nn.Tanh)
def _train_tanh(module, inputs, ctx):
    x = _expect_array(module, inputs)
    out = ctx.alloc(x.shape, x.dtype)
    ctx.fwd(lambda: kernels.tanh_(x, out))
    g_x = ctx.grad(x)
    g_out = ctx.grad(out)
    if g_x is not None:
        tmp = ctx.alloc(x.shape, g_x.dtype)

        def deriv():
            np.multiply(out, out, out=tmp)
            np.subtract(1.0, tmp, out=tmp)
            np.multiply(g_out, tmp, out=tmp)

        _elementwise_backward(ctx, g_x, g_out, deriv, tmp)
    return out


@register_train_rule(nn.Sigmoid)
def _train_sigmoid(module, inputs, ctx):
    x = _expect_array(module, inputs)
    out = ctx.alloc(x.shape, x.dtype)
    scratch = ctx.alloc(x.shape, x.dtype)
    mask = ctx.bool_buf(x.shape)
    ctx.fwd(lambda: kernels.sigmoid_(x, out, scratch, mask))
    g_x = ctx.grad(x)
    g_out = ctx.grad(out)
    if g_x is not None:
        tmp = ctx.alloc(x.shape, g_x.dtype)

        def deriv():
            np.subtract(1.0, out, out=tmp)
            np.multiply(tmp, out, out=tmp)
            np.multiply(g_out, tmp, out=tmp)

        _elementwise_backward(ctx, g_x, g_out, deriv, tmp)
    return out


@register_train_rule(nn.LeakyReLU)
def _train_leaky_relu(module, inputs, ctx):
    x = _expect_array(module, inputs)
    out = ctx.alloc(x.shape, x.dtype)
    positive = ctx.bool_buf(x.shape)
    slope = module.negative_slope
    ctx.fwd(lambda: kernels.leaky_relu_(x, out, positive, slope))
    g_x = ctx.grad(x)
    g_out = ctx.grad(out)
    if g_x is not None:
        tmp = ctx.alloc(x.shape, g_x.dtype)

        def deriv():
            # `positive` still holds the forward's x > 0 mask.
            np.multiply(g_out, slope, out=tmp)
            np.copyto(tmp, g_out, where=positive)

        _elementwise_backward(ctx, g_x, g_out, deriv, tmp)
    return out


@register_train_rule(nn.Softmax)
def _train_softmax(module, inputs, ctx):
    x = _expect_array(module, inputs)
    axis = module.axis % x.ndim
    red_shape = tuple(1 if i == axis else d for i, d in enumerate(x.shape))
    out = ctx.alloc(x.shape, x.dtype)
    red = ctx.alloc(red_shape, x.dtype)
    ctx.fwd(lambda: kernels.softmax_(x, out, red, axis))
    g_x = ctx.grad(x)
    g_out = ctx.grad(out)
    if g_x is not None:
        tmp = ctx.alloc(x.shape, g_x.dtype)
        g_red = ctx.alloc(red_shape, g_x.dtype)

        def deriv():
            np.multiply(g_out, out, out=tmp)
            np.sum(tmp, axis=axis, keepdims=True, out=g_red)
            np.subtract(g_out, g_red, out=tmp)
            np.multiply(tmp, out, out=tmp)

        _elementwise_backward(ctx, g_x, g_out, deriv, tmp)
    return out


@register_train_rule(nn.Flatten)
def _train_flatten(module, inputs, ctx):
    x = _expect_array(module, inputs)
    view = x.reshape(x.shape[0], -1)
    if not np.shares_memory(view, x):  # pragma: no cover - buffers are contiguous
        raise UnsupportedModuleError("Flatten input buffer is not reshapeable")
    ctx.alias_grad(view, x)
    return ctx.keep(view)


# ----------------------------------------------------------------------
# Rules: affine and normalisation layers
# ----------------------------------------------------------------------
@register_train_rule(nn.Linear)
@_fuses_activation
def _train_linear(module, inputs, ctx, activation=None):
    x = _expect_array(module, inputs)
    weight = module.weight
    bias = module.bias
    in_features = module.in_features
    out_features = module.out_features
    dtype = np.result_type(x.dtype, weight.data.dtype)
    out = ctx.alloc(x.shape[:-1] + (out_features,), dtype)
    x2 = ctx.keep(x.reshape(-1, in_features))
    out2 = ctx.keep(out.reshape(-1, out_features))
    w = weight.data
    w_t = ctx.keep(w.T)
    b = None if bias is None else bias.data
    act_step = None if activation is None else \
        _apply_fused_activation(activation, out2)

    def forward():
        np.matmul(x2, w_t, out=out2)
        if b is not None:
            np.add(out2, b, out=out2)
        if act_step is not None:
            act_step()

    ctx.fwd(forward)

    g_x = ctx.grad(x)
    g_out = ctx.grad(out)
    if g_out is None:
        return out
    g_out2 = ctx.keep(g_out.reshape(-1, out_features))
    g_x2 = None if g_x is None else ctx.keep(g_x.reshape(-1, in_features))
    g_w = ctx.param_grad(weight)
    g_b = None if bias is None else ctx.param_grad(bias)
    tmp_w = ctx.alloc(w.shape, g_w.dtype)
    tmp_b = None if bias is None else ctx.alloc(b.shape, g_b.dtype)
    tmp_x = None if g_x is None else ctx.alloc(g_x2.shape, g_x2.dtype)
    if activation is None:
        geff = g_out2
        act_grad = None
    else:
        geff = ctx.alloc(g_out2.shape, g_out2.dtype)
        act_grad = _fused_activation_grad(activation, out2, g_out2, geff)

    def backward():
        if act_grad is not None:
            act_grad()
        np.matmul(geff.T, x2, out=tmp_w)
        np.add(g_w, tmp_w, out=g_w)
        if g_b is not None:
            np.sum(geff, axis=0, out=tmp_b)
            np.add(g_b, tmp_b, out=g_b)
        if g_x2 is not None:
            np.matmul(geff, w, out=tmp_x)
            np.add(g_x2, tmp_x, out=g_x2)

    ctx.bwd(backward)
    return out


def _norm_backward_steps(g_out, norm, denom, dxhat, tmp, tmp2, s1, s2,
                         gamma, count, axis, g_x):
    """Shared closed-form (x - mu)/std backward for Batch/LayerNorm."""
    np.multiply(g_out, gamma, out=dxhat)
    np.sum(dxhat, axis=axis, keepdims=True, out=s1)
    np.multiply(dxhat, norm, out=tmp)
    np.sum(tmp, axis=axis, keepdims=True, out=s2)
    np.multiply(dxhat, float(count), out=tmp)
    tmp -= s1
    np.multiply(norm, s2, out=tmp2)
    tmp -= tmp2
    np.divide(tmp, denom, out=tmp)
    tmp *= 1.0 / count
    g_x += tmp


def _eval_batchnorm(module, x, ctx):
    """Forward-only batch norm: the running statistics, read in place."""
    run_mean = module._buffers["running_mean"]
    run_var = module._buffers["running_var"]
    eps = module.eps
    g, b = module.gamma.data, module.beta.data
    denom = ctx.alloc(run_var.shape, run_var.dtype)
    out = ctx.alloc(x.shape, np.result_type(x.dtype, run_mean.dtype,
                                            g.dtype, b.dtype))

    def forward():
        np.add(run_var, eps, out=denom)
        np.sqrt(denom, out=denom)
        np.subtract(x, run_mean, out=out)
        np.divide(out, denom, out=out)
        np.multiply(out, g, out=out)
        np.add(out, b, out=out)

    ctx.fwd(forward)
    return out


@register_train_rule(nn.BatchNorm1d)
def _train_batchnorm(module, inputs, ctx):
    x = _expect_array(module, inputs)
    if x.ndim != 2 or x.shape[1] != module.num_features:
        # A (batch, time, features) input would broadcast the running
        # statistics over its last axis.
        raise ShapeError("BatchNorm1d: expects (batch, {}) input, got "
                         "{}".format(module.num_features, x.shape))
    if not ctx.training:
        return _eval_batchnorm(module, x, ctx)
    batch = x.shape[0]
    gamma, beta = module.gamma, module.beta
    run_mean = module._buffers["running_mean"]
    run_var = module._buffers["running_var"]
    momentum, eps = module.momentum, module.eps
    dtype = np.result_type(x.dtype, gamma.data.dtype)
    feat = (1, x.shape[1])
    mean_b = ctx.alloc(feat, dtype)
    var_b = ctx.alloc(feat, dtype)
    denom = ctx.alloc(feat, dtype)
    ema = ctx.alloc(run_mean.shape, run_mean.dtype)
    centered = ctx.alloc(x.shape, dtype)
    norm = ctx.alloc(x.shape, dtype)
    out = ctx.alloc(x.shape, dtype)
    g = gamma.data
    b = beta.data
    mean_flat = ctx.keep(mean_b.reshape(-1))
    var_flat = ctx.keep(var_b.reshape(-1))

    def forward():
        np.mean(x, axis=0, keepdims=True, out=mean_b)
        np.subtract(x, mean_b, out=centered)
        np.multiply(centered, centered, out=norm)
        np.mean(norm, axis=0, keepdims=True, out=var_b)
        # Running-statistics EMA, in place on the registered buffers.
        np.multiply(run_mean, 1.0 - momentum, out=run_mean)
        np.multiply(mean_flat, momentum, out=ema)
        np.add(run_mean, ema, out=run_mean)
        np.multiply(run_var, 1.0 - momentum, out=run_var)
        np.multiply(var_flat, momentum, out=ema)
        np.add(run_var, ema, out=run_var)
        np.add(var_b, eps, out=denom)
        np.sqrt(denom, out=denom)
        np.divide(centered, denom, out=norm)
        np.multiply(norm, g, out=out)
        np.add(out, b, out=out)

    ctx.fwd(forward)

    g_x = ctx.grad(x)
    g_out = ctx.grad(out)
    g_gamma = ctx.param_grad(gamma)
    g_beta = ctx.param_grad(beta)
    tmp = ctx.alloc(x.shape, g_out.dtype)
    tmp_f = ctx.alloc(feat, g_out.dtype)
    tmp_f_flat = ctx.keep(tmp_f.reshape(-1))
    if g_x is not None:
        dxhat = ctx.alloc(x.shape, g_out.dtype)
        tmp2 = ctx.alloc(x.shape, g_out.dtype)
        s1 = ctx.alloc(feat, g_out.dtype)
        s2 = ctx.alloc(feat, g_out.dtype)

    def backward():
        np.multiply(g_out, norm, out=tmp)
        np.sum(tmp, axis=0, keepdims=True, out=tmp_f)
        np.add(g_gamma, tmp_f_flat, out=g_gamma)
        np.sum(g_out, axis=0, keepdims=True, out=tmp_f)
        np.add(g_beta, tmp_f_flat, out=g_beta)
        if g_x is not None:
            _norm_backward_steps(g_out, norm, denom, dxhat, tmp, tmp2,
                                 s1, s2, g, batch, 0, g_x)

    ctx.bwd(backward)
    return out


@register_train_rule(nn.LayerNorm)
def _train_layernorm(module, inputs, ctx):
    x = _expect_array(module, inputs)
    gamma, beta = module.gamma, module.beta
    eps = module.eps
    features = x.shape[-1]
    dtype = np.result_type(x.dtype, gamma.data.dtype)
    red_shape = x.shape[:-1] + (1,)
    red = ctx.alloc(red_shape, dtype)
    # Backward reads denom and norm; forward-only mode computes them in
    # the reduction and output buffers instead.
    denom = ctx.alloc(red_shape, dtype) if ctx.training else red
    centered = ctx.alloc(x.shape, dtype)
    if ctx.training:
        norm = ctx.alloc(x.shape, dtype)
        out = ctx.alloc(x.shape, dtype)
    else:
        norm = out = ctx.alloc(x.shape, dtype)
    g = gamma.data
    b = beta.data
    lead_axes = tuple(range(x.ndim - 1))

    def forward():
        np.mean(x, axis=-1, keepdims=True, out=red)
        np.subtract(x, red, out=centered)
        np.multiply(centered, centered, out=norm)
        np.mean(norm, axis=-1, keepdims=True, out=red)
        np.add(red, eps, out=denom)
        np.sqrt(denom, out=denom)
        np.divide(centered, denom, out=norm)
        np.multiply(norm, g, out=out)
        np.add(out, b, out=out)

    ctx.fwd(forward)

    g_x = ctx.grad(x)
    g_out = ctx.grad(out)
    if g_out is None:
        return out
    g_gamma = ctx.param_grad(gamma)
    g_beta = ctx.param_grad(beta)
    tmp = ctx.alloc(x.shape, g_out.dtype)
    tmp_f = ctx.alloc(g.shape, g_out.dtype)
    if g_x is not None:
        dxhat = ctx.alloc(x.shape, g_out.dtype)
        tmp2 = ctx.alloc(x.shape, g_out.dtype)
        s1 = ctx.alloc(red_shape, g_out.dtype)
        s2 = ctx.alloc(red_shape, g_out.dtype)

    def backward():
        np.multiply(g_out, norm, out=tmp)
        np.sum(tmp, axis=lead_axes, out=tmp_f)
        np.add(g_gamma, tmp_f, out=g_gamma)
        np.sum(g_out, axis=lead_axes, out=tmp_f)
        np.add(g_beta, tmp_f, out=g_beta)
        if g_x is not None:
            _norm_backward_steps(g_out, norm, denom, dxhat, tmp, tmp2,
                                 s1, s2, g, features, -1, g_x)

    ctx.bwd(backward)
    return out


@register_train_rule(nn.Sequential)
def _train_sequential(module, inputs, ctx):
    children = list(module)
    out = inputs
    index = 0
    while index < len(children):
        child = children[index]
        nxt = children[index + 1] if index + 1 < len(children) else None
        rule = _find_train_rule(child)
        if (isinstance(nxt, _FUSABLE_ACTIVATIONS)
                and rule in _FUSES_ACTIVATION):
            # Peephole: fold bias+activation into the producer's closures.
            out = ctx.build(child, out, activation=nxt)
            index += 2
            continue
        out = ctx.build(child, out)
        index += 1
    return out


# ----------------------------------------------------------------------
# Rules: convolution and pooling
# ----------------------------------------------------------------------
@register_train_rule(nn.Conv2d)
@_fuses_activation
def _train_conv2d(module, inputs, ctx, activation=None):
    x = _expect_array(module, inputs)
    weight, bias = module.weight, module.bias
    f, c_per_group, kh, kw = weight.data.shape
    stride, padding, groups = module.stride, module.padding, module.groups
    n, c, h, w, oh, ow = _window_fit(module, x, kh, kw, stride, padding)
    if c != c_per_group * groups:
        # The gather would read the first channels and drop the rest.
        raise ShapeError(
            "{}: input has {} channels, weight expects {} (groups={})".format(
                type(module).__name__, c, c_per_group * groups, groups))
    f_per_group = f // groups
    dtype = np.result_type(x.dtype, weight.data.dtype)
    hp, wp = h + 2 * padding, w + 2 * padding

    # Persistent: steps only rewrite the interior view; the zero padding
    # ring comes from the alloc-time fill and must survive slot reuse.
    padded = ctx.alloc((n, c, hp, wp), dtype, persistent=True)
    interior = ctx.keep(padded[:, :, padding:padding + h, padding:padding + w])
    flat = ctx.keep(padded.reshape(-1))
    index = conv_mod._gather_index(n, c, h, w, kh, kw, stride, padding, oh, ow)
    group_rows = c_per_group * kh * kw
    # Backward reuses every group's im2col columns; forward-only mode
    # gathers the groups one after another into one group's columns.
    col_groups = groups if ctx.training else 1
    cols = ctx.alloc((col_groups * group_rows, n * oh * ow), dtype)
    feature_map = ctx.alloc((f, n * oh * ow), dtype)
    out = ctx.alloc((n, f, oh, ow), dtype)
    out_src = ctx.keep(feature_map.reshape(f, n, oh, ow).transpose(1, 0, 2, 3))
    bias_view = None if bias is None else ctx.keep(
        bias.data.reshape(1, f, 1, 1))
    act_step = None if activation is None else \
        _apply_fused_activation(activation, out)

    group_parts = []
    for g in range(groups):
        rows = slice(g * group_rows, (g + 1) * group_rows)
        fslice = slice(g * f_per_group, (g + 1) * f_per_group)
        group_parts.append((  # repro-lint: allow[alloc-in-loop] compile-time view table, not a replay step
            ctx.keep(index[rows]),
            ctx.keep(cols[rows] if ctx.training else cols),
            ctx.keep(weight.data[fslice].reshape(f_per_group, group_rows)),
            ctx.keep(feature_map[fslice]),
        ))

    def forward():
        np.copyto(interior, x)
        for idx_g, cols_g, w_g, fm_g in group_parts:
            np.take(flat, idx_g, out=cols_g)
            np.matmul(w_g, cols_g, out=fm_g)
        np.copyto(out, out_src)
        if bias_view is not None:
            np.add(out, bias_view, out=out)
        if act_step is not None:
            act_step()

    ctx.fwd(forward)

    g_x = ctx.grad(x)
    g_out = ctx.grad(out)
    if g_out is None:
        return out
    g_w = ctx.param_grad(weight)
    g_b = None if bias is None else ctx.param_grad(bias)
    if activation is None:
        geff = g_out
        act_grad = None
    else:
        geff = ctx.alloc(g_out.shape, g_out.dtype)
        act_grad = _fused_activation_grad(activation, out, g_out, geff)
    g_fm = ctx.alloc((f, n, oh, ow), g_out.dtype)
    g_fm2 = ctx.keep(g_fm.reshape(f, n * oh * ow))
    geff_t = ctx.keep(geff.transpose(1, 0, 2, 3))
    tmp_b = None if bias is None else ctx.alloc((f,), g_out.dtype)
    grad_parts = []
    for g in range(groups):
        rows = slice(g * group_rows, (g + 1) * group_rows)
        fslice = slice(g * f_per_group, (g + 1) * f_per_group)
        idx_g, cols_g, w_g, _ = group_parts[g]
        grad_parts.append((  # repro-lint: allow[alloc-in-loop] compile-time view table, not a replay step
            ctx.keep(idx_g.reshape(-1)),
            cols_g,
            ctx.keep(cols_g.reshape(-1)),
            ctx.keep(cols_g.T),
            ctx.keep(w_g.T),
            ctx.keep(g_fm2[fslice]),
            ctx.keep(g_w[fslice].reshape(f_per_group, group_rows)),
            ctx.alloc((f_per_group, group_rows), g_out.dtype),
        ))
    if g_x is not None:
        g_pad = ctx.alloc((n, c, hp, wp), g_x.dtype)
        g_pad_flat = ctx.keep(g_pad.reshape(-1))
        g_pad_interior = ctx.keep(
            g_pad[:, :, padding:padding + h, padding:padding + w])

    def backward():
        if act_grad is not None:
            act_grad()
        np.copyto(g_fm, geff_t)
        if g_b is not None:
            np.sum(geff, axis=(0, 2, 3), out=tmp_b)
            np.add(g_b, tmp_b, out=g_b)
        for idx_f, cols_g, cols_f, cols_t, w_t, gfm_g, gw_g, tmp_wg \
                in grad_parts:
            np.matmul(gfm_g, cols_t, out=tmp_wg)
            np.add(gw_g, tmp_wg, out=gw_g)
            if g_x is not None:
                # Reuse the forward's column buffer for the input-side
                # gradient columns; the cached gather index then doubles
                # as the scatter target.
                np.matmul(w_t, gfm_g, out=cols_g)
        if g_x is not None:
            g_pad_flat[...] = 0.0
            for idx_f, cols_g, cols_f, _, _, _, _, _ in grad_parts:
                # Documented allocation exception: np.bincount has no
                # out= form (mirrors the eager conv2d backward).
                scattered = np.bincount(idx_f, weights=cols_f,
                                        minlength=g_pad_flat.size)
                np.add(g_pad_flat, scattered, out=g_pad_flat)
            np.add(g_x, g_pad_interior, out=g_x)

    ctx.bwd(backward)
    return out


def _window_fit(module, x, kh, kw, stride, padding):
    """``(n, c, h, w, oh, ow)`` of a window over an (N, C, H, W) input.

    A window larger than its input would give an empty (..., 0, 0) map.
    """
    if x.ndim != 4:
        raise ShapeError("{}: expects (N, C, H, W) input, got {}".format(
            type(module).__name__, x.shape))
    n, c, h, w = x.shape
    oh = conv_mod._out_size(h, kh, stride, padding)
    ow = conv_mod._out_size(w, kw, stride, padding)
    if oh < 1 or ow < 1:
        raise ShapeError(
            "{}: a ({}, {}) window with stride {} and padding {} does not "
            "fit a ({}, {}) input".format(type(module).__name__, kh, kw,
                                          stride, padding, h, w))
    return n, c, h, w, oh, ow


def _window_pool(module, ctx, x, reducer):
    """Forward pooling as one reduction over a strided window view."""
    kernel, stride = module.kernel, module.stride
    n, c, h, w, oh, ow = _window_fit(module, x, kernel, kernel, stride, 0)
    reshaped = ctx.keep(x.reshape(n * c, 1, h, w))
    windows, _, _ = conv_mod._patch_view(reshaped, kernel, kernel, stride, 0)
    ctx.keep(windows)
    out = ctx.alloc((n, c, oh, ow), x.dtype)
    out_view = ctx.keep(out.reshape(n * c, oh, ow))
    ctx.fwd(lambda: reducer(windows, axis=(3, 4, 5), out=out_view))
    return out


@register_train_rule(nn.MaxPool2d)
def _train_maxpool(module, inputs, ctx):
    x = _expect_array(module, inputs)
    if not ctx.training:
        # Backward's argmax reads gathered window columns; the forward
        # alone reduces over a view of the input.
        return _window_pool(module, ctx, x, np.max)
    kernel, stride = module.kernel, module.stride
    n, c, h, w, oh, ow = _window_fit(module, x, kernel, kernel, stride, 0)
    kk = kernel * kernel
    ncoo = n * c * oh * ow
    index = conv_mod._gather_index(n * c, 1, h, w, kernel, kernel,
                                   stride, 0, oh, ow)
    x_flat = ctx.keep(x.reshape(-1))
    index_flat = ctx.keep(index.reshape(-1))
    cols = ctx.alloc((kk, ncoo), x.dtype)
    out = ctx.alloc((n, c, oh, ow), x.dtype)
    out_flat = ctx.keep(out.reshape(-1))

    def forward():
        np.take(x_flat, index, out=cols)
        np.max(cols, axis=0, out=out_flat)

    ctx.fwd(forward)

    g_x = ctx.grad(x)
    if g_x is not None:
        g_out = ctx.grad(out)
        g_out_flat = ctx.keep(g_out.reshape(-1))
        g_x_flat = ctx.keep(g_x.reshape(-1))
        arg = ctx.alloc((ncoo,), np.dtype(np.intp))
        winner = ctx.alloc((ncoo,), np.dtype(np.intp))
        offsets = ctx.pin(np.arange(ncoo, dtype=np.intp))

        def backward():
            # First-max tie-breaking matches the eager argmax path.
            np.argmax(cols, axis=0, out=arg)
            np.multiply(arg, ncoo, out=arg)
            np.add(arg, offsets, out=arg)
            np.take(index_flat, arg, out=winner)
            np.add.at(g_x_flat, winner, g_out_flat)

        ctx.bwd(backward)
    return out


@register_train_rule(nn.AvgPool2d)
def _train_avgpool(module, inputs, ctx):
    x = _expect_array(module, inputs)
    kernel, stride = module.kernel, module.stride
    out = _window_pool(module, ctx, x, np.mean)

    g_x = ctx.grad(x)
    if g_x is not None:
        n, c, h, w = x.shape
        oh, ow = out.shape[2:]
        kk = kernel * kernel
        ncoo = n * c * oh * ow
        index = conv_mod._gather_index(n * c, 1, h, w, kernel, kernel,
                                       stride, 0, oh, ow)
        index_flat = ctx.keep(index.reshape(-1))
        g_out = ctx.grad(out)
        g_out_flat = ctx.keep(g_out.reshape(-1))
        g_x_flat = ctx.keep(g_x.reshape(-1))
        spread = ctx.alloc((kk, ncoo), g_x.dtype)
        spread_flat = ctx.keep(spread.reshape(-1))
        inv_kk = 1.0 / kk

        def backward():
            np.multiply(g_out_flat, inv_kk, out=spread[0])
            for row in range(1, kk):
                np.copyto(spread[row], spread[0])
            np.add.at(g_x_flat, index_flat, spread_flat)

        ctx.bwd(backward)
    return out


@register_train_rule(nn.GlobalAvgPool2d)
def _train_global_avgpool(module, inputs, ctx):
    x = _expect_array(module, inputs)
    n, c, h, w = x.shape
    out = ctx.alloc((n, c), x.dtype)
    ctx.fwd(lambda: np.mean(x, axis=(2, 3), out=out))

    g_x = ctx.grad(x)
    if g_x is not None:
        g_out = ctx.grad(out)
        scaled = ctx.alloc((n, c), g_x.dtype)
        scaled_bc = ctx.keep(scaled[:, :, None, None])
        inv = 1.0 / (h * w)

        def backward():
            np.multiply(g_out, inv, out=scaled)
            np.add(g_x, scaled_bc, out=g_x)

        ctx.bwd(backward)
    return out


@register_train_rule(nn.DepthwiseSeparableConv2d)
def _train_depthwise(module, inputs, ctx):
    act = module.activation
    fusable = isinstance(act, _FUSABLE_ACTIVATIONS)
    x = _expect_array(module, inputs)
    x = ctx.build(module.depthwise, x, activation=act if fusable else None)
    if not fusable:
        x = ctx.build(act, x)
    x = ctx.build(module.pointwise, x, activation=act if fusable else None)
    if not fusable:
        x = ctx.build(act, x)
    return x


# ----------------------------------------------------------------------
# Rules: recurrent layers.  One compiled recurrence per cell type:
# _gru_stack and _lstm_recurrence hold all the gate math, and a GRUCell
# or LSTMCell compiles as one step of them from the state it is given.
# ----------------------------------------------------------------------
def _train_sequence_inputs(module, inputs):
    if isinstance(inputs, tuple):
        x, mask = inputs
    else:
        x, mask = inputs, None
    x = _expect_array(module, x)
    if x.ndim != 3:
        raise ShapeError("{}: expects (batch, time, features) input, got "
                         "{}".format(type(module).__name__, x.shape))
    return x, mask


def _hoisted_projection_backward(ctx, x2, g_x2, parts):
    """Shared input-projection backward for the GRU/LSTM sequence rules.

    The forward hoists ``x2 @ w.T + b`` out of the recurrence (one batched
    matmul per gate block); this compiles the matching hoisted backward:
    ``g_w += gp2.T @ x2``, ``g_b += gp2.sum(0)`` and, when the sequence
    input itself needs gradients, ``g_x2 += gp2 @ w``.  ``parts`` is a
    list of (gp2, weight_param, bias_param) per gate block.
    """
    tmp_x = None if g_x2 is None else ctx.alloc(g_x2.shape, g_x2.dtype)
    table = []
    for gp2, w_param, b_param in parts:
        g_w = ctx.param_grad(w_param)
        g_b = ctx.param_grad(b_param)
        tmp_w = ctx.alloc(w_param.data.shape, g_w.dtype)  # repro-lint: allow[alloc-in-loop] compile-time buffers
        tmp_b = ctx.alloc(b_param.data.shape, g_b.dtype)  # repro-lint: allow[alloc-in-loop] compile-time buffers
        table.append((gp2, ctx.keep(gp2.T), w_param.data, g_w, g_b,
                      tmp_w, tmp_b))

    def run():
        for gp2, gp2_t, wd, g_w, g_b, tmp_w, tmp_b in table:
            np.matmul(gp2_t, x2, out=tmp_w)
            np.add(g_w, tmp_w, out=g_w)
            np.add.reduce(gp2, axis=0, out=tmp_b)
            np.add(g_b, tmp_b, out=g_b)
            if tmp_x is not None:
                np.matmul(gp2, wd, out=tmp_x)
                np.add(g_x2, tmp_x, out=g_x2)

    return run


def _state_rows(ctx, steps, shape, dtype, loaded=False):
    """Recurrent state rows: timestep ``t`` reads row ``t % len(rows)``.

    Each row holds one state of ``shape``.  Training keeps every
    timestep for backward (``steps + 1`` rows); forward-only mode
    alternates between two.  Row 0 is the initial state.  ``loaded``
    rows get it from the caller, which copies a given state into row 0
    at the top of its forward step, so that one step writes the whole
    buffer, as the plan auditor requires.  Otherwise it is zero:
    written once here in training, and in forward-only mode by a step
    of its own that zeroes the whole buffer (so the plan auditor sees
    it fully written).
    """
    if loaded:
        return ctx.alloc((steps + 1 if ctx.training else 2,) + shape, dtype)
    if ctx.training:
        # Persistent: row 0 is the zero initial state, written once here.
        rows = ctx.alloc((steps + 1,) + shape, dtype, persistent=True)
        rows[0] = 0.0
        return rows
    rows = ctx.alloc((2,) + shape, dtype)
    ctx.fwd(lambda: rows.fill(0.0))
    return rows


def _one_step(module, ctx, x, states):
    """A cell's ``x`` as a one-step sequence, after checking its shapes.

    ``x`` must be (batch, input) and each of ``states`` (batch, hidden).
    The (batch, 1, input) view shares ``x``'s gradient, so a cell fed by
    another layer still sends back its input gradient.
    """
    values = (x,) + states
    if not all(isinstance(value, np.ndarray) for value in values) \
            or x.ndim != 2 or x.shape[1] != module.input_size or any(
                state.shape != (x.shape[0], module.hidden_size)
                for state in states):
        raise ShapeError(
            "{}: expects a (batch, {}) input and (batch, {}) state, got "
            "{}".format(type(module).__name__, module.input_size,
                        module.hidden_size,
                        ", ".join(str(value.shape)
                                  if isinstance(value, np.ndarray)
                                  else type(value).__name__
                                  for value in values)))
    seq = x.reshape(x.shape[0], 1, module.input_size)
    ctx.alias_grad(seq, x)
    return seq


@register_train_rule(nn.GRUCell)
def _train_gru_cell(module, inputs, ctx):
    # One step of the GRU recurrence, from the given state.
    if not isinstance(inputs, tuple) or len(inputs) != 2:
        raise ShapeError("GRUCell training rule expects (x, h) inputs")
    x, h = inputs
    seq = _one_step(module, ctx, x, (h,))
    return _gru_stack(ctx, [module], [(seq, None)], [h])[0]


def _gru_stack(ctx, cells, seqs, initial=None):
    """Compile GRU recurrences that share one hidden size as one loop.

    ``cells`` holds each view's :class:`~repro.nn.GRUCell` and ``seqs``
    its ``(x, mask)`` input, ``x`` shaped (batch, steps, features);
    returns each view's final hidden state.  The recurrences start from
    zero, or from ``initial``, one (batch, hidden) buffer per view, which
    then receives its gradient.  Each timestep issues one set of numpy
    calls for all views, forward and backward:

    * state and gate stacks are step-major with the view axis second,
      so a timestep's slice is contiguous;
    * the recurrent weights are stacked on the view axis, ``[u_r; u_z]``
      in one block so r and z share one matmul and one fused sigmoid.
      The optimizer updates the weights in place, so the stacked copy
      is refreshed at the top of each forward; one view reads ``u_h``
      in place;
    * input projections stay per view, hoisted out of the loop, and so
      do the weight gradients: after the backward loop each gate group
      takes one matmul over all (steps x batch) rows, batched over the
      views, which is then added into each cell's gradient.

    A view shorter than the longest runs to the longest length with a
    zero input tail and a zero mask, so the mask fold leaves its state
    unchanged there; a bare view's mask is ones over its own length.
    The mask buffer is persistent only when it holds such compile-time
    values.

    Training projects step-major copies of the inputs, whose rows the
    weight-gradient contractions share.  Forward-only mode projects the
    inputs' own batch-major rows, with no copy, so its views must share
    one length; serving builds each GRU as a stack of one.
    """
    views = len(cells)
    one = views == 1
    hidden = cells[0].hidden_size
    batch = seqs[0][0].shape[0]
    lengths = [x.shape[1] for x, _ in seqs]
    steps = max(lengths)
    rows = steps * batch
    dtype = np.result_type(*[x.dtype for x, _ in seqs],
                           *[cell.w_r.data.dtype for cell in cells],
                           *[h.dtype for h in initial or ()])

    def per_view(stack):
        # One view drops the view axis: plain 2-D operands, as unstacked.
        return stack[0] if one else stack

    # Input projections, view-major so each view projects its rows in
    # one matmul per gate: (step, batch) rows in training, the input's
    # own (batch, step) rows in forward-only mode.
    order = (steps, batch) if ctx.training else (batch, steps)
    prz = ctx.alloc((views,) + order + (2 * hidden,), dtype)
    ph = ctx.alloc((views,) + order + (hidden,), dtype)
    hs = _state_rows(ctx, steps, (views, batch, hidden), dtype,
                     loaded=initial is not None)
    # Gate stacks: every timestep for backward, one in forward-only mode.
    kept = steps if ctx.training else 1
    rzs = ctx.alloc((kept, views, batch, 2 * hidden), dtype)
    cs = ctx.alloc((kept, views, batch, hidden), dtype)
    rhs = ctx.alloc((kept, views, batch, hidden), dtype)
    omzs = ctx.alloc((kept, views, batch, hidden), dtype)
    urz = ctx.alloc((views, 2 * hidden, hidden), dtype)
    refresh = []
    for index, cell in enumerate(cells):
        refresh += [(urz[index, :hidden], cell.u_r.data),
                    (urz[index, hidden:], cell.u_z.data)]
    if one:
        uh = cells[0].u_h.data
    else:
        uh = ctx.alloc((views, hidden, hidden), dtype)
        refresh += [(uh[index], cell.u_h.data)
                    for index, cell in enumerate(cells)]
    urz = per_view(urz)
    urzT, uhT = urz.swapaxes(-1, -2), uh.swapaxes(-1, -2)
    pre2 = per_view(ctx.alloc((views, batch, 2 * hidden), dtype))
    pre = per_view(ctx.alloc((views, batch, hidden), dtype))
    tmp = per_view(ctx.alloc((views, batch, hidden), dtype))

    # Copied in at the top of each forward: the initial states, masks,
    # and in training the inputs' step-major rows (casting covers
    # boolean masks).
    fills = [] if initial is None else list(zip(hs[0], initial))
    ms = None
    if any(mask is not None or length < steps
           for (_, mask), length in zip(seqs, lengths)):
        fixed = any(mask is None or length < steps
                    for (_, mask), length in zip(seqs, lengths))
        ms = ctx.alloc((steps, views, batch, 1), dtype, persistent=fixed)
        ms[...] = 0.0
        for index, ((_, mask), length) in enumerate(zip(seqs, lengths)):
            if mask is None:
                ms[:length, index] = 1.0
            else:
                fills.append((ms[:length, index, :, 0], mask.T))
    sources = []
    for index, (x, _) in enumerate(seqs):
        features = x.shape[2]
        if ctx.training:
            # Persistent when short: the zero input tail is written here.
            xt = ctx.alloc((steps, batch, features), x.dtype,
                           persistent=lengths[index] < steps)
            xt[...] = 0.0
            fills.append((xt[:lengths[index]], x.transpose(1, 0, 2)))
            x = xt
        sources.append(x.reshape(rows, features))
    projections = []
    for src, cell, gates, gates_h in zip(sources, cells, prz, ph):
        gates = gates.reshape(rows, 2 * hidden)
        projections += [
            (src, cell.w_r.data.T, gates[:, :hidden], cell.b_r.data),
            (src, cell.w_z.data.T, gates[:, hidden:], cell.b_z.data),
            (src, cell.w_h.data.T, gates_h.reshape(rows, hidden),
             cell.b_h.data)]

    if not ctx.training:
        prz, ph = prz.swapaxes(1, 2), ph.swapaxes(1, 2)
    fwd_table = []
    for t in range(steps):
        k = t % kept
        rz_t = per_view(rzs[k])
        fwd_table.append((per_view(prz[:, t]), per_view(ph[:, t]),
                          per_view(hs[t % len(hs)]),
                          per_view(hs[(t + 1) % len(hs)]), rz_t,
                          rz_t[..., :hidden], rz_t[..., hidden:],
                          per_view(cs[k]), per_view(rhs[k]),
                          per_view(omzs[k]),
                          None if ms is None else per_view(ms[t])))

    # prebound ufuncs + positional ``out``: the recurrent loops run
    # hundreds of tiny-array ops per step, so per-call dispatch overhead
    # is the actual budget here
    mm, vadd, vsub, vmul = np.matmul, np.add, np.subtract, np.multiply
    vtanh, vcopy, sigf = np.tanh, np.copyto, kernels.sigmoid_fast_

    def forward():
        for dst, src in refresh:
            vcopy(dst, src)
        for dst, src in fills:
            vcopy(dst, src, casting="unsafe")
        for src, wT, dst, b in projections:
            mm(src, wT, dst)
            vadd(dst, b, dst)
        for p_rz, p_h, h_prev, h_next, rz_t, r_t, z_t, c_t, rh_t, omz_t, \
                m_t in fwd_table:
            mm(h_prev, urzT, pre2)
            vadd(pre2, p_rz, pre2)
            sigf(pre2, rz_t)
            vmul(r_t, h_prev, rh_t)
            mm(rh_t, uhT, pre)
            vadd(pre, p_h, pre)
            vtanh(pre, c_t)
            # z*h + (1-z)*c == h + (1-z)*(c-h), and the length mask then
            # folds into the same update: h_next = h + m*(1-z)*(c-h)
            vsub(c_t, h_prev, tmp)
            vsub(1.0, z_t, omz_t)
            vmul(tmp, omz_t, tmp)
            if m_t is not None:
                vmul(tmp, m_t, tmp)
            vadd(h_prev, tmp, h_next)

    ctx.fwd(forward)
    outs = [ctx.keep(hs[steps % len(hs), index]) for index in range(views)]

    g_outs = [ctx.grad(out) for out in outs]
    if g_outs[0] is None:
        return outs
    gdt = g_outs[0].dtype
    # Gate grads land in view-major stacks, whose (steps x batch) rows
    # the contractions read in place; r and z fill adjacent halves of
    # one buffer, so the recurrent contribution is a single matmul
    # against [u_r ; u_z] per timestep.
    gprz = ctx.alloc((views, steps, batch, 2 * hidden), gdt)
    gpc = ctx.alloc((views, steps, batch, hidden), gdt)
    gprz_rows = gprz.reshape(views, rows, 2 * hidden)
    gpc_rows = gpc.reshape(views, rows, hidden)
    # per-timestep factors that only depend on forward stacks are
    # computed in bulk over the whole sequence before the loop:
    # thc = h_prev - c, tzs = z*(1-z), trs = r*(1-r), tcs = 1 - c^2
    thc = ctx.alloc((steps, views, batch, hidden), gdt)
    tzs = ctx.alloc((steps, views, batch, hidden), gdt)
    trs = ctx.alloc((steps, views, batch, hidden), gdt)
    tcs = ctx.alloc((steps, views, batch, hidden), gdt)
    # The contractions read (views, steps x batch) rows of hs and rhs.
    # One view's step-major stacks already are such rows; several
    # views' are gathered after the loop into thc and tzs, dead by then.
    if one:
        hs_rows = hs[:steps].reshape(1, rows, hidden)
        rhs_rows = rhs.reshape(1, rows, hidden)
        gathers = []
    else:
        hs_rows = thc.reshape(views, rows, hidden)
        rhs_rows = tzs.reshape(views, rows, hidden)
        gathers = [(thc.reshape(views, steps, batch, hidden),
                    hs[:steps].swapaxes(0, 1)),
                   (tzs.reshape(views, steps, batch, hidden),
                    rhs.swapaxes(0, 1))]
    gprz_rowsT = gprz_rows.swapaxes(1, 2)
    gpc_rowsT = gpc_rows.swapaxes(1, 2)
    g_urz = ctx.alloc((views, 2 * hidden, hidden), gdt)
    g_uh = ctx.alloc((views, hidden, hidden), gdt)
    g_brz = ctx.alloc((views, 2 * hidden), gdt)
    g_bh = ctx.alloc((views, hidden), gdt)
    contractions = [(gprz_rowsT, hs_rows, g_urz), (gpc_rowsT, rhs_rows, g_uh)]
    increments = []
    x_grads = []
    for index, (cell, src, (x, _)) in enumerate(zip(cells, sources, seqs)):
        features = x.shape[2]
        g_wrz = ctx.alloc((2 * hidden, features), gdt)
        g_wh = ctx.alloc((hidden, features), gdt)
        contractions += [(gprz_rowsT[index], src, g_wrz),
                         (gpc_rowsT[index], src, g_wh)]
        for param, inc in ((cell.u_r, g_urz[index, :hidden]),
                           (cell.u_z, g_urz[index, hidden:]),
                           (cell.u_h, g_uh[index]),
                           (cell.w_r, g_wrz[:hidden]),
                           (cell.w_z, g_wrz[hidden:]),
                           (cell.w_h, g_wh),
                           (cell.b_r, g_brz[index, :hidden]),
                           (cell.b_z, g_brz[index, hidden:]),
                           (cell.b_h, g_bh[index])):
            increments.append((ctx.param_grad(param), inc))
        g_x = ctx.grad(x)
        if g_x is not None:
            wrz = ctx.alloc((2 * hidden, features), gdt)
            txt = ctx.alloc((rows, features), gdt)
            txtb = ctx.alloc((rows, features), gdt)
            x_grads.append((
                ((wrz[:hidden], cell.w_r.data), (wrz[hidden:], cell.w_z.data)),
                gprz_rows[index], wrz, txt, gpc_rows[index], cell.w_h.data,
                txtb, g_x.transpose(1, 0, 2),
                txt.reshape(steps, batch, features)[:lengths[index]]))

    gh = ctx.alloc((views, batch, hidden), gdt)
    ghn = ctx.alloc((views, batch, hidden), gdt)
    drh = per_view(ctx.alloc((views, batch, hidden), gdt))
    ta = per_view(ctx.alloc((views, batch, hidden), gdt))
    hs_prev = hs[:steps]
    rs3 = rzs[..., :hidden]
    zs3 = rzs[..., hidden:]
    gnew = carry = None
    if ms is not None:
        gnew = per_view(ctx.alloc((views, batch, hidden), gdt))
        carry = per_view(ctx.alloc((views, batch, hidden), gdt))
    seeds = list(zip(gh, g_outs))
    # After the loop the ping-pong buffer last written holds the
    # gradient of the initial state.
    left = ghn if steps % 2 else gh
    initial_grads = [(g, left[index])
                     for index, g in enumerate(map(ctx.grad, initial or ()))
                     if g is not None]

    # the running hidden-state gradient ping-pongs between two buffers
    # so each timestep writes straight into the next one's input
    bwd_table = []
    for index, t in enumerate(reversed(range(steps))):
        rz_t = per_view(rzs[t])
        gp_rz = per_view(gprz[:, t])
        bwd_table.append((per_view(hs[t]), rz_t[..., :hidden],
                          rz_t[..., hidden:], per_view(omzs[t]),
                          per_view(thc[t]), per_view(tzs[t]),
                          per_view(trs[t]), per_view(tcs[t]), gp_rz,
                          gp_rz[..., :hidden], gp_rz[..., hidden:],
                          per_view(gpc[:, t]),
                          per_view(gh if index % 2 == 0 else ghn),
                          per_view(ghn if index % 2 == 0 else gh),
                          None if ms is None else per_view(ms[t])))

    def backward():
        vsub(hs_prev, cs, thc)
        vmul(zs3, omzs, tzs)
        vsub(1.0, rs3, trs)
        vmul(trs, rs3, trs)
        vmul(cs, cs, tcs)
        vsub(1.0, tcs, tcs)
        for g_h, g_out in seeds:
            vcopy(g_h, g_out)
        for h_prev, r_t, z_t, omz_t, thc_t, tzs_t, trs_t, tcs_t, \
                gp_rz, gp_r, gp_z, gp_c, g_cur, g_nxt, m_t in bwd_table:
            if m_t is None:
                g_new = g_cur
            else:
                vmul(g_cur, m_t, gnew)
                vsub(g_cur, gnew, carry)
                g_new = gnew
            vmul(g_new, thc_t, gp_z)
            vmul(gp_z, tzs_t, gp_z)
            vmul(g_new, omz_t, gp_c)
            vmul(gp_c, tcs_t, gp_c)
            mm(gp_c, uh, drh)
            vmul(drh, h_prev, gp_r)
            vmul(gp_r, trs_t, gp_r)
            vmul(g_new, z_t, g_nxt)
            vmul(drh, r_t, ta)
            vadd(g_nxt, ta, g_nxt)
            mm(gp_rz, urz, ta)
            vadd(g_nxt, ta, g_nxt)
            if m_t is not None:
                vadd(g_nxt, carry, g_nxt)
        for g, g_left in initial_grads:
            vadd(g, g_left, g)
        for dst, src in gathers:
            vcopy(dst, src)
        for a, b, dst in contractions:
            mm(a, b, dst)
        np.add.reduce(gprz_rows, axis=1, out=g_brz)
        np.add.reduce(gpc_rows, axis=1, out=g_bh)
        for g, inc in increments:
            vadd(g, inc, g)
        for w_copies, grz, wrz, txt, gc, whd, txtb, g_xT, txt3 in x_grads:
            for dst, src in w_copies:
                vcopy(dst, src)
            mm(grz, wrz, txt)
            mm(gc, whd, txtb)
            vadd(txt, txtb, txt)
            vadd(g_xT, txt3, g_xT)

    ctx.bwd(backward)
    return outs


@register_train_rule(nn.GRU)
def _train_gru(module, inputs, ctx):
    seq = _train_sequence_inputs(module, inputs)
    return _gru_stack(ctx, [module.cell], [seq])[0]


def _lstm_recurrence(ctx, cell, x, mask, initial=None):
    """Compile an LSTM recurrence over ``x`` (batch, steps, features).

    Returns the final ``(h, c)``.  The recurrence starts from zero, or
    from ``initial``, an ``(h, c)`` pair of (batch, hidden) buffers,
    which then receive their gradients.  Only a cell passes ``initial``
    and returns ``c`` to a later layer, so only then is ``c``'s gradient
    requested, to seed the backward.  The input projection is hoisted
    out of the loop and the four gates [i; f; g; o] share one matmul.
    """
    hidden = cell.hidden_size
    batch, steps, features = x.shape
    dtype = np.result_type(x.dtype, cell.w.data.dtype,
                           *[state.dtype for state in initial or ()])
    rows = batch * steps
    x2 = ctx.keep(x.reshape(rows, features))
    b = cell.b.data
    wT = ctx.keep(cell.w.data.T)
    uT = ctx.keep(cell.u.data.T)
    p = ctx.alloc((rows, 4 * hidden), dtype)
    p3 = ctx.keep(p.reshape(batch, steps, 4 * hidden))
    hs = _state_rows(ctx, steps, (batch, hidden), dtype,
                     loaded=initial is not None)
    cs = _state_rows(ctx, steps, (batch, hidden), dtype,
                     loaded=initial is not None)
    loads = [] if initial is None else list(zip((hs[0], cs[0]), initial))
    # Gate stacks: every timestep for backward, one in forward-only mode.
    kept = steps if ctx.training else 1
    gates_saved = ctx.alloc((kept, batch, 4 * hidden), dtype)
    tcs = ctx.alloc((kept, batch, hidden), dtype)
    gbuf = ctx.alloc((batch, 4 * hidden), dtype)
    gb_i = ctx.keep(gbuf[:, :hidden])
    gb_f = ctx.keep(gbuf[:, hidden:2 * hidden])
    gb_g = ctx.keep(gbuf[:, 2 * hidden:3 * hidden])
    gb_o = ctx.keep(gbuf[:, 3 * hidden:])
    tmp = ctx.alloc((batch, hidden), dtype)
    scratch = ctx.alloc((batch, hidden), dtype)
    sigmask = ctx.bool_buf((batch, hidden))
    pre = None
    mcols = None
    inv = None
    hnew = None
    cnew = None
    if mask is not None:
        # pre is only blend scratch for the masked state carry.
        pre = ctx.alloc((batch, hidden), dtype)
        mcols = ctx.alloc((batch, steps), dtype)
        inv = ctx.alloc((batch, 1), dtype)
        hnew = ctx.alloc((batch, hidden), dtype)
        cnew = ctx.alloc((batch, hidden), dtype)

    fwd_table = []
    for t in range(steps):
        m_t = None if mcols is None else mcols[:, t:t + 1]
        saved = gates_saved[t % kept]
        now, nxt = t % len(hs), (t + 1) % len(hs)
        fwd_table.append((p3[:, t, :], hs[now], hs[nxt], cs[now], cs[nxt],
                          saved, saved[:, :hidden],
                          saved[:, hidden:2 * hidden],
                          saved[:, 2 * hidden:3 * hidden],
                          saved[:, 3 * hidden:], tcs[t % kept], m_t))

    def forward():
        np.matmul(x2, wT, out=p)
        np.add(p, b, out=p)
        for dst, src in loads:
            np.copyto(dst, src)
        if mcols is not None:
            np.copyto(mcols, mask, casting="unsafe")
        for (p_t, h_prev, h_next, c_prev, c_next, saved,
             i_v, f_v, g_v, o_v, tc_t, m_t) in fwd_table:
            np.matmul(h_prev, uT, out=gbuf)
            np.add(gbuf, p_t, out=gbuf)
            kernels.sigmoid_(gb_i, i_v, scratch, sigmask)
            kernels.sigmoid_(gb_f, f_v, scratch, sigmask)
            np.tanh(gb_g, out=g_v)
            kernels.sigmoid_(gb_o, o_v, scratch, sigmask)
            ct = c_next if m_t is None else cnew
            np.multiply(f_v, c_prev, out=ct)
            np.multiply(i_v, g_v, out=tmp)
            np.add(ct, tmp, out=ct)
            np.tanh(ct, out=tc_t)
            ht = h_next if m_t is None else hnew
            np.multiply(o_v, tc_t, out=ht)
            if m_t is not None:
                np.subtract(1.0, m_t, out=inv)
                np.multiply(ht, m_t, out=tmp)
                np.multiply(h_prev, inv, out=pre)
                np.add(tmp, pre, out=h_next)
                np.multiply(ct, m_t, out=tmp)
                np.multiply(c_prev, inv, out=pre)
                np.add(tmp, pre, out=c_next)

    ctx.fwd(forward)
    out = ctx.keep(hs[steps % len(hs)])
    c_out = ctx.keep(cs[steps % len(cs)])

    g_out = ctx.grad(out)
    if g_out is None:
        return out, c_out
    g_c_out = None if initial is None else ctx.grad(c_out)
    g_x = ctx.grad(x)
    gdt = g_out.dtype
    g_x2 = None if g_x is None else ctx.keep(g_x.reshape(rows, features))
    ud = cell.u.data
    g_u = ctx.param_grad(cell.u)
    gp = ctx.alloc((batch, steps, 4 * hidden), gdt)
    gp2 = ctx.keep(gp.reshape(rows, 4 * hidden))
    gh = ctx.alloc((batch, hidden), gdt)
    gc = ctx.alloc((batch, hidden), gdt)
    dp = ctx.alloc((batch, 4 * hidden), gdt)
    dp_i = ctx.keep(dp[:, :hidden])
    dp_f = ctx.keep(dp[:, hidden:2 * hidden])
    dp_g = ctx.keep(dp[:, 2 * hidden:3 * hidden])
    dp_o = ctx.keep(dp[:, 3 * hidden:])
    dp_t = ctx.keep(dp.T)
    gci = ctx.alloc((batch, hidden), gdt)
    ta = ctx.alloc((batch, hidden), gdt)
    tmp_u = ctx.alloc(ud.shape, gdt)
    ghm = None
    gcm = None
    carh = None
    carc = None
    if mcols is not None:
        ghm = ctx.alloc((batch, hidden), gdt)
        gcm = ctx.alloc((batch, hidden), gdt)
        carh = ctx.alloc((batch, hidden), gdt)
        carc = ctx.alloc((batch, hidden), gdt)

    bwd_table = []
    for t in reversed(range(steps)):
        m_t = None if mcols is None else mcols[:, t:t + 1]
        saved = gates_saved[t]
        bwd_table.append((hs[t], cs[t], saved[:, :hidden],
                          saved[:, hidden:2 * hidden],
                          saved[:, 2 * hidden:3 * hidden],
                          saved[:, 3 * hidden:], tcs[t], gp[:, t, :], m_t))
    hoisted = _hoisted_projection_backward(
        ctx, x2, g_x2, [(gp2, cell.w, cell.b)])
    initial_grads = [(g, left) for g, left in
                     zip(map(ctx.grad, initial or ()), (gh, gc))
                     if g is not None]

    def backward():
        np.copyto(gh, g_out)
        if g_c_out is None:
            gc[...] = 0.0
        else:
            np.copyto(gc, g_c_out)
        for (h_prev, c_prev, i_v, f_v, g_v, o_v, tc_t,
             gp_t, m_t) in bwd_table:
            if m_t is None:
                g_h_b, g_c_b = gh, gc
            else:
                np.multiply(gh, m_t, out=ghm)
                np.multiply(gc, m_t, out=gcm)
                np.subtract(1.0, m_t, out=inv)
                np.multiply(gh, inv, out=carh)
                np.multiply(gc, inv, out=carc)
                g_h_b, g_c_b = ghm, gcm
            np.multiply(tc_t, tc_t, out=ta)
            np.subtract(1.0, ta, out=ta)
            np.multiply(g_h_b, o_v, out=gci)
            np.multiply(gci, ta, out=gci)
            np.add(gci, g_c_b, out=gci)
            np.multiply(gci, g_v, out=dp_i)
            np.multiply(dp_i, i_v, out=dp_i)
            np.subtract(1.0, i_v, out=ta)
            np.multiply(dp_i, ta, out=dp_i)
            np.multiply(gci, c_prev, out=dp_f)
            np.multiply(dp_f, f_v, out=dp_f)
            np.subtract(1.0, f_v, out=ta)
            np.multiply(dp_f, ta, out=dp_f)
            np.multiply(gci, i_v, out=dp_g)
            np.multiply(g_v, g_v, out=ta)
            np.subtract(1.0, ta, out=ta)
            np.multiply(dp_g, ta, out=dp_g)
            np.multiply(g_h_b, tc_t, out=dp_o)
            np.multiply(dp_o, o_v, out=dp_o)
            np.subtract(1.0, o_v, out=ta)
            np.multiply(dp_o, ta, out=dp_o)
            np.copyto(gp_t, dp)
            np.matmul(dp_t, h_prev, out=tmp_u)
            np.add(g_u, tmp_u, out=g_u)
            np.matmul(dp, ud, out=gh)
            np.multiply(gci, f_v, out=gc)
            if m_t is not None:
                np.add(gh, carh, out=gh)
                np.add(gc, carc, out=gc)
        for g, left in initial_grads:
            np.add(g, left, out=g)
        hoisted()

    ctx.bwd(backward)
    return out, c_out


@register_train_rule(nn.LSTMCell)
def _train_lstm_cell(module, inputs, ctx):
    # One step of the LSTM recurrence, from the given state.
    if (not isinstance(inputs, tuple) or len(inputs) != 2
            or not isinstance(inputs[1], tuple) or len(inputs[1]) != 2):
        raise ShapeError("LSTMCell training rule expects (x, (h, c)) inputs")
    x, state = inputs
    seq = _one_step(module, ctx, x, state)
    return _lstm_recurrence(ctx, module, seq, None, state)


@register_train_rule(nn.LSTM)
def _train_lstm(module, inputs, ctx):
    x, mask = _train_sequence_inputs(module, inputs)
    return _lstm_recurrence(ctx, module.cell, x, mask)[0]


@register_train_rule(nn.Bidirectional)
def _train_bidirectional(module, inputs, ctx):
    x, mask = _train_sequence_inputs(module, inputs)
    batch, steps, _ = x.shape
    ahead = ctx.build(module.forward_layer, (x, mask))

    # The eager forward detaches the reversed copy (x.numpy()), so no
    # gradient flows from the backward layer into x; the reversed input
    # and mask are therefore constants of the plan.
    reversed_x = ctx.alloc(x.shape, x.dtype)
    ctx.mark_constant(reversed_x)
    if mask is None:
        reversed_mask = None
        ctx.fwd(lambda: np.copyto(reversed_x, x[:, ::-1, :]))
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
        ctx.mark_constant(reversed_mask)

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

        ctx.fwd(reverse_step)

    behind = ctx.build(module.backward_layer, (reversed_x, reversed_mask))
    split = ahead.shape[1]
    out = ctx.alloc((batch, split + behind.shape[1]),
                    np.result_type(ahead.dtype, behind.dtype))
    out_a = ctx.keep(out[:, :split])
    out_b = ctx.keep(out[:, split:])

    def concat_step():
        np.copyto(out_a, ahead)
        np.copyto(out_b, behind)

    ctx.fwd(concat_step)

    g_out = ctx.grad(out)
    if g_out is None:
        return out
    g_ahead = ctx.grad(ahead)
    g_behind = ctx.grad(behind)
    g_out_a = ctx.keep(g_out[:, :split])
    g_out_b = ctx.keep(g_out[:, split:])

    def concat_backward():
        if g_ahead is not None:
            np.add(g_ahead, g_out_a, out=g_ahead)
        if g_behind is not None:
            np.add(g_behind, g_out_b, out=g_behind)

    ctx.bwd(concat_backward)
    return out


# ----------------------------------------------------------------------
# Rules: fusion heads and the multi-view classifier
# ----------------------------------------------------------------------
def _train_expect_views(module, inputs, count=None):
    """The per-view input list; ``count`` views when the module has one
    parameter set per view."""
    if not isinstance(inputs, list):
        raise ShapeError(
            "{} training rule expects a list of per-view inputs".format(
                type(module).__name__
            )
        )
    if count is not None and len(inputs) != count:
        raise ShapeError("{}: expected {} views, got {}".format(
            type(module).__name__, count, len(inputs)))
    return inputs


def _train_expect_view_sizes(module, inputs):
    """Per-view (batch, width) inputs whose widths are ``view_sizes``, as
    the eager forward requires of a head that concatenates its views."""
    views = _train_expect_views(module, inputs)
    widths = [view.shape[1:] for view in views]
    if widths != [(size,) for size in module.view_sizes]:
        raise ShapeError("{}: expected views of widths {}, got {}".format(
            type(module).__name__, list(module.view_sizes), widths))
    return views


def _train_concat_with_ones(ctx, views, dtype):
    """Buffer holding [views...; 1] with the ones column set at compile.

    Returns (buffer, fill, total, offsets) where offsets gives each
    view's (start, width) column range so the backward can route the
    matching gradient slice back to the view.
    """
    batch = views[0].shape[0]
    total = sum(v.shape[1] for v in views)
    # Persistent: the ones column is written once here at compile time.
    buffer = ctx.alloc((batch, total + 1), dtype, persistent=True)
    buffer[:, total] = 1.0
    pairs = []
    offsets = []
    start = 0
    for view in views:
        width = view.shape[1]
        pairs.append((buffer[:, start:start + width], view))
        offsets.append((start, width))
        start += width

    def fill():
        for target, source in pairs:
            np.copyto(target, source)

    return buffer, fill, total, offsets


def _view_grad_routes(ctx, views, offsets, source):
    """(g_view, source_slice) pairs for views that need gradients."""
    routes = []
    for view, (start, width) in zip(views, offsets):
        g_v = ctx.grad(view)
        if g_v is not None:
            routes.append((g_v, ctx.keep(source[:, start:start + width])))
    return routes


@register_train_rule(nn.FullyConnectedFusion)
def _train_fc_fusion(module, inputs, ctx):
    views = _train_expect_view_sizes(module, inputs)
    w1, w2 = module.w1, module.w2
    batch = views[0].shape[0]
    cat_dtype = np.result_type(*[v.dtype for v in views])
    hidden_dtype = np.result_type(cat_dtype, w1.data.dtype)
    hcat, fill, _, offsets = _train_concat_with_ones(ctx, views, cat_dtype)
    w1T = ctx.keep(w1.data.T)
    w2T = ctx.keep(w2.data.T)
    hidden_units = w1.data.shape[0]
    q = ctx.alloc((batch, hidden_units), hidden_dtype)
    relu_mask = ctx.bool_buf(q.shape)
    out = ctx.alloc((batch, w2.data.shape[0]),
                    np.result_type(hidden_dtype, w2.data.dtype))

    def forward():
        fill()
        np.matmul(hcat, w1T, out=q)
        np.greater(q, 0.0, out=relu_mask)
        np.multiply(q, relu_mask, out=q)
        np.matmul(q, w2T, out=out)

    ctx.fwd(forward)

    g_out = ctx.grad(out)
    if g_out is None:
        return out
    gdt = g_out.dtype
    g_w1 = ctx.param_grad(w1)
    g_w2 = ctx.param_grad(w2)
    w1d, w2d = w1.data, w2.data
    gq = ctx.alloc(q.shape, gdt)
    ghcat = ctx.alloc(hcat.shape, gdt)
    tmp_w1 = ctx.alloc(w1d.shape, gdt)
    tmp_w2 = ctx.alloc(w2d.shape, gdt)
    routes = _view_grad_routes(ctx, views, offsets, ghcat)

    def backward():
        np.matmul(g_out.T, q, out=tmp_w2)
        np.add(g_w2, tmp_w2, out=g_w2)
        np.matmul(g_out, w2d, out=gq)
        np.multiply(gq, relu_mask, out=gq)
        np.matmul(gq.T, hcat, out=tmp_w1)
        np.add(g_w1, tmp_w1, out=g_w1)
        np.matmul(gq, w1d, out=ghcat)
        for g_v, src in routes:
            np.add(g_v, src, out=g_v)

    ctx.bwd(backward)
    return out


@register_train_rule(nn.FactorizationMachineFusion)
def _train_fm_fusion(module, inputs, ctx):
    views = _train_expect_view_sizes(module, inputs)
    batch = views[0].shape[0]
    classes, factors = module.num_classes, module.factor_units
    cat_dtype = np.result_type(*[v.dtype for v in views])
    hcat, fill, total, offsets = _train_concat_with_ones(
        ctx, views, cat_dtype)
    h = ctx.keep(hcat[:, :total])
    uT = ctx.keep(module.u.data.T)
    wT = ctx.keep(module.w.data.T)
    q_dtype = np.result_type(cat_dtype, module.u.data.dtype)
    out_dtype = np.result_type(q_dtype, module.w.data.dtype)
    q = ctx.alloc((batch, classes * factors), q_dtype)
    q3 = ctx.keep(q.reshape(batch, classes, factors))
    # Backward reads q; forward-only mode squares it in place.
    sq = ctx.alloc((batch, classes * factors), q_dtype) if ctx.training else q
    sq3 = ctx.keep(sq.reshape(batch, classes, factors))
    quadratic = ctx.alloc((batch, classes), q_dtype)
    linear = ctx.alloc((batch, classes),
                       np.result_type(cat_dtype, module.w.data.dtype))
    out = ctx.alloc((batch, classes), out_dtype)

    def forward():
        fill()
        np.matmul(h, uT, out=q)
        np.multiply(q3, q3, out=sq3)
        np.sum(sq3, axis=2, out=quadratic)
        np.matmul(hcat, wT, out=linear)
        np.add(quadratic, linear, out=out)

    ctx.fwd(forward)

    g_out = ctx.grad(out)
    if g_out is None:
        return out
    gdt = g_out.dtype
    ud, wd = module.u.data, module.w.data
    g_u = ctx.param_grad(module.u)
    g_w = ctx.param_grad(module.w)
    g_out3 = ctx.keep(g_out.reshape(batch, classes, 1))
    gq = ctx.alloc((batch, classes * factors), gdt)
    gq3 = ctx.keep(gq.reshape(batch, classes, factors))
    gq2 = gq
    ghcat = ctx.alloc(hcat.shape, gdt)
    gh = ctx.alloc((batch, total), gdt)
    tmp_u = ctx.alloc(ud.shape, gdt)
    tmp_w = ctx.alloc(wd.shape, gdt)
    lin_routes = _view_grad_routes(ctx, views, offsets, ghcat)
    quad_routes = _view_grad_routes(ctx, views, offsets, gh)

    def backward():
        # linear term: out += hcat @ w.T
        np.matmul(g_out.T, hcat, out=tmp_w)
        np.add(g_w, tmp_w, out=g_w)
        np.matmul(g_out, wd, out=ghcat)
        # quadratic term: out += sum(q3*q3, axis=2)
        np.multiply(q3, g_out3, out=gq3)
        np.multiply(gq3, 2.0, out=gq3)
        np.matmul(gq2.T, h, out=tmp_u)
        np.add(g_u, tmp_u, out=g_u)
        np.matmul(gq2, ud, out=gh)
        for g_v, src in lin_routes:
            np.add(g_v, src, out=g_v)
        for g_v, src in quad_routes:
            np.add(g_v, src, out=g_v)

    ctx.bwd(backward)
    return out


@register_train_rule(nn.MultiViewMachineFusion)
def _train_mvm_fusion(module, inputs, ctx):
    views = _train_expect_views(module, inputs, len(module.view_sizes))
    batch = views[0].shape[0]
    classes, factors = module.num_classes, module.factor_units
    factor_params = [getattr(module, name) for name in module._factor_names]
    dtype = np.result_type(
        *([v.dtype for v in views] + [p.data.dtype for p in factor_params]))
    width = classes * factors

    # Backward reads every view's projection; forward-only mode projects
    # the first view straight into the product and shares one buffer
    # among the others.
    product = None if ctx.training else ctx.alloc((batch, width), dtype)
    stages = []
    for index, (view, param) in enumerate(zip(views, factor_params)):
        vcat, fill, size, _ = _train_concat_with_ones(ctx, [view], view.dtype)  # repro-lint: allow[alloc-in-loop] compile-time per-view buffers
        if ctx.training or index == 1:
            q_p = ctx.alloc((batch, width), dtype)  # repro-lint: allow[alloc-in-loop] compile-time per-view buffers
        else:
            q_p = product if index == 0 else stages[1][3]
        stages.append((fill, vcat, ctx.keep(param.data.T), q_p, view, param,
                       size))
    if product is None:
        product = ctx.alloc((batch, width), dtype)
    product3 = ctx.keep(product.reshape(batch, classes, factors))
    out = ctx.alloc((batch, classes), dtype)

    def forward():
        for index, (fill, vcat, uT, q_p, _, _, _) in enumerate(stages):
            fill()
            np.matmul(vcat, uT, out=q_p)
            if q_p is product:
                continue
            if index == 0:
                np.copyto(product, q_p)
            else:
                np.multiply(product, q_p, out=product)
        np.add.reduce(product3, axis=2, out=out)

    ctx.fwd(forward)

    g_out = ctx.grad(out)
    if g_out is None:
        return out
    gdt = g_out.dtype
    g_out3 = ctx.keep(g_out.reshape(batch, classes, 1))
    oth = ctx.alloc((batch, width), gdt)
    oth3 = ctx.keep(oth.reshape(batch, classes, factors))
    bwd_stages = []
    for index, (fill, vcat, uT, q_p, view, param, size) in enumerate(stages):
        g_u_p = ctx.param_grad(param)
        tmp_u = ctx.alloc(param.data.shape, gdt)  # repro-lint: allow[alloc-in-loop] compile-time per-view buffers
        g_v = ctx.grad(view)
        gvcat = None if g_v is None else \
            ctx.alloc((batch, size + 1), gdt)  # repro-lint: allow[alloc-in-loop] compile-time per-view buffers
        others = [stages[j][3] for j in range(len(stages)) if j != index]
        bwd_stages.append((vcat, param.data, g_u_p, tmp_u, g_v, gvcat,
                           others, size))

    def backward():
        for vcat, ud, g_u_p, tmp_u, g_v, gvcat, others, size in bwd_stages:
            oth[...] = 1.0
            for q_j in others:
                np.multiply(oth, q_j, out=oth)
            np.multiply(oth3, g_out3, out=oth3)
            np.matmul(oth.T, vcat, out=tmp_u)
            np.add(g_u_p, tmp_u, out=g_u_p)
            if g_v is not None:
                np.matmul(oth, ud, out=gvcat)
                np.add(g_v, gvcat[:, :size], out=g_v)

    ctx.bwd(backward)
    return out


def _register_core_train_rules():
    from ..core.model import MultiViewGRUClassifier

    @register_train_rule(MultiViewGRUClassifier)
    def _train_multiview_classifier(module, inputs, ctx):
        views = _train_expect_views(module, inputs, len(module.view_dims))
        encoders = [getattr(module, name) for name in module._encoder_names]
        seqs = [_train_sequence_inputs(encoder, view)
                for encoder, view in zip(encoders, views)]
        if ctx.training and not module.bidirectional:
            # Training runs every view's GRU as one stacked recurrence.
            # Serving builds each encoder alone: a stack keeps all views'
            # buffers live at once, which defeats the serve arena's
            # slot coloring.
            hidden = _gru_stack(ctx, [encoder.cell for encoder in encoders],
                                seqs)
        else:
            hidden = [ctx.build(encoder, seq)
                      for encoder, seq in zip(encoders, seqs)]
        # One shared Dropout, applied per view in order: building it per
        # view keeps the rng draw order identical to eager.
        encoded = [ctx.build(module.dropout, h) for h in hidden]
        return ctx.build(module.fusion, encoded)


_register_core_train_rules()
