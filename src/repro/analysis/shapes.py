"""Shape/dtype check of a :mod:`repro.nn` module through the layer compiler.

``check_module(module, inputs)`` compiles the module's forward over
zero-filled buffers shaped by ``inputs`` — one :class:`Spec`, or the
tuple/list structure the plan compilers take (see :mod:`repro.serve.plan`)
— in the forward-only mode every serving plan is built through,
``TrainContext(arena, training=False)``, runs those steps once and
reports:

* the output :class:`Spec` (shape and dtype), read from the buffers the
  layer rules allocated;
* :class:`~repro.serve.plan.ShapeError` naming the layer whose rule or
  step refused the input;
* a :class:`Trace` of dtype **upcast** events: a layer that turns a
  float32 input into a float64 output doubles the memory traffic of
  everything downstream, the classic way a "float32 deployment" quietly
  runs at float64.

There is no second rule table: the layer rules of
:func:`repro.train.plan.register_train_rule` are the check, so a module
class without one raises
:class:`~repro.serve.plan.UnsupportedModuleError`.

Usage::

    from repro.analysis import check_module, Spec
    out, trace = check_module(model, Spec((32, 64), np.float32))
    assert out.shape == (32, 10)
    for event in trace.events:
        print(event)          # e.g. upcast warnings
"""

from __future__ import annotations

import numpy as np

from ..serve.arena import BufferArena
from ..serve.plan import ShapeError
from ..tensor.tensor import get_default_dtype
from ..train.plan import TrainContext

__all__ = ["Spec", "Trace", "check_module"]


class Spec:
    """Abstract value: a shape tuple plus a numpy dtype."""

    __slots__ = ("shape", "dtype")

    def __init__(self, shape, dtype=None):
        self.shape = tuple(int(d) for d in shape)
        self.dtype = np.dtype(dtype) if dtype is not None else get_default_dtype()

    @property
    def ndim(self):
        return len(self.shape)

    def __eq__(self, other):
        if not isinstance(other, Spec):
            return NotImplemented
        return self.shape == other.shape and self.dtype == other.dtype

    def __hash__(self):
        return hash((self.shape, self.dtype))

    def __repr__(self):
        return "Spec({}, {})".format(self.shape, self.dtype.name)


class Trace:
    """Accumulates the dtype events seen while checking a module."""

    def __init__(self):
        self.events = []

    def record(self, kind, where, message):
        self.events.append((kind, where, message))

    def upcasts(self):
        return [e for e in self.events if e[0] == "upcast"]

    def __str__(self):
        if not self.events:
            return "trace: clean"
        return "\n".join(
            "[{}] {}: {}".format(kind, where, message)
            for kind, where, message in self.events
        )


def _arrays(value):
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (tuple, list)):
        return [a for item in value for a in _arrays(item)]
    return []


def _widens(inputs, output):
    """Whether a layer turned a float32 input into a float64 output."""
    return (any(a.dtype == np.float32 for a in _arrays(inputs))
            and any(a.dtype == np.float64 for a in _arrays(output)))


class _CheckContext(TrainContext):
    """Forward-only build that tags each step and error with its layer."""

    def __init__(self, root):
        super().__init__(BufferArena(), training=False)
        self.trace = Trace()
        self.step_layers = []
        self._names = {id(m): name for name, m in root.named_modules()}
        self._root = type(root).__name__
        self._layers = []
        self._error = None

    def _where(self, module):
        name = self._names.get(id(module))
        if not name:
            return type(module).__name__
        return "{}.{} ({})".format(self._root, name, type(module).__name__)

    def fwd(self, fn):
        super().fwd(fn)
        self.step_layers.append(self._layers[-1])

    def build(self, module, inputs, activation=None):
        where = self._where(module)
        self._layers.append(where)
        events = len(self.trace.events)
        try:
            output = super().build(module, inputs, activation)
        except (ValueError, IndexError) as exc:
            # numpy's shape errors, and a rule's own ShapeError, are
            # located once, by the innermost layer they pass through.
            if exc is self._error:
                raise
            # A rule's message starts with its class; ``where`` names it.
            message = str(exc).removeprefix(type(module).__name__ + ": ")
            self._error = ShapeError("{}: {}".format(where, message))
            raise self._error from exc
        finally:
            self._layers.pop()
        # An enclosing layer does not repeat an upcast its child reported.
        if len(self.trace.events) == events and _widens(inputs, output):
            self.trace.record(
                "upcast", where,
                "float32 input -> float64 output; downstream memory "
                "traffic doubles")
        return output

    def run(self):
        for step, where in zip(self.fwd_steps, self.step_layers):
            try:
                step()
            except (ValueError, IndexError) as exc:
                raise ShapeError("{}: {}".format(where, exc)) from exc


def _zeros(inputs, arena):
    if inputs is None:
        return None
    if isinstance(inputs, Spec):
        return arena.alloc(inputs.shape, inputs.dtype)
    if isinstance(inputs, (tuple, list)):
        return type(inputs)(_zeros(item, arena) for item in inputs)
    raise TypeError("check_module inputs are Specs in tuples and lists, "
                    "got {!r}".format(type(inputs).__name__))


def _spec(output):
    if isinstance(output, np.ndarray):
        return Spec(output.shape, output.dtype)
    return type(output)(_spec(item) for item in output)


def check_module(module, inputs):
    """Compile and run ``module``'s forward on zeros shaped by ``inputs``.

    Returns ``(output_spec, trace)``.  Raises
    :class:`~repro.serve.plan.ShapeError` for an input a layer refuses
    and :class:`~repro.serve.plan.UnsupportedModuleError` for a module
    class with no layer rule.
    """
    ctx = _CheckContext(module)
    output = ctx.build(module, _zeros(inputs, ctx.arena))
    ctx.run()
    return _spec(output), ctx.trace
