"""Op-level profiler for the autodiff engine and module system.

The paper's Section III frames every mobile-deployment decision around
measured latency and memory traffic; this module supplies the
instrumentation side of that argument for our substrate:

* **per-op call/byte counters** — a hook installed into
  :meth:`repro.tensor.Tensor._make` records, for every differentiable op
  that executes while profiling is enabled, how many times it ran and how
  many output bytes it produced.  The op name is recovered from the
  backward closure's qualname (``sigmoid.<locals>.backward`` -> ``sigmoid``),
  so the engine itself needs no per-op changes;
* **per-module timers** — a hook wrapped around
  :meth:`repro.nn.Module.__call__` attributes ``perf_counter`` wall-clock
  time to each module class (self-inclusive: a Sequential's time includes
  its children's).

Everything is a no-op until :func:`enable` is called; the hooks cost one
``is None`` check on the hot path when disabled.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from contextlib import contextmanager

__all__ = [
    "enable",
    "disable",
    "reset",
    "profile",
    "get_stats",
    "report",
]


class _OpStat:
    __slots__ = ("calls", "bytes")

    def __init__(self):
        self.calls = 0
        self.bytes = 0


class _TimeStat:
    __slots__ = ("calls", "seconds")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0


class _State:
    enabled = False
    ops = OrderedDict()        # op name -> _OpStat
    modules = OrderedDict()    # module class name -> _TimeStat


def _op_name(backward):
    """Derive the op name from a backward closure's qualname."""
    qualname = getattr(backward, "__qualname__", "") or "<unknown>"
    head = qualname.split(".<locals>")[0]
    return head.rsplit(".", 1)[-1] if "." in head else head


def _op_hook(backward, data, parents=()):
    name = _op_name(backward)
    stat = _State.ops.get(name)
    if stat is None:
        stat = _State.ops[name] = _OpStat()
    stat.calls += 1
    stat.bytes += getattr(data, "nbytes", 0)


def _module_hook(module, args, kwargs):
    name = type(module).__name__
    start = time.perf_counter()
    try:
        return module.forward(*args, **kwargs)
    finally:
        elapsed = time.perf_counter() - start
        stat = _State.modules.get(name)
        if stat is None:
            stat = _State.modules[name] = _TimeStat()
        stat.calls += 1
        stat.seconds += elapsed


def enable():
    """Start recording op counters and module timings."""
    from ..tensor import tensor as tensor_mod
    from ..nn import module as module_mod

    tensor_mod._profile_hook = _op_hook
    module_mod._forward_hook = _module_hook
    _State.enabled = True


def disable():
    """Stop recording (accumulated statistics are kept until reset)."""
    from ..tensor import tensor as tensor_mod
    from ..nn import module as module_mod

    tensor_mod._profile_hook = None
    module_mod._forward_hook = None
    _State.enabled = False


def reset():
    """Clear all accumulated statistics."""
    _State.ops = OrderedDict()
    _State.modules = OrderedDict()


@contextmanager
def profile():
    """Context manager: profile the enclosed block, restoring prior state::

        with repro.profiler.profile():
            model(x)
        print(repro.profiler.report())
    """
    previously = _State.enabled
    enable()
    try:
        yield
    finally:
        if not previously:
            disable()


def get_stats():
    """Snapshot of every counter as plain dicts (JSON-serialisable)."""
    return {
        "ops": {
            name: {"calls": s.calls, "bytes": s.bytes}
            for name, s in _State.ops.items()
        },
        "modules": {
            name: {"calls": s.calls, "seconds": s.seconds}
            for name, s in _State.modules.items()
        },
    }


def _format_bytes(count):
    for unit in ("B", "KB", "MB", "GB"):
        if count < 1024.0 or unit == "GB":
            return "{:.1f} {}".format(count, unit)
        count /= 1024.0


def report():
    """Render every recorded counter as an aligned text table."""
    lines = []
    if _State.ops:
        lines.append("ops (autograd engine)")
        lines.append("  {:<16} {:>10} {:>12}".format("op", "calls", "out bytes"))
        ranked = sorted(_State.ops.items(), key=lambda kv: -kv[1].bytes)
        for name, stat in ranked:
            lines.append(
                "  {:<16} {:>10} {:>12}".format(
                    name, stat.calls, _format_bytes(stat.bytes)
                )
            )
    if _State.modules:
        lines.append("modules (forward wall-clock, self-inclusive)")
        lines.append(
            "  {:<24} {:>8} {:>12} {:>12}".format(
                "module", "calls", "total", "mean"
            )
        )
        ranked = sorted(_State.modules.items(), key=lambda kv: -kv[1].seconds)
        for name, stat in ranked:
            lines.append(
                "  {:<24} {:>8} {:>10.3f} s {:>9.3f} ms".format(
                    name, stat.calls, stat.seconds,
                    1e3 * stat.seconds / max(stat.calls, 1),
                )
            )
    if not lines:
        return "(profiler: nothing recorded)"
    return "\n".join(lines)
