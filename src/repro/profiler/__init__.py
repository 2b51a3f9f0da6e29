"""Operation-level profiling: per-op call/byte counters hooked into the
autograd engine, and per-module forward timings.

Quick use::

    import repro.profiler as profiler

    with profiler.profile():
        model(batch)
    print(profiler.report())

Runtime counts that belong to an object (a plan's ``compile_count``, an
arena's ``nbytes``, a server's ``metrics()``) are kept by that object,
not here.
"""

from .core import disable, enable, get_stats, profile, report, reset

__all__ = ["disable", "enable", "get_stats", "profile", "report", "reset"]
