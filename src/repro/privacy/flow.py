"""Privacy-flow notification points for the DP stack.

The static side of the privacy analyzer (:mod:`repro.analysis.privacy`)
needs to see where the trainers *claim* data changes privacy status:
where per-example gradients are born private, where they are clipped to
a finite sensitivity, where calibrated noise is added, where a masked or
aggregated value leaves the trust boundary, and where the accountant is
charged.  Those events happen in plain-numpy code the autograd hook
cannot see, so each site calls one of the functions below.

This module is deliberately dependency-free: the privacy trainers import
it (cheap — every call is a single ``is None`` check when no listener is
installed) and :class:`repro.analysis.privacy.taint.TaintTracker`
registers itself as the listener while a trace is active.  The
dependency arrow therefore stays ``analysis -> privacy``, never the
reverse.

Events and their payloads:

``private``     array               — data derived from raw user data
``clipped``     source, result, bound — L2-clipped to ``bound``
``noised``      source, result, stddev, mechanism — calibrated noise added
``aggregated``  source, result      — masked/aggregated (secure agg)
``derived``     sources, result     — result inherits the worst source label
``release``     array, channel      — data crosses the trust boundary
``accounted``   q, sigma, num_steps — the moments accountant was charged
"""

from __future__ import annotations

__all__ = [
    "set_listener",
    "get_listener",
    "mark_private",
    "mark_clipped",
    "mark_noised",
    "mark_aggregated",
    "mark_derived",
    "release",
    "accounted",
]

# The single active listener (``None`` almost always).  A listener is a
# callable ``listener(event, **info)``; exceptions propagate to the
# caller so an analysis bug is loud, not silent.
_listener = None


def set_listener(listener):
    """Install ``listener`` (or ``None`` to clear); returns the previous one."""
    global _listener
    previous = _listener
    _listener = listener
    return previous


def get_listener():
    """Return the currently installed listener (``None`` when inactive)."""
    return _listener


def mark_private(array):
    """Declare ``array`` as raw private data (or directly derived from it)."""
    if _listener is not None:
        _listener("private", array=array)


def mark_clipped(source, result, bound):
    """Declare ``result`` as ``source`` L2-clipped to sensitivity ``bound``."""
    if _listener is not None:
        _listener("clipped", source=source, result=result, bound=bound)


def mark_noised(source, result, stddev, mechanism="gaussian"):
    """Declare ``result`` as ``source`` plus calibrated noise of ``stddev``."""
    if _listener is not None:
        _listener("noised", source=source, result=result, stddev=stddev,
                  mechanism=mechanism)


def mark_aggregated(source, result):
    """Declare ``result`` as a masked/aggregated form of ``source``."""
    if _listener is not None:
        _listener("aggregated", source=source, result=result)


def mark_derived(result, sources):
    """Declare ``result`` as computed from ``sources`` (worst label wins)."""
    if _listener is not None:
        _listener("derived", result=result, sources=tuple(sources))


def release(array, channel):
    """Declare that ``array`` leaves the trust boundary via ``channel``."""
    if _listener is not None:
        _listener("release", array=array, channel=channel)


def accounted(q, sigma, num_steps=1):
    """Declare that the privacy accountant was charged for a release."""
    if _listener is not None:
        _listener("accounted", q=q, sigma=sigma, num_steps=num_steps)
