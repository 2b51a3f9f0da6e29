"""Static analysis and runtime sanitizers for the repro substrate.

Every subsystem in this repository (FedAvg/DP-SGD training loops, the
private-inference pipeline, the Deep Compression chain) is hand-written
numpy where a silent shape broadcast, dtype upcast, or in-place mutation
of a graph-held array corrupts gradients without raising.  This package
supplies the tooling that proves graph and numeric hygiene the way
:mod:`repro.profiler` proves performance:

* :mod:`repro.analysis.graph` — walk a Tensor's autograd graph and flag
  parameters that never receive gradient, backward closures that captured
  tensors outside their declared parents, cycles, and outputs detached
  from a trainable model;
* :mod:`repro.analysis.shapes` — check any ``Module`` against
  ``(shape, dtype)`` specs by compiling its forward through the layer
  compiler's rules over zero-filled buffers: the output spec, shape
  mismatches named by layer, and float32→float64 upcasts;
* :mod:`repro.analysis.sanitize` — a context manager that freezes every
  ndarray captured by the autograd tape (checksum fallback for views) so
  in-place mutation between forward and backward raises, plus a NaN/Inf
  tripwire hooked into the engine like the profiler's op hooks;
* :mod:`repro.analysis.lint` — AST-based repo lint
  (``python -m repro.analysis.lint src tests``): bans global
  ``np.random.*``, raw float dtype literals, ``.data`` mutation outside
  ``optim/``, Python loops in hot-kernel files, and five DP-invariant
  rules in ``privacy-critical`` files;
* :mod:`repro.analysis.privacy` — privacy-flow analysis: taint tracking
  over the tensor engine (:func:`~repro.analysis.privacy.trace_privacy`
  flags egress of un-noised private data), machine-readable
  :class:`~repro.analysis.privacy.PrivacyCertificate` claims from the DP
  trainers, and an independent budget auditor
  (``python -m repro.analysis.privacy audit``) that recomputes epsilon
  from scratch and cross-checks the accountant ledger;
* :mod:`repro.analysis.determinism` — the determinism & RNG-provenance
  auditor (``python -m repro.analysis.determinism audit``): a static
  provenance pass over every generator construction site, a
  stream-collision proof for the keyed-RNG families in
  :mod:`repro.rng`, and a dual-replay harness that runs federated /
  DP-SGD / serving scenarios twice under perturbed environments and
  bisects any divergence to its first event.
"""

from .graph import (
    Finding,
    GraphReport,
    iter_graph,
    lint_graph,
    stale_grad_tensors,
)
from ..serve.plan import ShapeError, UnsupportedModuleError
from .sanitize import MutationError, NumericError, sanitize

# The shape check builds through the layer compiler, which
# ``import repro`` does not load; export it lazily (PEP 562).
_SHAPES_EXPORTS = frozenset({"Spec", "Trace", "check_module"})

# The privacy layer is exported lazily (PEP 562): it pulls in the tensor
# engine, the DP trainers, and scipy, and eagerly importing it here would
# also shadow `python -m repro.analysis.lint` (the package import would
# load repro.analysis.lint before runpy executes it).
_PRIVACY_EXPORTS = frozenset({
    "Label", "TaintTracker", "PrivacyFlowReport", "trace_privacy",
    "PrivacyCertificate", "CertificateError", "AuditResult", "AuditError",
    "audit_certificate",
})


# Same treatment for the determinism auditor: its dynamic layer pulls in
# the federated/privacy/serving stacks, which the base analysis import
# must not pay for.
_DETERMINISM_EXPORTS = frozenset({
    "DivergenceReport", "EventLog", "Perturbation", "StreamFamily",
    "dual_replay", "first_divergence",
})


def __getattr__(name):
    if name in _SHAPES_EXPORTS:
        from . import shapes
        return getattr(shapes, name)
    if name in _PRIVACY_EXPORTS:
        from . import privacy
        return getattr(privacy, name)
    if name in _DETERMINISM_EXPORTS:
        from . import determinism
        return getattr(determinism, name)
    raise AttributeError(
        "module {!r} has no attribute {!r}".format(__name__, name))


__all__ = [
    "Finding",
    "GraphReport",
    "iter_graph",
    "lint_graph",
    "stale_grad_tensors",
    "ShapeError",
    "Spec",
    "Trace",
    "UnsupportedModuleError",
    "check_module",
    "MutationError",
    "NumericError",
    "sanitize",
    "Label",
    "TaintTracker",
    "PrivacyFlowReport",
    "trace_privacy",
    "PrivacyCertificate",
    "CertificateError",
    "AuditResult",
    "AuditError",
    "audit_certificate",
]
