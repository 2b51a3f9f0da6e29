"""Static + dynamic auditing of compiled serve/train plans.

The plan compilers (:mod:`repro.serve.plan`, :mod:`repro.train.plan`)
capture ~50 hand-written trace rules into zero-arg numpy step closures
over frozen buffer arenas.  Their zero-alloc / write-before-read /
no-aliasing contracts were previously enforced only by the compile-time
eager-equivalence check; this package proves them analytically and then
spends the result:

* :mod:`repro.analysis.plans.ir` — a small SSA-like IR: buffers with
  byte spans and per-step read/write sets, hand-constructible for tests;
* :mod:`repro.analysis.plans.extract` — recovers the IR from a captured
  plan by walking step closures for the arena buffers they reference,
  then runs a two-fill poison analysis (execute the steps twice from
  differently-randomised arena states) to prove every buffer is written
  before it is read and that no step depends on alloc-time contents
  that were not declared ``persistent``;
* :mod:`repro.analysis.plans.analyses` — liveness intervals, dead
  buffers/stores, definedness and aliasing checks over the IR;
* :mod:`repro.analysis.plans.color` — liveness-interval interference
  coloring of buffers into shared arena slots, applied by re-tracing
  the plan over a :class:`~repro.serve.arena.SlotPlan` arena (the
  compile-time eager verification re-runs, and a post-coloring two-fill
  check proves the reuse is semantics-preserving);
* :mod:`repro.analysis.plans.coverage` — cross-checks the layer-rule
  registry both plan compilers share against the shapes registry, so a
  new layer without a rule fails ``make check``;
* :mod:`repro.analysis.plans.audit` — the CLI:
  ``python -m repro.analysis.plans audit`` audits every registry module,
  drives a batching ``FleetServer`` to check per-ticket result
  isolation, and exits non-zero on any violation.
"""

from .ir import BufferNode, PlanIR, StepNode, Violation
from .analyses import (
    check_aliasing,
    check_defined_before_read,
    find_dead_buffers,
    find_dead_stores,
    liveness,
)

# The extraction/coloring/audit layers pull in the serve/train
# subsystems; export them lazily (PEP 562) so importing the package — as
# ``python -m repro.analysis.plans`` does before runpy executes
# ``__main__`` — stays light and cannot shadow the CLI.
_LAZY_EXPORTS = {
    "extract_plan_ir": "extract",
    "extract_train_ir": "extract",
    "SlotReport": "color",
    "build_slot_plan": "color",
    "color_plan": "color",
    "color_train_plan": "color",
    "audit_server_isolation": "audit",
    "audit_rule_coverage": "coverage",
    "audit_case": "audit",
    "audit_all": "audit",
    "AUDIT_CASES": "registry",
}


def __getattr__(name):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is not None:
        import importlib

        module = importlib.import_module("." + module_name, __name__)
        return getattr(module, name)
    raise AttributeError(
        "module {!r} has no attribute {!r}".format(__name__, name))


__all__ = [
    "BufferNode",
    "PlanIR",
    "StepNode",
    "Violation",
    "check_aliasing",
    "check_defined_before_read",
    "find_dead_buffers",
    "find_dead_stores",
    "liveness",
] + sorted(_LAZY_EXPORTS)
