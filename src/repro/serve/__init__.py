"""Serving runtime: compiled inference plans, buffer arenas, batching.

The training stack builds an autodiff graph per forward — closures,
parent tuples, gradient bookkeeping, and a fresh allocation for every
intermediate.  None of that is needed to *serve* a trained model, and on
the phone-sized models this repo targets the bookkeeping is a large
fraction of per-request latency.  This package provides the
inference-only path:

* :func:`compile_plan` / :class:`Plan` — capture a module's forward once
  and replay it with zero graph construction and zero per-request
  allocation (:mod:`repro.serve.plan`).  Traces are built by the
  training compiler's layer rules in their forward-only mode
  (:mod:`repro.train.plan`), the one rule registry of both compilers;
* :class:`BufferArena` / :class:`ArenaPool` — the preallocated
  intermediate storage plans replay into, shareable across models
  (:mod:`repro.serve.arena`);
* :class:`FleetServer` / :class:`ModelRegistry` — the serving runtime:
  dynamic request batching with latency/throughput policy knobs, grown
  to multi-tenant, multi-model serving with admission control, priority
  scheduling, SLO-aware batch sizing, and the early-exit speculative
  cascade (:mod:`repro.serve.fleet`); a one-model, one-tenant registry
  is the plain batcher;
* the request collators that validate, bucket and pad requests into
  plan inputs (:mod:`repro.serve.server`);
* :class:`OpenLoopTraffic` / :func:`run_soak` — seeded open-loop load
  generation and the deterministic soak harness
  (:mod:`repro.serve.traffic`).
"""

from .arena import ArenaFrozenError, ArenaPool, BufferArena
from .plan import (
    Plan,
    PlanVerificationError,
    ShapeError,
    UnsupportedModuleError,
    compile_plan,
)
from .fleet import (
    AdmissionError,
    CascadeRoute,
    FleetServer,
    FleetTicket,
    ModelRegistry,
    RegistryAuditError,
    ServiceEstimator,
    TenantConfig,
    TokenBucket,
    slo_batch_size,
)
from .traffic import (
    Arrival,
    OpenLoopTraffic,
    TenantLoad,
    TrafficSpec,
    run_soak,
)

__all__ = [
    "ArenaFrozenError",
    "ArenaPool",
    "BufferArena",
    "Plan",
    "PlanVerificationError",
    "ShapeError",
    "UnsupportedModuleError",
    "compile_plan",
    "AdmissionError",
    "CascadeRoute",
    "FleetServer",
    "FleetTicket",
    "ModelRegistry",
    "RegistryAuditError",
    "ServiceEstimator",
    "TenantConfig",
    "TokenBucket",
    "slo_batch_size",
    "Arrival",
    "OpenLoopTraffic",
    "TenantLoad",
    "TrafficSpec",
    "run_soak",
]
