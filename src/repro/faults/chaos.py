"""Chaos harness: random-but-seeded fault schedules for property sweeps.

``random_fault_spec(seed)`` draws one plausible mobile-fleet failure mix;
sweeping seeds 0..N gives a family of schedules for the chaos tests
(`tests/test_federated_chaos.py`) and `make chaos-check`.  Rates are
bounded so a quorum-based FedAvg run is still expected to converge —
chaos should stress the robustness policies, not make progress impossible.
"""

from __future__ import annotations

from ..rng import derive_rng
from .injector import FaultInjector, FaultSpec

__all__ = ["random_fault_spec", "chaos_injector"]


def random_fault_spec(seed, max_dropout=0.4, max_straggler=0.4,
                      max_upload_loss=0.3, max_corruption=0.25,
                      max_stale=0.25):
    """One random :class:`FaultSpec`, fully determined by ``seed``."""
    # Namespaced away from the injector's own (seed, tag, ...) keys and
    # from every other keyed family (see repro.rng.NAMESPACES).
    rng = derive_rng(seed, "chaos-spec")
    windowed = rng.random() < 0.5
    period = float(rng.uniform(20.0, 90.0)) if windowed else 0.0
    return FaultSpec(
        dropout_rate=float(rng.uniform(0.0, max_dropout)),
        straggler_rate=float(rng.uniform(0.0, max_straggler)),
        straggler_scale=float(rng.uniform(1.0, 8.0)),
        upload_loss_rate=float(rng.uniform(0.0, max_upload_loss)),
        corruption_rate=float(rng.uniform(0.0, max_corruption)),
        stale_rate=float(rng.uniform(0.0, max_stale)),
        max_injected_staleness=int(rng.integers(1, 4)),
        link_down_period_s=period,
        link_down_duration_s=(
            float(rng.uniform(0.05, 0.15) * period) if windowed else 0.0
        ),
    )


def chaos_injector(seed, **spec_bounds):
    """Injector for the ``seed``-th chaos schedule."""
    return FaultInjector(random_fault_spec(seed, **spec_bounds), seed=seed)
