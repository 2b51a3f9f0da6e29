"""Fault injection and chaos testing for the federated/mobile simulation.

* :mod:`repro.faults.injector` — seeded, stateless fault oracles
  (dropout, stragglers, upload loss, corruption, staleness, link
  windows) plus the simulated clock, which the serving fleet also runs
  on;
* :mod:`repro.faults.link` — a :class:`FaultyLink` wrapper with
  availability windows;
* :mod:`repro.faults.chaos` — random-but-seeded fault schedules for the
  chaos sweep.

The matching *robustness* policies (retry/backoff, quorum aggregation,
straggler cutoff, stale rejection, checkpoint/resume) live with the
training loops in :mod:`repro.federated`.
"""

from .injector import FaultInjector, FaultSpec, SimulatedClock, corrupt_state
from .link import FaultyLink
from .chaos import chaos_injector, random_fault_spec, summarize_history

__all__ = [
    "FaultInjector",
    "FaultSpec",
    "SimulatedClock",
    "corrupt_state",
    "FaultyLink",
    "chaos_injector",
    "random_fault_spec",
    "summarize_history",
]
