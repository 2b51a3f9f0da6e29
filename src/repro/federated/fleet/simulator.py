"""Decision-level fleet simulator: chaos rounds over millions of devices.

:class:`FleetSimulator` drives sampling, the round decision engine, the
two-tier quorum partition, the cohort ledger, and the battery update —
everything the federated system does *except* actual local training, so
a round over 1M devices costs a handful of array ops.
:class:`repro.federated.FedAvg` trains real clients on the same sampler
and engine, without the edge tier or the battery update.

Determinism: every stochastic input is keyed — sampling by
``(seed, round_index)``, faults by ``(seed, tag, round, client,
attempt)``, the fleet itself by ``(seed)`` at build time — so the
simulator carries no generator state at all.  Checkpoint/resume
(:mod:`repro.federated.fleet.checkpoint`) therefore only needs the
fleet's build key, its ``battery`` column, the ledger, the history, the
clock, and the round counter to be bit-exact.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform

import numpy as np

from ...faults import FaultInjector, SimulatedClock
from ..algorithms import RobustnessPolicy
from ..comm import CommunicationLedger
from .engine import OUTCOME_NAMES, decide_round
from .hierarchy import EdgeTopology, edge_partition
from .sampling import SAMPLING_POLICIES, sample_clients

__all__ = ["FleetSimulator"]

# glibc's mallopt parameter codes (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# The cap of glibc's own dynamic rule on 64-bit, and the largest value
# older glibc accepts: every cohort-sized temporary comes from the heap.
_MMAP_THRESHOLD_BYTES = 32 * 1024 * 1024
# About nine times a 1M-client round's peak temporaries (decide_round
# peaks 27.7 MB above its entry, sample_clients 18.6 MB, in tracemalloc).
_TRIM_THRESHOLD_BYTES = 256 * 1024 * 1024


def _keep_freed_heap():
    """Keep the heap a round frees mapped, so the next round reuses it.

    Otherwise glibc hands a round's freed temporaries back to the kernel
    and the next round faults every page of them in again.  Setting
    either threshold turns off glibc's dynamic adjustment of both, so
    both are set: the trim threshold alone would freeze the mmap
    threshold at 128 KiB, and every cohort-sized array would then be a
    fresh mapping that faults on every round.  A no-op off glibc.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # mallopt returns 0 for a value it refuses (older glibc caps this
    # one at 16 MiB on 32-bit); the trim threshold alone would then pin
    # the mmap threshold at 128 KiB.
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES):
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


class FleetSimulator:
    """Simulate federated rounds over a columnar fleet.

    Parameters mirror the object stack's knobs: ``injector`` for the
    chaos schedule, ``policy`` for retry/timeout/quorum tolerances,
    ``topology`` for the edge tier.  The engine picks its path by cohort
    size (see :mod:`repro.federated.fleet.engine`).  The simulator holds
    no model states, so every injected lag stands.  As in FedAvg, no
    round opens inside a link window: it waits for the link.  An unknown
    ``sampling`` policy or a ``client_fraction`` outside (0, 1] raises
    ``ValueError`` here, not in the first round.

    Constructing a simulator sets glibc's mmap and trim thresholds (32
    and 256 MiB), so the memory one round frees stays mapped and the
    next round reuses it without page faults.  The setting is
    process-wide and lasts for the life of the process: up to 256 MiB
    of freed heap stays mapped instead of going back to the kernel.
    FedAvg and the serving and training runtimes never construct a
    simulator, so they keep glibc's defaults.
    """

    def __init__(self, state, injector=None, policy=None, topology=None,
                 model_bytes=40_000, client_fraction=0.1,
                 sampling="uniform", min_battery=0.2, seed=0):
        _keep_freed_heap()
        self.state = state
        self.injector = injector if injector is not None \
            else FaultInjector(seed=seed)
        self.policy = policy or RobustnessPolicy()
        self.topology = topology or EdgeTopology(num_edges=state.num_edges)
        if self.topology.num_edges != state.num_edges:
            raise ValueError(
                "topology has {} edges but the fleet was built with "
                "{}".format(self.topology.num_edges, state.num_edges))
        if sampling not in SAMPLING_POLICIES:
            raise ValueError(
                "unknown sampling policy {!r}; pick one of {}".format(
                    sampling, SAMPLING_POLICIES))
        if not 0.0 < client_fraction <= 1.0:
            raise ValueError("client_fraction must be in (0, 1]")
        self.model_bytes = int(model_bytes)
        self.client_fraction = float(client_fraction)
        self.sampling = sampling
        self.min_battery = float(min_battery)
        self.seed = int(seed)
        self.clock = SimulatedClock()
        self.ledger = CommunicationLedger()
        self.history = []
        self.round_index = 0

    # ------------------------------------------------------------------
    # Round loop
    # ------------------------------------------------------------------
    def run_round(self):
        """Advance one round; returns the round's summary dict.

        ``round_index`` moves only once the round is recorded.
        """
        round_index = self.round_index + 1
        rows = sample_clients(self.state, round_index,
                              self.client_fraction, policy=self.sampling,
                              seed=self.seed, min_battery=self.min_battery)
        opens = self.injector.link_opens_at(self.clock.now)
        decisions = decide_round(
            self.state, self.injector, self.policy, round_index,
            rows, model_bytes=self.model_bytes, clock_start=opens)
        summary = edge_partition(decisions, self.state.edge[rows],
                                 self.topology, self.model_bytes,
                                 min_survivors=self.policy.min_quorum)
        args, kwargs = summary.ledger_args()
        self.ledger.record_cohort_round(*args, **kwargs)
        self.state.apply_round(rows)
        self.clock.now = opens
        self.clock.advance(decisions.duration)
        outcomes = np.bincount(decisions.outcome,
                               minlength=len(OUTCOME_NAMES))
        selected = decisions.num_selected
        survived = decisions.num_survived
        record = {
            "round": round_index,
            "selected": selected,
            "survived": survived,
            "dropout_fraction": (1.0 - survived / selected) if selected
            else 0.0,
            "committed_edges": int(summary.committed.sum()),
            "cloud_commit": bool(summary.cloud_commit),
            "sent_bytes": summary.sent_bytes,
            "wasted_bytes": int(summary.wasted.sum()),
            "duration_s": decisions.duration,
            "outcomes": {name: int(count) for name, count
                         in zip(OUTCOME_NAMES, outcomes)},
        }
        self.history.append(record)
        self.round_index = round_index
        return record

    def run(self, num_rounds, checkpoint_path=None, checkpoint_every=1,
            resume=False):
        """Run until ``num_rounds`` rounds have completed (absolute count).

        With ``checkpoint_path`` set, a streaming snapshot is written
        every ``checkpoint_every`` completed rounds; ``resume=True``
        restores it first and reproduces the uninterrupted run
        bit-for-bit.  A ``checkpoint_every`` below 1 raises
        ``ValueError`` before any round runs.
        """
        from .checkpoint import load_fleet_checkpoint, save_fleet_checkpoint

        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be at least 1")
        if resume and checkpoint_path and os.path.exists(checkpoint_path):
            load_fleet_checkpoint(checkpoint_path, self)
        while self.round_index < num_rounds:
            self.run_round()
            if checkpoint_path and (
                    self.round_index % checkpoint_every == 0
                    or self.round_index == num_rounds):
                save_fleet_checkpoint(checkpoint_path, self)
        return self.history

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def dropout_curve(self):
        """(round, dropout_fraction) arrays over the recorded history."""
        rounds = np.asarray([r["round"] for r in self.history],
                            dtype=np.int64)
        fractions = np.asarray([r["dropout_fraction"]
                                for r in self.history])
        return rounds, fractions

    def wasted_curve(self):
        """(round, wasted/sent fraction) arrays over the history."""
        rounds = np.asarray([r["round"] for r in self.history],
                            dtype=np.int64)
        fractions = np.asarray([
            r["wasted_bytes"] / r["sent_bytes"] if r["sent_bytes"] else 0.0
            for r in self.history])
        return rounds, fractions

    def fingerprint(self):
        """SHA-256 over columns, ledger, clock, and history.

        Two simulators with equal fingerprints will produce identical
        futures (every remaining input is keyed), which is the resume
        test's oracle.
        """
        digest = hashlib.sha256()
        digest.update(self.state.fingerprint().encode())
        digest.update(json.dumps(self.ledger.to_dict(),
                                 sort_keys=True).encode())
        digest.update(json.dumps(self.history, sort_keys=True).encode())
        digest.update("{}:{!r}".format(self.round_index,
                                       self.clock.now).encode())
        return digest.hexdigest()
