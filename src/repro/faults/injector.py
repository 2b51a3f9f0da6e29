"""Seeded fault injection for the federated/mobile simulation.

The paper's Sec. II-B setting assumes an "unstable connection between
mobile devices and the server": clients drop out mid-round, straggle,
lose uploads on a flaky radio, push corrupted or stale updates, and
disappear behind metered-link policy windows.  This module models all of
those failure modes as *pure functions of a seed and a coordinate*
``(round, client, attempt)`` — no hidden generator state — so that

* the exact same fault schedule replays under the same seed,
* checkpoint/resume reproduces an uninterrupted run bit-for-bit (no
  generator to fast-forward), and
* every chaos test is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .keystream import keyed_uniforms

__all__ = ["FaultSpec", "FaultInjector", "SimulatedClock", "corrupt_state"]

# Stable small integers namespacing the per-decision generators; order is
# part of the on-disk schedule contract, so append only.
_TAGS = {
    "dropout": 1,
    "straggler": 2,
    "upload": 3,
    "corrupt": 4,
    "stale": 5,
    "corrupt_values": 6,
}


@dataclass(frozen=True)
class FaultSpec:
    """Rates and shapes of every supported failure model.

    All rates are per *attempt* probabilities in [0, 1]; retry policies in
    :class:`repro.federated.RobustnessPolicy` decide how many attempts a
    client gets.
    """

    dropout_rate: float = 0.0          # client vanishes after download
    straggler_rate: float = 0.0        # attempt draws a slow-compute factor
    straggler_scale: float = 4.0       # mean extra slowdown for stragglers
    upload_loss_rate: float = 0.0      # link dies mid-upload
    corruption_rate: float = 0.0       # delivered update has garbage values
    stale_rate: float = 0.0            # update was computed on an old state
    max_injected_staleness: int = 2    # upper bound on injected version lag
    link_down_period_s: float = 0.0    # metered-link window cadence (0: never)
    link_down_duration_s: float = 0.0  # unavailability at each window start

    def __post_init__(self):
        for name in ("dropout_rate", "straggler_rate", "upload_loss_rate",
                     "corruption_rate", "stale_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError("{} must be in [0, 1]".format(name))
        if self.max_injected_staleness < 0:
            raise ValueError("max_injected_staleness must be non-negative")
        if self.link_down_duration_s < 0 or self.link_down_period_s < 0:
            raise ValueError("link window durations must be non-negative")
        if (self.link_down_period_s > 0
                and self.link_down_duration_s >= self.link_down_period_s):
            raise ValueError("link_down_duration_s must be shorter than the period")

    def scaled(self, factor):
        """A copy with every rate multiplied by ``factor`` (clipped to 1)."""
        clip = lambda r: float(min(max(r * factor, 0.0), 1.0))
        return replace(
            self,
            dropout_rate=clip(self.dropout_rate),
            straggler_rate=clip(self.straggler_rate),
            upload_loss_rate=clip(self.upload_loss_rate),
            corruption_rate=clip(self.corruption_rate),
            stale_rate=clip(self.stale_rate),
        )


class SimulatedClock:
    """Monotonic simulated time; the robustness layer never reads wall time.

    Calling the clock returns ``now``, so it drops in wherever a
    zero-argument time source such as ``time.monotonic`` is expected
    (the serving fleet, its token buckets).
    """

    def __init__(self, start=0.0):
        self.now = float(start)

    def advance(self, seconds):
        if seconds < 0:
            raise ValueError("cannot advance the clock backwards")
        self.now += float(seconds)
        return self.now

    def __call__(self):
        return self.now


def corrupt_state(state, rng, fraction=0.05):
    """A corrupted *copy* of a state dict: NaNs splattered over each array.

    At least one coordinate per array is hit so server-side validation is
    guaranteed to notice.
    """
    corrupted = {}
    for name, value in state.items():
        value = np.array(value, copy=True)
        flat = value.reshape(-1)
        count = max(1, int(round(fraction * flat.size)))
        picks = rng.choice(flat.size, size=min(count, flat.size), replace=False)
        flat[picks] = np.nan
        corrupted[name] = value
    return corrupted


class FaultInjector:
    """Deterministic oracle answering "does fault X hit at (round, client, attempt)?".

    Every query derives a fresh :func:`numpy.random.default_rng` from
    ``(seed, tag, round, client, attempt)``, so answers are independent of
    query order and of one another — the whole schedule is fixed the moment
    the seed is.

    Every oracle also has a vectorized twin (``drops_out_array``,
    ``straggler_factor_array``, ...) answering for a whole array of
    clients at once via :mod:`repro.faults.keystream` — the exact same
    keyed streams evaluated as array ops, bit-identical to the scalar
    path at every overlapping ``(round, client, attempt)`` coordinate.
    To keep that identity cheap, the value-bearing oracles transform
    *uniform* draws from the keyed stream (inverse-CDF exponential for
    stragglers, scaled-floor for staleness lag) instead of calling
    distribution methods whose rejection samplers cannot be replayed as
    array ops.
    """

    def __init__(self, spec=None, seed=0):
        self.spec = spec or FaultSpec()
        self.seed = int(seed)

    def _rng(self, tag, round_index, client_id, attempt):
        return np.random.default_rng(
            (self.seed, _TAGS[tag], int(round_index), int(client_id), int(attempt))
        )

    def _hit(self, tag, rate, round_index, client_id, attempt):
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        return bool(self._rng(tag, round_index, client_id, attempt).random() < rate)

    # ------------------------------------------------------------------
    # Per-attempt failure decisions
    # ------------------------------------------------------------------
    def drops_out(self, round_index, client_id, attempt=0):
        """Client goes dark after downloading the model."""
        return self._hit("dropout", self.spec.dropout_rate,
                         round_index, client_id, attempt)

    def straggler_factor(self, round_index, client_id, attempt=0):
        """Multiplier on the client's nominal compute time (1.0 = on time).

        Draw 1 of the keyed stream is the hit coin, draw 2 feeds the
        inverse-CDF exponential — the same two uniforms (and the same
        float64 arithmetic) the vectorized twin consumes, which is what
        makes the two paths bit-identical.
        """
        rate = self.spec.straggler_rate
        if rate <= 0.0:
            return 1.0
        rng = self._rng("straggler", round_index, client_id, attempt)
        coin = rng.random()
        if rate < 1.0 and coin >= rate:
            return 1.0
        return 1.0 + self.spec.straggler_scale * float(-np.log1p(-rng.random()))

    def upload_lost(self, round_index, client_id, attempt=0):
        """Link drops mid-upload; the bytes are spent but never arrive."""
        return self._hit("upload", self.spec.upload_loss_rate,
                         round_index, client_id, attempt)

    def corrupts(self, round_index, client_id, attempt=0):
        """Delivered update carries corrupted values."""
        return self._hit("corrupt", self.spec.corruption_rate,
                         round_index, client_id, attempt)

    def staleness(self, round_index, client_id, attempt=0):
        """Version lag of the state the client trained against (0 = fresh).

        Uniform on ``1..max_injected_staleness`` via a scaled floor of
        draw 2 (draw 1 is the hit coin) — see :meth:`straggler_factor`
        for why the transform is spelled out in uniforms.
        """
        rate = self.spec.stale_rate
        max_lag = self.spec.max_injected_staleness
        if rate <= 0.0 or max_lag <= 0:
            return 0
        rng = self._rng("stale", round_index, client_id, attempt)
        coin = rng.random()
        if rate < 1.0 and coin >= rate:
            return 0
        return 1 + min(int(rng.random() * max_lag), max_lag - 1)

    def corrupt(self, state, round_index, client_id, attempt=0):
        """Corrupted copy of ``state`` (see :func:`corrupt_state`)."""
        rng = self._rng("corrupt_values", round_index, client_id, attempt)
        return corrupt_state(state, rng)

    # ------------------------------------------------------------------
    # Vectorized oracle twins: whole-fleet arrays from the same keyed
    # streams (bit-identical to the scalar methods element by element).
    # ------------------------------------------------------------------
    def _keyed_uniforms(self, tag, round_index, client_ids, attempt, ndraws):
        """First ``ndraws`` uniforms of every client's keyed stream."""
        return keyed_uniforms(
            [self.seed, _TAGS[tag], int(round_index),
             np.asarray(client_ids), int(attempt)],
            ndraws)

    def _hit_array(self, tag, rate, round_index, client_ids, attempt):
        ids = np.asarray(client_ids)
        if rate <= 0.0:
            return np.zeros(ids.shape, dtype=bool)
        if rate >= 1.0:
            return np.ones(ids.shape, dtype=bool)
        (coin,) = self._keyed_uniforms(tag, round_index, ids, attempt, 1)
        return coin < rate

    def drops_out_array(self, round_index, client_ids, attempt=0):
        """Boolean dropout mask over ``client_ids`` (see :meth:`drops_out`)."""
        return self._hit_array("dropout", self.spec.dropout_rate,
                               round_index, client_ids, attempt)

    def upload_lost_array(self, round_index, client_ids, attempt=0):
        """Boolean mid-upload-loss mask (see :meth:`upload_lost`)."""
        return self._hit_array("upload", self.spec.upload_loss_rate,
                               round_index, client_ids, attempt)

    def corrupts_array(self, round_index, client_ids, attempt=0):
        """Boolean corrupted-update mask (see :meth:`corrupts`)."""
        return self._hit_array("corrupt", self.spec.corruption_rate,
                               round_index, client_ids, attempt)

    def straggler_factor_array(self, round_index, client_ids, attempt=0):
        """Compute-time multipliers for every client (1.0 = on time)."""
        ids = np.asarray(client_ids)
        rate = self.spec.straggler_rate
        if rate <= 0.0:
            return np.ones(ids.shape)
        coin, value = self._keyed_uniforms("straggler", round_index, ids,
                                           attempt, 2)
        factors = 1.0 + self.spec.straggler_scale * -np.log1p(-value)
        if rate >= 1.0:
            return factors
        return np.where(coin < rate, factors, 1.0)

    def staleness_array(self, round_index, client_ids, attempt=0):
        """Injected version lags for every client (0 = fresh)."""
        ids = np.asarray(client_ids)
        rate = self.spec.stale_rate
        max_lag = self.spec.max_injected_staleness
        if rate <= 0.0 or max_lag <= 0:
            return np.zeros(ids.shape, dtype=np.int64)
        coin, value = self._keyed_uniforms("stale", round_index, ids,
                                           attempt, 2)
        lags = 1 + np.minimum((value * max_lag).astype(np.int64),
                              max_lag - 1)
        if rate >= 1.0:
            return lags
        return np.where(coin < rate, lags, 0)

    def schedule_array(self, num_rounds, client_ids, attempts=1):
        """The full fault schedule as dense arrays (the batch
        counterpart of :meth:`schedule`).

        Returns a dict of arrays shaped ``(num_rounds, len(client_ids),
        attempts)`` keyed exactly like one :meth:`schedule` cell; rounds
        are 1-based like everywhere else.  Pure oracle readout — calling
        it changes nothing.
        """
        ids = np.asarray(client_ids)
        names = ("dropout", "straggler_factor", "upload_lost", "corrupt",
                 "staleness")
        oracles = (self.drops_out_array, self.straggler_factor_array,
                   self.upload_lost_array, self.corrupts_array,
                   self.staleness_array)
        table = {}
        for name, oracle in zip(names, oracles):
            planes = [
                [oracle(round_index, ids, attempt)
                 for attempt in range(attempts)]
                for round_index in range(1, num_rounds + 1)
            ]
            table[name] = np.stack([np.stack(row, axis=-1)
                                    for row in planes])
        return table

    # ------------------------------------------------------------------
    # Link availability windows
    # ------------------------------------------------------------------
    def link_available(self, at_seconds):
        """Whether the uplink is usable at simulated time ``at_seconds``.

        The link goes down for ``link_down_duration_s`` at the start of
        every ``link_down_period_s`` window — a deterministic stand-in for
        metered-link policy windows.
        """
        period = self.spec.link_down_period_s
        if period <= 0.0:
            return True
        return (float(at_seconds) % period) >= self.spec.link_down_duration_s

    def link_available_array(self, at_seconds):
        """Vectorized :meth:`link_available` over an array of times."""
        times = np.asarray(at_seconds, dtype=float)
        period = self.spec.link_down_period_s
        if period <= 0.0:
            return np.ones(times.shape, dtype=bool)
        return (times % period) >= self.spec.link_down_duration_s

    def schedule(self, num_rounds, client_ids, attempts=1):
        """Materialize the full fault schedule as a nested dict (for tests).

        Purely a readout of the deterministic oracle; calling it does not
        change any subsequent answer.
        """
        table = {}
        for round_index in range(1, num_rounds + 1):
            for client_id in client_ids:
                for attempt in range(attempts):
                    table[(round_index, client_id, attempt)] = {
                        "dropout": self.drops_out(round_index, client_id, attempt),
                        "straggler_factor": self.straggler_factor(
                            round_index, client_id, attempt),
                        "upload_lost": self.upload_lost(round_index, client_id, attempt),
                        "corrupt": self.corrupts(round_index, client_id, attempt),
                        "staleness": self.staleness(round_index, client_id, attempt),
                    }
        return table
