"""Million-client fleet simulation: streams, engine parity, quorum, resume.

The load-bearing invariants:

* the vectorized keystream replays ``np.random.default_rng(key)``
  bit-for-bit, so the batch fault oracles equal the scalar ones on any
  overlapping (round, client, attempt) grid, and seeds inside its one
  generator block;
* the round engine's two paths, array ops and the per-client loop, are
  bit-identical — outcomes, byte tallies, timelines, lags — on fleets
  <= 256 (tests force a path through ``engine.VECTORIZE_MIN_ROWS``),
  and the batch oracles are asked about exactly the rows the loop asks
  its scalar oracles about;
* the decision hot path runs no per-client Python (line-event counts
  are fleet-size-independent);
* two-tier quorum re-booking conserves bytes: sent == delivered + wasted
  on every commit/abort path, asserted per round in the ledger;
* streaming checkpoints resume bit-exactly with bounded peak memory,
  load only into the fleet built from their key, and rebuild every
  column but ``battery`` from it, so ``build``'s draws are pinned per
  snapshot format;
* fingerprints hash values, not storage widths: a seeded run's
  fingerprint is pinned under every sampling policy;
* the simulator refuses a configuration no round can run, and a round
  that fails changes nothing; it and FedAvg refuse a run interval below
  one round before any round runs;
* on glibc, a simulator's rounds reuse the heap earlier rounds freed
  instead of faulting it back in (counted in a fresh interpreter);
* an hour only narrows who is eligible, never the sampling keys;
* FedAvg samples with the keyed sampler: a round nobody is eligible
  for trains nobody and moves nothing, and a run under the hourly
  eligibility policy resumes bit-exactly;
* FedAvg's fault-injected rounds run on the engine: identical models,
  ledgers and client RNG streams under either engine path, a round
  never opens inside a link window (in the simulator either), and only
  survivors train.
"""

import json
import os
import platform
import subprocess
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import nn
from repro.data import ArrayDataset
from repro.faults import FaultInjector, FaultSpec
from repro.faults.keystream import keyed_uniforms
from repro.federated import (
    CheckpointError,
    CommunicationLedger,
    FedAvg,
    FederatedClient,
    FedSGD,
    ParameterServer,
    RobustnessPolicy,
    RoundTraffic,
)
from repro.federated.checkpoint import CHUNK_BYTES
from repro.federated.fleet import (
    OUT_BLOCKED,
    OUT_CUT,
    OUT_INFEASIBLE,
    OUT_STALE,
    OUT_SUCCESS,
    OUTCOME_NAMES,
    EdgeTopology,
    FleetSimulator,
    FleetState,
    SAMPLING_POLICIES,
    decide_round,
    edge_partition,
    load_fleet_checkpoint,
    sample_clients,
    save_fleet_checkpoint,
)
from repro.federated.fleet import checkpoint as fleet_checkpoint
from repro.federated.fleet import engine
from repro.federated.fleet import simulator as fleet_simulator
from repro.rng import derive_rng
from repro.synth import iid_partition, make_digits
from tests.oracles import schedule, schedule_array

CHAOS = FaultSpec(dropout_rate=0.3, straggler_rate=0.4, straggler_scale=6.0,
                  upload_loss_rate=0.15, corruption_rate=0.1,
                  stale_rate=0.25, max_injected_staleness=4,
                  link_down_period_s=50.0, link_down_duration_s=10.0)
MILD = FaultSpec(dropout_rate=0.1, straggler_rate=0.2, straggler_scale=2.0,
                 upload_loss_rate=0.05, corruption_rate=0.02,
                 stale_rate=0.1, max_injected_staleness=3)


def assert_conserved(ledger):
    """Every recorded round obeys sent == delivered + wasted."""
    assert ledger.rounds
    for traffic in ledger.rounds:
        assert traffic.sent == traffic.delivered + traffic.wasted


@contextmanager
def engine_path(vectorized):
    """Send every round decided in the block down one engine path."""
    saved = engine.VECTORIZE_MIN_ROWS
    engine.VECTORIZE_MIN_ROWS = 0 if vectorized else sys.maxsize
    try:
        yield
    finally:
        engine.VECTORIZE_MIN_ROWS = saved


def decide(vectorized, *args, **kwargs):
    """``decide_round`` on the array path or the per-client loop."""
    with engine_path(vectorized):
        return decide_round(*args, **kwargs)


# ----------------------------------------------------------------------
# Keystream: the vectorized seeding pipeline vs live numpy
# ----------------------------------------------------------------------
# Scalar key words: zero (a word that also pads short keys), one-word
# values, and multi-word values at and past 2**32.
SCALAR_KEY_WORDS = st.one_of(st.just(0), st.integers(1, 2**32 - 1),
                             st.integers(2**32, 2**96))


@st.composite
def key_layouts(draw):
    """A 1-6 component key; at most one position holds an id array.

    Returns ``(key, position)`` with ``position`` None for an all-scalar
    key.  Id arrays may be 0-d, empty or 2-D and of any integer dtype.
    """
    width = draw(st.integers(1, 6))
    key = draw(st.lists(SCALAR_KEY_WORDS, min_size=width, max_size=width))
    position = draw(st.one_of(st.none(), st.integers(0, width - 1)))
    if position is not None:
        key[position] = draw(hnp.arrays(
            draw(st.sampled_from([np.int64, np.uint32, np.uint64])),
            draw(st.sampled_from([(), (0,), (1,), (6,), (2, 3), (0, 4)])),
            elements=st.integers(0, 2**32 - 1)))
    return key, position


class TestKeystream:
    def test_scalar_keys_match_default_rng(self):
        rng = np.random.default_rng(123)
        for _ in range(25):
            width = int(rng.integers(1, 6))
            key = tuple(int(x) for x in rng.integers(0, 2**63, size=width))
            draws = keyed_uniforms(list(key), 4)
            reference = np.random.default_rng(key).random(4)
            got = np.asarray([float(d) for d in draws])
            assert np.array_equal(got, reference), key

    def test_vector_component_matches_per_client_rng(self):
        # Array key components are uint32 coordinates (client ids).
        clients = np.asarray([0, 1, 7, 1000, 2**20, 2**32 - 1])
        key_head = [17, 3, 42]
        draws = keyed_uniforms(key_head + [clients, 1], 3)
        for i, cid in enumerate(clients.tolist()):
            reference = np.random.default_rng(
                tuple(key_head) + (cid, 1)).random(3)
            got = np.asarray([d[i] for d in draws])
            assert np.array_equal(got, reference), cid

    def test_broadcast_shapes(self):
        draws = keyed_uniforms([1, np.arange(5), 0], 2)
        assert len(draws) == 2
        assert all(d.shape == (5,) for d in draws)

    @settings(max_examples=80, deadline=None)
    @given(layout=key_layouts(), ndraws=st.integers(1, 3))
    def test_random_key_layouts_match_default_rng(self, layout, ndraws):
        key, position = layout
        draws = keyed_uniforms(key, ndraws)
        assert len(draws) == ndraws
        if position is None:
            reference = np.random.default_rng(tuple(key)).random(ndraws)
            assert all(np.shape(d) == () for d in draws)
            assert [float(d) for d in draws] == reference.tolist()
            return
        ids = key[position]
        assert all(d.shape == ids.shape for d in draws)
        got = np.stack([d.reshape(-1) for d in draws], axis=-1)
        for i, cid in enumerate(ids.reshape(-1).tolist()):
            element_key = tuple(key[:position]) + (cid,) \
                + tuple(key[position + 1:])
            reference = np.random.default_rng(element_key).random(ndraws)
            assert np.array_equal(got[i], reference), element_key

    def test_one_draw_stream_peaks_below_80_bytes_per_id(self):
        # Seeding works inside the generator's eight uint64 rows (64
        # bytes an id); the id words, the carry and the drawn doubles
        # come on top.  Separate seeding rows would add 28 bytes an id.
        import tracemalloc

        ids = np.arange(100_000)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            keyed_uniforms([7, 3, 11, ids, 0], 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak - base) / ids.size < 80


# ----------------------------------------------------------------------
# Batch fault oracles vs the scalar ones
# ----------------------------------------------------------------------
class TestBatchOracles:
    def test_schedule_array_matches_schedule(self):
        injector = FaultInjector(spec=CHAOS, seed=77)
        rng = np.random.default_rng(5)
        ids = rng.integers(0, 10**6, size=8)
        table = schedule_array(injector, 3, ids, attempts=2)
        scalar = schedule(injector, 3, ids.tolist(), attempts=2)
        for r in range(1, 4):
            for ci, cid in enumerate(ids.tolist()):
                for a in range(2):
                    cell = scalar[(r, cid, a)]
                    assert bool(table["dropout"][r - 1, ci, a]) \
                        == cell["dropout"]
                    assert float(table["straggler_factor"][r - 1, ci, a]) \
                        == cell["straggler_factor"]
                    assert bool(table["upload_lost"][r - 1, ci, a]) \
                        == cell["upload_lost"]
                    assert bool(table["corrupt"][r - 1, ci, a]) \
                        == cell["corrupt"]
                    assert int(table["staleness"][r - 1, ci, a]) \
                        == cell["staleness"]

    def test_oracles_are_pure(self):
        injector = FaultInjector(spec=CHAOS, seed=3)
        ids = np.arange(16)
        first = injector.straggler_factor_array(2, ids, 1)
        injector.drops_out_array(2, ids, 1)
        again = injector.straggler_factor_array(2, ids, 1)
        assert np.array_equal(first, again)

    def test_rate_extremes(self):
        never = FaultInjector(spec=FaultSpec(), seed=1)
        always = FaultInjector(
            spec=FaultSpec(dropout_rate=1.0, straggler_rate=1.0,
                           stale_rate=1.0), seed=1)
        ids = np.arange(64)
        assert not never.drops_out_array(1, ids).any()
        assert (never.straggler_factor_array(1, ids) == 1.0).all()
        assert (never.staleness_array(1, ids) == 0).all()
        assert always.drops_out_array(1, ids).all()
        assert (always.straggler_factor_array(1, ids) > 1.0).all()
        assert (always.staleness_array(1, ids) >= 1).all()

    def test_link_available_array_matches_scalar(self):
        injector = FaultInjector(spec=CHAOS, seed=0)
        times = np.asarray([0.0, 5.0, 9.99, 10.0, 49.9, 50.0, 123.4])
        batch = injector.link_available_array(times)
        for t, b in zip(times.tolist(), batch.tolist()):
            assert injector.link_available(t) == b
        open_link = FaultInjector(spec=FaultSpec(), seed=0)
        assert open_link.link_available_array(times).all()


# ----------------------------------------------------------------------
# Fleet state columns
# ----------------------------------------------------------------------
# Fleet snapshot format -> ``FleetState.build(1000, seed=5, num_edges=4)``'s
# fingerprint.
BUILD_PINS = {
    "fleet-checkpoint-v4":
        "e15504848c29793ad7fd5dd00483ae28f7ce4bce9968398ec43cac1267f09111",
}


class TestFleetState:
    def test_build_is_seed_deterministic(self):
        a = FleetState.build(512, seed=9, num_edges=4)
        b = FleetState.build(512, seed=9, num_edges=4)
        c = FleetState.build(512, seed=10, num_edges=4)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_edges_partition_contiguously(self):
        state = FleetState.build(100, seed=0, num_edges=7)
        assert state.edge.min() == 0 and state.edge.max() == 6
        assert (np.diff(state.edge) >= 0).all()
        assert len(np.unique(state.edge)) == 7

    def test_apply_round_bookkeeping(self):
        state = FleetState.build(10, seed=1)
        rows = np.asarray([2, 5, 7])
        before = state.battery.copy()
        state.apply_round(rows)
        idle = np.setdiff1d(np.arange(10), rows)
        assert (state.battery[idle] >= before[idle]).all()
        assert (state.battery[rows] <= before[rows]).all()
        assert (state.battery >= 0.0).all() and (state.battery <= 1.0).all()

    def test_build_is_pinned_to_the_snapshot_format(self):
        """A fleet snapshot stores the build key and ``battery`` alone and
        rebuilds every other column with ``build``, so ``build`` may
        change its draws only under a new snapshot format tag.  Add a pin
        under the new tag; never edit one."""
        state = FleetState.build(1000, seed=5, num_edges=4)
        assert (state.seed, state.num_clients, state.num_edges) == (5, 1000, 4)
        assert state.fingerprint() == BUILD_PINS[fleet_checkpoint.FORMAT]


# ----------------------------------------------------------------------
# Sampling policies
# ----------------------------------------------------------------------
class TestSampling:
    def test_deterministic_per_round(self):
        state = FleetState.build(2000, seed=4)
        a = sample_clients(state, 3, 0.1, seed=8)
        b = sample_clients(state, 3, 0.1, seed=8)
        c = sample_clients(state, 4, 0.1, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("policy", SAMPLING_POLICIES)
    def test_rows_sorted_unique_eligible(self, policy):
        state = FleetState.build(3000, seed=2)
        rows = sample_clients(state, 1, 0.2, policy=policy, seed=5)
        eligible = state.eligible(0.2)
        count = min(max(1, round(0.2 * int(eligible.sum()))),
                    int(eligible.sum()))
        assert rows.shape[0] == count
        assert (np.diff(rows) > 0).all()
        assert eligible[rows].all()

    def test_battery_aware_prefers_charged_devices(self):
        state = FleetState.build(5000, seed=6)
        uniform = sample_clients(state, 1, 0.1, policy="uniform", seed=7)
        aware = sample_clients(state, 1, 0.1, policy="battery-aware", seed=7)
        assert state.battery[aware].mean() > state.battery[uniform].mean()

    def test_stratified_allocation_is_proportional(self):
        state = FleetState.build(6000, seed=3)
        rows = sample_clients(state, 1, 0.1, policy="stratified-by-link",
                              seed=9)
        eligible = state.eligible(0.2)
        sizes = np.bincount(state.link_tier[eligible], minlength=3)
        got = np.bincount(state.link_tier[rows], minlength=3)
        quota = rows.shape[0] * sizes / sizes.sum()
        # Largest-remainder rounding: within one of the exact quota.
        assert (np.abs(got - quota) <= 1.0).all()
        assert got.sum() == rows.shape[0]

    def test_no_eligible_devices(self):
        state = FleetState.build(50, seed=0)
        state.battery[:] = 0.0
        assert sample_clients(state, 1, 0.5).shape == (0,)

    @pytest.mark.parametrize("hour", [3.0, 13.0, 20.5])
    def test_hour_narrows_eligibility_but_keeps_the_keys(self, hour):
        # With an hour, the picks are still the smallest keys of the
        # round's uniform draw, now among the devices the hour admits.
        state = FleetState.build(400, seed=12)
        for round_index in range(1, 6):
            admitted = sample_clients(state, round_index, 1.0, seed=3,
                                      hour=hour)
            picks = sample_clients(state, round_index, 0.3, seed=3,
                                   hour=hour)
            keys = derive_rng(3, "fleet-sample", round_index).random(400)
            count = min(max(1, round(0.3 * admitted.size)), admitted.size)
            nearest = admitted[np.argsort(keys[admitted])[:count]]
            np.testing.assert_array_equal(picks, np.sort(nearest))

    def test_invalid_arguments(self):
        state = FleetState.build(10, seed=0)
        with pytest.raises(ValueError):
            sample_clients(state, 1, 0.5, policy="round-robin")
        with pytest.raises(ValueError):
            sample_clients(state, 1, 0.0)


# ----------------------------------------------------------------------
# Round engine: array ops vs the per-client loop
# ----------------------------------------------------------------------
ARRAY_FIELDS = ("rows", "client_ids", "outcome", "survived", "lag",
                "attempts", "retries", "up", "down", "wasted", "sent",
                "finish_s")


def assert_decisions_equal(a, b):
    for field in ARRAY_FIELDS:
        left, right = getattr(a, field), getattr(b, field)
        assert left.dtype == right.dtype, field
        assert np.array_equal(left, right), field
    assert a.duration == b.duration


ORACLES = ("straggler_factor", "staleness", "drops_out", "corrupts",
           "upload_lost")


class CountingInjector(FaultInjector):
    """A FaultInjector that logs the client ids each oracle is asked about.

    Scalar and batch twins log under the same oracle name, one entry per
    call, so a round on the array path compares call for call with the
    per-client loop's.
    """

    def __init__(self, spec, seed):
        super().__init__(spec=spec, seed=seed)
        self._log = defaultdict(list)
        for oracle in ORACLES:
            for method in (oracle, oracle + "_array"):
                setattr(self, method,
                        self._counted(oracle, getattr(self, method)))

    def _counted(self, oracle, answer):
        def counted(round_index, client_ids, attempt=0):
            self._log[oracle, attempt].append(
                np.ravel(client_ids).tolist())
            return answer(round_index, client_ids, attempt)
        return counted

    def queries(self):
        """``{(oracle, attempt): [ids asked in each call]}``."""
        return {key: list(calls) for key, calls in self._log.items()}


class TestEngineParity:
    @pytest.mark.parametrize("spec", [FaultSpec(), MILD, CHAOS,
                                      FaultSpec(dropout_rate=0.9,
                                                straggler_rate=0.9,
                                                upload_loss_rate=0.5)])
    @pytest.mark.parametrize("policy", [
        RobustnessPolicy(),
        RobustnessPolicy(max_retries=3, max_staleness=2, timeout_s=60,
                         straggler_cutoff_s=30),
        RobustnessPolicy(max_retries=0),
    ])
    def test_bit_identical_on_small_fleets(self, spec, policy):
        state = FleetState.build(256, seed=11, num_edges=4)
        injector = FaultInjector(spec=spec, seed=21)
        rows = sample_clients(state, 1, 0.7, seed=31)
        # None keeps every injected lag; (0, 1) holds one old broadcast,
        # so a drawn lag of 2 or more counts as fresh.
        for held_lags in (None, (0, 1)):
            vec = decide(True, state, injector, policy, 1, rows,
                         clock_start=12.5, held_lags=held_lags)
            ref = decide(False, state, injector, policy, 1, rows,
                         clock_start=12.5, held_lags=held_lags)
            assert_decisions_equal(vec, ref)
            if held_lags is not None:
                assert set(vec.lag.tolist()) <= set(held_lags)

    def test_bit_identical_with_remapped_client_ids(self):
        state = FleetState.build(64, seed=1)
        injector = FaultInjector(spec=CHAOS, seed=2)
        policy = RobustnessPolicy(max_retries=2, max_staleness=1)
        rows = np.arange(64, dtype=np.int64)
        ids = rows * 1000 + 17
        vec = decide(True, state, injector, policy, 5, rows, client_ids=ids)
        ref = decide(False, state, injector, policy, 5, rows, client_ids=ids)
        assert_decisions_equal(vec, ref)
        assert np.array_equal(vec.client_ids, ids)

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_unheld_lag_counts_as_fresh(self, vectorized):
        # Every attempt draws lag 1; with zero staleness budget the
        # update is rejected unless the server no longer holds that
        # broadcast, in which case the client trained on the current one.
        spec = FaultSpec(stale_rate=1.0, max_injected_staleness=1)
        policy = RobustnessPolicy(max_retries=0, max_staleness=0)
        state = FleetState.build(8, seed=0)
        rows = np.arange(8, dtype=np.int64)
        injector = FaultInjector(spec=spec, seed=0)
        kept = decide(vectorized, state, injector, policy, 1, rows)
        assert (kept.outcome == OUT_STALE).all()
        assert (kept.lag == 1).all()
        fresh = decide(vectorized, state, injector, policy, 1, rows,
                       held_lags=[0])
        assert (fresh.outcome == OUT_SUCCESS).all()
        assert (fresh.lag == 0).all()

    def test_path_follows_cohort_size(self):
        """Below ``VECTORIZE_MIN_ROWS`` rows the engine asks an oracle
        once per row; from there, once per attempt for the whole cohort."""
        state = FleetState.build(64, seed=1)
        for count in (engine.VECTORIZE_MIN_ROWS - 1,
                      engine.VECTORIZE_MIN_ROWS):
            injector = CountingInjector(spec=CHAOS, seed=2)
            decide_round(state, injector, RobustnessPolicy(), 1,
                         np.arange(count), clock_start=12.5)
            calls = injector.queries()["straggler_factor", 0]
            vectorized = count >= engine.VECTORIZE_MIN_ROWS
            assert len(calls) == (1 if vectorized else count)

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_empty_round(self, vectorized):
        state = FleetState.build(16, seed=0)
        injector = FaultInjector(seed=0)
        decisions = decide(vectorized, state, injector, RobustnessPolicy(),
                           1, np.empty(0, dtype=np.int64))
        assert decisions.num_selected == 0
        assert decisions.duration == 0.0

    def test_per_participant_conservation(self):
        state = FleetState.build(20_000, seed=7, num_edges=8)
        injector = FaultInjector(spec=CHAOS, seed=13)
        rows = sample_clients(state, 2, 0.5, seed=3)
        decisions = decide_round(state, injector,
                                 RobustnessPolicy(max_retries=2), 2, rows)
        assert np.array_equal(decisions.sent,
                              decisions.up + decisions.down
                              + decisions.wasted)
        assert (decisions.finish_s >= 0.0).all()
        assert decisions.duration == decisions.finish_s.max()

    def test_infeasible_links(self):
        state = FleetState.build(8, seed=0)
        state.link_bw[:] = 0.0
        decisions = decide_round(state, FaultInjector(seed=0),
                                 RobustnessPolicy(), 1,
                                 np.arange(8, dtype=np.int64))
        assert (decisions.outcome == OUT_INFEASIBLE).all()
        assert decisions.sent.sum() == 0

    def test_blocked_by_link_window(self):
        # Link down for the whole window: every attempt probes and waits.
        spec = FaultSpec(link_down_period_s=1e9,
                         link_down_duration_s=1e9 - 1.0)
        state = FleetState.build(8, seed=0)
        policy = RobustnessPolicy(max_retries=2)
        decisions = decide_round(state, FaultInjector(spec=spec, seed=0),
                                 policy, 1, np.arange(8, dtype=np.int64))
        assert (decisions.outcome == OUT_BLOCKED).all()
        assert (decisions.attempts == policy.max_retries + 1).all()
        assert decisions.sent.sum() == 0

    def test_oracles_see_only_undecided_rows(self):
        """Each batch oracle is asked, once per attempt, about exactly the
        rows the per-client loop asks its scalar oracle about: the pending,
        link-open, feasible rows for straggler and staleness, and only
        rows no earlier stage decided for dropout, corruption and loss."""
        state = FleetState.build(256, seed=11, num_edges=4)
        state.link_bw[::17] = 0.0  # some infeasible devices
        policy = RobustnessPolicy(max_retries=3, max_staleness=1,
                                  timeout_s=80, straggler_cutoff_s=40)
        rows = sample_clients(state, 1, 0.8, seed=31, min_battery=0.0)
        vec_injector = CountingInjector(spec=CHAOS, seed=21)
        ref_injector = CountingInjector(spec=CHAOS, seed=21)
        vec = decide(True, state, vec_injector, policy, 4, rows,
                     clock_start=12.5)
        ref = decide(False, state, ref_injector, policy, 4, rows,
                     clock_start=12.5)
        assert_decisions_equal(vec, ref)
        batch, scalar = vec_injector.queries(), ref_injector.queries()
        assert set(batch) == set(scalar)
        for (oracle, attempt), calls in batch.items():
            assert len(calls) == 1, (oracle, attempt)
            assert calls[0] == [ids[0] for ids in scalar[oracle, attempt]]
        # Independently of the twin: a later attempt asks only devices
        # still pending then, and each stage asks a subset of the last,
        # minus the rows that stage's predecessor decided.
        reference = FaultInjector(spec=CHAOS, seed=21)
        feasible_ids = set(rows[state.link_bw[rows] > 0.0].tolist())
        attempts = dict(zip(rows.tolist(), vec.attempts.tolist()))
        retried = 0
        for attempt in range(policy.max_retries + 1):
            asked = {name: batch.get((name, attempt), [[]])[0]
                     for name in ORACLES}
            assert asked["staleness"] == asked["straggler_factor"]
            assert set(asked["straggler_factor"]) <= feasible_ids
            assert all(attempts[cid] > attempt
                       for cid in asked["straggler_factor"])
            if attempt:
                retried += len(asked["straggler_factor"])
            assert set(asked["drops_out"]) <= set(asked["straggler_factor"])
            for cid in asked["corrupts"]:
                assert cid in asked["drops_out"]
                assert not reference.drops_out(4, cid, attempt)
                assert reference.staleness(4, cid, attempt) \
                    <= policy.max_staleness
            for cid in asked["upload_lost"]:
                assert cid in asked["corrupts"]
                assert not reference.corrupts(4, cid, attempt)
        assert retried > 0
        # Later stages ask strictly fewer rows than the first.
        first = len(batch["straggler_factor", 0][0])
        assert len(batch["upload_lost", 0][0]) < first

    def test_all_cut_round_matches_scalar_twin(self):
        """Every running row is cut, so the dropout, corruption and loss
        oracles are asked about empty subsets — still bit-identical to the
        per-client loop."""
        spec = replace(CHAOS, straggler_rate=1.0)
        policy = RobustnessPolicy(max_retries=2, straggler_cutoff_s=1e-6)
        state = FleetState.build(128, seed=3)
        rows = np.arange(128, dtype=np.int64)
        injector = CountingInjector(spec=spec, seed=5)
        vec = decide(True, state, injector, policy, 2, rows,
                     clock_start=12.5)
        ref = decide(False, state, FaultInjector(spec=spec, seed=5), policy,
                     2, rows, clock_start=12.5)
        assert_decisions_equal(vec, ref)
        assert set(vec.outcome.tolist()) <= {OUT_CUT, OUT_BLOCKED}
        assert (vec.outcome == OUT_CUT).any()
        queries = injector.queries()
        for oracle in ("drops_out", "corrupts", "upload_lost"):
            for attempt in range(policy.max_retries + 1):
                assert queries[oracle, attempt] == [[]]

    def test_hot_path_has_no_per_client_python(self):
        """Line-event counts in repro code are fleet-size-independent."""
        policy = RobustnessPolicy(max_retries=1)
        injector = FaultInjector(spec=MILD, seed=1)

        def count_lines(num_clients):
            state = FleetState.build(num_clients, seed=5)
            rows = np.arange(num_clients, dtype=np.int64)
            counter = {"lines": 0}
            marker = os.path.join("src", "repro")

            def tracer(frame, event, arg):
                if marker in frame.f_code.co_filename:
                    if event == "line":
                        counter["lines"] += 1
                    return tracer
                return None

            sys.settrace(tracer)
            try:
                decide_round(state, injector, policy, 1, rows)
            finally:
                sys.settrace(None)
            return counter["lines"]

        assert count_lines(1000) == count_lines(4000)


# ----------------------------------------------------------------------
# Cohort ledger
# ----------------------------------------------------------------------
class TestCohortLedger:
    def test_cohort_round_accumulates_and_conserves(self):
        ledger = CommunicationLedger()
        up = np.asarray([100, 0, 200], dtype=np.int64)
        down = np.asarray([100, 0, 200], dtype=np.int64)
        wasted = np.asarray([0, 300, 50], dtype=np.int64)
        zeros = np.zeros(3, dtype=np.int64)
        ledger.record_cohort_round(up, down, wasted, zeros + 1, zeros,
                                   edge_up=40, edge_down=60)
        assert ledger.uplink_bytes == 300
        assert ledger.downlink_bytes == 300
        assert ledger.wasted_bytes == 350
        assert ledger.edge_bytes == 100
        assert ledger.retries == 3
        assert ledger.rounds == [RoundTraffic(300, 300, 350, 3, 0, 40, 60)]
        assert_conserved(ledger)

    def test_cohort_validation(self):
        ledger = CommunicationLedger()
        good = np.ones(3, dtype=np.int64)
        with pytest.raises(ValueError):
            ledger.record_cohort_round(good, good, good, good,
                                       np.ones(2, dtype=np.int64))
        with pytest.raises(ValueError):
            ledger.record_cohort_round(good, good, good, good,
                                       np.ones((3, 1), dtype=np.int64))

    def test_roundtrip_with_cohorts(self):
        ledger = CommunicationLedger()
        cols = [np.asarray([5, 7], dtype=np.int64) for _ in range(5)]
        ledger.record_cohort_round(*cols, edge_up=11, edge_down=13)
        restored = CommunicationLedger.from_dict(ledger.to_dict())
        assert restored.to_dict() == ledger.to_dict()
        assert restored.rounds == [RoundTraffic(12, 12, 12, 12, 12, 11, 13)]
        assert restored.edge_uplink_bytes == 11

    def test_legacy_payload_without_cohorts_loads(self):
        legacy = {
            "uplink_bytes": 10, "downlink_bytes": 20, "wasted_bytes": 5,
            "retries": 1, "aborts": 0,
            "rounds": [[10, 20, 5, 1, 0]],
        }
        ledger = CommunicationLedger.from_dict(legacy)
        assert ledger.total_bytes == 30
        assert ledger.edge_bytes == 0
        assert ledger.rounds[0].sent == 35


# ----------------------------------------------------------------------
# Two-tier quorum aggregation
# ----------------------------------------------------------------------
def run_partition(edge_quorum=1, cloud_quorum=1, min_survivors=1,
                  spec=MILD, num_edges=4):
    state = FleetState.build(512, seed=17, num_edges=num_edges)
    injector = FaultInjector(spec=spec, seed=23)
    rows = sample_clients(state, 1, 0.5, seed=29)
    decisions = decide_round(state, injector,
                             RobustnessPolicy(max_retries=1), 1, rows)
    topology = EdgeTopology(num_edges=num_edges, edge_quorum=edge_quorum,
                            cloud_quorum=cloud_quorum)
    summary = edge_partition(decisions, state.edge[rows], topology,
                             40_000, min_survivors=min_survivors)
    return decisions, summary


def summary_conserved(summary):
    delivered = int(summary.up.sum() + summary.down.sum()
                    + summary.edge_up + summary.edge_down)
    return summary.sent_bytes == delivered + int(summary.wasted.sum())


class TestHierarchy:
    def test_commit_path_conserves(self):
        decisions, summary = run_partition()
        assert summary.cloud_commit
        assert summary_conserved(summary)
        assert summary.survivors.sum() == decisions.num_survived
        assert summary.participants.sum() == decisions.num_selected
        # Tier-2: one broadcast per participating edge, one upload per
        # committed edge.
        participating = summary.participants > 0
        assert summary.edge_down == 40_000 * int(participating.sum())
        assert summary.edge_up == 40_000 * int(summary.committed.sum())

    def test_edge_quorum_failure_rebooks_bytes(self):
        baseline, committed_summary = run_partition(edge_quorum=1)
        _, summary = run_partition(edge_quorum=10**6)
        assert not summary.committed.any()
        assert not summary.cloud_commit
        assert (summary.up == 0).all() and (summary.down == 0).all()
        assert summary_conserved(summary)
        # Nothing disappeared: the failed round's sent total counts the
        # same client traffic plus the edge broadcasts.
        assert summary.sent_bytes >= int(baseline.sent.sum())
        assert summary.aborts.sum() == (summary.participants > 0).sum()

    def test_cloud_abort_wastes_everything(self):
        _, summary = run_partition(cloud_quorum=10**6)
        assert not summary.cloud_commit
        assert not summary.committed.any()
        assert summary.edge_up == 0 and summary.edge_down == 0
        assert (summary.up == 0).all() and (summary.down == 0).all()
        assert summary_conserved(summary)
        assert summary.wasted.sum() == summary.sent_bytes

    def test_min_survivors_gates_cloud_commit(self):
        _, summary = run_partition(min_survivors=10**6)
        assert not summary.cloud_commit
        assert summary_conserved(summary)

    def test_ledger_args_round_trips_through_ledger(self):
        _, summary = run_partition()
        ledger = CommunicationLedger()
        args, kwargs = summary.ledger_args()
        ledger.record_cohort_round(*args, **kwargs)
        assert_conserved(ledger)
        assert ledger.rounds[0].sent == summary.sent_bytes

    def test_edge_alignment_validation(self):
        decisions, _ = run_partition()
        with pytest.raises(ValueError):
            edge_partition(decisions, np.zeros(3, dtype=np.int64),
                           EdgeTopology(num_edges=2), 100)
        bad_edges = np.full(decisions.rows.shape, 9, dtype=np.int64)
        with pytest.raises(ValueError):
            edge_partition(decisions, bad_edges,
                           EdgeTopology(num_edges=2), 100)


# ----------------------------------------------------------------------
# Decision-level simulator
# ----------------------------------------------------------------------
# ``TestFleetSimulator.make()``'s fingerprint after each of its first
# four rounds under each sampling policy.  Fingerprints hash every
# column widened to 64 bits, so these hold at any storage width, and
# any change to a simulated value breaks them.  They were computed
# with the code from before the fleet dropped its seven write-only
# columns and the ledger its per-edge totals, by hashing that code's
# eight kept columns and ledger as the fingerprint now does.
PINNED_FINGERPRINTS = {
    "uniform": (
        "ad35d80d7994266d6747ebf7c9150946c41ec4372b834cf02eb9e0704f2b4996",
        "140cc7944fea0f037ad63e63bf5927a3291b5433373877e40fc72f340d4806c3",
        "f666527ebe19c0c098e298509472c2dfe850f689ddce78e5f483e106bdfd6a67",
        "9a64f5358605c2d5084e7833a3e81b9153a169a60a3f414a67d68e1303ab1bd0"),
    "battery-aware": (
        "e9f12d9c794722341c6d1bc35b440204363994b91bfa97878cab4ddaab89a31f",
        "22ed9b4243f2002d52d7cd7a084d40a6dde2c834db3da0ac62ae9555ee9f116f",
        "9bab7976c2276120e8abd75e13b20884b821d9fc66eab9fb48bfcdd74305f4a5",
        "edd029739c9fd751c62e038149f144133c061693227f73965e6f94e0a58013b1"),
    "stratified-by-link": (
        "f43b8a31cab09f04e5d19fe03032a1ac80482d83d9b65d883d7ffe830fbb094c",
        "5c0aa5c20fa3f5e3cf694bc942ffea41651c3a0886140ed5648fcea6866eb972",
        "5e740f063b030223b7141b16cac18e627b9692169c86fd6c7c35fc6f2113a156",
        "efecb5d31618cd78a05a2a79ce55d305df27fed878acd1ba20924df5125b75a4"),
}


# Minor page faults of each of ten rounds at 100k clients, counted in a
# fresh interpreter: glibc's thresholds in this one depend on which
# tests ran first.
ROUND_FAULTS_SCRIPT = """
import json, resource, sys
sys.path.insert(0, {src!r})
from repro.faults import FaultInjector, FaultSpec
from repro.federated import RobustnessPolicy
from repro.federated.fleet import FleetSimulator, FleetState

sim = FleetSimulator(FleetState.build(100_000, seed=5, num_edges=16),
                     injector=FaultInjector(FaultSpec(**{spec!r}), seed=2),
                     policy=RobustnessPolicy(max_retries=1),
                     client_fraction=0.1, seed=4)
faults = []
for _ in range(10):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    sim.run_round()
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""
# A tenth of the 731 faults a round the script counted while glibc gave
# each round's freed temporaries back to the kernel (5 once they stay).
MAX_ROUND_FAULTS = 73


class TestFleetSimulator:
    def make(self, num_clients=4096, seed=41, sampling="uniform"):
        state = FleetState.build(num_clients, seed=seed, num_edges=8)
        return FleetSimulator(
            state, injector=FaultInjector(spec=CHAOS, seed=43),
            policy=RobustnessPolicy(max_retries=1, max_staleness=2,
                                    min_quorum=2),
            topology=EdgeTopology(num_edges=8, edge_quorum=2),
            client_fraction=0.1, sampling=sampling, seed=47)

    def test_rounds_record_history_and_conserve(self):
        sim = self.make()
        records = sim.run(4)
        assert [r["round"] for r in records] == [1, 2, 3, 4]
        assert_conserved(sim.ledger)
        for record in records:
            assert 0.0 <= record["dropout_fraction"] <= 1.0
            assert sum(record["outcomes"].values()) == record["selected"]
            assert set(record["outcomes"]) == set(OUTCOME_NAMES)

    def test_same_config_same_fingerprint(self):
        a, b = self.make(), self.make()
        a.run(3), b.run(3)
        assert a.fingerprint() == b.fingerprint()

    @pytest.mark.parametrize("policy", SAMPLING_POLICIES)
    def test_fingerprints_are_pinned(self, policy):
        sim = self.make(sampling=policy)
        fingerprints = []
        for _ in PINNED_FINGERPRINTS[policy]:
            sim.run_round()
            fingerprints.append(sim.fingerprint())
        assert tuple(fingerprints) == PINNED_FINGERPRINTS[policy]

    def test_scalar_engine_matches_vectorized(self):
        # About 25 devices a round: close to the path threshold, so each
        # run is forced down one path for every round.
        vec, ref = self.make(num_clients=256), self.make(num_clients=256)
        with engine_path(vectorized=True):
            vec.run(3)
        with engine_path(vectorized=False):
            ref.run(3)
        assert vec.fingerprint() == ref.fingerprint()
        assert vec.ledger.to_dict() == ref.ledger.to_dict()

    def test_curves(self):
        sim = self.make()
        sim.run(3)
        rounds, dropout = sim.dropout_curve()
        _, wasted = sim.wasted_curve()
        assert rounds.tolist() == [1, 2, 3]
        assert ((dropout >= 0.0) & (dropout <= 1.0)).all()
        assert ((wasted >= 0.0) & (wasted <= 1.0)).all()

    def test_topology_mismatch_rejected(self):
        state = FleetState.build(64, seed=0, num_edges=4)
        with pytest.raises(ValueError):
            FleetSimulator(state, topology=EdgeTopology(num_edges=2))

    @pytest.mark.parametrize("config", [
        {"sampling": "round-robin"}, {"client_fraction": 0.0},
        {"client_fraction": 1.5}])
    def test_constructor_refuses_what_no_round_can_run(self, config):
        with pytest.raises(ValueError):
            FleetSimulator(FleetState.build(64, seed=0), **config)

    def test_a_failed_round_changes_nothing(self, monkeypatch):
        sim = self.make(num_clients=256)
        sim.run(2)
        before = sim.fingerprint()

        def refuse(*args, **kwargs):
            raise RuntimeError("edge tier down")

        monkeypatch.setattr(fleet_simulator, "edge_partition", refuse)
        with pytest.raises(RuntimeError):
            sim.run_round()
        assert sim.fingerprint() == before

    def test_round_opening_in_a_link_window_waits_for_it(self):
        # The clock starts inside a 300 s window and no device may retry:
        # the round commits only if it opens after the window.
        spec = FaultSpec(link_down_period_s=1000.0,
                         link_down_duration_s=300.0)
        sim = FleetSimulator(FleetState.build(4, seed=0),
                             injector=FaultInjector(spec, seed=0),
                             policy=RobustnessPolicy(max_retries=0),
                             client_fraction=1.0, min_battery=0.0)
        record = sim.run_round()
        assert record["cloud_commit"]
        assert record["survived"] == 4
        assert sim.clock.now > 300.0

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the simulator tunes glibc's malloc")
    def test_rounds_reuse_the_heap_they_free(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        script = ROUND_FAULTS_SCRIPT.format(
            src=os.path.join(root, "src"), spec=asdict(MILD))
        done = subprocess.run([sys.executable, "-c", script], cwd=root,
                              capture_output=True, text=True, check=True)
        faults = json.loads(done.stdout.strip().splitlines()[-1])
        # Rounds 4-10: the heap has grown to a round's temporaries.
        assert np.median(faults[3:]) < MAX_ROUND_FAULTS, faults


# ----------------------------------------------------------------------
# Streaming checkpoints
# ----------------------------------------------------------------------
class TestStreamingCheckpoint:
    def make(self, num_clients=20_000, seed=5):
        state = FleetState.build(num_clients, seed=seed, num_edges=16)
        return FleetSimulator(
            state, injector=FaultInjector(spec=MILD, seed=2),
            policy=RobustnessPolicy(max_retries=1),
            topology=EdgeTopology(num_edges=16, edge_quorum=2),
            client_fraction=0.1, seed=4)

    def test_kill_resume_is_bit_exact(self, tmp_path):
        path = str(tmp_path / "fleet.ckpt")
        reference = self.make()
        reference.run(6)
        interrupted = self.make()
        interrupted.run(3, checkpoint_path=path)
        resumed = self.make()
        resumed.run(6, checkpoint_path=path, resume=True)
        assert resumed.fingerprint() == reference.fingerprint()
        assert resumed.ledger.to_dict() == reference.ledger.to_dict()

    def test_lags_past_int32_run_and_resume_bit_exactly(self, tmp_path):
        # A legal spec whose lags are uniform on 1..2**32: the fleet
        # keeps no lag, so every one the injector draws runs.
        spec = FaultSpec(stale_rate=1.0, max_injected_staleness=2**32)

        def make():
            return FleetSimulator(FleetState.build(200, seed=3),
                                  injector=FaultInjector(spec, seed=5),
                                  policy=RobustnessPolicy(max_retries=0),
                                  client_fraction=0.5, seed=7)

        path = str(tmp_path / "fleet.ckpt")
        reference = make()
        reference.run(4)
        make().run(2, checkpoint_path=path)
        resumed = make()
        resumed.run(4, checkpoint_path=path, resume=True)
        assert resumed.fingerprint() == reference.fingerprint()
        for record in reference.history:
            assert record["outcomes"]["stale_rejected"] == record["selected"]

    def test_mismatched_fleet_rejected(self, tmp_path):
        path = str(tmp_path / "fleet.ckpt")
        self.make().run(1, checkpoint_path=path)
        other = self.make(num_clients=1000)
        with pytest.raises(ValueError):
            load_fleet_checkpoint(path, other)
        # Same size and edges, another seed: other devices entirely.
        reseeded = self.make(seed=6)
        reseeded.run(1)
        before = reseeded.fingerprint()
        with pytest.raises(CheckpointError) as caught:
            load_fleet_checkpoint(path, reseeded)
        assert "seed" in str(caught.value)
        assert reseeded.fingerprint() == before

    def test_kill_resume_at_100k_with_bounded_memory(self, tmp_path):
        import tracemalloc

        path = str(tmp_path / "fleet.ckpt")
        sim = self.make(num_clients=100_000)
        sim.run(2)
        fleet_bytes = sim.state.memory_bytes()
        tracemalloc.start()
        tracemalloc.reset_peak()
        save_base, _ = tracemalloc.get_traced_memory()
        save_fleet_checkpoint(path, sim)
        _, save_high = tracemalloc.get_traced_memory()
        save_peak = save_high - save_base
        resumed = self.make(num_clients=100_000)
        tracemalloc.reset_peak()
        load_base, _ = tracemalloc.get_traced_memory()
        load_fleet_checkpoint(path, resumed)
        _, load_high = tracemalloc.get_traced_memory()
        load_peak = load_high - load_base
        tracemalloc.stop()
        # Streaming bound: the writer stages one chunk, never a column
        # (100k rows = 800 KB for an f8 column, chunk = 512 KB), let
        # alone the 9.3 MB fleet.
        assert save_peak < 4 * CHUNK_BYTES, (save_peak, fleet_bytes)
        assert load_peak < 4 * CHUNK_BYTES, (load_peak, fleet_bytes)
        # And the resumed run continues exactly like the original.
        sim.run(3)
        resumed.run(3)
        assert resumed.fingerprint() == sim.fingerprint()


# ----------------------------------------------------------------------
# FedAvg and FedSGD on the fleet sampler and engine
# ----------------------------------------------------------------------
def model_fn():
    rng = np.random.default_rng(42)
    return nn.Sequential(nn.Linear(64, 10, rng=rng))


@pytest.fixture(scope="module")
def federation():
    x, y = make_digits(240, seed=1)
    parts = iid_partition(len(y), 12, rng=np.random.default_rng(0))
    shards = [(x[p], y[p]) for p in parts]
    return shards, make_digits(120, seed=2)


def make_clients(shards):
    return [
        FederatedClient(i, ArrayDataset(fx, fy), model_fn, seed=i)
        for i, (fx, fy) in enumerate(shards)
    ]


def run_state(loop, history):
    """What a run leaves behind, in comparable form."""
    return {
        "server": {name: value.tobytes()
                   for name, value in loop.server.state.items()},
        "version": loop.server.version,
        "clients": [client.rng_state() for client in loop.clients],
        "clock": loop.clock.now if loop.clock is not None else None,
        "ledger": history.ledger.to_dict(),
        "records": list(history.records),
    }


class TestFederatedSampling:
    """Both loops sample with the keyed fleet sampler."""

    # At 13:00 none of the 12 devices built from this seed is eligible
    # in round 1 (asserted below through the sampler itself).
    MIDDAY_SEED = 1

    @pytest.mark.parametrize("kind", ["fedavg", "fedavg-chaos", "fedsgd"])
    def test_round_nobody_is_eligible_for_trains_nobody(self, federation,
                                                         kind):
        shards, eval_data = federation
        seed = self.MIDDAY_SEED
        devices = FleetState.build(len(shards), seed)
        assert sample_clients(devices, 1, 1.0, seed=seed, min_battery=0.0,
                              hour=13.0).size == 0
        clients = make_clients(shards)

        def train(*args, **kwargs):
            raise AssertionError("a client trained in an empty round")

        for client in clients:
            client.local_train = client.compute_gradient = train
        if kind == "fedsgd":
            loop = FedSGD(clients, model_fn, hours_per_round=13.0, seed=seed)
        else:
            injector = (FaultInjector(MILD, seed=0)
                        if kind == "fedavg-chaos" else None)
            loop = FedAvg(clients, model_fn, hours_per_round=13.0,
                          seed=seed, injector=injector)
        history = loop.run(1, eval_data)
        assert [record.participants for record in history.records] == [0]
        assert history.records[0].accuracy \
            == ParameterServer(model_fn).evaluate(*eval_data)
        assert history.ledger.rounds == [RoundTraffic(0, 0)]
        assert loop.server.version == 0

    def test_kill_resume_under_the_hourly_policy_is_bit_exact(
            self, federation, tmp_path):
        shards, eval_data = federation

        def make():
            return FedAvg(make_clients(shards), model_fn, local_epochs=1,
                          lr=0.3, client_fraction=0.5, hours_per_round=5.0,
                          seed=2, injector=FaultInjector(MILD, seed=4),
                          policy=RobustnessPolicy(max_retries=1,
                                                  max_staleness=1))

        reference = make()
        expected = run_state(reference, reference.run(6, eval_data))
        path = str(tmp_path / "fedavg.ckpt")
        make().run(3, eval_data, checkpoint_path=path)
        resumed = make()
        history = resumed.run(6, eval_data, checkpoint_path=path,
                              resume=True)
        assert run_state(resumed, history) == expected
        # The hours matter: some rounds found nobody eligible.
        participants = [record.participants for record in history.records]
        assert 0 in participants and max(participants) > 0


class TestFedAvgOnEngine:
    """FedAvg's fault-injected rounds are decided by the fleet engine."""

    def run_chaos(self, shards, eval_data, vectorized):
        loop = FedAvg(make_clients(shards), model_fn, local_epochs=2,
                      client_fraction=0.8, seed=6,
                      injector=FaultInjector(spec=MILD, seed=9),
                      policy=RobustnessPolicy(max_retries=2, max_staleness=1,
                                              min_quorum=2))
        with engine_path(vectorized):
            history = loop.run(4, eval_data)
        return loop, history

    def test_engines_produce_identical_training(self, federation):
        shards, eval_data = federation
        vec, vec_history = self.run_chaos(shards, eval_data, vectorized=True)
        ref, ref_history = self.run_chaos(shards, eval_data,
                                          vectorized=False)
        assert vec.server.version > 0
        assert run_state(vec, vec_history) == run_state(ref, ref_history)
        assert_conserved(vec_history.ledger)

    def test_round_opening_in_a_link_window_waits_for_it(self, federation):
        # The clock starts inside a 300 s window.  One attempt each and a
        # quorum of every client: the round commits only if it opens
        # after the window.
        shards, eval_data = federation
        spec = FaultSpec(link_down_period_s=1000.0,
                         link_down_duration_s=300.0)
        loop = FedAvg(make_clients(shards), model_fn, local_epochs=1,
                      lr=0.3, seed=0, injector=FaultInjector(spec, seed=0),
                      policy=RobustnessPolicy(max_retries=0,
                                              min_quorum=len(shards)))
        history = loop.run(1, eval_data)
        assert history.ledger.aborts == 0
        assert loop.server.version == 1
        assert loop.clock.now > 300.0

    def test_lost_uploads_never_train(self, federation):
        shards, eval_data = federation
        loop = FedAvg(make_clients(shards), model_fn, local_epochs=1,
                      lr=0.3, seed=0,
                      injector=FaultInjector(
                          FaultSpec(upload_loss_rate=1.0), seed=0),
                      policy=RobustnessPolicy(max_retries=1))

        def local_train(*args, **kwargs):
            raise AssertionError("a client whose upload was lost trained")

        for client in loop.clients:
            client.local_train = local_train
        history = loop.run(3, eval_data)
        assert history.ledger.aborts == 3
        assert history.ledger.uplink_bytes == 0
        assert loop.server.version == 0


# ----------------------------------------------------------------------
# Run intervals
# ----------------------------------------------------------------------
def loop_state(loop):
    """A loop's round counter, history and server state, comparable."""
    if isinstance(loop, FleetSimulator):
        return loop.round_index, list(loop.history), loop.fingerprint()
    server = {name: value.tobytes()
              for name, value in loop.server.state.items()}
    return (loop._round_index, len(loop._state_history), loop.server.version,
            server, [client.rng_state() for client in loop.clients],
            loop.clock.now)


class TestRunIntervals:
    """An interval below one round is refused before the first round."""

    @pytest.mark.parametrize("kind, interval", [
        ("fleet", {"checkpoint_every": 0}),
        ("fleet", {"checkpoint_every": -2}),
        ("fedavg", {"checkpoint_every": 0}),
        ("fedavg", {"eval_every": 0}),
        ("fedavg", {"eval_every": -1}),
    ])
    def test_refused_before_any_round_runs(self, federation, tmp_path, kind,
                                           interval):
        shards, eval_data = federation
        path = str(tmp_path / "loop.ckpt")
        injector = FaultInjector(MILD, seed=0)
        if kind == "fleet":
            loop = FleetSimulator(FleetState.build(256, seed=0),
                                  injector=injector, client_fraction=0.5)
            args = ()
        else:
            loop = FedAvg(make_clients(shards), model_fn, lr=0.3, seed=0,
                          injector=injector)
            args = (eval_data,)
        before = loop_state(loop)
        with pytest.raises(ValueError, match=next(iter(interval))):
            loop.run(3, *args, checkpoint_path=path, **interval)
        assert loop_state(loop) == before
        assert not os.path.exists(path)
