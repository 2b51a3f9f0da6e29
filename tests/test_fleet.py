"""Million-client fleet simulation: streams, engine parity, quorum, resume.

The load-bearing invariants:

* the vectorized keystream replays ``np.random.default_rng(key)``
  bit-for-bit, so the batch fault oracles equal the scalar ones on any
  overlapping (round, client, attempt) grid;
* the vectorized round engine is bit-identical to its scalar reference
  twin — outcomes, byte tallies, timelines, lags — on fleets <= 256,
  and asks each batch oracle about exactly the rows the twin asks its
  scalar oracle about;
* the decision hot path runs no per-client Python (line-event counts
  are fleet-size-independent);
* two-tier quorum re-booking conserves bytes: sent == delivered + wasted
  on every commit/abort path, asserted per round in the ledger;
* streaming checkpoints resume bit-exactly with bounded peak memory;
* the object-client adapter produces identical models, ledgers, and
  client RNG streams under either engine, and matches legacy FedAvg in
  the fault-free full-participation case.
"""

import os
import sys
from collections import defaultdict
from dataclasses import replace

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
    CommunicationLedger,
    FedAvg,
    FederatedClient,
    RobustnessPolicy,
)
from repro.federated.fleet import (
    OUT_BLOCKED,
    OUT_CUT,
    OUT_INFEASIBLE,
    OUT_SUCCESS,
    OUTCOME_NAMES,
    EdgeTopology,
    FleetFedAvg,
    FleetSimulator,
    FleetState,
    SAMPLING_POLICIES,
    decide_round,
    edge_partition,
    hierarchical_average,
    load_fleet_checkpoint,
    load_fleet_state,
    sample_clients,
    save_fleet_checkpoint,
)
from repro.federated.fleet.checkpoint import DEFAULT_CHUNK_ROWS
from repro.synth import iid_partition, make_digits

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


# ----------------------------------------------------------------------
# Batch fault oracles vs the scalar ones
# ----------------------------------------------------------------------
class TestBatchOracles:
    def test_schedule_array_matches_schedule(self):
        injector = FaultInjector(spec=CHAOS, seed=77)
        rng = np.random.default_rng(5)
        ids = rng.integers(0, 10**6, size=8)
        table = injector.schedule_array(3, ids, attempts=2)
        scalar = injector.schedule(3, ids.tolist(), attempts=2)
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
        survived = np.asarray([True, False, True])
        state.apply_round(rows, survived,
                          lag=np.asarray([0, 0, 2]),
                          up=np.asarray([100, 0, 100]),
                          down=np.asarray([100, 0, 100]),
                          wasted=np.asarray([0, 300, 50]))
        idle = np.setdiff1d(np.arange(10), rows)
        assert (state.battery[idle] >= before[idle]).all()
        assert (state.battery[rows] <= before[rows]).all()
        assert (state.battery >= 0.0).all() and (state.battery <= 1.0).all()
        assert state.rounds_selected[rows].tolist() == [1, 1, 1]
        assert state.rounds_completed[rows].tolist() == [1, 0, 1]
        assert state.bytes_wasted[5] == 300
        assert state.staleness[7] == 2

    def test_column_validation(self):
        state = FleetState.build(8, seed=0)
        columns = {name: col.copy() for name, col in state.columns().items()}
        columns["battery"] = columns["battery"][:4]
        with pytest.raises(ValueError):
            FleetState.from_columns(1, columns)
        columns = {name: col.copy() for name, col in state.columns().items()}
        columns["staleness"] = columns["staleness"].astype(np.int32)
        with pytest.raises(ValueError):
            FleetState.from_columns(1, columns)


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

    def test_invalid_arguments(self):
        state = FleetState.build(10, seed=0)
        with pytest.raises(ValueError):
            sample_clients(state, 1, 0.5, policy="round-robin")
        with pytest.raises(ValueError):
            sample_clients(state, 1, 0.0)


# ----------------------------------------------------------------------
# Round engine: vectorized vs scalar reference twin
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
    call, so a vectorized round's log compares call for call with the
    scalar twin's.
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
        vec = decide_round(state, injector, policy, 1, rows,
                           clock_start=12.5, vectorized=True)
        ref = decide_round(state, injector, policy, 1, rows,
                           clock_start=12.5, vectorized=False)
        assert_decisions_equal(vec, ref)

    def test_bit_identical_with_remapped_client_ids(self):
        state = FleetState.build(64, seed=1)
        injector = FaultInjector(spec=CHAOS, seed=2)
        policy = RobustnessPolicy(max_retries=2, max_staleness=1)
        rows = np.arange(64, dtype=np.int64)
        ids = rows * 1000 + 17
        vec = decide_round(state, injector, policy, 5, rows, client_ids=ids,
                           vectorized=True)
        ref = decide_round(state, injector, policy, 5, rows, client_ids=ids,
                           vectorized=False)
        assert_decisions_equal(vec, ref)
        assert np.array_equal(vec.client_ids, ids)

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_empty_round(self, vectorized):
        state = FleetState.build(16, seed=0)
        injector = FaultInjector(seed=0)
        decisions = decide_round(state, injector, RobustnessPolicy(), 1,
                                 np.empty(0, dtype=np.int64),
                                 vectorized=vectorized)
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
        rows the scalar twin asks its scalar oracle about: the pending,
        link-open, feasible rows for straggler and staleness, and only
        rows no earlier stage decided for dropout, corruption and loss."""
        state = FleetState.build(256, seed=11, num_edges=4)
        state.link_bw[::17] = 0.0  # some infeasible devices
        policy = RobustnessPolicy(max_retries=3, max_staleness=1,
                                  timeout_s=80, straggler_cutoff_s=40)
        rows = sample_clients(state, 1, 0.8, seed=31, min_battery=0.0)
        vec_injector = CountingInjector(spec=CHAOS, seed=21)
        ref_injector = CountingInjector(spec=CHAOS, seed=21)
        vec = decide_round(state, vec_injector, policy, 4, rows,
                           clock_start=12.5)
        ref = decide_round(state, ref_injector, policy, 4, rows,
                           clock_start=12.5, vectorized=False)
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
        oracles are asked about empty subsets — still bit-identical."""
        spec = replace(CHAOS, straggler_rate=1.0)
        policy = RobustnessPolicy(max_retries=2, straggler_cutoff_s=1e-6)
        state = FleetState.build(128, seed=3)
        rows = np.arange(128, dtype=np.int64)
        injector = CountingInjector(spec=spec, seed=5)
        vec = decide_round(state, injector, policy, 2, rows,
                           clock_start=12.5)
        ref = decide_round(state, FaultInjector(spec=spec, seed=5), policy,
                           2, rows, clock_start=12.5, vectorized=False)
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
        assert ledger.cohorts["up"].tolist() == up.tolist()
        assert_conserved(ledger)

    def test_cohort_size_is_stable_across_rounds(self):
        ledger = CommunicationLedger()
        cols = [np.ones(4, dtype=np.int64) for _ in range(5)]
        for _ in range(10):
            ledger.record_cohort_round(*cols)
        assert ledger.cohorts["up"].shape == (4,)
        assert ledger.cohorts["up"].tolist() == [10] * 4
        assert len(ledger.rounds) == 10

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
        assert restored.cohorts["wasted"].tolist() == [5, 7]
        assert restored.edge_uplink_bytes == 11

    def test_legacy_payload_without_cohorts_loads(self):
        legacy = {
            "uplink_bytes": 10, "downlink_bytes": 20, "wasted_bytes": 5,
            "retries": 1, "aborts": 0,
            "rounds": [[10, 20, 5, 1, 0]],
        }
        ledger = CommunicationLedger.from_dict(legacy)
        assert ledger.total_bytes == 30
        assert ledger.cohorts is None
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

    def test_hierarchical_average_matches_flat_average(self):
        rng = np.random.default_rng(0)
        updates = [{"w": rng.normal(size=4)} for _ in range(6)]
        weights = [3.0, 1.0, 2.0, 5.0, 1.0, 4.0]
        edges = [0, 0, 1, 1, 2, 2]
        committed = np.asarray([True, True, True])
        result = hierarchical_average(updates, weights, edges, committed)
        flat = sum(w * u["w"] for u, w in zip(updates, weights)) \
            / sum(weights)
        np.testing.assert_allclose(result["w"], flat, rtol=1e-12)

    def test_hierarchical_average_skips_uncommitted_edges(self):
        updates = [{"w": np.ones(2)}, {"w": np.full(2, 3.0)}]
        committed = np.asarray([True, False])
        result = hierarchical_average(updates, [1.0, 1.0], [0, 1], committed)
        np.testing.assert_array_equal(result["w"], np.ones(2))
        with pytest.raises(ValueError):
            hierarchical_average(updates, [1.0, 1.0], [0, 1],
                                 np.asarray([False, False]))


# ----------------------------------------------------------------------
# Decision-level simulator
# ----------------------------------------------------------------------
class TestFleetSimulator:
    def make(self, num_clients=4096, vectorized=True, seed=41):
        state = FleetState.build(num_clients, seed=seed, num_edges=8)
        return FleetSimulator(
            state, injector=FaultInjector(spec=CHAOS, seed=43),
            policy=RobustnessPolicy(max_retries=1, max_staleness=2,
                                    min_quorum=2),
            topology=EdgeTopology(num_edges=8, edge_quorum=2),
            client_fraction=0.1, seed=47, vectorized=vectorized)

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

    def test_scalar_engine_matches_vectorized(self):
        vec = self.make(num_clients=256, vectorized=True)
        ref = self.make(num_clients=256, vectorized=False)
        vec.run(3), ref.run(3)
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


# ----------------------------------------------------------------------
# Streaming checkpoints
# ----------------------------------------------------------------------
class TestStreamingCheckpoint:
    def make(self, num_clients=20_000):
        state = FleetState.build(num_clients, seed=5, num_edges=16)
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

    def test_standalone_state_loader(self, tmp_path):
        path = str(tmp_path / "fleet.ckpt")
        sim = self.make()
        sim.run(2, checkpoint_path=path)
        state = load_fleet_state(path)
        assert state.fingerprint() == sim.state.fingerprint()
        assert state.num_edges == 16

    def test_mismatched_fleet_rejected(self, tmp_path):
        path = str(tmp_path / "fleet.ckpt")
        self.make().run(1, checkpoint_path=path)
        other = self.make(num_clients=1000)
        with pytest.raises(ValueError):
            load_fleet_checkpoint(path, other)

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
        # (100k rows = 800 KB/column, chunk = 512 KB), let alone the
        # 12 MB fleet.
        chunk_bytes = DEFAULT_CHUNK_ROWS * 8
        assert save_peak < 4 * chunk_bytes, (save_peak, fleet_bytes)
        assert load_peak < 4 * chunk_bytes, (load_peak, fleet_bytes)
        # And the resumed run continues exactly like the original.
        sim.run(3)
        resumed.run(3)
        assert resumed.fingerprint() == sim.fingerprint()


# ----------------------------------------------------------------------
# Object-client adapter
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


class TestFleetFedAvg:
    def run_chaos(self, shards, vectorized):
        loop = FleetFedAvg(
            make_clients(shards), model_fn,
            injector=FaultInjector(spec=MILD, seed=9),
            policy=RobustnessPolicy(max_retries=2, max_staleness=1,
                                    min_quorum=2),
            topology=EdgeTopology(num_edges=3),
            local_epochs=2, client_fraction=0.8,
            sampling="battery-aware", seed=6, vectorized=vectorized)
        loop.run(4)
        return loop

    def test_engines_produce_identical_training(self, federation):
        shards, _ = federation
        vec = self.run_chaos(shards, vectorized=True)
        ref = self.run_chaos(shards, vectorized=False)
        assert vec.server.version == ref.server.version
        for name in vec.server.state:
            assert np.array_equal(vec.server.state[name],
                                  ref.server.state[name]), name
        assert vec.ledger.to_dict() == ref.ledger.to_dict()
        assert [c.rng_state() for c in vec.clients] \
            == [c.rng_state() for c in ref.clients]
        assert vec.state.fingerprint() == ref.state.fingerprint()
        assert_conserved(vec.ledger)

    def test_matches_legacy_fedavg_without_faults(self, federation):
        shards, eval_data = federation
        fleet = FleetFedAvg(make_clients(shards), model_fn, local_epochs=3,
                            client_fraction=1.0, min_battery=0.0, seed=6)
        fleet_history = fleet.run(5, eval_data=eval_data)
        legacy = FedAvg(make_clients(shards), model_fn, local_epochs=3,
                        client_fraction=1.0, seed=6)
        legacy_history = legacy.run(5, eval_data)
        assert [r.accuracy for r in fleet_history.records] \
            == [r.accuracy for r in legacy_history.records]

    def test_history_records_sampled_participants(self, federation):
        shards, eval_data = federation
        fleet = FleetFedAvg(make_clients(shards), model_fn, local_epochs=1,
                            client_fraction=0.25, min_battery=0.0, seed=6)
        fleet_history = fleet.run(3, eval_data=eval_data)
        legacy = FedAvg(make_clients(shards), model_fn, local_epochs=1,
                        client_fraction=0.25, seed=6)
        legacy_history = legacy.run(3, eval_data)
        sampled = round(0.25 * len(shards))
        assert [r.participants for r in fleet_history.records] \
            == [sampled] * 3
        assert [r.participants for r in legacy_history.records] \
            == [sampled] * 3

    def test_quorum_abort_skips_version_bump(self, federation):
        shards, _ = federation
        loop = FleetFedAvg(
            make_clients(shards), model_fn,
            injector=FaultInjector(
                spec=FaultSpec(dropout_rate=1.0), seed=1),
            policy=RobustnessPolicy(max_retries=0),
            client_fraction=1.0, min_battery=0.0, seed=3)
        summary = loop.run_round()
        assert not summary.cloud_commit
        assert loop.server.version == 0
        assert_conserved(loop.ledger)

    def test_fleet_size_must_match_clients(self, federation):
        shards, _ = federation
        state = FleetState.build(5, seed=0)
        with pytest.raises(ValueError):
            FleetFedAvg(make_clients(shards), model_fn, fleet_state=state)
