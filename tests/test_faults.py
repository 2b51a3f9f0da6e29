"""Tests for the fault-injection layer and the offline-link regressions."""

import math

import numpy as np
import pytest

import repro.profiler as profiler
from repro import nn
from repro.data import ArrayDataset
from repro.faults import (
    FaultInjector,
    FaultSpec,
    FaultyLink,
    SimulatedClock,
    chaos_injector,
    corrupt_state,
    random_fault_spec,
)
from repro.federated import (
    CommunicationLedger,
    DistributedSelectiveSGD,
    FedAvg,
    FederatedClient,
    ParameterServer,
    QuorumError,
    RobustnessPolicy,
    RoundTraffic,
    SelectiveSGDParticipant,
    update_is_corrupt,
)
from repro.inference import (
    best_split,
    compare_strategies,
    cost_on_cloud,
    cost_on_device,
    plan_with_fallback,
)
from repro.mobile import (
    CLOUD_SERVER,
    MID_RANGE_PHONE,
    OFFLINE,
    WIFI,
    NetworkLink,
    estimate_transfer,
    profile_model,
)
from repro.synth import make_digits
from tests.oracles import schedule


def model_fn():
    rng = np.random.default_rng(42)
    return nn.Sequential(nn.Linear(64, 16, rng=rng), nn.ReLU(),
                         nn.Linear(16, 10, rng=rng))


class TestFaultSpec:
    def test_rate_bounds_validated(self):
        with pytest.raises(ValueError):
            FaultSpec(dropout_rate=1.5)
        with pytest.raises(ValueError):
            FaultSpec(corruption_rate=-0.1)
        with pytest.raises(ValueError):
            FaultSpec(max_injected_staleness=-1)
        with pytest.raises(ValueError):
            FaultSpec(link_down_period_s=10.0, link_down_duration_s=10.0)

    def test_scaled_clips_to_one(self):
        spec = FaultSpec(dropout_rate=0.6, upload_loss_rate=0.1)
        doubled = spec.scaled(2.0)
        assert doubled.dropout_rate == 1.0
        assert doubled.upload_loss_rate == pytest.approx(0.2)
        # Non-rate fields are untouched.
        assert doubled.straggler_scale == spec.straggler_scale


class TestFaultInjector:
    def test_same_seed_same_schedule(self):
        spec = random_fault_spec(11)
        a = schedule(FaultInjector(spec, seed=7), 5, range(4), attempts=3)
        b = schedule(FaultInjector(spec, seed=7), 5, range(4), attempts=3)
        assert a == b

    def test_different_seeds_differ(self):
        spec = FaultSpec(dropout_rate=0.5, straggler_rate=0.5,
                         upload_loss_rate=0.5)
        a = schedule(FaultInjector(spec, seed=0), 6, range(6))
        b = schedule(FaultInjector(spec, seed=1), 6, range(6))
        assert a != b

    def test_query_order_is_irrelevant(self):
        injector = FaultInjector(FaultSpec(dropout_rate=0.5), seed=3)
        forward = [injector.drops_out(1, c) for c in range(10)]
        backward = [injector.drops_out(1, c) for c in reversed(range(10))]
        assert forward == backward[::-1]

    def test_zero_and_certain_rates(self):
        never = FaultInjector(FaultSpec(), seed=0)
        always = FaultInjector(
            FaultSpec(dropout_rate=1.0, upload_loss_rate=1.0,
                      corruption_rate=1.0), seed=0)
        for round_index in range(1, 4):
            for client in range(5):
                assert not never.drops_out(round_index, client)
                assert never.straggler_factor(round_index, client) == 1.0
                assert never.staleness(round_index, client) == 0
                assert always.drops_out(round_index, client)
                assert always.upload_lost(round_index, client)
                assert always.corrupts(round_index, client)

    def test_straggler_factor_at_least_one(self):
        injector = FaultInjector(
            FaultSpec(straggler_rate=1.0, straggler_scale=3.0), seed=2)
        factors = [injector.straggler_factor(r, c)
                   for r in range(1, 5) for c in range(5)]
        assert all(f > 1.0 for f in factors)
        assert len(set(factors)) > 1  # actually random, not a constant

    def test_staleness_bounds(self):
        injector = FaultInjector(
            FaultSpec(stale_rate=1.0, max_injected_staleness=3), seed=4)
        lags = [injector.staleness(r, c) for r in range(1, 6) for c in range(6)]
        assert all(1 <= lag <= 3 for lag in lags)

    def test_link_windows(self):
        injector = FaultInjector(
            FaultSpec(link_down_period_s=10.0, link_down_duration_s=3.0))
        assert not injector.link_available(0.0)
        assert not injector.link_available(2.9)
        assert injector.link_available(3.0)
        assert injector.link_available(9.9)
        assert not injector.link_available(10.5)
        # No windows configured: always up.
        assert FaultInjector(FaultSpec()).link_available(123.4)

    def test_link_opens_at_the_window_end(self):
        injector = FaultInjector(
            FaultSpec(link_down_period_s=10.0, link_down_duration_s=3.0))
        assert injector.link_opens_at(0.0) == 3.0
        assert injector.link_opens_at(12.5) == 13.0
        assert injector.link_opens_at(5.0) == 5.0
        assert FaultInjector(FaultSpec()).link_opens_at(7.25) == 7.25
        # Window ends that round short of the boundary still land on an
        # open link, never before the asked time and never a window late.
        injector = FaultInjector(
            FaultSpec(link_down_period_s=37.3, link_down_duration_s=4.1))
        for start in np.linspace(0.0, 2000.0, 4001):
            opens = injector.link_opens_at(start)
            assert start <= opens <= start + 4.1 + 1e-9
            assert injector.link_available(opens)


class TestSimulatedClock:
    def test_advances(self):
        clock = SimulatedClock()
        assert clock.now == 0.0
        clock.advance(2.5)
        clock.advance(0.5)
        assert clock.now == pytest.approx(3.0)
        assert clock() == clock.now  # a zero-argument time source

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SimulatedClock().advance(-1.0)


class TestCorruptState:
    def test_corrupts_copy_not_original(self):
        state = model_fn().state_dict()
        rng = np.random.default_rng(0)
        bad = corrupt_state(state, rng)
        assert update_is_corrupt(bad)
        assert not update_is_corrupt(state)
        # Every array got at least one NaN.
        for name in state:
            assert np.isnan(bad[name]).any()

    def test_injector_corrupt_is_deterministic(self):
        state = model_fn().state_dict()
        injector = FaultInjector(FaultSpec(corruption_rate=1.0), seed=9)
        a = injector.corrupt(state, 2, 1)
        b = injector.corrupt(state, 2, 1)
        for name in state:
            assert np.array_equal(a[name], b[name], equal_nan=True)


class TestFaultyLink:
    def _link(self):
        injector = FaultInjector(
            FaultSpec(link_down_period_s=10.0, link_down_duration_s=4.0))
        return FaultyLink(WIFI, injector=injector, clock=SimulatedClock())

    def test_inside_window_is_infinite(self):
        link = self._link()
        assert link.transfer_seconds(1000, at=1.0) == float("inf")
        assert not link.available_at(1.0)

    def test_outside_window_matches_base(self):
        link = self._link()
        assert link.transfer_seconds(1000, at=5.0) == WIFI.transfer_seconds(1000)
        assert link.available_at(5.0)

    def test_uses_clock_when_no_time_given(self):
        link = self._link()
        assert link.transfer_seconds(1000) == float("inf")  # clock at 0, down
        link.clock.advance(5.0)
        assert link.transfer_seconds(1000) == WIFI.transfer_seconds(1000)

    def test_negative_bytes_raise_even_when_down(self):
        with pytest.raises(ValueError):
            self._link().transfer_seconds(-5, at=0.0)

    def test_delegates_static_properties(self):
        link = self._link()
        assert link.name == WIFI.name
        assert link.bandwidth_mbps == WIFI.bandwidth_mbps
        assert link.metered == WIFI.metered
        assert link.transmit_energy_joules(100, MID_RANGE_PHONE) == (
            WIFI.transmit_energy_joules(100, MID_RANGE_PHONE))

    def test_offline_base_never_available(self):
        link = FaultyLink(OFFLINE)
        assert not link.available_at(5.0)
        assert link.transfer_seconds(10, at=5.0) == float("inf")


class TestOfflineLinkRegressions:
    """The inf-propagation audit for NetworkLink.transfer_seconds callers."""

    def test_offline_is_infinite_not_an_error(self):
        assert OFFLINE.transfer_seconds(10) == float("inf")
        assert OFFLINE.transfer_seconds(0) == float("inf")

    def test_zero_bandwidth_does_not_divide_by_zero(self):
        dead = NetworkLink(name="dead", bandwidth_mbps=0.0, rtt_ms=10.0)
        assert dead.available  # claims to be up...
        assert not dead.usable  # ...but cannot move a byte
        assert dead.transfer_seconds(1) == float("inf")

    def test_negative_bytes_raise_regardless_of_availability(self):
        with pytest.raises(ValueError):
            OFFLINE.transfer_seconds(-1)

    def test_estimate_transfer_over_dead_link_is_inert(self):
        cost = estimate_transfer(10_000, OFFLINE, MID_RANGE_PHONE, upload=True)
        assert not cost.feasible
        assert cost.latency_s == float("inf")
        # Nothing actually crossed the link: no energy, no bytes.
        assert cost.device_energy_j == 0.0
        assert cost.bytes_up == 0 and cost.bytes_down == 0

    def test_summing_costs_never_produces_nan(self):
        dead = estimate_transfer(10_000, OFFLINE, MID_RANGE_PHONE)
        live = estimate_transfer(10_000, WIFI, MID_RANGE_PHONE)
        total = dead + live
        assert total.latency_s == float("inf")
        assert not math.isnan(total.latency_s)
        assert not math.isnan(total.device_energy_j)


class TestDeployOfflinePath:
    @pytest.fixture
    def profile(self):
        model = nn.Sequential(nn.Linear(64, 32), nn.ReLU(), nn.Linear(32, 10))
        return profile_model(model, (64,))

    def test_compare_strategies_offline_no_nan(self, profile):
        reports = compare_strategies(profile, MID_RANGE_PHONE, CLOUD_SERVER,
                                     OFFLINE)
        for report in reports:
            assert not math.isnan(report.cost.latency_s)
            assert not math.isnan(report.cost.device_energy_j)
            report.row()  # formatting must not blow up on inf
        on_cloud = next(r for r in reports if r.strategy == "on-cloud")
        assert not on_cloud.feasible

    def test_best_split_offline_degenerates_to_on_device(self, profile):
        report = best_split(profile, MID_RANGE_PHONE, CLOUD_SERVER, OFFLINE)
        assert report.feasible
        assert report.split_index == len(profile.layers)
        device_only = cost_on_device(profile, MID_RANGE_PHONE)
        assert report.cost.latency_s == pytest.approx(
            device_only.cost.latency_s)

    def test_plan_with_fallback_offline(self, profile):
        report = plan_with_fallback(profile, MID_RANGE_PHONE, CLOUD_SERVER,
                                    OFFLINE)
        assert report.strategy == "on-device(fallback)"
        assert report.feasible

    def test_plan_with_fallback_live_link_picks_best(self, profile):
        report = plan_with_fallback(profile, MID_RANGE_PHONE, CLOUD_SERVER,
                                    WIFI)
        assert report.feasible
        assert report.strategy != "on-device(fallback)"
        baseline = min(
            compare_strategies(profile, MID_RANGE_PHONE, CLOUD_SERVER, WIFI),
            key=lambda r: r.cost.latency_s,
        )
        assert report.cost.latency_s == pytest.approx(baseline.cost.latency_s)

    def test_plan_with_fallback_respects_link_windows(self, profile):
        injector = FaultInjector(
            FaultSpec(link_down_period_s=10.0, link_down_duration_s=4.0))
        link = FaultyLink(WIFI, injector=injector)
        down = plan_with_fallback(profile, MID_RANGE_PHONE, CLOUD_SERVER,
                                  link, at=1.0)
        up = plan_with_fallback(profile, MID_RANGE_PHONE, CLOUD_SERVER,
                                link, at=5.0)
        assert down.strategy == "on-device(fallback)"
        assert up.strategy != "on-device(fallback)"


class TestLedgerFaultCounters:
    def test_legacy_two_argument_form(self):
        ledger = CommunicationLedger()
        ledger.record_round(100, 50)
        assert ledger.rounds[0] == (100, 50, 0, 0, 0, 0, 0)
        assert ledger.rounds[0][0] == 100  # tuple indexing still works
        assert ledger.wasted_bytes == 0

    def test_fault_counters_accumulate(self):
        ledger = CommunicationLedger()
        ledger.record_round(100, 50, wasted=30, retries=2, aborts=0)
        ledger.record_round(10, 20, wasted=5, retries=1, aborts=1)
        assert ledger.uplink_bytes == 110
        assert ledger.downlink_bytes == 70
        assert ledger.wasted_bytes == 35
        assert ledger.retries == 3
        assert ledger.aborts == 1

    def test_totals_equal_sum_of_round_records(self):
        rng = np.random.default_rng(0)
        ledger = CommunicationLedger()
        for _ in range(20):
            ledger.record_round(*rng.integers(0, 1000, size=5))
        assert ledger.uplink_bytes == sum(r.up for r in ledger.rounds)
        assert ledger.downlink_bytes == sum(r.down for r in ledger.rounds)
        assert ledger.wasted_bytes == sum(r.wasted for r in ledger.rounds)
        assert ledger.retries == sum(r.retries for r in ledger.rounds)
        assert ledger.aborts == sum(r.aborts for r in ledger.rounds)

    def test_wasted_fraction(self):
        ledger = CommunicationLedger()
        assert ledger.wasted_fraction() == 0.0
        ledger.record_round(50, 25, wasted=25)
        assert ledger.wasted_fraction() == pytest.approx(0.25)

    def test_dict_round_trip(self):
        ledger = CommunicationLedger()
        ledger.record_round(100, 50, wasted=30, retries=2, aborts=1)
        clone = CommunicationLedger.from_dict(ledger.to_dict())
        assert clone == ledger
        assert clone.rounds == [RoundTraffic(100, 50, 30, 2, 1)]

    def test_rejected_uploads_are_wasted_not_delivered(self):
        """Each byte is booked once: under FedAvg and selective SGD alike,
        a corrupted upload is waste, never also a delivery."""
        x, y = make_digits(60, seed=3)
        shards = [ArrayDataset(x[part], y[part])
                  for part in np.array_split(np.arange(len(y)), 3)]
        injector = FaultInjector(FaultSpec(corruption_rate=1.0), seed=0)
        policy = RobustnessPolicy(max_retries=1)
        fedavg = FedAvg(
            [FederatedClient(i, shard, model_fn, seed=i)
             for i, shard in enumerate(shards)],
            model_fn, local_epochs=1, injector=injector, policy=policy)
        selective = DistributedSelectiveSGD(
            [SelectiveSGDParticipant(i, shard, model_fn, seed=i)
             for i, shard in enumerate(shards)],
            model_fn, injector=injector, policy=policy)
        for loop in (fedavg, selective):
            ledger = loop.run(2, (x, y)).ledger
            assert ledger.uplink_bytes == 0
            assert ledger.wasted_bytes > 0


class TestProfilerEventCounters:
    def test_record_and_report(self):
        profiler.reset()
        profiler.record_event("federated/retries")
        profiler.record_event("federated/retries", 4)
        profiler.record_event("federated/round-aborts", 2)
        stats = profiler.get_stats()
        assert stats["events"] == {"federated/retries": 5,
                                   "federated/round-aborts": 2}
        text = profiler.report()
        assert "event counters" in text
        assert "federated/retries" in text
        profiler.reset()
        assert profiler.get_stats()["events"] == {}


class TestServerRobustnessPolicies:
    def test_update_is_corrupt(self):
        state = model_fn().state_dict()
        assert not update_is_corrupt(state)
        bad = {k: v.copy() for k, v in state.items()}
        key = next(iter(bad))
        bad[key].reshape(-1)[0] = np.inf
        assert update_is_corrupt(bad)

    def test_quorum_error_leaves_state_untouched(self):
        server = ParameterServer(model_fn)
        before = server.broadcast()
        version = server.version
        with pytest.raises(QuorumError):
            server.average_states([server.broadcast()], [10], min_quorum=2)
        for name in before:
            assert np.array_equal(server.state[name], before[name])
        assert server.version == version

    def test_version_counts_committed_aggregations(self):
        server = ParameterServer(model_fn)
        assert server.version == 0
        server.average_states([server.broadcast()], [10])
        assert server.version == 1
        zeros = {k: np.zeros_like(v) for k, v in server.state.items()}
        server.apply_gradients([zeros], [1], lr=0.1)
        assert server.version == 2


class TestRobustnessPolicy:
    def test_backoff_doubles(self):
        policy = RobustnessPolicy(backoff_base_s=2.0)
        assert policy.backoff_s(1) == 2.0
        assert policy.backoff_s(2) == 4.0
        assert policy.backoff_s(3) == 8.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RobustnessPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RobustnessPolicy(min_quorum=0)
        with pytest.raises(ValueError):
            RobustnessPolicy(timeout_s=0)
        with pytest.raises(ValueError):
            RobustnessPolicy(max_staleness=-1)


class TestChaosSpecGenerator:
    def test_deterministic(self):
        assert random_fault_spec(3) == random_fault_spec(3)
        assert random_fault_spec(3) != random_fault_spec(4)

    def test_rates_bounded(self):
        for seed in range(25):
            spec = random_fault_spec(seed)
            assert 0.0 <= spec.dropout_rate <= 0.4
            assert 0.0 <= spec.straggler_rate <= 0.4
            assert 0.0 <= spec.upload_loss_rate <= 0.3
            assert 0.0 <= spec.corruption_rate <= 0.25
            assert 0.0 <= spec.stale_rate <= 0.25
            assert spec.max_injected_staleness >= 1
            if spec.link_down_period_s:
                assert spec.link_down_duration_s < spec.link_down_period_s

    def test_chaos_injector_wraps_spec(self):
        injector = chaos_injector(5)
        assert injector.spec == random_fault_spec(5)
        assert injector.seed == 5
