"""Tests for the mobile device / network / fleet simulation substrate."""

import numpy as np
import pytest

from repro import nn
from repro.federated.fleet import FleetState, sample_clients
from repro.mobile import (
    BYTES_PER_WORD,
    CELLULAR_3G,
    CELLULAR_4G,
    CLOUD_SERVER,
    FLAGSHIP_PHONE,
    LOW_END_PHONE,
    MID_RANGE_PHONE,
    OFFLINE,
    WIFI,
    EnergyConstants,
    NetworkLink,
    estimate_execution,
    estimate_transfer,
    profile_model,
)
from repro.rng import derive_rng


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestDeviceProfiles:
    def test_energy_constants_dram_penalty(self):
        constants = EnergyConstants()
        assert constants.dram_penalty() == pytest.approx(128.0)

    def test_onchip_words(self):
        assert MID_RANGE_PHONE.onchip_words() == 1024 * 1024 // 4

    def test_device_ordering(self):
        assert LOW_END_PHONE.gflops < MID_RANGE_PHONE.gflops < FLAGSHIP_PHONE.gflops
        assert CLOUD_SERVER.gflops > FLAGSHIP_PHONE.gflops


class TestNetworkLinks:
    def test_transfer_time_includes_rtt(self):
        t = WIFI.transfer_seconds(0)
        assert t == pytest.approx(WIFI.rtt_ms / 1000.0)

    def test_transfer_time_scales_with_bytes(self):
        small = CELLULAR_4G.transfer_seconds(1000)
        large = CELLULAR_4G.transfer_seconds(100000)
        assert large > small

    def test_wifi_faster_than_3g(self):
        payload = 1_000_000
        assert WIFI.transfer_seconds(payload) < CELLULAR_3G.transfer_seconds(payload)

    def test_offline_is_infinite(self):
        assert OFFLINE.transfer_seconds(10) == float("inf")

    def test_negative_bytes_raise(self):
        with pytest.raises(ValueError):
            WIFI.transfer_seconds(-1)

    def test_radio_energy(self):
        energy = WIFI.transmit_energy_joules(1000, MID_RANGE_PHONE)
        expected = 1000 * 8 * MID_RANGE_PHONE.radio_tx_nj_per_bit * 1e-9
        assert energy == pytest.approx(expected)

    def test_metered_flags(self):
        assert CELLULAR_3G.metered and CELLULAR_4G.metered
        assert not WIFI.metered


class TestCostProfiling:
    def make_mlp(self, rng):
        return nn.Sequential(
            nn.Linear(64, 32, rng=rng), nn.ReLU(), nn.Linear(32, 10, rng=rng)
        )

    def test_linear_flops_and_params(self, rng):
        profile = profile_model(self.make_mlp(rng), (64,))
        layer = profile.layers[0]
        assert layer.flops == 2 * 64 * 32
        assert layer.params == 64 * 32 + 32
        assert profile.total_params == 64 * 32 + 32 + 32 * 10 + 10

    def test_conv_profile(self, rng):
        model = nn.Sequential(
            nn.Conv2d(1, 8, 3, padding=1, rng=rng), nn.ReLU(),
            nn.MaxPool2d(2), nn.Flatten(), nn.Linear(8 * 4 * 4, 10, rng=rng),
        )
        profile = profile_model(model, (1, 8, 8))
        conv = profile.layers[0]
        assert conv.flops == 2 * 1 * 9 * 8 * 8 * 8
        assert profile.layers[-1].kind == "Linear"
        assert profile.layers[-1].input_size == 8 * 4 * 4

    def test_depthwise_separable_profile_recurses(self, rng):
        model = nn.Sequential(nn.DepthwiseSeparableConv2d(4, 8, rng=rng))
        profile = profile_model(model, (4, 8, 8))
        kinds = [layer.kind for layer in profile.layers]
        assert kinds.count("Conv2d") == 2

    def test_split_partitions(self, rng):
        profile = profile_model(self.make_mlp(rng), (64,))
        local, remote = profile.split(1)
        assert len(local.layers) == 1
        assert len(remote.layers) == 2
        assert local.total_flops + remote.total_flops == profile.total_flops

    def test_split_bounds(self, rng):
        profile = profile_model(self.make_mlp(rng), (64,))
        with pytest.raises(ValueError):
            profile.split(99)

    def test_boundary_bytes(self, rng):
        profile = profile_model(self.make_mlp(rng), (64,))
        assert profile.boundary_bytes(0) == 64 * BYTES_PER_WORD
        assert profile.boundary_bytes(1) == 32 * BYTES_PER_WORD


class TestExecutionCost:
    def test_latency_scales_inversely_with_gflops(self, rng):
        model = nn.Sequential(nn.Linear(256, 256, rng=rng))
        profile = profile_model(model, (256,))
        slow = estimate_execution(profile, LOW_END_PHONE)
        fast = estimate_execution(profile, FLAGSHIP_PHONE)
        ratio = slow.latency_s / fast.latency_s
        assert ratio == pytest.approx(
            FLAGSHIP_PHONE.gflops / LOW_END_PHONE.gflops)

    def test_dram_spill_costs_energy(self, rng):
        small = nn.Sequential(nn.Linear(64, 64, rng=rng))
        # Large model exceeding 512 KB of on-chip memory.
        large = nn.Sequential(nn.Linear(512, 2048, rng=rng))
        small_cost = estimate_execution(profile_model(small, (64,)), LOW_END_PHONE)
        large_cost = estimate_execution(profile_model(large, (512,)), LOW_END_PHONE)
        small_per_param = small_cost.device_energy_j / (64 * 64 + 64)
        large_per_param = large_cost.device_energy_j / (512 * 2048 + 2048)
        # The spilled model pays more energy *per parameter* (DRAM penalty).
        assert large_per_param > small_per_param * 2

    def test_transfer_cost_direction(self):
        up = estimate_transfer(1000, WIFI, MID_RANGE_PHONE, upload=True)
        down = estimate_transfer(1000, WIFI, MID_RANGE_PHONE, upload=False)
        assert up.bytes_up == 1000 and up.bytes_down == 0
        assert down.bytes_down == 1000 and down.bytes_up == 0
        assert up.device_energy_j > down.device_energy_j  # TX > RX power

    def test_cost_addition(self):
        from repro.mobile import ExecutionCost

        total = ExecutionCost(1.0, 2.0, 10, 20) + ExecutionCost(0.5, 0.5, 5, 5)
        assert total.latency_s == 1.5
        assert total.device_energy_j == 2.5
        assert total.bytes_up == 15 and total.bytes_down == 25


def policy_draws(num_devices, round_index, hour, seed=0):
    """A per-device oracle of the fleet's hourly eligibility policy.

    Replays the sampler's draws (the schedule stream, then the round's
    generator after its uniform keys) and returns each device's
    ``(charging, idle, on_wifi)``.
    """
    schedule = derive_rng(seed, "mobile-device")
    night_owl = schedule.uniform(-0.5, 1.0, num_devices)
    wifi_at_home = np.clip(schedule.normal(0.9, 0.08, num_devices), 0.4, 1.0)
    rng = derive_rng(seed, "fleet-sample", round_index)
    rng.random(num_devices)  # the round's sampling keys
    draws = [rng.random(num_devices) for _ in range(4)]
    conditions = []
    for i in range(num_devices):
        local = (hour % 24.0 + 6.0 * night_owl[i]) % 24.0
        asleep = 0.9 if (local >= 23.0 or local < 7.0) else 0.1
        charging_p = 0.85 if (local >= 22.0 or local < 7.5) else 0.15
        wifi_p = wifi_at_home[i] if (local >= 18.0 or local < 8.5) else 0.35
        charging = draws[0][i] < charging_p
        idle = draws[1][i] < asleep or draws[2][i] < 0.15
        conditions.append((charging, idle, draws[3][i] < wifi_p))
    return conditions


def admitted(num_devices, round_index, hour, seed=0):
    """Rows the sampler admits at ``hour``: everyone the hour allows."""
    return sample_clients(FleetState.build(num_devices, seed), round_index,
                          1.0, seed=seed, min_battery=0.0, hour=hour)


class TestFleet:
    """The fleet's availability: Google's policy of training only on idle,
    charging devices on unmetered WiFi, applied by the federated sampler
    at a given hour."""

    def test_eligibility_policy(self):
        for round_index, hour in ((1, 2.0), (2, 13.0), (3, 21.0)):
            expected = [
                row for row, (charging, idle, wifi)
                in enumerate(policy_draws(300, round_index, hour))
                if charging and idle and wifi]
            assert admitted(300, round_index, hour).tolist() == expected

    def test_low_battery_blocks(self):
        # A device the hour admits still needs the battery the sampler
        # asks for: the two filters compose.
        state = FleetState.build(300, seed=0)
        blocked = 0
        for round_index in range(1, 4):
            hourly = sample_clients(state, round_index, 1.0, seed=0,
                                    min_battery=0.0, hour=3.0)
            rows = sample_clients(state, round_index, 1.0, seed=0,
                                  min_battery=0.2, hour=3.0)
            charged = hourly[state.battery[hourly] >= 0.2]
            np.testing.assert_array_equal(rows, charged)
            blocked += hourly.size - charged.size
        assert blocked > 0

    def test_fleet_diurnal_pattern(self):
        def eligible_share(hour):
            return np.mean([admitted(200, r, hour).size
                            for r in range(20)]) / 200

        assert eligible_share(3.0) > eligible_share(13.0) + 0.2

    def test_eligible_ids_subset(self):
        # An hour only ever removes devices from the eligible set.
        state = FleetState.build(300, seed=5)
        for round_index in range(1, 4):
            everyone = set(sample_clients(state, round_index, 1.0,
                                          seed=5).tolist())
            for hour in (0.0, 2.0, 9.5, 13.0, 19.0, 47.0):
                rows = sample_clients(state, round_index, 1.0, seed=5,
                                      hour=hour)
                assert set(rows.tolist()) <= everyone

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetState.build(0, seed=0)
