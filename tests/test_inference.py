"""Tests for deployment planning, private split inference, early exits."""

import numpy as np
import pytest

from repro import nn
from repro.inference import (
    EarlyExitNetwork,
    NoisyTrainer,
    PrivateInferencePipeline,
    PrivateLocalTransformer,
    best_split,
    compare_strategies,
    cost_on_cloud,
    cost_on_device,
    cost_split,
    split_sequential,
)
from repro.mobile import (
    CELLULAR_3G,
    CLOUD_SERVER,
    LOW_END_PHONE,
    WIFI,
    profile_model,
)
from repro.nn import losses
from repro.optim import Adam
from repro.synth import make_digits
from repro.tensor import Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="module")
def trained_model():
    rng = np.random.default_rng(0)
    x, y = make_digits(800, seed=1)
    model = nn.Sequential(
        nn.Linear(64, 32, rng=rng), nn.Tanh(),
        nn.Linear(32, 16, rng=rng), nn.Tanh(),
        nn.Linear(16, 10, rng=rng),
    )
    optimizer = Adam(model.parameters(), lr=0.02)
    for _ in range(10):
        order = rng.permutation(len(x))
        for start in range(0, len(x), 64):
            picks = order[start:start + 64]
            optimizer.zero_grad()
            losses.cross_entropy(model(Tensor(x[picks])), y[picks]).backward()
            optimizer.step()
    return model, (x, y)


class TestDeploymentPlanning:
    def make_profile(self, rng, big=False):
        size = 2048 if big else 32
        model = nn.Sequential(nn.Linear(512, size, rng=rng), nn.ReLU(),
                              nn.Linear(size, 10, rng=rng))
        return profile_model(model, (512,))

    def test_on_device_moves_no_bytes(self, rng):
        report = cost_on_device(self.make_profile(rng), LOW_END_PHONE)
        assert report.cost.bytes_up == 0 and report.cost.bytes_down == 0
        assert report.cost.latency_s > 0

    def test_on_cloud_uploads_input(self, rng):
        report = cost_on_cloud(self.make_profile(rng), LOW_END_PHONE,
                               CLOUD_SERVER, WIFI)
        assert report.cost.bytes_up == 512 * 4

    def test_split_extremes_match_pure_strategies(self, rng):
        profile = self.make_profile(rng)
        device_report = cost_on_device(profile, LOW_END_PHONE)
        split_full = cost_split(profile, LOW_END_PHONE, CLOUD_SERVER, WIFI,
                                len(profile.layers))
        assert split_full.cost.latency_s == pytest.approx(
            device_report.cost.latency_s)
        split_zero = cost_split(profile, LOW_END_PHONE, CLOUD_SERVER, WIFI, 0)
        cloud_report = cost_on_cloud(profile, LOW_END_PHONE, CLOUD_SERVER, WIFI)
        assert split_zero.cost.latency_s == pytest.approx(
            cloud_report.cost.latency_s)

    def test_best_split_no_worse_than_extremes(self, rng):
        profile = self.make_profile(rng, big=True)
        best = best_split(profile, LOW_END_PHONE, CLOUD_SERVER, CELLULAR_3G)
        device = cost_on_device(profile, LOW_END_PHONE)
        cloud = cost_on_cloud(profile, LOW_END_PHONE, CLOUD_SERVER, CELLULAR_3G)
        assert best.cost.latency_s <= device.cost.latency_s + 1e-9
        assert best.cost.latency_s <= cloud.cost.latency_s + 1e-9

    def test_big_model_slow_link_prefers_split_or_device(self, rng):
        profile = self.make_profile(rng, big=True)
        best = best_split(profile, LOW_END_PHONE, CLOUD_SERVER, CELLULAR_3G,
                          objective="latency")
        # Raw input upload over 3G is expensive; the planner should keep at
        # least the first layer (which shrinks the representation) local.
        assert best.split_index >= 1

    def test_energy_objective(self, rng):
        profile = self.make_profile(rng, big=True)
        best = best_split(profile, LOW_END_PHONE, CLOUD_SERVER, WIFI,
                          objective="energy")
        device = cost_on_device(profile, LOW_END_PHONE)
        assert best.cost.device_energy_j <= device.cost.device_energy_j + 1e-12

    def test_objective_validation(self, rng):
        with pytest.raises(ValueError):
            best_split(self.make_profile(rng), LOW_END_PHONE, CLOUD_SERVER,
                       WIFI, objective="bogus")

    def test_compare_strategies_rows(self, rng):
        reports = compare_strategies(self.make_profile(rng), LOW_END_PHONE,
                                     CLOUD_SERVER, WIFI)
        assert len(reports) == 3
        assert {r.strategy.split("@")[0] for r in reports} == {
            "on-device", "on-cloud", "split"}
        for report in reports:
            assert isinstance(report.row(), str)


class TestSplitSequential:
    def test_split_parts_compose(self, rng, trained_model):
        model, _ = trained_model
        local, cloud = split_sequential(model, 2)
        x = Tensor(rng.normal(size=(3, 64)))
        assert np.allclose(cloud(local(x)).numpy(), model(x).numpy())

    def test_split_bounds(self, trained_model):
        model, _ = trained_model
        with pytest.raises(ValueError):
            split_sequential(model, 0)
        with pytest.raises(ValueError):
            split_sequential(model, 5)

    def test_type_check(self, rng):
        with pytest.raises(TypeError):
            split_sequential(nn.Linear(4, 4, rng=rng), 1)


class TestPrivateTransformer:
    def test_extract_clips_norm(self, trained_model, rng):
        model, (x, _) = trained_model
        local, _ = split_sequential(model, 2)
        transformer = PrivateLocalTransformer(local, bound=1.0,
                                              noise_sigma=0.0,
                                              nullification_rate=0.0)
        representation = transformer.extract(x[:50])
        norms = np.linalg.norm(representation, axis=1)
        assert (norms <= 1.0 + 1e-9).all()

    def test_nullification_rate(self, trained_model):
        model, (x, _) = trained_model
        local, _ = split_sequential(model, 2)
        transformer = PrivateLocalTransformer(local, nullification_rate=0.5,
                                              noise_sigma=0.0, seed=0)
        representation = np.ones((200, 32))
        perturbed = transformer.perturb(representation)
        zero_fraction = (perturbed == 0).mean()
        assert abs(zero_fraction - 0.5) < 0.05

    def test_noise_changes_output_per_call(self, trained_model):
        model, (x, _) = trained_model
        local, _ = split_sequential(model, 2)
        transformer = PrivateLocalTransformer(local, noise_sigma=1.0, seed=0)
        a = transformer(x[:5])
        b = transformer(x[:5])
        assert not np.allclose(a, b)

    def test_epsilon_decreases_with_noise(self, trained_model):
        model, _ = trained_model
        local, _ = split_sequential(model, 2)
        low = PrivateLocalTransformer(local, noise_sigma=0.5).epsilon_per_query()
        high = PrivateLocalTransformer(local, noise_sigma=4.0).epsilon_per_query()
        assert high < low

    def test_zero_noise_is_infinite_epsilon(self, trained_model):
        model, _ = trained_model
        local, _ = split_sequential(model, 2)
        transformer = PrivateLocalTransformer(local, noise_sigma=0.0)
        assert transformer.epsilon_per_query() == float("inf")

    def test_layer_without_rule_extracts_eagerly(self, rng, monkeypatch):
        """The first compile's UnsupportedModuleError selects the eager
        forward for good; each call returns exactly what it computes."""
        import repro.serve

        class Halve(nn.Module):
            """A layer the compiler has no rule for."""

            def forward(self, x):
                return x * 0.5

        attempts = []
        compile_plan = repro.serve.compile_plan

        def counted(*args, **kwargs):
            attempts.append(1)
            return compile_plan(*args, **kwargs)

        monkeypatch.setattr(repro.serve, "compile_plan", counted)
        local = nn.Sequential(nn.Linear(8, 6, rng=rng), nn.Tanh(), Halve())
        transformer = PrivateLocalTransformer(local, bound=1e6,
                                              noise_sigma=0.0,
                                              nullification_rate=0.0)
        for batch in (5, 3):
            x = rng.standard_normal((batch, 8))
            np.testing.assert_array_equal(transformer.extract(x),
                                          local(Tensor(x)).numpy())
        assert len(attempts) == 1

    def test_validation(self, trained_model):
        model, _ = trained_model
        local, _ = split_sequential(model, 2)
        with pytest.raises(ValueError):
            PrivateLocalTransformer(local, nullification_rate=1.0)
        with pytest.raises(ValueError):
            PrivateLocalTransformer(local, bound=0.0)


class TestNoisyTraining:
    def test_noisy_training_beats_standard_under_noise(self, trained_model):
        """The paper's Sec. III-A claim."""
        model, (x, y) = trained_model
        local, _ = split_sequential(model, 2)
        test_x, test_y = make_digits(300, seed=5)
        accuracies = {}
        for fraction in (0.0, 1.0):
            transformer = PrivateLocalTransformer(
                local, nullification_rate=0.1, noise_sigma=0.8, bound=5.0,
                seed=0)
            crng = np.random.default_rng(7)
            cloud = nn.Sequential(nn.Linear(32, 24, rng=crng), nn.Tanh(),
                                  nn.Linear(24, 10, rng=crng))
            NoisyTrainer(cloud, transformer, lr=0.01, noisy_fraction=fraction,
                         seed=0).train(x, y, epochs=10)
            pipeline = PrivateInferencePipeline(transformer, cloud)
            accuracies[fraction] = pipeline.accuracy(test_x, test_y, repeats=4)
        assert accuracies[1.0] > accuracies[0.0]

    def test_accuracy_degrades_with_noise(self, trained_model):
        model, (x, y) = trained_model
        local, _ = split_sequential(model, 2)
        test_x, test_y = make_digits(200, seed=5)
        results = []
        for sigma in (0.1, 3.0):
            transformer = PrivateLocalTransformer(local, noise_sigma=sigma,
                                                  bound=5.0, seed=0)
            crng = np.random.default_rng(7)
            cloud = nn.Sequential(nn.Linear(32, 24, rng=crng), nn.Tanh(),
                                  nn.Linear(24, 10, rng=crng))
            NoisyTrainer(cloud, transformer, lr=0.01, noisy_fraction=1.0,
                         seed=0).train(x, y, epochs=4)
            pipeline = PrivateInferencePipeline(transformer, cloud)
            results.append(pipeline.accuracy(test_x, test_y, repeats=2))
        assert results[0] > results[1]

    def test_communication_reduction(self, trained_model):
        model, _ = trained_model
        local, _ = split_sequential(model, 2)
        transformer = PrivateLocalTransformer(local, noise_sigma=1.0)
        pipeline = PrivateInferencePipeline(transformer, None)
        assert pipeline.communication_reduction(64, 32) == pytest.approx(2.0)

    def test_noisy_fraction_validation(self, trained_model):
        model, _ = trained_model
        local, cloud = split_sequential(model, 2)
        transformer = PrivateLocalTransformer(local)
        with pytest.raises(ValueError):
            NoisyTrainer(cloud, transformer, noisy_fraction=1.5)


class TestEarlyExit:
    def test_threshold_controls_offload(self):
        rng = np.random.default_rng(0)
        x, y = make_digits(500, seed=1)
        network = EarlyExitNetwork(
            backbone_local=nn.Sequential(nn.Linear(64, 24, rng=rng), nn.Tanh()),
            exit_head=nn.Linear(24, 10, rng=rng),
            backbone_cloud=nn.Sequential(nn.Linear(24, 24, rng=rng), nn.Tanh()),
            cloud_head=nn.Linear(24, 10, rng=rng),
            threshold=0.5,
        )
        network.train_joint(x, y, epochs=5, lr=0.02)
        network.threshold = 1e-9
        _, none_local = network.accuracy_and_offload(x[:100], y[:100])
        network.threshold = 100.0
        _, all_local = network.accuracy_and_offload(x[:100], y[:100])
        assert none_local < 0.1
        assert all_local > 0.9

    def test_joint_training_reaches_accuracy(self):
        rng = np.random.default_rng(0)
        x, y = make_digits(600, seed=1)
        test_x, test_y = make_digits(200, seed=2)
        network = EarlyExitNetwork(
            backbone_local=nn.Sequential(nn.Linear(64, 24, rng=rng), nn.Tanh()),
            exit_head=nn.Linear(24, 10, rng=rng),
            backbone_cloud=nn.Sequential(nn.Linear(24, 24, rng=rng), nn.Tanh()),
            cloud_head=nn.Linear(24, 10, rng=rng),
            threshold=0.5,
        )
        network.train_joint(x, y, epochs=8, lr=0.02)
        accuracy, offload = network.accuracy_and_offload(test_x, test_y)
        assert accuracy > 0.85
        assert 0.0 <= offload <= 1.0
