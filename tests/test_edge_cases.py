"""Edge-case tests across modules (paths not covered elsewhere)."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import nn
from repro.data import ArrayDataset, DataLoader, MultiViewSequenceDataset
from repro.federated.selective import SelectiveSSGDServer
from repro.inference import DeploymentReport, cost_on_device
from repro.mobile import LOW_END_PHONE, ModelCostProfile, profile_model
from repro.optim import SGD
from repro.synth import TypingDynamicsGenerator
from repro.tensor import Tensor
import repro.tensor as T


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestTensorEdgeCases:
    def test_scalar_tensor_operations(self):
        a = Tensor(2.0, requires_grad=True)
        out = a * 3 + 1
        out.backward()
        assert a.grad == pytest.approx(3.0)

    def test_pow_type_check(self, rng):
        a = Tensor(rng.normal(size=3))
        with pytest.raises(TypeError):
            a ** Tensor([2.0])

    def test_comparison_operators_non_differentiable(self, rng):
        a = Tensor(rng.normal(size=4), requires_grad=True)
        b = Tensor(rng.normal(size=4))
        mask = a > b
        assert not mask.requires_grad
        assert set(np.unique(mask.numpy())) <= {0.0, 1.0}
        assert np.allclose((a >= b).numpy() + (a < b).numpy(), 1.0)

    def test_repr_contains_flag(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))

    def test_backward_twice_accumulates(self, rng):
        a = Tensor(rng.normal(size=3), requires_grad=True)
        (a * 2).sum().backward()
        first = a.grad.copy()
        (a * 2).sum().backward()
        assert np.allclose(a.grad, 2 * first)

    def test_diamond_graph_gradient(self):
        # z = x*y + x (x used twice through different paths)
        x = Tensor([3.0], requires_grad=True)
        y = x * 2
        z = (x * y + x).sum()  # z = 2x^2 + x, dz/dx = 4x + 1 = 13
        z.backward()
        assert x.grad[0] == pytest.approx(13.0)

    def test_clip_gradient_zero_outside(self):
        a = Tensor(np.array([-2.0, 0.0, 2.0]), requires_grad=True)
        T.clip(a, -1.0, 1.0).sum().backward()
        assert np.allclose(a.grad, [0.0, 1.0, 0.0])


class TestGRUEdgeCases:
    def test_single_step_sequence(self, rng):
        gru = nn.GRU(3, 4, rng=rng)
        out = gru(Tensor(rng.normal(size=(2, 1, 3))))
        assert out.shape == (2, 4)

    def test_initial_state_override(self, rng):
        gru = nn.GRU(3, 4, rng=rng)
        x = Tensor(rng.normal(size=(2, 3, 3)))
        h0 = Tensor(rng.normal(size=(2, 4)))
        a = gru(x, initial_state=h0).numpy()
        b = gru(x).numpy()
        assert not np.allclose(a, b)

    def test_all_padding_row_keeps_initial_state(self, rng):
        gru = nn.GRU(2, 3, rng=rng)
        x = rng.normal(size=(2, 4, 2))
        mask = np.array([[1, 1, 1, 1], [0, 0, 0, 0]], dtype=float)
        out = gru(Tensor(x), mask=mask).numpy()
        assert np.allclose(out[1], 0.0)  # never updated from zero state


class TestDataEdgeCases:
    def test_loader_batch_larger_than_dataset(self, rng):
        ds = ArrayDataset(rng.normal(size=(3, 2)), np.arange(3))
        batches = list(DataLoader(ds, batch_size=10, shuffle=False))
        assert len(batches) == 1
        assert len(batches[0][1]) == 3

    def test_loader_max_length_truncates_views(self, rng):
        views = [[rng.normal(size=(20, 2)) for _ in range(4)]]
        ds = MultiViewSequenceDataset(views, np.arange(4))
        loader = DataLoader(ds, batch_size=4, shuffle=False, max_length=5)
        (padded_mask,), _ = next(iter(loader))
        padded, mask = padded_mask
        assert padded.shape[1] == 5

    def test_single_class_stratified(self, rng):
        from repro.data import stratified_split

        train, test = stratified_split(np.zeros(10, dtype=int),
                                       test_fraction=0.3, rng=rng)
        assert len(train) + len(test) == 10


class TestOptimEdgeCases:
    def test_sgd_zero_momentum_matches_vanilla(self, rng):
        from repro.nn import Parameter

        p1 = Parameter(np.array([1.0]))
        p2 = Parameter(np.array([1.0]))
        a = SGD([p1], lr=0.1)
        b = SGD([p2], lr=0.1, momentum=0.0)
        for _ in range(3):
            p1.grad = np.array([0.5])
            p2.grad = np.array([0.5])
            a.step()
            b.step()
        assert np.allclose(p1.data, p2.data)

    def test_state_is_per_parameter(self, rng):
        from repro.nn import Parameter
        from repro.optim import Adam

        params = [Parameter(np.zeros(2)), Parameter(np.zeros(3))]
        optimizer = Adam(params, lr=0.1)
        params[0].grad = np.ones(2)
        optimizer.step()
        assert "m" in optimizer.state[0]
        assert "m" not in optimizer.state[1]


class TestMobileEdgeCases:
    def test_empty_profile(self):
        profile = ModelCostProfile(layers=[])
        assert profile.total_flops == 0
        assert profile.boundary_bytes(0) == 0

    def test_profile_unknown_module_is_cheap(self, rng):
        model = nn.Sequential(nn.Dropout(0.5), nn.Linear(4, 2, rng=rng))
        profile = profile_model(model, (4,))
        assert profile.layers[0].params == 0

    def test_deployment_report_row_format(self, rng):
        model = nn.Sequential(nn.Linear(8, 4, rng=rng))
        report = cost_on_device(profile_model(model, (8,)), LOW_END_PHONE)
        row = report.row()
        assert "on-device" in row


class TestSelectiveServerEdgeCases:
    def test_download_full_fraction(self):
        def model_fn():
            rng = np.random.default_rng(0)
            return nn.Sequential(nn.Linear(4, 3, rng=rng))

        server = SelectiveSSGDServer(model_fn)
        indices, values = server.download(1.0, np.random.default_rng(0))
        assert len(indices) == server.flat.size

    def test_upload_accumulates_counts(self):
        def model_fn():
            rng = np.random.default_rng(0)
            return nn.Sequential(nn.Linear(4, 3, rng=rng))

        server = SelectiveSSGDServer(model_fn)
        server.upload(np.array([0, 1]), np.array([0.5, -0.5]))
        assert server.update_counts[0] == 1.0
        assert server.update_counts[2] == 0.0


class TestGeneratorEdgeCases:
    def test_minimum_session_length(self):
        generator = TypingDynamicsGenerator(seed=0)
        profile = generator.sample_profile(0)
        profile.session_keys_mean = 1.0  # force tiny sessions
        session = generator.sample_session(profile, 0.3,
                                           np.random.default_rng(0))
        assert len(session.alphanumeric) >= 5  # enforced minimum

    def test_extreme_mood_bounds(self):
        generator = TypingDynamicsGenerator(seed=0, mood_effect=1.0)
        profile = generator.sample_profile(0)
        for score in (0.0, 1.0):
            session = generator.sample_session(profile, score,
                                               np.random.default_rng(0))
            assert np.isfinite(session.alphanumeric).all()
            assert np.isfinite(session.accelerometer).all()

    def test_zero_mood_effect_removes_label_signal(self):
        generator = TypingDynamicsGenerator(seed=0, mood_effect=0.0)
        profile = generator.sample_profile(0)
        rng_a = np.random.default_rng(1)
        rng_b = np.random.default_rng(1)
        low = generator.sample_session(profile, 0.1, rng_a)
        high = generator.sample_session(profile, 0.9, rng_b)
        # With mood_effect=0 the dynamics distributions coincide.
        assert np.allclose(low.alphanumeric, high.alphanumeric)


class TestImportFootprint:
    def test_import_repro_loads_no_scipy(self):
        """scipy (~45 MB resident) loads only inside the functions that
        call it, so importing the package does not pay for it."""
        source_root = Path(repro.__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro; print(sorted(m for m in sys.modules "
             "if m.partition('.')[0] == 'scipy'))"],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(source_root), "PATH": "/usr/bin:/bin",
                 "PYTHONDONTWRITEBYTECODE": "1"},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"
