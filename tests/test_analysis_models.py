"""Shape check over the application models + regression tests for the
latent dtype bugs the checkers surfaced."""

import numpy as np
import pytest

from repro import nn
from repro.analysis import Spec, check_module
from repro.compression.pruning import MagnitudePruner
from repro.compression.quantization import kmeans_quantize, uniform_quantize
from repro.core.deepmood import DeepMood
from repro.core.deepservice import DeepService
from repro.core.model import MultiViewGRUClassifier
from repro.tensor import Tensor, default_dtype
from tests.oracles import gru_stepwise, lstm_stepwise


def _view_specs(view_dims, batch=4, steps=6, dtype=np.float64):
    return [Spec((batch, steps, dim), dtype) for dim in view_dims]


@pytest.mark.parametrize("fusion", ["fc", "fm", "mvm"])
@pytest.mark.parametrize("bidirectional", [False, True],
                         ids=["uni", "bi"])
def test_multiview_classifier_abstract_shapes(fusion, bidirectional):
    model = MultiViewGRUClassifier(
        (4, 6, 3), hidden_size=8, num_classes=2, fusion=fusion,
        bidirectional=bidirectional,
    )
    out, trace = check_module(model, _view_specs((4, 6, 3)))
    assert out.shape == (4, 2)
    assert not trace.upcasts(), str(trace)


def test_deepmood_builder_passes_interpreter():
    app = DeepMood(view_dims=(4, 6, 3), hidden_size=8, fusion="mvm")
    out, trace = check_module(app.model, _view_specs((4, 6, 3)))
    assert out.shape == (4, 2)
    assert not trace.upcasts()


def test_deepservice_builder_passes_interpreter():
    app = DeepService(num_users=5, view_dims=(4, 6, 3), hidden_size=8,
                      fusion="fc")
    out, trace = check_module(app.model, _view_specs((4, 6, 3)))
    assert out.shape == (4, 5)
    assert not trace.upcasts()


@pytest.mark.parametrize("builder,spec,out_shape", [
    # examples/federated_mood.py client model
    (lambda rng: nn.Sequential(nn.Linear(26, 32, rng=rng), nn.ReLU(),
                               nn.Linear(32, 2, rng=rng)),
     Spec((8, 26)), (8, 2)),
    # examples/gradient_leakage.py victim model
    (lambda rng: nn.Sequential(nn.Linear(64, 32, rng=rng), nn.ReLU(),
                               nn.Linear(32, 10, rng=rng)),
     Spec((8, 64)), (8, 10)),
    # examples/model_zoo_compression.py teacher
    (lambda rng: nn.Sequential(nn.Linear(64, 96, rng=rng), nn.ReLU(),
                               nn.Linear(96, 48, rng=rng), nn.ReLU(),
                               nn.Linear(48, 10, rng=rng)),
     Spec((8, 64)), (8, 10)),
])
def test_example_configs_pass_interpreter(builder, spec, out_shape):
    model = builder(np.random.default_rng(0))
    out, trace = check_module(model, spec)
    assert out.shape == out_shape
    assert not trace.upcasts()


# ----------------------------------------------------------------------
# Latent dtype bugs: each test fails against the seed implementation.
# ----------------------------------------------------------------------
def test_fusion_stays_float32():
    # Seed bug: _append_ones built a default-dtype (float64) ones column,
    # upcasting every fusion head under a float32 policy.
    with default_dtype(np.float32):
        model = nn.FullyConnectedFusion([4, 6], 8, 2)
        views = [Tensor(np.zeros((3, 4), dtype=np.float32)),
                 Tensor(np.zeros((3, 6), dtype=np.float32))]
        out = model(views)
    assert out.data.dtype == np.float32
    spec, trace = check_module(
        model, [Spec((3, 4), np.float32), Spec((3, 6), np.float32)])
    assert spec.dtype == np.float32 and not trace.upcasts()


@pytest.mark.parametrize("layer_cls", [nn.GRU, nn.LSTM])
def test_stepwise_recurrence_stays_float32(layer_cls):
    # Seed bug: the stepwise recurrence seeded itself with a
    # default-dtype initial state, so float32 sequences ran at float64.
    stepwise = {nn.GRU: gru_stepwise, nn.LSTM: lstm_stepwise}[layer_cls]
    with default_dtype(np.float32):
        layer = layer_cls(5, 4)
        x = Tensor(np.zeros((3, 6, 5), dtype=np.float32))
        out = stepwise(layer, x)
    assert out.data.dtype == np.float32


def test_pruning_masks_follow_param_dtype():
    # Seed bug: masks were float64 regardless of the model dtype, so
    # every prune/apply_masks multiply upcast float32 weights.
    with default_dtype(np.float32):
        model = nn.Sequential(nn.Linear(8, 4), nn.ReLU(), nn.Linear(4, 2))
        pruner = MagnitudePruner(model, scope="global").prune(0.5)
    for mask in pruner.masks.values():
        assert mask.dtype == np.float32
    for param in model.parameters():
        assert param.data.dtype == np.float32
    pruner.apply_masks()
    for param in model.parameters():
        assert param.data.dtype == np.float32


@pytest.mark.parametrize("quantize", [
    lambda w: kmeans_quantize(w, bits=2),
    lambda w: uniform_quantize(w, bits=4),
], ids=["kmeans", "uniform"])
def test_dequantize_preserves_weight_dtype(quantize):
    # Seed bug: dequantize() returned float64 codebook values into
    # float32 models.
    weights = np.random.default_rng(0).standard_normal((6, 5)).astype(np.float32)
    q = quantize(weights)
    assert q.dequantize().dtype == np.float32
    assert q.codebook.dtype == np.float32


def test_buffer_round_trip_preserves_dtype():
    # Seed bug: _load_buffers adopted the checkpoint's dtype, so a
    # float32 model loading a float64 archive silently flipped its
    # running statistics to float64 (verified via the shape check).
    with default_dtype(np.float32):
        model = nn.BatchNorm1d(4)
        model(Tensor(np.random.default_rng(0)
                     .standard_normal((8, 4)).astype(np.float32)))
        state = {k: np.asarray(v, dtype=np.float64)
                 for k, v in model.state_dict().items()}
        model.load_state_dict(state)
    assert model.running_mean.dtype == np.float32
    assert model.running_var.dtype == np.float32
    for param in model.parameters():
        assert param.data.dtype == np.float32
    out, trace = check_module(model, Spec((8, 4), np.float32))
    assert out.dtype == np.float32 and not trace.upcasts()
