"""Shape check vs. real forward: every repro.nn layer, both dtypes.

``check_module`` compiles a module's forward through the layer
compiler's rules over zero-filled buffers, so its output spec must be
exactly what the eager forward produces.
"""

import numpy as np
import pytest

from repro import nn
from repro.analysis import (
    ShapeError,
    Spec,
    UnsupportedModuleError,
    check_module,
)
from repro.analysis.plans import audit_rule_coverage
from repro.analysis.plans.audit import exported_layers
from repro.core.model import MultiViewGRUClassifier
from repro.serve import compile_plan
from repro.tensor import Tensor, default_dtype
from repro.train import plan as train_plan


def _rng():
    return np.random.default_rng(0)


# Each case: (name, module factory, concrete input factory).  The concrete
# factory returns an ndarray, a tuple (for cells), or a list (for fusion
# heads); the spec input is derived from it so both runs see the same
# shapes and dtypes.
CASES = [
    ("Linear", lambda: nn.Linear(8, 5, rng=_rng()),
     lambda dt: _rng().standard_normal((4, 8)).astype(dt)),
    ("Linear-nobias", lambda: nn.Linear(8, 5, bias=False, rng=_rng()),
     lambda dt: _rng().standard_normal((4, 8)).astype(dt)),
    ("ReLU", nn.ReLU, lambda dt: _rng().standard_normal((4, 7)).astype(dt)),
    ("LeakyReLU", lambda: nn.LeakyReLU(0.1),
     lambda dt: _rng().standard_normal((4, 7)).astype(dt)),
    ("Tanh", nn.Tanh, lambda dt: _rng().standard_normal((4, 7)).astype(dt)),
    ("Sigmoid", nn.Sigmoid, lambda dt: _rng().standard_normal((4, 7)).astype(dt)),
    ("Softmax", nn.Softmax, lambda dt: _rng().standard_normal((4, 7)).astype(dt)),
    ("Identity", nn.Identity, lambda dt: _rng().standard_normal((4, 7)).astype(dt)),
    ("Dropout", lambda: nn.Dropout(0.5, rng=_rng()).eval(),
     lambda dt: _rng().standard_normal((4, 7)).astype(dt)),
    ("Flatten", nn.Flatten,
     lambda dt: _rng().standard_normal((4, 2, 3, 5)).astype(dt)),
    ("BatchNorm1d", lambda: nn.BatchNorm1d(7),
     lambda dt: _rng().standard_normal((4, 7)).astype(dt)),
    ("LayerNorm", lambda: nn.LayerNorm(7),
     lambda dt: _rng().standard_normal((4, 7)).astype(dt)),
    ("Sequential", lambda: nn.Sequential(
        nn.Linear(8, 6, rng=_rng()), nn.ReLU(), nn.Linear(6, 3, rng=_rng())),
     lambda dt: _rng().standard_normal((4, 8)).astype(dt)),
    ("Conv2d", lambda: nn.Conv2d(3, 6, 3, stride=1, padding=1, rng=_rng()),
     lambda dt: _rng().standard_normal((2, 3, 8, 8)).astype(dt)),
    ("Conv2d-grouped", lambda: nn.Conv2d(4, 8, 3, groups=2, rng=_rng()),
     lambda dt: _rng().standard_normal((2, 4, 8, 8)).astype(dt)),
    ("MaxPool2d", lambda: nn.MaxPool2d(2),
     lambda dt: _rng().standard_normal((2, 3, 8, 8)).astype(dt)),
    ("AvgPool2d", lambda: nn.AvgPool2d(2),
     lambda dt: _rng().standard_normal((2, 3, 8, 8)).astype(dt)),
    ("GlobalAvgPool2d", nn.GlobalAvgPool2d,
     lambda dt: _rng().standard_normal((2, 3, 8, 8)).astype(dt)),
    ("DepthwiseSeparableConv2d",
     lambda: nn.DepthwiseSeparableConv2d(3, 6, 3, padding=1, rng=_rng()),
     lambda dt: _rng().standard_normal((2, 3, 8, 8)).astype(dt)),
    ("GRUCell", lambda: nn.GRUCell(5, 4, rng=_rng()),
     lambda dt: (_rng().standard_normal((3, 5)).astype(dt),
                 _rng().standard_normal((3, 4)).astype(dt))),
    ("GRU", lambda: nn.GRU(5, 4, rng=_rng()),
     lambda dt: _rng().standard_normal((3, 6, 5)).astype(dt)),
    ("LSTMCell", lambda: nn.LSTMCell(5, 4, rng=_rng()),
     lambda dt: (_rng().standard_normal((3, 5)).astype(dt),
                 (_rng().standard_normal((3, 4)).astype(dt),
                  _rng().standard_normal((3, 4)).astype(dt)))),
    ("LSTM", lambda: nn.LSTM(5, 4, rng=_rng()),
     lambda dt: _rng().standard_normal((3, 6, 5)).astype(dt)),
    ("Bidirectional", lambda: nn.Bidirectional(
        nn.GRU(5, 4, rng=_rng()), nn.GRU(5, 4, rng=_rng())),
     lambda dt: _rng().standard_normal((3, 6, 5)).astype(dt)),
    ("FullyConnectedFusion",
     lambda: nn.FullyConnectedFusion([4, 6], 8, 2, rng=_rng()),
     lambda dt: [_rng().standard_normal((3, 4)).astype(dt),
                 _rng().standard_normal((3, 6)).astype(dt)]),
    ("FactorizationMachineFusion",
     lambda: nn.FactorizationMachineFusion([4, 6], 8, 2, rng=_rng()),
     lambda dt: [_rng().standard_normal((3, 4)).astype(dt),
                 _rng().standard_normal((3, 6)).astype(dt)]),
    ("MultiViewMachineFusion",
     lambda: nn.MultiViewMachineFusion([4, 6], 8, 2, rng=_rng()),
     lambda dt: [_rng().standard_normal((3, 4)).astype(dt),
                 _rng().standard_normal((3, 6)).astype(dt)]),
]


def _to_spec(value):
    if isinstance(value, np.ndarray):
        return Spec(value.shape, value.dtype)
    if isinstance(value, (tuple, list)):
        return type(value)(_to_spec(v) for v in value)
    raise TypeError(type(value))


def _to_tensors(value):
    if isinstance(value, np.ndarray):
        return Tensor(value, dtype=value.dtype)
    if isinstance(value, (tuple, list)):
        return type(value)(_to_tensors(v) for v in value)
    raise TypeError(type(value))


def _call(module, concrete):
    if isinstance(concrete, tuple):
        # Cells take (x, state) as positional arguments.
        return module(*_to_tensors(concrete))
    return module(_to_tensors(concrete))


def _flatten(value):
    if isinstance(value, (tuple, list)):
        out = []
        for item in value:
            out.extend(_flatten(item))
        return out
    return [value]


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("name,make_module,make_input",
                         CASES, ids=[c[0] for c in CASES])
def test_abstract_matches_real_forward(name, make_module, make_input, dtype):
    with default_dtype(dtype):
        module = make_module()
        concrete = make_input(np.dtype(dtype))
        real = _call(module, concrete)
    out, trace = check_module(module, _to_spec(concrete))
    real_flat = _flatten(real)
    spec_flat = _flatten(out)
    assert len(real_flat) == len(spec_flat)
    for tensor, spec in zip(real_flat, spec_flat):
        assert tuple(tensor.shape) == spec.shape, name
        assert tensor.data.dtype == spec.dtype, name
    # A same-dtype model/input run must not report an upcast.
    assert not trace.upcasts(), trace


def test_every_exported_layer_has_a_rule():
    # check_module builds through the layer compiler's one registry, and
    # CASES above checks each exported layer against its eager forward.
    assert audit_rule_coverage() == []
    checked = {name.split("-")[0] for name, _, _ in CASES}
    assert {cls.__name__ for cls in exported_layers()} <= checked


def test_linear_shape_mismatch_is_caught():
    module = nn.Linear(8, 5)
    with pytest.raises(ShapeError):
        check_module(module, Spec((4, 9)))


def test_batchnorm_rejects_rank3_input():
    # BatchNorm1d over (batch, time, features) would normalize the wrong
    # axis silently at runtime; the rule makes it an error.
    module = nn.BatchNorm1d(7)
    with pytest.raises(ShapeError):
        check_module(module, Spec((4, 6, 7)))


def test_conv_kernel_too_large_is_caught():
    module = nn.Conv2d(3, 6, 5)
    with pytest.raises(ShapeError):
        check_module(module, Spec((2, 3, 4, 4)))


def test_fusion_view_count_mismatch_is_caught():
    module = nn.FullyConnectedFusion([4, 6], 8, 2)
    with pytest.raises(ShapeError):
        check_module(module, [Spec((3, 4))])


def test_view_count_mismatch_is_a_shape_error():
    # A malformed input is not a missing rule: UnsupportedModuleError is
    # what FedAvg and private inference read as "train eagerly".
    model = MultiViewGRUClassifier((4, 6, 3), hidden_size=8, num_classes=2)
    with pytest.raises(ShapeError, match="expected 3 views, got 2"):
        check_module(model, [Spec((4, 6, 4)), Spec((4, 6, 6))])


@pytest.mark.parametrize("make_module,inputs", [
    (lambda: nn.Linear(8, 5), [Spec((4, 8))]),
    (lambda: nn.GRUCell(4, 8), Spec((2, 4))),
    (lambda: nn.FullyConnectedFusion([4, 6], 8, 2), Spec((3, 10))),
], ids=["array-in-list", "cell-without-state", "fusion-without-views"])
def test_malformed_input_is_a_shape_error(make_module, inputs):
    # The layer has a rule; the input has the wrong structure.
    with pytest.raises(ShapeError):
        check_module(make_module(), inputs)


@pytest.mark.parametrize("make_cell,shapes", [
    (lambda: nn.GRUCell(5, 7), ((5,), (3, 7))),
    (lambda: nn.GRUCell(5, 7), ((3, 5), (1, 7))),
    (lambda: nn.LSTMCell(5, 7), ((5,), ((3, 7), (3, 7)))),
    (lambda: nn.LSTMCell(5, 7), ((3, 5), ((1, 7), (3, 7)))),
    (lambda: nn.LSTMCell(5, 7), ((3, 5), ((3, 7), (1, 7)))),
    (lambda: nn.LSTMCell(5, 7), ((3, 1, 5), ((3, 7), (3, 7)))),
], ids=["gru-x-rank", "gru-h-batch", "lstm-x-rank", "lstm-h-batch",
        "lstm-c-batch", "lstm-x-sequence"])
def test_malformed_cell_input_is_a_shape_error(make_cell, shapes):
    # Without the rule's check numpy would broadcast one input row, or a
    # (1, hidden) state, over the batch.
    def build(make):
        x, state = shapes
        if isinstance(state[0], tuple):
            return make(x), tuple(make(s) for s in state)
        return make(x), make(state)

    name = type(make_cell()).__name__
    with pytest.raises(ShapeError,
                       match=r"^{}: expects .*\(batch, 7\) state".format(name)):
        check_module(make_cell(), build(Spec))
    with pytest.raises(ShapeError, match=r"\(batch, 7\) state"):
        compile_plan(make_cell(), build(np.zeros))


@pytest.mark.parametrize("make_head", [
    lambda: nn.FullyConnectedFusion([4, 6], 8, 2),
    lambda: nn.FactorizationMachineFusion([4, 6], 3, 2),
], ids=["fc", "fm"])
def test_fusion_view_widths_must_match_view_sizes(make_head):
    # (3, 3) + (3, 7) has the declared 10 columns, but not view by view.
    views = [np.zeros((3, 3)), np.zeros((3, 7))]
    with pytest.raises(ValueError, match="widths"):
        make_head()([Tensor(view) for view in views])
    with pytest.raises(ValueError, match="widths"):
        compile_plan(make_head(), views)
    with pytest.raises(ShapeError, match="widths"):
        check_module(make_head(), [Spec(view.shape) for view in views])


def test_sequence_rank_mismatch_is_a_shape_error():
    with pytest.raises(ShapeError,
                       match=r"^GRU: expects \(batch, time, features\)"):
        check_module(nn.GRU(5, 4), Spec((3, 5)))


@pytest.mark.parametrize("shape", [(4, 9), (4, 16)], ids=["build", "run"])
def test_shape_error_names_the_failing_layer(shape):
    # (4, 9) fails the rule's reshape while building; (4, 16) reshapes
    # to (8, 8) rows and fails in the forward step's matmul.
    model = nn.Sequential(nn.Tanh(), nn.Linear(8, 5))
    with pytest.raises(ShapeError, match=r"^Sequential\.layer1 \(Linear\): "):
        check_module(model, Spec(shape))


def test_upcast_event_recorded_for_mixed_dtypes():
    module = nn.Linear(8, 5)  # float64 weights under the default dtype
    out, trace = check_module(module, Spec((4, 8), np.float32))
    assert out.dtype == np.float64
    assert trace.upcasts()


def test_upcast_is_reported_once_by_the_layer_that_widens():
    model = nn.Sequential(nn.Linear(8, 5), nn.ReLU())  # float64 weights
    _, trace = check_module(model, Spec((4, 8), np.float32))
    assert [where for _, where, _ in trace.upcasts()] == \
        ["Sequential.layer0 (Linear)"]


def test_unknown_module_reports_missing_rule():
    class Strange(nn.Module):
        def forward(self, x):
            return x

    with pytest.raises(UnsupportedModuleError):
        check_module(Strange(), Spec((2, 2)))


def test_register_rule_extends_dispatch(monkeypatch):
    class Doubler(nn.Module):
        def forward(self, x):
            return x * 2

    monkeypatch.setattr(train_plan, "_TRAIN_RULES",
                        dict(train_plan._TRAIN_RULES))

    @train_plan.register_train_rule(Doubler)
    def _rule(module, inputs, ctx):
        out = ctx.alloc(inputs.shape, inputs.dtype)
        ctx.fwd(lambda: np.multiply(inputs, 2, out=out))
        return out

    out, trace = check_module(Doubler(), Spec((3, 3)))
    assert out == Spec((3, 3)) and not trace.events
