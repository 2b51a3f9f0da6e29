"""Compiled-training equivalence: plan steps match eager everywhere.

The acceptance bar for the training compiler: for **every** module class
:mod:`repro.nn` exports (fusion heads and the full
:class:`MultiViewGRUClassifier` included) a compiled
:class:`repro.train.TrainPlan` reproduces multi-step eager training —
losses, gradients, parameter trajectories, and (for BatchNorm) running
statistics — at both float32 and float64, and replays with zero new
arena allocations after the compile-time freeze.  DP-SGD's compiled
per-example path must equal its eager twin, and FedAvg's local training, which
replays one plan shared by every client of a model factory, must equal
a fresh eager model and optimizer bit for bit.
"""

import numpy as np
import pytest

from repro import nn, profiler
from repro import train as train_mod
from repro.federated import client as client_mod
from repro.analysis.plans.audit import exported_layers
from repro.core.model import MultiViewGRUClassifier
from repro.data import ArrayDataset, DataLoader
from repro.federated.client import FederatedClient
from repro.nn import losses
from repro.optim import SGD, Adam
from repro.privacy.dpsgd import DPSGDTrainer
from repro.privacy.mechanisms import clip_by_l2
from repro.rng import derive_rng
from repro.serve import ArenaFrozenError, BufferArena, ShapeError
from repro.tensor import Tensor, default_dtype
from repro.train import TrainPlan, TrainVerificationError, compile_train_plan
from repro.train import plan as train_plan_mod

# ----------------------------------------------------------------------
# Case registry: name -> (module factory, example-input factory)
#
# Input conventions mirror the serve-plan suite: a bare ndarray feeds
# ``module(Tensor(x))``; ``(x, mask)`` a sequence layer; ``(x, h)`` a
# GRUCell; ``(x, (h, c))`` an LSTMCell; a list a fusion head or the
# multi-view classifier.  Factories are seeded so calling one twice
# yields identical parameters and dropout streams — the basis for the
# eager-vs-plan trajectory comparison.
# ----------------------------------------------------------------------


def _rng(seed=0):
    return np.random.default_rng(seed)


def _arr(shape, dtype, seed=0):
    return _rng(seed).standard_normal(shape).astype(dtype)


def _mask(batch, steps, dtype, seed=1):
    lengths = _rng(seed).integers(1, steps + 1, size=batch)
    return (np.arange(steps)[None, :] < lengths[:, None]).astype(dtype)


def _seq_input(features, dtype, masked, seed=0):
    x = _arr((4, 6, features), dtype, seed)
    return (x, _mask(4, 6, dtype) if masked else None)


def _mlp():
    rng = _rng(3)
    return nn.Sequential(
        nn.Linear(10, 16, rng=rng), nn.ReLU(),
        nn.LayerNorm(16), nn.Dropout(0.5, rng=_rng(4)),
        nn.Linear(16, 8, rng=rng), nn.Softmax(),
    )


def _batchnorm_net():
    rng = _rng(5)
    return nn.Sequential(nn.Linear(10, 10, rng=rng), nn.BatchNorm1d(10),
                         nn.Sigmoid(), nn.Linear(10, 4, rng=rng))


def _convnet():
    rng = _rng(7)
    return nn.Sequential(
        nn.Conv2d(3, 6, 3, stride=1, padding=1, rng=rng),
        nn.LeakyReLU(0.1),
        nn.MaxPool2d(2),
        nn.Conv2d(6, 8, 3, stride=2, rng=rng),
        nn.Tanh(),
        nn.AvgPool2d(2),
        nn.Flatten(),
        nn.Linear(8, 5, rng=rng),
    )


def _depthwise():
    rng = _rng(8)
    return nn.Sequential(
        nn.DepthwiseSeparableConv2d(4, 8, 3, stride=1, padding=1, rng=rng),
        nn.GlobalAvgPool2d(),
        nn.Sigmoid(),
    )


CASES = {
    "mlp": (_mlp, lambda dt: _arr((5, 10), dt)),
    "identity": (lambda: nn.Sequential(nn.Identity(), nn.Linear(6, 4, rng=_rng(9))),
                 lambda dt: _arr((3, 6), dt)),
    "batchnorm": (_batchnorm_net, lambda dt: _arr((6, 10), dt, 10)),
    "convnet": (_convnet, lambda dt: _arr((2, 3, 14, 14), dt, 11)),
    "grouped_conv": (lambda: nn.Conv2d(4, 8, 3, padding=1, groups=2, rng=_rng(12)),
                     lambda dt: _arr((2, 4, 8, 8), dt, 13)),
    "depthwise": (_depthwise, lambda dt: _arr((2, 4, 9, 9), dt, 14)),
    "gru": (lambda: nn.GRU(5, 7, rng=_rng(15)),
            lambda dt: _seq_input(5, dt, masked=False)),
    "gru_masked": (lambda: nn.GRU(5, 7, rng=_rng(15)),
                   lambda dt: _seq_input(5, dt, masked=True)),
    "lstm_masked": (lambda: nn.LSTM(5, 7, rng=_rng(16)),
                    lambda dt: _seq_input(5, dt, masked=True)),
    "gru_cell": (lambda: nn.GRUCell(5, 7, rng=_rng(17)),
                 lambda dt: (_arr((4, 5), dt), _arr((4, 7), dt, 18))),
    "lstm_cell": (lambda: nn.LSTMCell(5, 7, rng=_rng(19)),
                  lambda dt: (_arr((4, 5), dt),
                              (_arr((4, 7), dt, 20), _arr((4, 7), dt, 21)))),
    "bidirectional_masked": (
        lambda: nn.Bidirectional(nn.GRU(5, 6, rng=_rng(22)),
                                 nn.GRU(5, 6, rng=_rng(22))),
        lambda dt: _seq_input(5, dt, masked=True)),
    "fusion_fc": (lambda: nn.FullyConnectedFusion([6, 4], 8, 3, rng=_rng(23)),
                  lambda dt: [_arr((4, 6), dt, 24), _arr((4, 4), dt, 25)]),
    "fusion_fm": (lambda: nn.FactorizationMachineFusion([6, 4], 5, 3, rng=_rng(26)),
                  lambda dt: [_arr((4, 6), dt, 24), _arr((4, 4), dt, 25)]),
    "fusion_mvm": (lambda: nn.MultiViewMachineFusion([6, 4, 3], 5, 2, rng=_rng(27)),
                   lambda dt: [_arr((4, 6), dt, 24), _arr((4, 4), dt, 25),
                               _arr((4, 3), dt, 28)]),
    "deepmood_mvm": (
        lambda: MultiViewGRUClassifier((4, 6, 3), hidden_size=16,
                                       fusion="mvm", fusion_units=8, seed=29),
        lambda dt: [(_arr((3, 5, d), dt, 30 + i), _mask(3, 5, dt, 40 + i))
                    for i, d in enumerate((4, 6, 3))]),
    "deepmood_bidir_fc": (
        lambda: MultiViewGRUClassifier((4, 3), hidden_size=8, fusion="fc",
                                       fusion_units=6, bidirectional=True,
                                       seed=31),
        lambda dt: [(_arr((3, 5, d), dt, 50 + i), _mask(3, 5, dt, 60 + i))
                    for i, d in enumerate((4, 3))]),
    # Views of unequal lengths; the third is bare and shorter than the
    # longest.
    "deepmood_ragged_fm": (
        lambda: MultiViewGRUClassifier((4, 6, 3), hidden_size=8, fusion="fm",
                                       fusion_units=4, seed=33),
        lambda dt: [(_arr((3, 4, 4), dt, 90), _mask(3, 4, dt, 93)),
                    (_arr((3, 7, 6), dt, 91), _mask(3, 7, dt, 94)),
                    _arr((3, 5, 3), dt, 92)]),
}


def _cast(inputs, dtype):
    if isinstance(inputs, np.ndarray):
        return inputs.astype(dtype)
    if isinstance(inputs, tuple):
        return tuple(None if part is None else _cast(part, dtype)
                     for part in inputs)
    if isinstance(inputs, list):
        return [_cast(part, dtype) for part in inputs]
    return inputs


def _tolerance(dtype):
    if np.dtype(dtype).itemsize >= 8:
        return dict(rtol=1e-7, atol=1e-9)
    return dict(rtol=2e-3, atol=1e-4)


def _mse_target(factory, inputs, dtype):
    """A float target shaped like the module's primary output."""
    probe = factory()
    probe.train()
    out = train_plan_mod._call_eager(probe, train_plan_mod._to_arrays(inputs))
    pred = train_plan_mod._primary(out)
    return _arr(pred.data.shape, dtype, 99)


def _eager_train(factory, inputs, target, loss_kind, optimizer_fn, steps):
    """Reference eager loop using the plan's own input conventions."""
    module = factory()
    module.train()
    optimizer = optimizer_fn(module.parameters())
    history = []
    for _ in range(steps):
        optimizer.zero_grad()
        out = train_plan_mod._call_eager(
            module, train_plan_mod._to_arrays(inputs))
        pred = train_plan_mod._primary(out)
        if loss_kind == "cross_entropy":
            loss = losses.cross_entropy(pred, target)
        else:
            loss = losses.mse_loss(pred, Tensor(target))
        loss.backward()
        optimizer.step()
        history.append(float(loss.data))
    return module, history


def _assert_state_matches(eager_module, plan_module, dtype):
    eager_state = eager_module.state_dict()
    plan_state = plan_module.state_dict()
    assert eager_state.keys() == plan_state.keys()
    for key in eager_state:
        np.testing.assert_allclose(plan_state[key], eager_state[key],
                                   err_msg=key, **_tolerance(dtype))


@pytest.mark.parametrize("dtype", [np.float32, np.float64],
                         ids=["float32", "float64"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_plan_training_matches_eager(name, dtype):
    """Three compiled SGD steps == three eager SGD steps, end to end."""
    factory, build = CASES[name]
    inputs = _cast(build(np.float64), dtype)
    target = _mse_target(factory, inputs, dtype)
    eager_module, eager_losses = _eager_train(
        factory, inputs, target, "mse",
        lambda params: SGD(params, lr=0.05), steps=3)

    module = factory()
    plan = TrainPlan(module, loss="mse", optimizer="sgd",
                     optimizer_args={"lr": 0.05})
    plan_losses = [plan.step(inputs, target) for _ in range(3)]

    np.testing.assert_allclose(plan_losses, eager_losses, **_tolerance(dtype))
    _assert_state_matches(eager_module, module, dtype)


class _FedCells(nn.Module):
    """A GRUCell and two steps of an LSTMCell whose inputs and states
    come from Linear layers: every input gradient of both cell rules
    runs, ``c`` handed from one LSTM step to the next included."""

    def __init__(self):
        super().__init__()
        rng = _rng(80)
        self.x_in = nn.Linear(6, 5, rng=rng)
        self.h_in = nn.Linear(6, 7, rng=rng)
        self.c_in = nn.Linear(6, 7, rng=rng)
        self.gru = nn.GRUCell(5, 7, rng=rng)
        self.lstm = nn.LSTMCell(5, 7, rng=rng)

    def forward(self, x):
        a = self.x_in(x)
        h = self.gru(a, self.h_in(x))
        state = self.lstm(a, (h, self.c_in(x)))
        return self.lstm(a, state)[0]


def _train_fed_cells(module, inputs, ctx):
    a = ctx.build(module.x_in, inputs)
    h = ctx.build(module.gru, (a, ctx.build(module.h_in, inputs)))
    state = ctx.build(module.lstm,
                      (a, (h, ctx.build(module.c_in, inputs))))
    return ctx.build(module.lstm, (a, state))[0]


@pytest.mark.parametrize("dtype", [np.float32, np.float64],
                         ids=["float32", "float64"])
def test_cells_send_back_input_gradients(dtype, monkeypatch):
    """Cells fed by other layers: three compiled SGD steps == eager."""
    monkeypatch.setattr(train_plan_mod, "_TRAIN_RULES",
                        dict(train_plan_mod._TRAIN_RULES))
    train_plan_mod.register_train_rule(_FedCells)(_train_fed_cells)
    inputs = _arr((4, 6), dtype, 81)
    target = _mse_target(_FedCells, inputs, dtype)
    eager_module, eager_losses = _eager_train(
        _FedCells, inputs, target, "mse",
        lambda params: SGD(params, lr=0.05), steps=3)

    module = _FedCells()
    plan = TrainPlan(module, loss="mse", optimizer="sgd",
                     optimizer_args={"lr": 0.05})
    plan_losses = [plan.step(inputs, target) for _ in range(3)]

    np.testing.assert_allclose(plan_losses, eager_losses, **_tolerance(dtype))
    _assert_state_matches(eager_module, module, dtype)


def test_case_registry_covers_every_exported_layer():
    """Every layer repro.nn exports is exercised by some training case."""
    exercised = set()
    for factory, _ in CASES.values():
        module = factory()
        for _, child in module.named_modules():
            exercised.add(type(child))
    missing = {cls.__name__ for cls in exported_layers()} - {
        cls.__name__ for cls in exercised}
    assert not missing, "exported layers without a train case: {}".format(
        sorted(missing))


def test_cross_entropy_training_matches_eager():
    factory, build = CASES["deepmood_mvm"]
    inputs = build(np.float64)
    labels = _rng(70).integers(0, 2, size=3)
    eager_module, eager_losses = _eager_train(
        factory, inputs, labels, "cross_entropy",
        lambda params: SGD(params, lr=0.1, momentum=0.9), steps=4)
    module = factory()
    plan = TrainPlan(module, loss="cross_entropy", optimizer="sgd",
                     optimizer_args={"lr": 0.1, "momentum": 0.9})
    plan_losses = [plan.step(inputs, labels) for _ in range(4)]
    np.testing.assert_allclose(plan_losses, eager_losses, rtol=1e-7)
    _assert_state_matches(eager_module, module, np.float64)


def test_step_allocates_nothing_after_freeze():
    """Replayed steps never touch the arena allocator or the engine."""
    factory, build = CASES["deepmood_mvm"]
    module, inputs = factory(), build(np.float64)
    labels = _rng(72).integers(0, 2, size=3)
    plan = compile_train_plan(module, inputs, labels, loss="cross_entropy",
                              optimizer="sgd", optimizer_args={"lr": 0.05})
    plan.step(inputs, labels)  # warm-up: trace exists, this is pure replay
    before = (plan.compile_count, plan.arena_nbytes)
    profiler.reset()
    with profiler.profile():
        for _ in range(3):
            plan.step(inputs, labels)
    stats = profiler.get_stats()
    profiler.reset()
    assert (plan.compile_count, plan.arena_nbytes) == before, \
        "replayed training step traced again or grew the arena"
    assert not stats["ops"], \
        "replayed training step routed work through the autodiff engine"


def test_frozen_arena_rejects_allocation():
    module = nn.Linear(4, 3, rng=_rng(0))
    x, y = _arr((2, 4), np.float64), _rng(1).integers(0, 3, size=2)
    plan = compile_train_plan(module, x, y)
    arena = plan._traces[next(iter(plan.signatures))].arena
    with pytest.raises(ArenaFrozenError):
        arena.alloc((1,), np.dtype(float))


def test_retrace_on_new_signature():
    module = nn.Linear(6, 4, rng=_rng(0))
    plan = TrainPlan(module, optimizer="sgd", optimizer_args={"lr": 0.1})
    plan.step(_arr((3, 6), np.float64), _rng(1).integers(0, 4, size=3))
    assert plan.compile_count == 1
    plan.step(_arr((5, 6), np.float64, 1), _rng(2).integers(0, 4, size=5))
    assert plan.compile_count == 2
    plan.step(_arr((3, 6), np.float64), _rng(1).integers(0, 4, size=3))
    assert plan.compile_count == 2
    assert len(plan.signatures) == 2


@pytest.fixture
def broken_linear_rule(monkeypatch):
    """Swap in a Linear train rule that replays wrong math."""
    original = train_plan_mod._TRAIN_RULES[nn.Linear]

    def broken_rule(module, inputs, ctx, activation=None):
        out = original(module, inputs, ctx, activation=activation)

        def corrupt():
            # multiplicative: a uniform additive shift would be invisible
            # to softmax cross-entropy
            out[...] *= 1.5
        ctx.fwd(corrupt)
        return out

    monkeypatch.setitem(train_plan_mod._TRAIN_RULES, nn.Linear, broken_rule)


def test_verification_catches_divergence(broken_linear_rule):
    """A train rule replaying wrong math must fail compile-time verify."""
    module = nn.Sequential(nn.Linear(4, 3, rng=_rng(0)))
    with pytest.raises(TrainVerificationError):
        compile_train_plan(module, _arr((2, 4), np.float64),
                           _rng(1).integers(0, 3, size=2))


@pytest.mark.parametrize("layer,shape", [
    (lambda: nn.Conv2d(3, 6, 3), (2, 4, 8, 8)),
    (lambda: nn.Conv2d(4, 8, 3, groups=2), (2, 6, 8, 8)),
    (lambda: nn.BatchNorm1d(7), (4, 6, 7)),
    (lambda: nn.MaxPool2d(5), (2, 3, 4, 4)),
], ids=["conv-channels", "conv-group-channels", "batchnorm-rank3",
        "pool-window"])
def test_forward_only_build_refuses_silent_mismatches(layer, shape):
    """numpy runs each of these into a well-formed but wrong map: the
    conv gathers the first channels only, the running statistics
    broadcast over the last axis, the window gives a (2, 3, 0, 0) map."""
    ctx = train_plan_mod.TrainContext(BufferArena(), training=False)
    with pytest.raises(ShapeError):
        ctx.build(layer(), np.zeros(shape))


def test_grad_only_plan_and_flat_grad_match_eager():
    """optimizer=None: grad_step leaves params untouched, flat_grad is
    the concatenated eager gradient in named_parameters order."""
    x, y = _arr((4, 6), np.float64), _rng(1).integers(0, 3, size=4)

    module = nn.Sequential(nn.Linear(6, 5, rng=_rng(2)), nn.Tanh(),
                           nn.Linear(5, 3, rng=_rng(3)))
    before = {k: v.copy() for k, v in module.state_dict().items()}
    plan = TrainPlan(module, loss="cross_entropy", optimizer=None)
    plan.grad_step(x, y)
    flat = plan.flat_grad()
    for key, value in module.state_dict().items():
        np.testing.assert_array_equal(value, before[key], err_msg=key)

    eager = nn.Sequential(nn.Linear(6, 5, rng=_rng(2)), nn.Tanh(),
                          nn.Linear(5, 3, rng=_rng(3)))
    eager.zero_grad()
    losses.cross_entropy(eager(Tensor(x)), y).backward()
    reference = np.concatenate(
        [p.grad.reshape(-1) for _, p in eager.named_parameters()])
    np.testing.assert_allclose(flat, reference, rtol=1e-9)


def test_load_state_and_reset_optimizer_state():
    """load_state + reset == fresh eager model + fresh optimizer."""
    x, y = _arr((4, 6), np.float64), _rng(1).integers(0, 3, size=4)
    start = nn.Sequential(nn.Linear(6, 3, rng=_rng(4))).state_dict()

    module = nn.Sequential(nn.Linear(6, 3, rng=_rng(5)))
    plan = TrainPlan(module, optimizer="sgd",
                     optimizer_args={"lr": 0.1, "momentum": 0.9})
    plan.step(x, y)  # pollute params and momentum state
    plan.load_state(start)
    plan.reset_optimizer_state()
    plan_losses = [plan.step(x, y) for _ in range(3)]

    eager = nn.Sequential(nn.Linear(6, 3, rng=_rng(6)))
    eager.load_state_dict(start)
    optimizer = SGD(eager.parameters(), lr=0.1, momentum=0.9)
    eager_losses = []
    for _ in range(3):
        optimizer.zero_grad()
        loss = losses.cross_entropy(eager(Tensor(x)), y)
        loss.backward()
        optimizer.step()
        eager_losses.append(float(loss.data))
    np.testing.assert_allclose(plan_losses, eager_losses, rtol=1e-9)
    for (k, a), (_, b) in zip(eager.state_dict().items(),
                              module.state_dict().items()):
        np.testing.assert_allclose(a, b, rtol=1e-9, err_msg=k)


def test_load_state_rejects_mis_shaped_entry_and_writes_nothing():
    """A bad state raises Module.load_state_dict's error before any write.

    A (1,) array loaded for a (3,) bias used to broadcast to [7, 7, 7].
    """
    module = nn.Sequential(nn.Linear(4, 3, rng=_rng(0)))
    plan = TrainPlan(module, optimizer="sgd")
    before = {k: v.copy() for k, v in module.state_dict().items()}
    state = {k: np.full_like(v, 7.0) for k, v in before.items()}
    state["layer0.bias"] = np.array([7.0])
    with pytest.raises(ValueError) as eager_error:
        nn.Sequential(nn.Linear(4, 3, rng=_rng(0))).load_state_dict(state)
    with pytest.raises(ValueError) as plan_error:
        plan.load_state(state)
    assert str(plan_error.value) == str(eager_error.value)
    with pytest.raises(KeyError):
        plan.load_state({"layer0.bias": before["layer0.bias"] + 1.0})
    for key, value in module.state_dict().items():
        np.testing.assert_array_equal(value, before[key], err_msg=key)


class _CountedCall:
    """Counting proxy for a numpy callable; its methods (``reduce``)
    count too."""

    def __init__(self, fn, counter):
        self._fn = fn
        self._counter = counter

    def __call__(self, *args, **kwargs):
        self._counter[0] += 1
        return self._fn(*args, **kwargs)

    def __getattr__(self, name):
        attr = getattr(self._fn, name)
        return _CountedCall(attr, self._counter) if callable(attr) else attr


def _numpy_calls_per_timestep(view_dims, counter):
    """Numpy calls per padded timestep of a compiled DeepMood step."""
    calls = {}
    for steps in (8, 16):
        module = MultiViewGRUClassifier(view_dims, hidden_size=16,
                                        fusion="mvm", fusion_units=8, seed=0)
        inputs = [(_arr((8, steps, d), np.float64, i),
                   _mask(8, steps, np.float64, 10 + i))
                  for i, d in enumerate(view_dims)]
        labels = _rng(73).integers(0, 2, size=8)
        plan = compile_train_plan(module, inputs, labels,
                                  loss="cross_entropy", optimizer="sgd")
        plan.step(inputs, labels)
        counter[0] = 0
        plan.step(inputs, labels)
        calls[steps] = counter[0]
    return (calls[16] - calls[8]) / 8


def test_views_share_one_recurrence_per_timestep(monkeypatch):
    """Three views cost the numpy calls of one per timestep: their GRUs
    run as one stacked recurrence, forward and backward."""
    counter = [0]
    # The rules prebind numpy functions at trace time, so the proxies go
    # in before anything compiles.
    for name, fn in list(vars(np).items()):
        if isinstance(fn, np.ufunc) or name in ("copyto", "sum", "take"):
            monkeypatch.setattr(np, name, _CountedCall(fn, counter))
    one_view = _numpy_calls_per_timestep((4,), counter)
    three_views = _numpy_calls_per_timestep((4, 6, 3), counter)
    assert one_view > 0
    assert three_views == one_view


def test_dropout_streams_match_eager_across_steps():
    """Active dropout draws the same masks as eager, step for step."""
    x, y = _arr((6, 10), np.float64), _rng(1).integers(0, 8, size=6)
    eager_module, eager_losses = _eager_train(
        _mlp, x, y, "cross_entropy",
        lambda params: SGD(params, lr=0.05), steps=5)
    module = _mlp()
    plan = TrainPlan(module, optimizer="sgd", optimizer_args={"lr": 0.05})
    plan_losses = [plan.step(x, y) for _ in range(5)]
    # Dropout masks differ per step; matching all five losses means the
    # compiled path consumed the generator in exactly the eager order.
    np.testing.assert_allclose(plan_losses, eager_losses, rtol=1e-9)
    _assert_state_matches(eager_module, module, np.float64)


def test_invalid_loss_and_optimizer_raise():
    module = nn.Linear(4, 3, rng=_rng(0))
    with pytest.raises(ValueError):
        TrainPlan(module, loss="hinge")
    # A compiled step runs SGD only: no other name, and no optimizer
    # instance to copy hyperparameters from.
    for optimizer in ("rmsprop", "adam", SGD(module.parameters(), lr=0.1),
                      Adam(module.parameters(), lr=0.1)):
        with pytest.raises(ValueError):
            TrainPlan(module, optimizer=optimizer)


# ----------------------------------------------------------------------
# DP-SGD and FedAvg integrations
# ----------------------------------------------------------------------
def _make_model(seed=3):
    rng = _rng(seed)
    return nn.Sequential(nn.Linear(12, 16, rng=rng), nn.ReLU(),
                         nn.Linear(16, 4, rng=rng))


def _data(n=32, seed=0):
    rng = _rng(seed)
    return (rng.normal(size=(n, 12)), rng.integers(0, 4, size=n))


def _eager_clipped_sum(model, X, y, clip):
    total = None
    for i in range(len(X)):
        model.zero_grad()
        losses.cross_entropy(model(Tensor(X[i:i + 1])), y[i:i + 1]).backward()
        flat = np.concatenate([
            p.grad.reshape(-1) for _, p in model.named_parameters()])
        clipped = clip_by_l2(flat, clip)
        total = clipped.copy() if total is None else total + clipped
    return total


def _eager_loss(logits, labels):
    """Cross-entropy behind a wrapper, which DP-SGD trains eagerly."""
    return losses.cross_entropy(logits, labels)


class _Halve(nn.Module):
    """A layer the compiler has no rule for."""

    def forward(self, x):
        return x * 0.5


def test_dpsgd_plan_clipped_sum_matches_eager(monkeypatch):
    """The plan path's clipped per-example sum equals the eager one.

    The lot is every example (lot_size == n), the noise is zero, and the
    update is captured before it is applied, so it is the sum / n.
    """
    X, y = _data(13, seed=2)
    trainer = DPSGDTrainer(_make_model(), clip_norm=1.0,
                           noise_multiplier=0.0, lot_size=len(X))
    updates = []
    monkeypatch.setattr(trainer, "_apply_flat", updates.append)
    assert trainer.step(X, y) == len(X)
    assert trainer._plan.compile_count == 1
    produced = updates[0] * len(X)
    reference = _eager_clipped_sum(_make_model(), X, y, 1.0)
    np.testing.assert_allclose(produced, reference, rtol=1e-9)


def _dpsgd(compiled, model_fn=_make_model):
    return DPSGDTrainer(model_fn(), lr=0.1, clip_norm=1.0,
                        noise_multiplier=1.0, lot_size=16, seed=7,
                        loss_fn=None if compiled else _eager_loss)


def _assert_same_model(a, b):
    for (k, x), (_, y) in zip(a.model.state_dict().items(),
                              b.model.state_dict().items()):
        np.testing.assert_array_equal(y, x, err_msg=k)


def test_dpsgd_use_plan_matches_eager():
    X, y = _data(64, seed=0)
    eager = _dpsgd(compiled=False)
    plan = _dpsgd(compiled=True)
    for _ in range(4):
        eager.step(X, y)
        plan.step(X, y)
    assert eager._plan is None and plan._plan is not None
    # Same sampling and noise streams; same ledger; same trajectory.
    assert len(plan.accountant.ledger) == len(eager.accountant.ledger)
    assert plan.accountant.spent(1e-5) == eager.accountant.spent(1e-5)
    _assert_same_model(eager, plan)


def test_dpsgd_keeps_float32_models_float32():
    """The float64 noisy average is applied in each parameter's dtype:
    neither mode turns a float32 model float64, and the modes agree."""
    X, y = _data(64, seed=0)
    X = X.astype(np.float32)
    states = []
    for compiled in (False, True):
        with default_dtype(np.float32):
            trainer = _dpsgd(compiled)
        for _ in range(4):
            trainer.step(X, y)
        state = trainer.model.state_dict()
        assert {v.dtype for v in state.values()} == {np.dtype(np.float32)}
        states.append(state)
    for key in states[0]:
        np.testing.assert_allclose(states[1][key], states[0][key],
                                   rtol=1e-5, atol=1e-6, err_msg=key)


def test_dpsgd_custom_loss_trains_eagerly(monkeypatch):
    """A loss the compiler does not fuse never builds a plan."""
    X, y = _data(13, seed=2)
    trainer = DPSGDTrainer(_make_model(), clip_norm=1.0,
                           noise_multiplier=0.0, lot_size=len(X),
                           loss_fn=_eager_loss)
    assert trainer._plan is None
    updates = []
    monkeypatch.setattr(trainer, "_apply_flat", updates.append)
    assert trainer.step(X, y) == len(X)
    reference = _eager_clipped_sum(_make_model(), X, y, 1.0)
    np.testing.assert_allclose(updates[0] * len(X), reference, rtol=1e-12)


def test_dpsgd_layer_without_rule_falls_back_to_eager():
    """A layer the compiler has no rule for fails the first compile; the
    trainer then runs eagerly and matches an eager trainer exactly."""
    def model_fn():
        rng = _rng(3)
        return nn.Sequential(nn.Linear(12, 16, rng=rng), _Halve(),
                             nn.ReLU(), nn.Linear(16, 4, rng=rng))

    X, y = _data(64, seed=0)
    fallback = _dpsgd(compiled=True, model_fn=model_fn)
    eager = _dpsgd(compiled=False, model_fn=model_fn)
    assert fallback._plan is not None  # cross-entropy asks for the plan
    for _ in range(3):
        fallback.step(X, y)
        eager.step(X, y)
    assert fallback._plan is None
    _assert_same_model(eager, fallback)


@pytest.mark.parametrize("batch", [8, 10])
@pytest.mark.parametrize("dtype", [np.float32, np.float64],
                         ids=["float32", "float64"])
def test_cross_entropy_step_is_bit_identical_to_eager(dtype, batch):
    """The fused softmax-cross-entropy backward rounds as eager does."""
    x = _arr((batch, 12), dtype)
    y = _rng(batch).integers(0, 4, size=batch)
    with default_dtype(dtype):
        eager, module = _make_model(), _make_model()
    optimizer = SGD(eager.parameters(), lr=0.1, momentum=0.9)
    plan = TrainPlan(module, optimizer="sgd",
                     optimizer_args={"lr": 0.1, "momentum": 0.9})
    for _ in range(3):
        optimizer.zero_grad()
        losses.cross_entropy(eager(Tensor(x)), y).backward()
        optimizer.step()
        plan.step(x, y)
    for key, value in eager.state_dict().items():
        assert value.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(module.state_dict()[key], value,
                                      err_msg=key)


@pytest.mark.parametrize("compiled", [False, True],
                         ids=["first-batch", "later-batch"])
@pytest.mark.parametrize("bad", [4, -1])
def test_out_of_range_label_raises_before_the_step(bad, compiled):
    """A label outside [0, classes) would gather a neighbouring row's
    logit; the plan raises IndexError instead and leaves the model
    untouched, whether the bad batch compiles or replays a trace."""
    x = _arr((8, 12), np.float64)
    y = _rng(8).integers(0, 4, size=8)
    module = _make_model()
    plan = TrainPlan(module, optimizer="sgd")
    if compiled:
        plan.step(x, y)
    before = {key: value.copy() for key, value in module.state_dict().items()}
    y_bad = y.copy()
    y_bad[3] = bad
    with pytest.raises(IndexError):
        plan.step(x, y_bad)
    for key, value in before.items():
        np.testing.assert_array_equal(module.state_dict()[key], value,
                                      err_msg=key)


# ----------------------------------------------------------------------
# FedAvg local training: one compiled trainer shared per model factory
# ----------------------------------------------------------------------
def _factory(activation=nn.Tanh, dropout=False, extra=None):
    """A fresh model factory; fresh per test, so no test shares its
    compiled trainer with another."""

    def model_fn():
        rng = _rng(5)
        layers = [nn.Linear(12, 10, rng=rng), activation()]
        if dropout:
            layers.append(nn.Dropout(0.3, rng=_rng(9)))
        if extra is not None:
            layers.append(extra())
        layers.append(nn.Linear(10, 4, rng=rng))
        return nn.Sequential(*layers)

    return model_fn


def _shards(dtype=np.float64, targets=None, sizes=(25, 25)):
    """Client shards; 25 samples at batch 8 or 16 leave a remainder batch.

    Labels are classes unless ``targets`` maps a count to target rows.
    """
    X, y = _data(sum(sizes), seed=1)
    if targets is not None:
        y = targets(len(X)).astype(dtype)
    cuts = np.cumsum((0,) + tuple(sizes))
    return [ArrayDataset(X[a:b].astype(dtype), y[a:b])
            for a, b in zip(cuts[:-1], cuts[1:])]


def _eager_local_train(model_fn, dataset, rng, state, loss_fn, epochs,
                       batch_size, lr, momentum):
    """The eager FedAvg client step: a fresh model, SGD and loader."""
    model = model_fn()
    model.load_state_dict(state)
    model.train()
    optimizer = SGD(model.parameters(), lr=lr, momentum=momentum)
    for _ in range(epochs):
        for features, labels in DataLoader(dataset, batch_size=batch_size,
                                           shuffle=True, rng=rng):
            optimizer.zero_grad()
            loss_fn(model(Tensor(features)), labels).backward()
            optimizer.step()
    return model.state_dict()


def _plan_traces(model_fn):
    """Traces compiled by the shared FedAvg trainers of ``model_fn``."""
    trainers = client_mod._TRAINERS.get(model_fn, {})
    return sum(trainer.plan.compile_count for trainer in trainers.values()
               if trainer is not None)


def _assert_matches_oracle(model_fn, shards, loss_fn=losses.cross_entropy,
                           dtype=np.float64, rounds=3, epochs=2,
                           batch_size=8, momentum=0.9):
    """Two clients over ``rounds`` FedAvg rounds equal the eager oracle
    bit for bit, and every returned state keeps the model's dtype."""
    with default_dtype(dtype):
        clients = [FederatedClient(i, shard, model_fn, loss_fn=loss_fn,
                                   seed=4)
                   for i, shard in enumerate(shards)]
        oracle_rngs = [derive_rng(4, "fed-client", i)
                       for i in range(len(shards))]
        state = model_fn().state_dict()
        for _ in range(rounds):
            trained = []
            for client, rng in zip(clients, oracle_rngs):
                produced, count = client.local_train(
                    state, epochs=epochs, batch_size=batch_size, lr=0.05,
                    momentum=momentum)
                expected = _eager_local_train(
                    model_fn, client.dataset, rng, state, loss_fn, epochs,
                    batch_size, 0.05, momentum)
                assert count == len(client.dataset)
                assert produced.keys() == expected.keys()
                for key, value in expected.items():
                    assert produced[key].dtype == np.dtype(dtype), key
                    np.testing.assert_array_equal(produced[key], value,
                                                  err_msg=key)
                trained.append(produced)
            state = {key: (trained[0][key] + trained[1][key]) / 2
                     for key in trained[0]}


@pytest.mark.parametrize(
    "activation,batch_size,momentum,dtype",
    [(nn.Tanh, 8, 0.0, np.float64), (nn.Tanh, 16, 0.9, np.float64),
     (nn.ReLU, 8, 0.9, np.float64), (nn.ReLU, 16, 0.0, np.float32),
     (nn.Tanh, 8, 0.9, np.float32)],
    ids=["tanh-b8-m0", "tanh-b16-m0.9", "relu-b8-m0.9", "relu-b16-m0-f32",
         "tanh-b8-m0.9-f32"])
def test_fedavg_local_train_matches_eager_oracle(activation, batch_size,
                                                 momentum, dtype):
    _assert_matches_oracle(_factory(activation), _shards(dtype),
                           dtype=dtype, batch_size=batch_size,
                           momentum=momentum)


def test_fedavg_mse_local_train_matches_eager_oracle():
    _assert_matches_oracle(
        _factory(nn.ReLU),
        _shards(targets=lambda n: _rng(2).normal(size=(n, 4))),
        loss_fn=losses.mse_loss)


def test_fedavg_dropout_local_train_matches_eager_oracle():
    """Every call starts from the factory's dropout streams, as a fresh
    eager model does, however many calls the shared trainer served."""
    _assert_matches_oracle(_factory(dropout=True), _shards())


def test_fedavg_custom_loss_trains_eagerly():
    """A loss the compiler does not fuse trains eagerly, unchanged."""
    model_fn = _factory()
    _assert_matches_oracle(
        model_fn,
        _shards(targets=lambda n: _rng(2).integers(0, 2, size=(n, 4))),
        loss_fn=losses.binary_cross_entropy, rounds=2)
    assert _plan_traces(model_fn) == 0


class _Doubler(nn.Module):
    """A layer without a train rule."""

    def forward(self, x):
        return x * 2.0


def test_fedavg_layer_without_train_rule_trains_eagerly(monkeypatch):
    """The compiler's UnsupportedModuleError selects the eager loop once
    per key; later calls do not retry the compile."""
    attempts = []
    compile_plan = train_mod.compile_train_plan

    def counted(*args, **kwargs):
        attempts.append(1)
        return compile_plan(*args, **kwargs)

    monkeypatch.setattr(train_mod, "compile_train_plan", counted)
    _assert_matches_oracle(_factory(extra=_Doubler), _shards(), rounds=2)
    assert len(attempts) == 1


def test_fedavg_compiler_bug_is_not_hidden_by_eager(broken_linear_rule):
    """A failed compile-time verification propagates; only a missing
    rule selects the eager loop."""
    model_fn = _factory()
    client = FederatedClient(0, _shards()[0], model_fn)
    with pytest.raises(TrainVerificationError):
        client.local_train(model_fn().state_dict(), batch_size=8)


def test_cross_entropy_refuses_logits_that_are_not_rank_2():
    """The fused loss raises ShapeError, which no trainer reads as "no
    rule", so a model with (batch, time, classes) logits fails to train
    instead of falling back to a wrong eager loss."""
    ctx = train_plan_mod.TrainContext(BufferArena())
    logits = ctx.alloc((2, 5, 3), np.float64)
    labels = ctx.alloc((2,), np.intp)
    with pytest.raises(ShapeError):
        train_plan_mod._build_cross_entropy(ctx, logits, labels)

    def model_fn():
        return nn.Linear(4, 3, rng=np.random.default_rng(0))

    shard = ArrayDataset(np.zeros((6, 5, 4)), np.zeros(6, dtype=np.intp))
    with pytest.raises(ValueError, match="one label per row"):
        FederatedClient(0, shard, model_fn).local_train(
            model_fn().state_dict(), batch_size=2)


def test_fedavg_out_of_range_label_raises_as_eager():
    """A label equal to the class count past the compile batch fails the
    call, as the eager loop does, and the shared trainer still trains the
    next client exactly."""
    model_fn = _factory()
    bad, good = _shards(sizes=(24, 24))
    bad.labels[20] = 4
    state = model_fn().state_dict()
    eager = FederatedClient(0, bad, model_fn,
                            loss_fn=lambda logits, labels:
                            losses.cross_entropy(logits, labels))
    with pytest.raises(IndexError):
        eager.local_train(state, batch_size=8)
    with pytest.raises(IndexError):
        FederatedClient(0, bad, model_fn).local_train(state, batch_size=8)
    produced, _ = FederatedClient(1, good, model_fn, seed=4).local_train(
        state, batch_size=8)
    expected = _eager_local_train(
        model_fn, good, derive_rng(4, "fed-client", 1), state,
        losses.cross_entropy, 1, 8, 0.1, 0.0)
    for key, value in expected.items():
        np.testing.assert_array_equal(produced[key], value, err_msg=key)


def test_fedavg_empty_shard_returns_the_broadcast_state():
    model_fn = _factory()
    empty = ArrayDataset(np.zeros((0, 12)), np.zeros(0, dtype=np.intp))
    client = FederatedClient(0, empty, model_fn)
    state = {key: value + 1.0
             for key, value in model_fn().state_dict().items()}
    produced, count = client.local_train(state, batch_size=8)
    assert count == 0 and _plan_traces(model_fn) == 0
    for key, value in state.items():
        np.testing.assert_array_equal(produced[key], value, err_msg=key)


def test_fedavg_buffers_missing_from_state_start_fresh():
    """Buffers the state leaves out start every call from the factory's
    values, as on a fresh eager model.  (BatchNorm's rule agrees with
    eager to rounding, not bit for bit.)"""
    model_fn = _factory(extra=lambda: nn.BatchNorm1d(10))
    params = dict(model_fn().named_parameters())
    state = {key: value for key, value in model_fn().state_dict().items()
             if key in params}
    client = FederatedClient(0, _shards()[0], model_fn, seed=4)
    rng = derive_rng(4, "fed-client", 0)
    for _ in range(2):
        produced, _ = client.local_train(state, batch_size=8)
        expected = _eager_local_train(model_fn, client.dataset, rng, state,
                                      losses.cross_entropy, 1, 8, 0.1, 0.0)
        for key, value in expected.items():
            np.testing.assert_allclose(produced[key], value, rtol=1e-9,
                                       atol=1e-12, err_msg=key)


def test_fedavg_follows_the_session_default_dtype():
    """A factory first trained under float64 trains float32 models under
    ``default_dtype(np.float32)``, as a fresh eager model would."""
    model_fn = _factory()
    _assert_matches_oracle(model_fn, _shards(), rounds=1)
    _assert_matches_oracle(model_fn, _shards(np.float32), dtype=np.float32,
                           rounds=1)


def test_fedavg_clients_of_one_factory_share_one_compile():
    """Two clients with equal shard sizes compile one trace between them,
    across rounds: one shared trainer, not one per client."""
    model_fn = _factory()
    _assert_matches_oracle(model_fn, _shards(sizes=(24, 24)), rounds=3)
    assert _plan_traces(model_fn) == 1


def test_federated_plan_training_rejects_mis_shaped_state():
    """FederatedClient.local_train refuses a mis-shaped state with
    Module.load_state_dict's error."""
    model_fn = _factory()
    state = model_fn().state_dict()
    state["layer0.bias"] = state["layer0.bias"][:1]
    client = FederatedClient(0, _shards()[0], model_fn, seed=3)
    with pytest.raises(ValueError) as plan_error:
        client.local_train(state, batch_size=10)
    with pytest.raises(ValueError) as eager_error:
        model_fn().load_state_dict(state)
    assert str(plan_error.value) == str(eager_error.value)
