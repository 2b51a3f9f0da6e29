"""Plan-executor equivalence: compiled replay matches eager everywhere.

The acceptance bar for the serving runtime: for **every** module class
:mod:`repro.nn` exports
(:func:`repro.analysis.plans.audit.exported_layers`) — fusion heads and
the full :class:`MultiViewGRUClassifier` included — a
compiled :class:`repro.serve.Plan` reproduces the eager forward at both
float32 and float64, replays with zero new arena allocations, and
re-traces transparently when the input signature changes.
"""

import numpy as np
import pytest

from repro import nn, profiler
from repro.analysis.plans.audit import exported_layers
from repro.core.model import MultiViewGRUClassifier
from repro.serve import (
    ArenaFrozenError,
    PlanVerificationError,
    ShapeError,
    UnsupportedModuleError,
    compile_plan,
)
from repro.tensor import Tensor, no_grad

# ----------------------------------------------------------------------
# Case registry: name -> (module factory, example-input factory)
#
# Input conventions mirror the plan executor's: a bare ndarray feeds
# ``module(Tensor(x))``; ``(x, mask)`` feeds a sequence layer (mask may
# be None); ``(x, h)`` a GRUCell; ``(x, (h, c))`` an LSTMCell; a list
# feeds a fusion head (2-D views) or a multi-view classifier
# ((padded, mask) pairs).
# ----------------------------------------------------------------------


def _rng(seed=0):
    return np.random.default_rng(seed)


def _arr(shape, dtype, seed=0):
    return _rng(seed).standard_normal(shape).astype(dtype)


def _mask(batch, steps, dtype, seed=1):
    lengths = _rng(seed).integers(1, steps + 1, size=batch)
    mask = (np.arange(steps)[None, :] < lengths[:, None]).astype(dtype)
    return mask


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


def _batchnorm():
    layer = nn.BatchNorm1d(10)
    # Non-trivial running statistics so eval-mode normalization is real.
    layer.set_buffer("running_mean", _arr((10,), np.float64, 5) * 0.1)
    layer.set_buffer("running_var", np.abs(_arr((10,), np.float64, 6)) + 0.5)
    return layer


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
    "batchnorm_eval": (_batchnorm, lambda dt: _arr((6, 10), dt, 10)),
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
    "deepmood_ragged_fm": (
        lambda: MultiViewGRUClassifier((4, 6, 3), hidden_size=8, fusion="fm",
                                       fusion_units=4, seed=33),
        lambda dt: [(_arr((3, 4, 4), dt, 90), _mask(3, 4, dt, 93)),
                    (_arr((3, 7, 6), dt, 91), _mask(3, 7, dt, 94)),
                    _arr((3, 5, 3), dt, 92)]),
}


def _eager(module, inputs):
    """Reference eager forward using the same input conventions."""
    module.eval()
    with no_grad():
        if isinstance(module, MultiViewGRUClassifier):
            out = module(inputs)
        elif isinstance(module, nn.LSTMCell):
            x, (h, c) = inputs
            out = module(Tensor(x), (Tensor(h), Tensor(c)))
        elif isinstance(module, nn.GRUCell):
            x, h = inputs
            out = module(Tensor(x), Tensor(h))
        elif isinstance(module, (nn.GRU, nn.LSTM, nn.Bidirectional)):
            x, mask = inputs
            out = module(Tensor(x), mask=mask)
        elif isinstance(inputs, list):
            out = module([Tensor(v) for v in inputs])
        else:
            out = module(Tensor(inputs))
    if isinstance(out, tuple):
        return tuple(t.numpy() for t in out)
    return out.numpy()


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
    return dict(rtol=2e-3, atol=1e-5)


def _assert_matches(planned, eager, dtype):
    if isinstance(eager, tuple):
        assert isinstance(planned, tuple) and len(planned) == len(eager)
        for p, e in zip(planned, eager):
            np.testing.assert_allclose(p, e, **_tolerance(dtype))
    else:
        np.testing.assert_allclose(planned, eager, **_tolerance(dtype))


@pytest.mark.parametrize("dtype", [np.float32, np.float64],
                         ids=["float32", "float64"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_plan_matches_eager(name, dtype):
    factory, build = CASES[name]
    module = factory()
    inputs = _cast(build(np.float64), dtype)
    plan = compile_plan(module, inputs)
    _assert_matches(plan.run(inputs), _eager(module, inputs), dtype)


def test_case_registry_covers_every_exported_layer():
    """Every layer repro.nn exports is exercised by some equivalence case."""
    exercised = set()
    for factory, _ in CASES.values():
        module = factory()
        for _, child in module.named_modules():
            exercised.add(type(child))
    missing = {cls.__name__ for cls in exported_layers()} - {
        cls.__name__ for cls in exercised}
    assert not missing, "exported layers without a plan case: {}".format(
        sorted(missing))


def test_replay_allocates_nothing_and_builds_no_graph():
    factory, build = CASES["deepmood_mvm"]
    module, inputs = factory(), build(np.float64)
    plan = compile_plan(module, inputs)
    plan.run(inputs)  # warm-up: trace already exists, this is pure replay
    profiler.reset()
    with profiler.profile():
        for _ in range(3):
            plan.run(inputs)
    stats = profiler.get_stats()
    profiler.reset()
    assert stats["extra_bytes"].get("serve.arena", 0) == 0, \
        "replay touched the arena allocator"
    assert not stats["ops"], "replay routed work through the autodiff engine"


def test_retrace_on_new_signature():
    module = nn.Linear(6, 4, rng=_rng(0))
    first = _arr((3, 6), np.float64)
    plan = compile_plan(module, first)
    assert plan.compile_count == 1
    second = _arr((5, 6), np.float64, 1)
    _assert_matches(plan.run(second), _eager(module, second), np.float64)
    assert plan.compile_count == 2
    # Old signature replays from cache, no third trace.
    plan.run(first)
    assert plan.compile_count == 2
    assert len(plan.signatures) == 2


def test_trace_cache_evicts_oldest():
    module = nn.Linear(4, 3, rng=_rng(0))
    plan = compile_plan(module, _arr((1, 4), np.float64), cache_limit=2)
    plan.run(_arr((2, 4), np.float64))
    plan.run(_arr((3, 4), np.float64))
    assert len(plan.signatures) == 2
    assert plan.compile_count == 3


def test_frozen_arena_rejects_allocation():
    module = nn.Linear(4, 3, rng=_rng(0))
    plan = compile_plan(module, _arr((2, 4), np.float64))
    arena = plan._traces[next(iter(plan.signatures))].arena
    with pytest.raises(ArenaFrozenError):
        arena.alloc((1,), np.dtype(float))


def test_unsupported_module_raises():
    class Exotic(nn.Module):
        def forward(self, x):
            return x

    with pytest.raises(UnsupportedModuleError):
        compile_plan(Exotic(), _arr((2, 4), np.float64))


def test_oversized_window_is_refused():
    """Eager returns an empty (2, 6, 0, 0) map; the plan refuses it."""
    module = nn.Conv2d(3, 6, 5, rng=_rng(0))
    with pytest.raises(ShapeError, match="does not fit"):
        compile_plan(module, _arr((2, 3, 4, 4), np.float64))


def test_verification_catches_divergence(monkeypatch):
    """A rule that replays the wrong math must fail compile-time verify."""
    from repro.train import plan as rules

    module = nn.Sequential(nn.Linear(4, 3, rng=_rng(0)))
    original = rules._TRAIN_RULES[nn.Linear]

    def broken_rule(layer, x, ctx):
        out = original(layer, x, ctx)

        def corrupt():
            out[...] += 1.0
        ctx.fwd(corrupt)
        return out

    monkeypatch.setitem(rules._TRAIN_RULES, nn.Linear, broken_rule)
    with pytest.raises(PlanVerificationError):
        compile_plan(module, _arr((2, 4), np.float64))


def test_run_copy_false_returns_arena_view():
    module = nn.Linear(4, 3, rng=_rng(0))
    x = _arr((2, 4), np.float64)
    plan = compile_plan(module, x)
    first = plan.run(x, copy=False)
    second = plan.run(x, copy=False)
    assert first is second  # same arena buffer, overwritten per replay
    copied = plan.run(x)
    assert copied is not first
    np.testing.assert_array_equal(copied, first)


def test_dropout_is_inert_in_compiled_plan():
    """Plans serve eval-mode: dropout must be an identity pass-through."""
    module = nn.Sequential(nn.Dropout(0.9, rng=_rng(1)),
                           nn.Linear(6, 4, rng=_rng(2)))
    module.train()
    x = _arr((3, 6), np.float64)
    plan = compile_plan(module, x)
    # Training mode is restored after tracing, but replay stays eval.
    assert module.training
    outs = [plan.run(x) for _ in range(3)]
    np.testing.assert_array_equal(outs[0], outs[1])
    np.testing.assert_array_equal(outs[1], outs[2])


def test_serving_never_touches_training_state():
    """A plan of a training-mode module replays eval semantics and leaves
    the batch-norm statistics and the dropout stream untouched."""
    norm = nn.BatchNorm1d(8)
    norm.set_buffer("running_mean", _arr((8,), np.float64, 5) * 0.1)
    norm.set_buffer("running_var", np.abs(_arr((8,), np.float64, 6)) + 0.5)
    dropout = nn.Dropout(0.5, rng=_rng(1))
    module = nn.Sequential(nn.Linear(6, 8, rng=_rng(2)), norm, dropout,
                           nn.Linear(8, 4, rng=_rng(3)))
    module.train()
    state = module.state_dict()
    rng_state = dropout.rng.bit_generator.state
    x = _arr((5, 6), np.float64, 7)

    plan = compile_plan(module, x)
    outs = [plan.run(x) for _ in range(3)]

    assert module.training
    after = module.state_dict()
    for name, value in state.items():
        np.testing.assert_array_equal(after[name], value, err_msg=name)
    assert dropout.rng.bit_generator.state == rng_state
    expected = _eager(module, x)
    for out in outs:
        _assert_matches(out, expected, np.float64)
