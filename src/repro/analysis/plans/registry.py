"""Audit case registry: one entry per plan-compilable architecture.

Mirrors the serve/train plan test suites — every module class
:mod:`repro.nn` exports appears in at least one case (sequence
layers masked and unmasked, all three fusion heads, both full
multi-view classifiers).  Each case is self-contained: a seeded module
factory plus input/target builders, so the audit CLI can run any case
at any dtype without touching the test suite.
"""

from __future__ import annotations

import numpy as np

__all__ = ["AuditCase", "AUDIT_CASES", "build_case"]


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
    from ... import nn

    rng = _rng(3)
    return nn.Sequential(
        nn.Linear(10, 16, rng=rng), nn.ReLU(),
        nn.LayerNorm(16), nn.Dropout(0.5, rng=_rng(4)),
        nn.Linear(16, 8, rng=rng), nn.Softmax(),
    )


def _batchnorm_net():
    from ... import nn

    rng = _rng(5)
    return nn.Sequential(nn.Linear(10, 10, rng=rng), nn.BatchNorm1d(10),
                         nn.Sigmoid(), nn.Linear(10, 4, rng=rng))


def _convnet():
    from ... import nn

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
    from ... import nn

    rng = _rng(8)
    return nn.Sequential(
        nn.DepthwiseSeparableConv2d(4, 8, 3, stride=1, padding=1, rng=rng),
        nn.GlobalAvgPool2d(),
        nn.Sigmoid(),
    )


class AuditCase:
    """One auditable architecture: module + example inputs."""

    __slots__ = ("name", "factory", "build")

    def __init__(self, name, factory, build):
        self.name = name
        self.factory = factory
        self.build = build   # dtype -> example input structure


def _identity_net():
    from ... import nn

    return nn.Sequential(nn.Identity(), nn.Linear(6, 4, rng=_rng(9)))


def _grouped_conv():
    from ... import nn

    return nn.Conv2d(4, 8, 3, padding=1, groups=2, rng=_rng(12))


def _gru():
    from ... import nn

    return nn.GRU(5, 7, rng=_rng(15))


def _lstm():
    from ... import nn

    return nn.LSTM(5, 7, rng=_rng(16))


def _gru_cell():
    from ... import nn

    return nn.GRUCell(5, 7, rng=_rng(17))


def _lstm_cell():
    from ... import nn

    return nn.LSTMCell(5, 7, rng=_rng(19))


def _bidirectional():
    from ... import nn

    return nn.Bidirectional(nn.GRU(5, 6, rng=_rng(22)),
                            nn.GRU(5, 6, rng=_rng(22)))


def _fusion_fc():
    from ... import nn

    return nn.FullyConnectedFusion([6, 4], 8, 3, rng=_rng(23))


def _fusion_fm():
    from ... import nn

    return nn.FactorizationMachineFusion([6, 4], 5, 3, rng=_rng(26))


def _fusion_mvm():
    from ... import nn

    return nn.MultiViewMachineFusion([6, 4, 3], 5, 2, rng=_rng(27))


def _deepmood_mvm():
    from ...core.model import MultiViewGRUClassifier

    return MultiViewGRUClassifier((4, 6, 3), hidden_size=16, fusion="mvm",
                                  fusion_units=8, seed=29)


def _deepmood_bidir_fc():
    from ...core.model import MultiViewGRUClassifier

    return MultiViewGRUClassifier((4, 3), hidden_size=8, fusion="fc",
                                  fusion_units=6, bidirectional=True,
                                  seed=31)


def _deepmood_ragged_fm():
    from ...core.model import MultiViewGRUClassifier

    return MultiViewGRUClassifier((4, 6, 3), hidden_size=8, fusion="fm",
                                  fusion_units=4, seed=33)


AUDIT_CASES = {
    case.name: case for case in [
        AuditCase("mlp", _mlp, lambda dt: _arr((5, 10), dt)),
        AuditCase("identity", _identity_net, lambda dt: _arr((3, 6), dt)),
        AuditCase("batchnorm", _batchnorm_net,
                  lambda dt: _arr((6, 10), dt, 10)),
        AuditCase("convnet", _convnet, lambda dt: _arr((2, 3, 14, 14), dt, 11)),
        AuditCase("grouped_conv", _grouped_conv,
                  lambda dt: _arr((2, 4, 8, 8), dt, 13)),
        AuditCase("depthwise", _depthwise, lambda dt: _arr((2, 4, 9, 9), dt, 14)),
        AuditCase("gru", _gru, lambda dt: _seq_input(5, dt, masked=False)),
        AuditCase("gru_masked", _gru, lambda dt: _seq_input(5, dt, masked=True)),
        AuditCase("lstm", _lstm, lambda dt: _seq_input(5, dt, masked=False)),
        AuditCase("lstm_masked", _lstm,
                  lambda dt: _seq_input(5, dt, masked=True)),
        AuditCase("gru_cell", _gru_cell,
                  lambda dt: (_arr((4, 5), dt), _arr((4, 7), dt, 18))),
        AuditCase("lstm_cell", _lstm_cell,
                  lambda dt: (_arr((4, 5), dt),
                              (_arr((4, 7), dt, 20), _arr((4, 7), dt, 21)))),
        AuditCase("bidirectional_masked", _bidirectional,
                  lambda dt: _seq_input(5, dt, masked=True)),
        AuditCase("fusion_fc", _fusion_fc,
                  lambda dt: [_arr((4, 6), dt, 24), _arr((4, 4), dt, 25)]),
        AuditCase("fusion_fm", _fusion_fm,
                  lambda dt: [_arr((4, 6), dt, 24), _arr((4, 4), dt, 25)]),
        AuditCase("fusion_mvm", _fusion_mvm,
                  lambda dt: [_arr((4, 6), dt, 24), _arr((4, 4), dt, 25),
                              _arr((4, 3), dt, 28)]),
        AuditCase("deepmood_mvm", _deepmood_mvm,
                  lambda dt: [(_arr((3, 5, d), dt, 30 + i),
                               _mask(3, 5, dt, 40 + i))
                              for i, d in enumerate((4, 6, 3))]),
        AuditCase("deepmood_bidir_fc", _deepmood_bidir_fc,
                  lambda dt: [(_arr((3, 5, d), dt, 50 + i),
                               _mask(3, 5, dt, 60 + i))
                              for i, d in enumerate((4, 3))]),
        # Views of unequal lengths; the third is bare and shorter than
        # the longest.
        AuditCase("deepmood_ragged_fm", _deepmood_ragged_fm,
                  lambda dt: [(_arr((3, 4, 4), dt, 90), _mask(3, 4, dt, 93)),
                              (_arr((3, 7, 6), dt, 91), _mask(3, 7, dt, 94)),
                              _arr((3, 5, 3), dt, 92)]),
    ]
}


def build_case(name, dtype):
    """Instantiate a case: ``(module, inputs, mse_target)``.

    The target is shaped like the module's primary training-mode output
    (probed on a throwaway instance so the returned module's dropout
    streams stay untouched).
    """
    from ...train import plan as train_plan

    case = AUDIT_CASES[name]
    inputs = case.build(np.dtype(dtype))
    probe = case.factory()
    probe.train()
    out = train_plan._call_eager(probe, train_plan._to_arrays(inputs))
    pred = train_plan._primary(out)
    target = _arr(pred.data.shape, np.dtype(dtype), 99)
    return case.factory(), inputs, target
