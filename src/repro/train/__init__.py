"""Compiled training path: forward+backward plans in one process.

``compile_train_plan`` captures one traced forward+backward+update as
a list of zero-arg step closures over a
:class:`~repro.serve.arena.BufferArena` of preallocated activation,
gradient, and optimizer-state buffers.  Its layer rules
(:func:`register_train_rule`) are the repo's only ones:
:mod:`repro.serve` compiles inference plans through their forward-only
mode.  ``TrainPlan.grad_step`` and ``flat_grad`` expose one step's
gradients without an update, which DP-SGD's per-example loop replays;
FedAvg's ``FederatedClient.local_train`` replays one plan per model
factory.
"""

from .plan import (
    TrainPlan,
    TrainVerificationError,
    compile_train_plan,
    register_train_rule,
)

__all__ = [
    "TrainPlan",
    "TrainVerificationError",
    "compile_train_plan",
    "register_train_rule",
]
