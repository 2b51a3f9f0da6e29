"""Compiled training path: forward+backward plans and data-parallel steps.

``compile_train_plan`` captures one traced forward+backward+update as
a list of zero-arg step closures over a :class:`TrainingArena` of
preallocated activation, gradient, and optimizer-state buffers.  Its
layer rules (:func:`register_train_rule`) are the repo's only ones:
:mod:`repro.serve` compiles inference plans through their forward-only
mode.  On top of the single-process plan, :class:`ParallelTrainer`
shards a batch across forked workers over shared-memory gradient slabs
with a deterministic reduction order.
"""

from .plan import (
    TrainPlan,
    TrainingArena,
    TrainVerificationError,
    compile_train_plan,
    register_train_rule,
)
from .parallel import ParallelTrainer, PerExampleGradientPool

__all__ = [
    "TrainPlan",
    "TrainingArena",
    "TrainVerificationError",
    "compile_train_plan",
    "register_train_rule",
    "ParallelTrainer",
    "PerExampleGradientPool",
]
