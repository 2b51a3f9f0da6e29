"""Training-path benchmark: eager vs compiled plan.

The workload is training the DeepMood GRU classifier (three
typing-dynamics views, MVM fusion) with cross-entropy + SGD — the
paper's on-device personalization loop.  Two strategies run the same
fixed-shape step stream from identical initial weights:

* **eager** — autodiff-engine forward+backward and an eager SGD step
  per batch (the seed path);
* **plan** — one compiled :class:`repro.train.TrainPlan` step per batch
  (zero-arg closures over the frozen arena, no graph, no allocations).

Asserts the acceptance bar — compiled training at least
2x the eager step rate — and the arena contract: zero new training
allocations after the compile-time freeze.  ``make bench-record``
writes the results to ``BENCH_training.json`` at the repo root.
"""

import os
import pathlib
import time

import numpy as np
import pytest

from conftest import record_results

from repro import profiler
from repro.core.model import MultiViewGRUClassifier
from repro.nn import losses
from repro.optim import SGD
from repro.train import TrainPlan

RESULTS_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_training.json"

VIEW_DIMS = (4, 6, 3)
HIDDEN = 16
FUSION_UNITS = 8
BATCH = 32
SEQ_STEPS = 8
TRAIN_STEPS = 20
REPS = 3
LR = 0.05

_results = {}
_coloring = {}


def _model():
    return MultiViewGRUClassifier(VIEW_DIMS, hidden_size=HIDDEN,
                                  fusion="mvm", fusion_units=FUSION_UNITS,
                                  seed=0)


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(1)
    lengths = rng.integers(3, SEQ_STEPS + 1, size=BATCH)
    mask = (np.arange(SEQ_STEPS)[None, :] < lengths[:, None]).astype(float)
    views = [(rng.standard_normal((BATCH, SEQ_STEPS, dim)), mask)
             for dim in VIEW_DIMS]
    labels = rng.integers(0, 2, size=BATCH)
    return views, labels


@pytest.fixture(scope="module", autouse=True)
def write_results():
    yield
    if _results:
        payload = {
            "workload": {
                "model": "MultiViewGRUClassifier(view_dims={}, hidden={}, "
                         "fusion='mvm', fusion_units={})".format(
                             VIEW_DIMS, HIDDEN, FUSION_UNITS),
                "batch_size": BATCH,
                "seq_steps": SEQ_STEPS,
                "train_steps": TRAIN_STEPS,
                "optimizer": "sgd(lr={})".format(LR),
                "loss": "cross_entropy",
                "cpu_count": os.cpu_count(),
                "timing": "best of {} interleaved passes, seconds".format(
                    REPS),
            },
            "strategies": _results,
        }
        if "eager" in _results and "plan" in _results:
            payload["speedup_plan_vs_eager"] = round(
                _results["eager"]["total_s"] / _results["plan"]["total_s"], 2)
        if _coloring:
            payload["arena_slot_coloring"] = dict(_coloring)
        record_results(RESULTS_PATH, payload)


def _record(name, total):
    _results[name] = {
        "total_s": round(float(total), 6),
        "steps_per_s": round(TRAIN_STEPS / float(total), 2),
        "ms_per_step": round(1000.0 * float(total) / TRAIN_STEPS, 3),
    }


def test_training_strategies(workload):
    views, labels = workload

    # -- eager: engine forward+backward + eager SGD --------------------
    eager_model = _model()
    eager_model.train()
    optimizer = SGD(eager_model.parameters(), lr=LR)

    def eager_pass():
        start = time.perf_counter()
        for _ in range(TRAIN_STEPS):
            optimizer.zero_grad()
            loss = losses.cross_entropy(eager_model(views), labels)
            loss.backward()
            optimizer.step()
        return time.perf_counter() - start

    # -- plan: compiled forward+backward+update ------------------------
    plan_model = _model()
    plan = TrainPlan(plan_model, loss="cross_entropy", optimizer="sgd",
                     optimizer_args={"lr": LR})
    plan.step(views, labels)  # compile + verify outside the timed region

    def plan_pass():
        start = time.perf_counter()
        for _ in range(TRAIN_STEPS):
            plan.step(views, labels)
        return time.perf_counter() - start

    # Alternating the two passes within each repetition exposes both to
    # the same scheduling-noise windows, as best_time_paired does.
    eager_total = plan_total = float("inf")
    for _ in range(REPS):
        eager_total = min(eager_total, eager_pass())
        plan_total = min(plan_total, plan_pass())
    _record("eager", eager_total)
    _record("plan", plan_total)

    speedup = eager_total / plan_total
    print("\ntraining: eager {:.1f} steps/s, plan {:.1f} steps/s "
          "({:.1f}x)".format(TRAIN_STEPS / eager_total,
                             TRAIN_STEPS / plan_total, speedup))
    assert speedup >= 2.0, (
        "compiled training step must be >= 2x eager, got {:.2f}x".format(
            speedup))


def test_no_training_allocations_after_freeze(workload):
    views, labels = workload
    model = _model()
    plan = TrainPlan(model, loss="cross_entropy", optimizer="sgd",
                     optimizer_args={"lr": LR})
    plan.step(views, labels)  # compile, verify, freeze
    before = (plan.compile_count, plan.arena_nbytes)
    profiler.reset()
    with profiler.profile():
        for _ in range(5):
            plan.step(views, labels)
    stats = profiler.get_stats()
    profiler.reset()
    assert (plan.compile_count, plan.arena_nbytes) == before, \
        "training step traced again or grew the arena after freeze"
    assert not stats["ops"], \
        "training step routed work through the autodiff engine"


def test_arena_slot_coloring(workload):
    """Audit + color the compiled training step; record the arena shrink.

    Coloring must find reusable bytes, the audit must be clean, and the
    colored step must keep training zero-alloc with the same losses a
    fresh uncolored plan produces.
    """
    from repro.analysis.plans import color_train_plan, extract_train_ir

    views, labels = workload
    plan = TrainPlan(_model(), loss="cross_entropy", optimizer="sgd",
                     optimizer_args={"lr": LR})
    first = plan.step(views, labels)

    ir, violations = extract_train_ir(plan, views, labels)
    assert violations == [], violations
    report = color_train_plan(plan, views, labels, ir)
    assert report.saved_bytes > 0, report

    before = (plan.compile_count, plan.arena_nbytes)
    colored_losses = [plan.step(views, labels) for _ in range(3)]
    assert (plan.compile_count, plan.arena_nbytes) == before, \
        "colored training step traced again or grew the arena"

    reference_plan = TrainPlan(_model(), loss="cross_entropy",
                               optimizer="sgd", optimizer_args={"lr": LR})
    reference = [reference_plan.step(views, labels) for _ in range(4)]
    assert first == reference[0]
    assert colored_losses == reference[1:], \
        "colored training diverged from the uncolored trajectory"

    _coloring.update({
        "plan": report.label,
        "arena_bytes_before": report.before_bytes,
        "arena_bytes_after": report.after_bytes,
        "reduction_pct": round(100.0 * report.reduction, 1),
        "shared_slots": len(report.slots),
    })
    print("\ntraining arena coloring: {} -> {} bytes (-{:.1f}%)".format(
        report.before_bytes, report.after_bytes, 100.0 * report.reduction))
