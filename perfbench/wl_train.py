"""train-ondevice: per-user DeepMood personalization through TrainPlans.

Each synthetic user (``repro.synth`` typing dynamics) gets a fresh
``MultiViewGRUClassifier`` and one :class:`~repro.train.TrainPlan` (SGD,
cross-entropy) that runs several epochs of compiled steps over the
user's sessions.  Sessions are batched in a seeded order; each batch is
given a padded length of 4, 8 or 16 steps in turn and every session in
it is cropped to a seeded window that fits, from 3 to 16 steps, with
masks marking the real steps.  A plan therefore compiles three traces,
well inside its trace cache.  The first epoch is warm-up: its compile
steps are the set-up time, and throughput counts the later epochs.
Users train round robin until the run's time is up; a user trained
twice must end with identical parameters.
"""

import numpy as np

from common import clock, digest, input_rng, median, percentile_ms, probe
from repro.core.model import MultiViewGRUClassifier
from repro.synth import TypingDynamicsGenerator
from repro.train import TrainPlan

VIEW_DIMS = (4, 6, 3)
USERS = 4
SESSIONS_PER_USER = 48
BATCH = 8
EPOCHS = 10
LR = 0.1
# Padded lengths and the session windows (steps) each one takes.
LENGTHS = {4: (3, 4), 8: (5, 8), 16: (9, 16)}
GRAVITY = 9.81
TAIL_Q = 95


def make_inputs(seed, seconds):
    """Padded, masked batches of every user's cropped sessions."""
    cohort = TypingDynamicsGenerator(seed=seed).generate_cohort(
        USERS, SESSIONS_PER_USER)
    rng = input_rng(seed, "train-ondevice")
    lengths = list(LENGTHS)
    users = []
    for user_id in cohort.user_ids():
        sessions = cohort.sessions[user_id]
        order = rng.permutation(len(sessions))
        batches = []
        for number, start in enumerate(range(0, len(order), BATCH)):
            length = lengths[number % len(lengths)]
            low, high = LENGTHS[length]
            picks = order[start:start + BATCH]
            windows = rng.integers(low, high + 1, size=len(picks))
            batches.append(_batch([sessions[pick] for pick in picks],
                                  windows, length))
        users.append(batches)
    return {"users": users, "digest": digest(users)}


def _batch(sessions, windows, length):
    """Crop each session's views to its window and pad them to ``length``."""
    views = []
    for index, dim in enumerate(VIEW_DIMS):
        padded = np.zeros((len(sessions), length, dim))
        mask = np.zeros((len(sessions), length))
        for row, (session, window) in enumerate(zip(sessions, windows)):
            view = session.views()[index][:window]
            if index == 2:
                view = view / GRAVITY  # accelerometer in units of g
            padded[row, :len(view)] = view
            mask[row, :len(view)] = 1.0
        views.append((padded, mask))
    labels = np.array([session.mood_label for session in sessions])
    return {"length": length, "views": views, "labels": labels}


def _train(batches, user, tracer):
    """Personalize one fresh model for ``EPOCHS`` epochs."""
    started = clock()
    model = MultiViewGRUClassifier(VIEW_DIMS, hidden_size=16, fusion="mvm",
                                   fusion_units=8, seed=100 + user)
    plan = TrainPlan(model, loss="cross_entropy", optimizer="sgd",
                     optimizer_args={"lr": LR})
    if tracer is not None:
        tracer.patch(plan, "step", "train.plan.step",
                     note=lambda args, kwargs: args[0][0][0].shape[1])
    build_s = clock() - started
    compile_s = 0.0
    losses = []
    steps = []
    warm_traces = 0
    for epoch in range(EPOCHS):
        epoch_losses = []
        for batch in batches:
            traces = plan.compile_count
            started = clock()
            epoch_losses.append(plan.step(batch["views"], batch["labels"]))
            elapsed = clock() - started
            if plan.compile_count != traces:
                compile_s += elapsed
            elif epoch:
                steps.append((batch["length"], len(batch["labels"]), elapsed))
        losses.append(epoch_losses)
        if epoch == 0:
            warm_traces = plan.compile_count
    if tracer is not None:
        tracer.restore()  # the shim would keep this plan and its arena alive
    return {"setup_s": build_s + compile_s, "compile_s": compile_s,
            "traces": plan.compile_count,
            "retraces": plan.compile_count - warm_traces,
            "losses": np.array(losses), "steps": steps,
            "params": [np.array(value, copy=True)
                       for value in model.state_dict().values()]}


def run(inputs, seconds, tracer, scratch):
    users = inputs["users"]
    first = {}
    repeats = []
    runs = []
    probes = []
    if tracer is not None:
        root = tracer.begin("bench.train")
    started = clock()
    while len(runs) <= len(users) or clock() - started < seconds:
        user = len(runs) % len(users)
        if tracer is not None:
            tracer.tag = "training{}".format(len(runs))
        result = _train(users[user], user, tracer)
        params = result.pop("params")
        if user in first:
            repeats.append(all(np.array_equal(a, b)
                               for a, b in zip(first[user], params)))
        else:
            first[user] = params
        runs.append(result)
        probe(probes, 2)  # host speed, see common.probe
    wall = clock() - started
    if tracer is not None:
        tracer.end(root)
    steps = [step for result in runs for step in result["steps"]]
    step_s = [elapsed for _, _, elapsed in steps]
    samples = sum(rows for _, rows, _ in steps)
    losses = [result["losses"] for result in runs]
    attempted = sum(loss.size for loss in losses)
    first_loss = float(np.mean([loss[0] for loss in losses]))
    last_loss = float(np.mean([loss[-1] for loss in losses]))
    gates = {
        "losses_finite": all(np.isfinite(loss).all() for loss in losses),
        # A user whose sessions carry little mood signal may not improve
        # in a few epochs, so the mean over all trainings must fall.
        "losses_fall": last_loss < first_loss,
        "same_seed_same_params": bool(repeats) and all(repeats),
        "no_retrace_after_warm": sum(r["retraces"] for r in runs) == 0,
    }
    # A failed gate condemns every step of the run.
    failed = 0 if all(gates.values()) else attempted
    by_length = {length: [elapsed for size, _, elapsed in steps
                          if size == length] for length in LENGTHS}
    counters = {"train.plan.step_ms.len{}".format(length):
                1000.0 * median(times) for length, times in by_length.items()}
    counters.update({
        "train.plan.compile_s": median([r["compile_s"] for r in runs]),
        "train.plan.traces": median([r["traces"] for r in runs]),
        "train.plan.retraces_after_warm": sum(r["retraces"] for r in runs),
    })
    return {
        "ops": {"attempted": attempted, "failed": failed,
                "trainings": len(runs), "timed_steps": len(steps),
                "timed_samples": samples},
        "gates": gates,
        "e2e": {"ops_per_s": samples / sum(step_s),
                "p50_ms": percentile_ms(step_s, 50),
                "tail_ms": percentile_ms(step_s, TAIL_Q),
                "setup_s": median([r["setup_s"] for r in runs])},
        "counters": counters,
        "named": {"train_samples_per_s": (samples / sum(step_s), "1/s")},
        "layers": {},
        "busy_s": sum(step_s), "busy_ops": len(steps), "wall_s": wall,
        "probe_s": probes,
        "detail": {"first_epoch_loss": first_loss,
                   "last_epoch_loss": last_loss,
                   "setup_s": [r["setup_s"] for r in runs]},
    }
