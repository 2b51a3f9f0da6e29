"""fedavg-chaos: public FedAvg under injected faults.

An MLP learns ``make_digits`` across 100 clients holding McMahan et
al.'s pathological non-IID split (two label-sorted shards each).  Each
round samples a tenth of the clients; a
:class:`~repro.faults.FaultInjector` makes them drop out, straggle, and
upload corrupt, stale or lost updates, and a
:class:`~repro.federated.RobustnessPolicy` retries, rejects stale
updates and requires a quorum.  The global model is evaluated every
round and checkpointed every few rounds, so evaluation and checkpoint
writes sit beside the eager local training that dominates.  A pass is
one fresh run of ``ROUNDS`` rounds from fresh clients under one of a
few loop seeds derived from the run's seed; passes repeat until the
run's time is up, and a pass that repeats a loop seed must end
bit-identical to its first pass.
"""

import os

import numpy as np

from common import (clock, digest, input_rng, mean, median, percentile_ms,
                    probe, span_mean_ms)
from repro import nn
from repro.data import ArrayDataset
from repro.faults import FaultInjector, FaultSpec
from repro.federated import FedAvg, FederatedClient, RobustnessPolicy
from repro.federated import checkpoint as fed_checkpoint
from repro.federated.comm import state_bytes
from repro.optim import SGD
from repro.synth import make_digits, shard_partition
from repro.tensor import Tensor

NUM_CLIENTS = 100
TRAIN_SAMPLES = 2400
EVAL_SAMPLES = 600
ROUNDS = 30
CHECKPOINT_EVERY = 5
CLIENT_FRACTION = 0.1
LOCAL_EPOCHS = 2
BATCH = 8
LR = 0.3
ACCURACY_FLOOR = 0.5
CHAOS = FaultSpec(dropout_rate=0.1, straggler_rate=0.2, straggler_scale=5.0,
                  upload_loss_rate=0.05, corruption_rate=0.03,
                  stale_rate=0.1, max_injected_staleness=2)
POLICY = RobustnessPolicy(min_quorum=3, max_retries=2, max_staleness=1,
                          straggler_cutoff_s=60.0, timeout_s=200.0)
TAIL_Q = 90
# Passes cycle over this many loop seeds, so one run averages several
# fault schedules rather than timing a single one.
PASS_SEEDS = 8


def model_fn():
    rng = np.random.default_rng(42)
    return nn.Sequential(nn.Linear(64, 32, rng=rng), nn.Tanh(),
                         nn.Linear(32, 10, rng=rng))


def make_inputs(seed, seconds):
    """Client shards and the evaluation set, drawn from ``seed``."""
    features, labels = make_digits(TRAIN_SAMPLES, seed=seed)
    parts = shard_partition(labels, NUM_CLIENTS, shards_per_client=2,
                            rng=input_rng(seed, "fedavg-shards"))
    data = {"shards": [(features[part], labels[part]) for part in parts],
            "eval": make_digits(EVAL_SAMPLES, seed=seed + 1_000_003)}
    return dict(data, seed=seed, digest=digest(data))


def _observe(loop, tracer):
    """Round-end times and call counts from the loop's public calls.

    These are plain counters, not spans, so untraced runs keep them.
    """
    counts = {"local_train": 0, "committed": 0, "round_ends": []}
    server = loop.server
    evaluate, average = server.evaluate, server.average_states

    def evaluate_and_stamp(features, labels):
        accuracy = evaluate(features, labels)
        counts["round_ends"].append(clock())
        if tracer is not None:
            tracer.tag += 1
        return accuracy

    def average_and_count(states, weights, min_quorum=None):
        average(states, weights, min_quorum=min_quorum)
        counts["committed"] += len(states)

    server.evaluate = evaluate_and_stamp
    server.average_states = average_and_count
    for client in loop.clients:
        client.local_train = _counted(client.local_train, counts)
    return counts


def _counted(train, counts):
    def local_train(*args, **kwargs):
        counts["local_train"] += 1
        return train(*args, **kwargs)
    return local_train


def _install(tracer, loop):
    for client in loop.clients:
        tracer.patch(client, "local_train", "fed.client.local_train")
    tracer.patch(loop.server, "average_states", "fed.server.average")
    tracer.patch(loop.server, "evaluate", "fed.server.evaluate")
    tracer.patch(fed_checkpoint, "save_checkpoint", "fed.checkpoint.save")
    tracer.patch(nn.Module, "__call__", "eager.forward")
    tracer.patch(Tensor, "backward", "eager.backward")
    tracer.patch(SGD, "step", "eager.optim_step")


def _pass(inputs, seed, path, tracer):
    """One fresh run of ``ROUNDS`` rounds; returns its measurements.

    ``seed`` keys client sampling, local batch order and the faults.
    """
    started = clock()
    clients = [FederatedClient(index, ArrayDataset(features, labels),
                               model_fn, seed=seed)
               for index, (features, labels) in enumerate(inputs["shards"])]
    loop = FedAvg(clients, model_fn, local_epochs=LOCAL_EPOCHS,
                  batch_size=BATCH, lr=LR, client_fraction=CLIENT_FRACTION,
                  seed=seed, injector=FaultInjector(CHAOS, seed=seed),
                  policy=POLICY)
    setup = clock() - started
    counts = _observe(loop, tracer)
    if tracer is not None:
        _install(tracer, loop)
        tracer.tag = 1
        root = tracer.begin("bench.fedavg")
    started = clock()
    history = loop.run(ROUNDS, inputs["eval"], eval_every=1,
                       checkpoint_path=path,
                       checkpoint_every=CHECKPOINT_EVERY)
    wall = clock() - started
    if tracer is not None:
        tracer.end(root)
        tracer.restore()
    ledger = history.ledger
    unit = state_bytes(loop.server.state)
    # Every byte is delivered or wasted; uploads pair with downloads;
    # transfers move whole model states; totals match the rounds.
    conserved = all(
        r.sent == r.delivered + r.wasted and r.up == r.down
        and r.up % unit == 0 and r.wasted % unit == 0
        for r in ledger.rounds) and sum(r.sent for r in ledger.rounds) == \
        ledger.total_bytes + ledger.edge_bytes + ledger.wasted_bytes
    return {
        "setup_s": setup, "wall_s": wall,
        "round_s": np.diff([started] + counts["round_ends"]),
        "rounds": len(ledger.rounds), "accuracy": history.final_accuracy(),
        "conserved": conserved,
        "fingerprint": digest([list(loop.server.state.values()),
                               ledger.to_dict(),
                               [record.accuracy for record in history.records]]),
        "attempts": sum(record.participants for record in history.records)
        + ledger.retries,
        "local_train": counts["local_train"],
        "committed": counts["committed"],
        "retries": ledger.retries, "aborts": ledger.aborts,
        "wasted_frac": ledger.wasted_fraction(),
    }


def _layers(tracer):
    spans = tracer.spans

    def under_client(name):
        """Durations of the ``name`` spans a local_train call made."""
        return [end - start for span, start, end, parent, _, _ in spans
                if span == name and end is not None and parent >= 0
                and spans[parent][0] == "fed.client.local_train"]

    layers = {
        "fed.client.local_train_ms":
            span_mean_ms(tracer, "fed.client.local_train"),
        "fed.server.average_ms": span_mean_ms(tracer, "fed.server.average"),
        "fed.server.evaluate_ms": span_mean_ms(tracer, "fed.server.evaluate"),
        "fed.checkpoint.save_ms": span_mean_ms(tracer, "fed.checkpoint.save"),
    }
    for name in ("forward", "backward", "optim_step"):
        layers["eager.{}_ms".format(name)] = \
            1000.0 * mean(under_client("eager." + name))
    return layers


def run(inputs, seconds, tracer, scratch):
    path = os.path.join(scratch, "fedavg-{}.npz".format(inputs["seed"]))
    passes = []
    probes = []
    started = clock()
    while len(passes) <= PASS_SEEDS or clock() - started < seconds:
        loop_seed = inputs["seed"] * PASS_SEEDS + len(passes) % PASS_SEEDS
        passes.append(_pass(inputs, loop_seed, path, tracer))
        probe(probes, 8)  # host speed, see common.probe
    os.remove(path)
    first = passes[0]
    # Pass p repeats the loop seed of pass p - PASS_SEEDS exactly.
    replays = [p["fingerprint"] == passes[index % PASS_SEEDS]["fingerprint"]
               for index, p in enumerate(passes)]
    good = [p["conserved"] and p["accuracy"] >= ACCURACY_FLOOR and replay
            for p, replay in zip(passes, replays)]
    gates = {
        "bytes_conserved": all(p["conserved"] for p in passes),
        "accuracy_floor": all(p["accuracy"] >= ACCURACY_FLOOR for p in passes),
        "seed_replays_exactly": all(replays),
    }
    round_s = np.concatenate([p["round_s"] for p in passes])
    busy = sum(p["wall_s"] for p in passes)
    rounds = sum(p["rounds"] for p in passes)
    return {
        "ops": {"attempted": rounds,
                "failed": sum(p["rounds"] for p, ok in zip(passes, good)
                              if not ok),
                "passes": len(passes),
                "client_attempts": sum(p["attempts"] for p in passes),
                "local_train_calls": sum(p["local_train"] for p in passes),
                "committed_updates": sum(p["committed"] for p in passes),
                "aborted_rounds": sum(p["aborts"] for p in passes)},
        "gates": gates,
        "e2e": {"ops_per_s": rounds / busy,
                "p50_ms": percentile_ms(round_s, 50),
                "tail_ms": percentile_ms(round_s, TAIL_Q),
                "setup_s": median([p["setup_s"] for p in passes])},
        "counters": {
            "fed.client.calls": first["local_train"],
            "fed.client.useful_frac":
                first["committed"] / max(1, first["local_train"]),
            "fed.ledger.wasted_frac": first["wasted_frac"],
            "fed.ledger.retries": first["retries"],
            "fed.ledger.aborts": first["aborts"]},
        "named": {"fed_rounds_per_s": (rounds / busy, "1/s")},
        "layers": _layers(tracer) if tracer is not None else {},
        "busy_s": busy, "busy_ops": rounds, "wall_s": busy,
        "probe_s": probes,
        "detail": {"final_accuracy": first["accuracy"],
                   "setup_s": [p["setup_s"] for p in passes]},
    }
