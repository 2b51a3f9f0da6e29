"""fleet-1m: the columnar FleetSimulator over one million clients.

One million devices in ``1M // 4096`` edge cohorts run chaos rounds
(dropouts, stragglers, lost, corrupt and stale uploads) with a tenth of
the eligible fleet sampled per round.  A streaming checkpoint is
written every few rounds.  After the timed rounds a second fleet is
built, resumed from the last checkpoint and run to the same round; its
fingerprint must equal the uninterrupted simulator's.  No training
runs: sampling, the vectorized decision engine, the edge/cloud quorum
and the column updates do the work, and checkpoint writes stream the
columns beside them.
"""

import os

from common import clock, mean, median, percentile_ms, span_mean_ms
from repro.faults import FaultInjector, FaultSpec
from repro.federated import RobustnessPolicy
from repro.federated.comm import CommunicationLedger
from repro.federated.fleet import EdgeTopology, FleetSimulator, FleetState
from repro.federated.fleet import checkpoint as fleet_checkpoint
from repro.federated.fleet import simulator as fleet_simulator

NUM_CLIENTS = 1_000_000
NUM_EDGES = NUM_CLIENTS // 4096
CHAOS = FaultSpec(dropout_rate=0.15, straggler_rate=0.25, straggler_scale=5.0,
                  upload_loss_rate=0.08, corruption_rate=0.04,
                  stale_rate=0.15, max_injected_staleness=3)
POLICY = RobustnessPolicy(max_retries=1, max_staleness=2, min_quorum=2)
MODEL_BYTES = 40_000
CLIENT_FRACTION = 0.1
CHECKPOINT_EVERY = 3
# The dropout and wasted shares are taken over this many first rounds,
# so they depend on the seed alone, not on how many rounds fit the run.
COUNTED_ROUNDS = 6
# Fleet builds per run; set-up time is their median.
SETUPS = 7
TAIL_Q = 75
LAYERS = ("sample", "decide", "partition", "ledger", "apply", "ckpt_save",
          "ckpt_load")


def make_inputs(seed, seconds):
    """The seeded fleet; its fingerprint is the input digest."""
    started = clock()
    state = FleetState.build(NUM_CLIENTS, seed=seed, num_edges=NUM_EDGES)
    return {"seed": seed, "state": state, "build_s": clock() - started,
            "digest": state.fingerprint()}


def make_simulator(state, seed):
    return FleetSimulator(
        state, injector=FaultInjector(CHAOS, seed=seed + 1), policy=POLICY,
        topology=EdgeTopology(num_edges=NUM_EDGES, edge_quorum=1),
        model_bytes=MODEL_BYTES, client_fraction=CLIENT_FRACTION,
        seed=seed + 2)


def _install(tracer):
    for function, layer in (("sample_clients", "sample"),
                            ("decide_round", "decide"),
                            ("edge_partition", "partition")):
        tracer.patch(fleet_simulator, function, "fleet." + layer)
    tracer.patch(CommunicationLedger, "record_cohort_round", "fleet.ledger")
    tracer.patch(FleetState, "apply_round", "fleet.apply")
    tracer.patch(fleet_checkpoint, "save_fleet_checkpoint", "fleet.ckpt_save")
    tracer.patch(fleet_checkpoint, "load_fleet_checkpoint", "fleet.ckpt_load")


def run(inputs, seconds, tracer, scratch):
    seed = inputs["seed"]
    state = inputs.pop("state")
    builds = [inputs["build_s"]]
    path = os.path.join(scratch, "fleet-{}.ckpt".format(seed))
    sim = make_simulator(state, seed)
    if tracer is not None:
        _install(tracer)
        root = tracer.begin("bench.fleet")
    round_s = []
    checkpoint_s = 0.0
    saved = 0
    started = clock()
    # Stop once the time is up, the counted rounds have run and a round
    # has run past the last checkpoint, so the resume below replays at
    # least one round.
    while not (saved and sim.round_index > saved
               and sim.round_index >= COUNTED_ROUNDS
               and clock() - started >= seconds):
        if tracer is not None:
            tracer.tag = sim.round_index + 1
        begun = clock()
        sim.run_round()
        round_s.append(clock() - begun)
        if sim.round_index % CHECKPOINT_EVERY == 0:
            begun = clock()
            fleet_checkpoint.save_fleet_checkpoint(path, sim)
            checkpoint_s += clock() - begun
            saved = sim.round_index
    history, ledger = sim.history, sim.ledger
    fingerprint, final = sim.fingerprint(), sim.round_index
    state_bytes = state.memory_bytes()
    del sim, state
    if tracer is not None:
        tracer.tag = "resume"
    # The last of these builds is the fleet that resumes.
    while len(builds) < SETUPS:
        state = None  # free the previous fleet first: it sets peak memory
        begun = clock()
        state = FleetState.build(NUM_CLIENTS, seed=seed, num_edges=NUM_EDGES)
        builds.append(clock() - begun)
    resumed = make_simulator(state, seed)
    fleet_checkpoint.load_fleet_checkpoint(path, resumed)
    resumed_rounds = final - resumed.round_index
    while resumed.round_index < final:
        resumed.run_round()
    resumed_ok = resumed.fingerprint() == fingerprint
    wall = clock() - started
    if tracer is not None:
        tracer.end(root)
        tracer.restore()
    os.remove(path)
    commits = [record["cloud_commit"] for record in history]
    conserved = [traffic.sent == traffic.delivered + traffic.wasted
                 and traffic.sent == record["sent_bytes"]
                 for record, traffic in zip(history, ledger.rounds)]
    gates = {
        "every_round_commits": all(commits),
        "bytes_conserved": len(conserved) == len(history) and all(conserved),
        "resume_matches_fingerprint": resumed_ok,
    }
    counted = history[:COUNTED_ROUNDS]
    layers = {}
    if tracer is not None:
        layers = {"fleet.{}_ms".format(layer): span_mean_ms(tracer,
                                                             "fleet." + layer)
                  for layer in LAYERS}
    busy = sum(round_s) + checkpoint_s
    return {
        "ops": {"attempted": len(history) + resumed_rounds,
                "failed": commits.count(False) + conserved.count(False)
                + (0 if resumed_ok else resumed_rounds),
                "rounds": len(history), "commits": sum(commits),
                "resumed_rounds": resumed_rounds,
                "checkpoints": saved // CHECKPOINT_EVERY},
        "gates": gates,
        "e2e": {"ops_per_s": len(round_s) / busy,
                "p50_ms": percentile_ms(round_s, 50),
                "tail_ms": percentile_ms(round_s, TAIL_Q),
                "setup_s": median(builds)},
        "counters": {
            "fleet.state_bytes": state_bytes,
            "fleet.dropout_frac": mean([record["dropout_fraction"]
                                        for record in counted]),
            "fleet.wasted_frac": sum(record["wasted_bytes"]
                                     for record in counted)
            / sum(record["sent_bytes"] for record in counted)},
        "named": {"fleet_rounds_per_s": (len(round_s) / busy, "1/s")},
        "layers": layers,
        "busy_s": busy, "busy_ops": len(round_s), "wall_s": wall,
        "detail": {"rounds": len(history), "checkpoint_s": checkpoint_s,
                   "resumed_from": final - resumed_rounds,
                   "setup_s": builds},
    }
