"""Fleet-simulation benchmark: struct-of-arrays rounds at 10k/100k/1M.

The headline numbers for the million-client federated fleet:

* **speedup** — per-client decision cost of the engine's vectorized
  path (which ``decide_round`` takes for a 10k-client cohort) vs its
  per-client loop (``_decide_scalar``, timed directly) on the same
  round, asserted >= 50x, with the two paths' outcomes verified
  bit-identical before timing is trusted;
* **scaling** — rounds/second and resident fleet bytes at 10k, 100k,
  and 1M clients under the same chaos schedule;
* **peak RSS** — subprocess ``ru_maxrss`` for a build+2-round run at
  each size, proving memory stays columnar (no per-client objects);
* **chaos curves** — measured dropout fraction and wasted-byte fraction
  per round over a 1M-client fleet under faults, plus streaming
  checkpoint write cost at that scale.

``make bench-record`` writes the results to ``BENCH_fleetsim.json`` at
the repo root.
"""

import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import record_results, run_once

from repro.faults import FaultInjector, FaultSpec
from repro.federated import RobustnessPolicy
from repro.federated.fleet import (
    EdgeTopology,
    FleetSimulator,
    FleetState,
    decide_round,
    save_fleet_checkpoint,
)
from repro.federated.fleet.engine import _decide_scalar

RESULTS_PATH = pathlib.Path(__file__).resolve().parent.parent \
    / "BENCH_fleetsim.json"

CHAOS = dict(dropout_rate=0.15, straggler_rate=0.25, straggler_scale=5.0,
             upload_loss_rate=0.08, corruption_rate=0.04, stale_rate=0.15,
             max_injected_staleness=3)
MODEL_BYTES = 40_000
SPEEDUP_CLIENTS = 10_000
SPEEDUP_FLOOR = 50.0
SCALING_SIZES = (10_000, 100_000, 1_000_000)
SCALING_ROUNDS = 3
CURVE_ROUNDS = 4

_results = {}


def make_policy():
    return RobustnessPolicy(max_retries=1, max_staleness=2, min_quorum=2)


def make_simulator(num_clients, client_fraction=0.1):
    num_edges = max(1, num_clients // 4096)
    state = FleetState.build(num_clients, seed=1, num_edges=num_edges)
    return FleetSimulator(
        state, injector=FaultInjector(spec=FaultSpec(**CHAOS), seed=2),
        policy=make_policy(),
        topology=EdgeTopology(num_edges=num_edges, edge_quorum=1),
        model_bytes=MODEL_BYTES, client_fraction=client_fraction, seed=3)


@pytest.fixture(scope="module", autouse=True)
def write_results():
    yield
    if not _results:
        return
    payload = {
        "workload": {
            "chaos": CHAOS,
            "policy": "max_retries=1, max_staleness=2, min_quorum=2",
            "model_bytes": MODEL_BYTES,
            "timing": "simulated decision rounds; wall-clock seconds",
        },
    }
    payload.update(_results)
    record_results(RESULTS_PATH, payload)


def test_vectorized_speedup_over_object_path(benchmark):
    """>= 50x per-client vs the per-client loop on a bit-identical round."""
    run_once(benchmark, lambda: None)  # timing is internal, per engine
    state = FleetState.build(SPEEDUP_CLIENTS, seed=1, num_edges=4)
    injector = FaultInjector(spec=FaultSpec(**CHAOS), seed=2)
    policy = make_policy()
    rows = np.arange(SPEEDUP_CLIENTS, dtype=np.int64)

    start = time.perf_counter()
    reference = _decide_scalar(state, injector, policy, 1, rows, rows,
                               MODEL_BYTES, 0.0, None)
    scalar_s = time.perf_counter() - start

    vector_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        decisions = decide_round(state, injector, policy, 1, rows,
                                 model_bytes=MODEL_BYTES)
        vector_s = min(vector_s, time.perf_counter() - start)

    # The timing only counts if both engines decided the same round.
    assert np.array_equal(decisions.outcome, reference.outcome)
    assert np.array_equal(decisions.sent, reference.sent)
    assert decisions.duration == reference.duration

    speedup = scalar_s / vector_s
    _results["speedup_at_10k"] = {
        "clients": SPEEDUP_CLIENTS,
        "scalar_s": round(scalar_s, 4),
        "vectorized_s": round(vector_s, 4),
        "scalar_per_client_us": round(scalar_s / SPEEDUP_CLIENTS * 1e6, 2),
        "vectorized_per_client_us": round(
            vector_s / SPEEDUP_CLIENTS * 1e6, 2),
        "speedup": round(speedup, 1),
        "floor": SPEEDUP_FLOOR,
    }
    print("fleet decision speedup at 10k: {:.1f}x "
          "({:.1f}us -> {:.2f}us per client)".format(
              speedup, scalar_s / SPEEDUP_CLIENTS * 1e6,
              vector_s / SPEEDUP_CLIENTS * 1e6))
    assert speedup >= SPEEDUP_FLOOR


def test_rounds_per_second_scaling(benchmark):
    """Vectorized rounds/s and fleet bytes at 10k, 100k, and 1M."""
    run_once(benchmark, lambda: None)  # per-size timing is internal
    scaling = {}
    for num_clients in SCALING_SIZES:
        sim = make_simulator(num_clients)
        sim.run_round()  # warm caches outside the timed window
        start = time.perf_counter()
        sim.run(1 + SCALING_ROUNDS)
        elapsed = time.perf_counter() - start
        selected = sum(r["selected"] for r in sim.history[1:])
        scaling[str(num_clients)] = {
            "rounds": SCALING_ROUNDS,
            "rounds_per_s": round(SCALING_ROUNDS / elapsed, 3),
            "seconds_per_round": round(elapsed / SCALING_ROUNDS, 4),
            "clients_per_round": selected // SCALING_ROUNDS,
            "fleet_bytes": sim.state.memory_bytes(),
        }
        print("fleetsim {}: {:.2f} rounds/s ({} participants/round, "
              "{:.1f} MB fleet)".format(
                  num_clients, SCALING_ROUNDS / elapsed,
                  selected // SCALING_ROUNDS,
                  sim.state.memory_bytes() / 1e6))
    _results["scaling"] = scaling
    # Columnar memory: 1M clients fit in the struct-of-arrays columns
    # (8 columns at 53 bytes a device = 53 MB), not gigabytes of
    # Python objects.
    assert scaling["1000000"]["fleet_bytes"] <= 150 * 1024 * 1024


_RSS_SCRIPT = """
import resource, sys
sys.path.insert(0, {src!r})


def peak_rss_kib():
    # VmHWM resets on exec; ru_maxrss does not (a fork child inherits
    # the parent's resident peak, which would credit pytest's memory to
    # this subprocess).  Fall back to ru_maxrss off Linux.
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


from repro.faults import FaultInjector, FaultSpec
from repro.federated import RobustnessPolicy
from repro.federated.fleet import EdgeTopology, FleetSimulator, FleetState

num_clients = {num_clients}
num_edges = max(1, num_clients // 4096)
state = FleetState.build(num_clients, seed=1, num_edges=num_edges)
sim = FleetSimulator(
    state,
    injector=FaultInjector(spec=FaultSpec(**{chaos!r}), seed=2),
    policy=RobustnessPolicy(max_retries=1, max_staleness=2, min_quorum=2),
    topology=EdgeTopology(num_edges=num_edges, edge_quorum=1),
    model_bytes={model_bytes}, client_fraction=0.1, seed=3)
sim.run(2)
print(peak_rss_kib())
"""


def test_peak_rss_per_fleet_size(benchmark):
    """Subprocess ru_maxrss for build + 2 chaos rounds at each size."""
    run_once(benchmark, lambda: None)  # measured in subprocesses
    repo_root = pathlib.Path(__file__).resolve().parent.parent
    rss = {}
    for num_clients in SCALING_SIZES:
        script = _RSS_SCRIPT.format(src=str(repo_root / "src"),
                                    num_clients=num_clients,
                                    chaos=CHAOS, model_bytes=MODEL_BYTES)
        out = subprocess.run(
            [sys.executable, "-c", script], cwd=str(repo_root),
            capture_output=True, text=True, check=True)
        kib = int(out.stdout.strip().splitlines()[-1])
        rss[str(num_clients)] = {"peak_rss_mb": round(kib / 1024.0, 1)}
        print("fleetsim {} clients: peak RSS {:.1f} MB".format(
            num_clients, kib / 1024.0))
    _results["peak_rss"] = rss
    # Super-linear blowup would mean per-client Python objects snuck in.
    assert rss["1000000"]["peak_rss_mb"] < 1500.0


def test_million_client_chaos_curves(benchmark, tmp_path):
    """Dropout/wasted-byte curves at 1M plus streaming checkpoint cost."""
    sim = make_simulator(1_000_000, client_fraction=0.25)

    def run_curves():
        sim.run(CURVE_ROUNDS)
        return sim

    run_once(benchmark, run_curves)
    rounds, dropout = sim.dropout_curve()
    _, wasted = sim.wasted_curve()
    start = time.perf_counter()
    save_fleet_checkpoint(str(tmp_path / "fleet.ckpt"), sim)
    checkpoint_s = time.perf_counter() - start
    _results["million_client_chaos"] = {
        "clients": 1_000_000,
        "client_fraction": 0.25,
        "rounds": [int(r) for r in rounds],
        "dropout_fraction": [round(float(d), 4) for d in dropout],
        "wasted_byte_fraction": [round(float(w), 4) for w in wasted],
        "selected_per_round": [r["selected"] for r in sim.history],
        "cloud_commits": sum(r["cloud_commit"] for r in sim.history),
        "checkpoint_write_s": round(checkpoint_s, 3),
    }
    print("1M-client chaos: dropout {} wasted {} (checkpoint {:.2f}s)"
          .format([round(float(d), 3) for d in dropout],
                  [round(float(w), 3) for w in wasted], checkpoint_s))
    assert len(sim.history) == CURVE_ROUNDS
    # Chaos is visible but the round still commits under quorum.
    assert all(0.0 < d < 1.0 for d in dropout)
    assert all(0.0 < w < 1.0 for w in wasted)
    assert all(r["cloud_commit"] for r in sim.history)
    # The engine-level conservation law holds at the ledger too.
    for traffic in sim.ledger.rounds:
        assert traffic.sent == traffic.delivered + traffic.wasted
