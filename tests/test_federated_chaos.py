"""Chaos sweep: FedAvg robustness under seeded random fault schedules.

The property sweep drives the fault-tolerant FedAvg path through 50
random-but-seeded fault schedules (`repro.faults.chaos`) and asserts the
invariants the robustness layer promises:

* training still converges on the synthetic partition under quorum-based
  partial aggregation,
* the ledger's byte totals equal the sum of its per-round records, and
* kill-then-resume from a round checkpoint reproduces the uninterrupted
  run bit-for-bit.

Plus the seed-determinism guarantees for the chaos harness, DP-SGD, and
secure aggregation.
"""

import numpy as np
import pytest

from repro import nn
from repro.data import ArrayDataset
from repro.faults import FaultInjector, FaultSpec, chaos_injector, random_fault_spec
from repro.federated import (
    DistributedSelectiveSGD,
    FedAvg,
    FederatedClient,
    RobustnessPolicy,
    SecureAggregator,
    SelectiveSGDParticipant,
)
from repro.privacy import DPSGDTrainer
from repro.synth import iid_partition, make_digits
from tests.oracles import schedule

CHAOS_SEEDS = range(50)          # the fixed seed matrix for `make chaos-check`
RESUME_SEEDS = (3, 17, 41)       # subset re-run with kill/resume (expensive)


def model_fn():
    rng = np.random.default_rng(42)
    return nn.Sequential(nn.Linear(64, 10, rng=rng))


@pytest.fixture(scope="module")
def federation():
    x, y = make_digits(240, seed=1)
    parts = iid_partition(len(y), 4, rng=np.random.default_rng(0))
    shards = [(x[p], y[p]) for p in parts]
    eval_data = make_digits(120, seed=2)
    return shards, eval_data


def make_clients(shards):
    """Fresh clients each run: client RNGs advance during training."""
    return [
        FederatedClient(i, ArrayDataset(fx, fy), model_fn, seed=i)
        for i, (fx, fy) in enumerate(shards)
    ]


def chaos_policy():
    return RobustnessPolicy(min_quorum=2, max_retries=2, base_compute_s=10.0,
                            straggler_cutoff_s=120.0, timeout_s=200.0,
                            max_staleness=1)


def chaos_trainer(shards, seed, loop_seed=None):
    return FedAvg(make_clients(shards), model_fn, local_epochs=2, lr=0.3,
                  seed=seed if loop_seed is None else loop_seed,
                  injector=chaos_injector(seed), policy=chaos_policy())


def assert_ledger_internally_consistent(ledger):
    """Totals must equal the sum of the per-round records, always."""
    assert ledger.uplink_bytes == sum(r.up for r in ledger.rounds)
    assert ledger.downlink_bytes == sum(r.down for r in ledger.rounds)
    assert ledger.wasted_bytes == sum(r.wasted for r in ledger.rounds)
    assert ledger.retries == sum(r.retries for r in ledger.rounds)
    assert ledger.aborts == sum(r.aborts for r in ledger.rounds)
    for record in ledger.rounds:
        assert min(record) >= 0


class TestChaosSweep:
    def test_fifty_random_schedules(self, federation):
        """The headline property sweep over the fixed seed matrix."""
        shards, eval_data = federation
        finals = []
        for seed in CHAOS_SEEDS:
            history = chaos_trainer(shards, seed).run(5, eval_data,
                                                      eval_every=5)
            assert_ledger_internally_consistent(history.ledger)
            # Quorum-based partial aggregation keeps learning alive: well
            # above the 10-class chance floor on every schedule.
            assert history.final_accuracy() > 0.15, (
                "chaos seed {} failed to converge".format(seed))
            assert history.ledger.total_bytes > 0
            finals.append(history.final_accuracy())
        assert float(np.mean(finals)) > 0.25

    def test_faults_actually_fire_across_the_matrix(self, federation):
        """The sweep must exercise the fault paths, not silently skip them."""
        shards, eval_data = federation
        totals = {"wasted": 0, "retries": 0, "aborts": 0}
        for seed in (0, 1, 2, 3, 4):
            ledger = chaos_trainer(shards, seed).run(5, eval_data).ledger
            totals["wasted"] += ledger.wasted_bytes
            totals["retries"] += ledger.retries
            totals["aborts"] += ledger.aborts
        assert totals["wasted"] > 0
        assert totals["retries"] > 0


class TestDropoutAcceptance:
    def test_thirty_percent_dropout_within_two_points(self, federation):
        """30% dropout + stragglers under quorum stays within 2 accuracy
        points of the fault-free run (the PR's acceptance criterion)."""
        shards, eval_data = federation
        rounds = 12
        clean = FedAvg(make_clients(shards), model_fn, local_epochs=2,
                       lr=0.3, seed=0).run(rounds, eval_data,
                                           eval_every=rounds)
        spec = FaultSpec(dropout_rate=0.3, straggler_rate=0.3,
                         straggler_scale=20.0)
        policy = RobustnessPolicy(min_quorum=2, max_retries=2,
                                  base_compute_s=10.0,
                                  straggler_cutoff_s=60.0, timeout_s=200.0)
        faulty_loop = FedAvg(make_clients(shards), model_fn, local_epochs=2,
                             lr=0.3, seed=0,
                             injector=FaultInjector(spec, seed=1),
                             policy=policy)
        faulty = faulty_loop.run(rounds, eval_data, eval_every=rounds)
        assert clean.final_accuracy() > 0.4  # both runs genuinely learned
        assert abs(clean.final_accuracy() - faulty.final_accuracy()) <= 0.02
        # The faults really happened and the policies really worked.
        assert faulty.ledger.retries > 0
        assert faulty.ledger.wasted_bytes > 0
        assert_ledger_internally_consistent(faulty.ledger)


class TestCheckpointResume:
    def _assert_bitexact(self, full_loop, full_history, resumed_loop,
                         resumed_history):
        for name in full_loop.server.state:
            assert np.array_equal(full_loop.server.state[name],
                                  resumed_loop.server.state[name])
        assert full_loop.server.version == resumed_loop.server.version
        assert full_history.records == resumed_history.records
        assert full_history.ledger == resumed_history.ledger

    def test_clean_run_kill_then_resume(self, federation, tmp_path):
        shards, eval_data = federation
        ckpt = str(tmp_path / "clean.npz")

        def trainer():
            return FedAvg(make_clients(shards), model_fn, local_epochs=2,
                          lr=0.3, seed=0, client_fraction=0.5)

        full_loop = trainer()
        full = full_loop.run(8, eval_data)
        trainer().run(4, eval_data, checkpoint_path=ckpt)  # then "killed"
        resumed_loop = trainer()
        resumed = resumed_loop.run(8, eval_data, checkpoint_path=ckpt,
                                   resume=True)
        self._assert_bitexact(full_loop, full, resumed_loop, resumed)

    @pytest.mark.parametrize("seed", RESUME_SEEDS)
    def test_chaos_run_kill_then_resume(self, federation, tmp_path, seed):
        shards, eval_data = federation
        ckpt = str(tmp_path / "chaos{}.npz".format(seed))
        full_loop = chaos_trainer(shards, seed)
        full = full_loop.run(6, eval_data)
        chaos_trainer(shards, seed).run(3, eval_data, checkpoint_path=ckpt)
        resumed_loop = chaos_trainer(shards, seed)
        resumed = resumed_loop.run(6, eval_data, checkpoint_path=ckpt,
                                   resume=True)
        self._assert_bitexact(full_loop, full, resumed_loop, resumed)
        # The simulated clock is part of the resumable state too.
        assert full_loop.clock.now == pytest.approx(resumed_loop.clock.now)

    def test_resume_past_the_end_returns_restored_history(self, federation,
                                                          tmp_path):
        shards, eval_data = federation
        ckpt = str(tmp_path / "done.npz")
        first = chaos_trainer(shards, 0).run(4, eval_data,
                                             checkpoint_path=ckpt)
        resumed = chaos_trainer(shards, 0).run(4, eval_data,
                                               checkpoint_path=ckpt,
                                               resume=True)
        assert resumed.records == first.records
        assert resumed.ledger == first.ledger


class TestRobustnessPolicies:
    def test_total_dropout_aborts_every_round(self, federation):
        shards, eval_data = federation
        injector = FaultInjector(FaultSpec(dropout_rate=1.0), seed=0)
        policy = RobustnessPolicy(min_quorum=1, max_retries=1)
        trainer = FedAvg(make_clients(shards), model_fn, local_epochs=1,
                         lr=0.3, seed=0, injector=injector, policy=policy)
        before = trainer.server.broadcast()
        history = trainer.run(3, eval_data)
        assert history.ledger.aborts == 3
        assert history.ledger.uplink_bytes == 0
        assert history.ledger.wasted_bytes > 0
        for name in before:
            assert np.array_equal(trainer.server.state[name], before[name])
        assert trainer.server.version == 0

    def test_stale_updates_rejected_by_default(self, federation):
        shards, eval_data = federation
        injector = FaultInjector(
            FaultSpec(stale_rate=1.0, max_injected_staleness=1), seed=0)
        policy = RobustnessPolicy(min_quorum=1, max_retries=0, max_staleness=0)
        trainer = FedAvg(make_clients(shards), model_fn, local_epochs=1,
                         lr=0.3, seed=0, injector=injector, policy=policy)
        history = trainer.run(3, eval_data)
        # Round 1 has no older state to be stale against, so it commits.
        # Round 2 trains on the round-1 state, exceeds the zero-staleness
        # budget, and aborts.  The abort evicts the old state from the
        # broadcast history, so round 3 falls back to fresh and commits.
        assert trainer.server.version == 2
        assert history.ledger.aborts == 1
        assert history.ledger.wasted_bytes > 0

    def test_stale_updates_accepted_within_tolerance(self, federation):
        shards, eval_data = federation
        injector = FaultInjector(
            FaultSpec(stale_rate=1.0, max_injected_staleness=1), seed=0)
        policy = RobustnessPolicy(min_quorum=1, max_retries=0, max_staleness=1)
        trainer = FedAvg(make_clients(shards), model_fn, local_epochs=1,
                         lr=0.3, seed=0, injector=injector, policy=policy)
        history = trainer.run(3, eval_data)
        assert trainer.server.version == 3
        assert history.ledger.aborts == 0

    def test_corruption_never_reaches_the_aggregate(self, federation):
        shards, eval_data = federation
        injector = FaultInjector(FaultSpec(corruption_rate=1.0), seed=0)
        policy = RobustnessPolicy(min_quorum=1, max_retries=1)
        trainer = FedAvg(make_clients(shards), model_fn, local_epochs=1,
                         lr=0.3, seed=0, injector=injector, policy=policy)
        trainer.run(2, eval_data)
        for value in trainer.server.state.values():
            assert np.isfinite(value).all()


class TestSeedDeterminism:
    def test_same_seed_same_fault_schedule(self):
        a = schedule(chaos_injector(9), 4, range(5), attempts=2)
        b = schedule(chaos_injector(9), 4, range(5), attempts=2)
        assert a == b
        assert random_fault_spec(9) == random_fault_spec(9)

    def test_chaos_fedavg_is_reproducible(self, federation):
        shards, eval_data = federation
        runs = []
        for _ in range(2):
            trainer = chaos_trainer(shards, 13)
            history = trainer.run(4, eval_data)
            runs.append((trainer, history))
        (t1, h1), (t2, h2) = runs
        for name in t1.server.state:
            assert np.array_equal(t1.server.state[name], t2.server.state[name])
        assert h1.ledger == h2.ledger
        assert h1.records == h2.records

    def test_dpsgd_is_reproducible(self):
        x, y = make_digits(120, seed=5)

        def train():
            model = model_fn()
            trainer = DPSGDTrainer(model, lr=0.2, clip_norm=1.0,
                                   noise_multiplier=1.0, lot_size=32, seed=7)
            for _ in range(5):
                trainer.step(x, y)
            return model

        a, b = train(), train()
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_secure_aggregation_is_reproducible_and_exact(self):
        rng = np.random.default_rng(0)
        updates = {cid: rng.normal(size=12) for cid in range(4)}

        def masked(seed):
            agg = SecureAggregator(list(updates), mask_scale=50.0, seed=seed)
            return agg, {cid: agg.mask_update(cid, u)
                         for cid, u in updates.items()}

        agg1, m1 = masked(3)
        agg2, m2 = masked(3)
        _, m_other = masked(4)
        for cid in updates:
            assert np.array_equal(m1[cid], m2[cid])
        assert any(not np.array_equal(m1[cid], m_other[cid])
                   for cid in updates)
        total = agg1.aggregate(m1)
        assert np.allclose(total, sum(updates.values()))

    def test_selective_sgd_chaos_is_reproducible(self):
        x, y = make_digits(150, seed=6)
        parts = iid_partition(len(y), 3, rng=np.random.default_rng(0))
        eval_data = make_digits(80, seed=7)
        spec = FaultSpec(dropout_rate=0.3, upload_loss_rate=0.3,
                         corruption_rate=0.2)

        def run():
            participants = [
                SelectiveSGDParticipant(i, ArrayDataset(x[p], y[p]), model_fn,
                                        lr=0.2, seed=i)
                for i, p in enumerate(parts)
            ]
            driver = DistributedSelectiveSGD(
                participants, model_fn, upload_fraction=0.3,
                download_fraction=0.3, seed=0,
                injector=FaultInjector(spec, seed=2),
                policy=RobustnessPolicy(max_retries=2),
            )
            return driver.run(3, eval_data)

        h1, h2 = run(), run()
        assert h1.ledger == h2.ledger
        assert h1.records == h2.records
        assert_ledger_internally_consistent(h1.ledger)
        # The fault paths fired and were accounted for.
        assert h1.ledger.retries > 0 or h1.ledger.aborts > 0
        assert h1.ledger.total_bytes > 0
