"""Tests for taint tracking and the privacy-flow tracer."""

import numpy as np
import pytest

from repro import nn, profiler
from repro.analysis.privacy import Label, PrivacyFlowReport, trace_privacy
from repro.data import ArrayDataset
from repro.federated import FederatedClient
from repro.federated.secure_agg import SecureAggregator
from repro.inference.private import PrivateLocalTransformer, split_sequential
from repro.privacy import DPFedAvg, DPSGDTrainer, GaussianMechanism, clip_by_l2
from repro.synth import make_digits, shard_partition
from repro.tensor import Tensor
from repro.tensor import tensor as tensor_mod


def make_model(seed=0, din=8, dout=3):
    rng = np.random.default_rng(seed)
    return nn.Sequential(nn.Linear(din, 16, rng=rng), nn.ReLU(),
                         nn.Linear(16, dout, rng=rng))


class TestLattice:
    def test_unknown_arrays_are_public(self):
        with trace_privacy() as trace:
            assert trace.label_of(np.ones(3)) is Label.PUBLIC

    def test_mark_and_query(self):
        with trace_privacy() as trace:
            x = np.ones(3)
            trace.mark(x, Label.PRIVATE)
            assert trace.label_of(x) is Label.PRIVATE

    def test_clip_promotes_private_to_clipped(self):
        with trace_privacy() as trace:
            x = np.full(4, 10.0)
            trace.mark(x, Label.PRIVATE)
            clipped = clip_by_l2(x, 1.0)
            assert trace.label_of(clipped) is Label.CLIPPED

    def test_noise_promotes_only_clipped_data(self):
        mech = GaussianMechanism(sigma=1.0, seed=0)
        with trace_privacy() as trace:
            x = np.ones(4)
            trace.mark(x, Label.PRIVATE)
            # Noise without a sensitivity bound proves nothing.
            still_private = mech.randomize(x)
            assert trace.label_of(still_private) is Label.PRIVATE
            clipped = clip_by_l2(x, 1.0)
            noised = mech.randomize(clipped)
            assert trace.label_of(noised) is Label.NOISED

    def test_release_below_threshold_is_violation(self):
        with trace_privacy() as trace:
            x = np.ones(4)
            trace.mark(x, Label.PRIVATE)
            clipped = clip_by_l2(x, 1.0)
            from repro.privacy import flow
            flow.release(clipped, "test.channel")
        report = trace.report()
        assert not report.ok
        assert report.violations[0].channel == "test.channel"
        assert report.violations[0].label is Label.CLIPPED
        assert "[egress]" in str(report)

    def test_release_of_noised_data_is_ok(self):
        mech = GaussianMechanism(sigma=1.0, seed=0)
        with trace_privacy() as trace:
            x = np.ones(4)
            trace.mark(x, Label.PRIVATE)
            noised = mech.randomize(clip_by_l2(x, 1.0))
            from repro.privacy import flow
            flow.release(noised, "test.channel")
        assert trace.report().ok

    def test_report_counts(self):
        report = PrivacyFlowReport([], [], [])
        assert report.ok
        assert "ok" in str(report)


class TestEnginePropagation:
    def test_private_input_taints_forward_pass(self):
        model = make_model()
        with trace_privacy() as trace:
            x = Tensor(np.ones((2, 8)))
            trace.mark(x, Label.PRIVATE)
            out = model(x)
            assert trace.label_of(out) is Label.PRIVATE

    def test_public_inputs_stay_public(self):
        model = make_model()
        with trace_privacy() as trace:
            out = model(Tensor(np.ones((2, 8))))
            assert trace.label_of(out) is Label.PUBLIC

    def test_combining_takes_worst_label(self):
        with trace_privacy() as trace:
            a = Tensor(np.ones(4))
            b = Tensor(np.ones(4))
            trace.mark(a, Label.PRIVATE)
            trace.mark(b, Label.NOISED)
            assert trace.label_of(a + b) is Label.PRIVATE
            assert trace.label_of(b * 2.0) is Label.NOISED

    def test_hook_restored_on_exit(self):
        before = tensor_mod._profile_hook
        with trace_privacy():
            assert tensor_mod._profile_hook is not before
        assert tensor_mod._profile_hook is before

    def test_not_reentrant(self):
        tracker = trace_privacy()
        with tracker:
            with pytest.raises(RuntimeError):
                tracker.__enter__()

    def test_composes_with_profiler_hook(self):
        profiler.reset()
        profiler.enable()
        try:
            model = make_model()
            with trace_privacy() as trace:
                x = Tensor(np.ones((2, 8)))
                trace.mark(x, Label.PRIVATE)
                out = model(x)
                assert trace.label_of(out) is Label.PRIVATE
            stats = profiler.get_stats()
            assert stats["ops"]  # the chained profiler hook still recorded
        finally:
            profiler.disable()
            profiler.reset()


class TestTrainerTraces:
    # The compiled path replays a plan per example inside the same loop,
    # so it must report exactly what eager reports.
    @pytest.mark.parametrize("use_plan", [False, True],
                             ids=["eager", "plan"])
    def test_dpsgd_clean_run_has_no_violations(self, use_plan):
        x, y = make_digits(60, seed=1)
        trainer = DPSGDTrainer(make_model(din=64, dout=10), lot_size=16,
                               noise_multiplier=1.0, seed=0,
                               use_plan=use_plan)
        with trace_privacy() as trace:
            trainer.step(x, y)
        report = trace.report()
        assert report.ok, str(report)
        assert report.noise_events and report.accounting_events

    @pytest.mark.parametrize("use_plan", [False, True],
                             ids=["eager", "plan"])
    def test_dpsgd_without_noise_is_flagged(self, use_plan):
        x, y = make_digits(60, seed=1)
        trainer = DPSGDTrainer(make_model(din=64, dout=10), lot_size=16,
                               noise_multiplier=0.0, seed=0,
                               use_plan=use_plan)
        with trace_privacy() as trace:
            trainer.step(x, y)
        report = trace.report()
        assert not report.ok
        assert report.violations[0].channel == "dpsgd.update"
        assert report.violations[0].label is Label.CLIPPED

    def _dpfedavg(self, noise_multiplier):
        x, y = make_digits(120, seed=1)
        parts = shard_partition(y, 4, shards_per_client=2,
                                rng=np.random.default_rng(0))

        def model_fn():
            return make_model(seed=42, din=64, dout=10)

        clients = [
            FederatedClient(i, ArrayDataset(x[p], y[p]), model_fn, seed=i)
            for i, p in enumerate(parts)
        ]
        return DPFedAvg(clients, model_fn, sample_prob=1.0,
                        noise_multiplier=noise_multiplier, local_epochs=1,
                        seed=0)

    def test_dpfedavg_clean_round_has_no_violations(self):
        dp = self._dpfedavg(noise_multiplier=1.0)
        with trace_privacy() as trace:
            dp.round()
        report = trace.report()
        assert report.ok, str(report)
        assert report.accounting_events

    def test_dpfedavg_without_noise_is_flagged(self):
        dp = self._dpfedavg(noise_multiplier=0.0)
        with trace_privacy() as trace:
            dp.round()
        report = trace.report()
        assert not report.ok
        assert report.violations[0].channel == "dpfedavg.server_update"

    def test_secure_agg_upload_is_aggregated(self):
        aggregator = SecureAggregator([0, 1, 2], mask_scale=50.0, seed=0)
        with trace_privacy() as trace:
            masked = aggregator.mask_update(0, np.ones(8))
            assert trace.label_of(masked) is Label.AGGREGATED
        assert trace.report().ok

    def test_secure_agg_with_zero_masks_is_flagged(self):
        aggregator = SecureAggregator([0, 1], mask_scale=0.0, seed=0)
        with trace_privacy() as trace:
            aggregator.mask_update(0, np.ones(8))
        report = trace.report()
        assert not report.ok
        assert report.violations[0].channel == "secure_agg.upload"

    def test_private_inference_clean_uplink(self):
        local, _ = split_sequential(make_model(din=6, dout=4), 2)
        transformer = PrivateLocalTransformer(local, noise_sigma=1.0,
                                              bound=4.0, seed=0)
        x = np.random.default_rng(0).normal(size=(3, 6))
        with trace_privacy() as trace:
            transformer(x)
        assert trace.report().ok, str(trace.report())

    def test_private_inference_without_noise_is_flagged(self):
        local, _ = split_sequential(make_model(din=6, dout=4), 2)
        transformer = PrivateLocalTransformer(local, noise_sigma=0.0,
                                              bound=4.0, seed=0)
        x = np.random.default_rng(0).normal(size=(3, 6))
        with trace_privacy() as trace:
            transformer(x)
        report = trace.report()
        assert not report.ok
        assert report.violations[0].channel == "private_inference.uplink"

    def test_no_tracking_cost_outside_trace(self):
        # With no listener installed the flow shim is inert: trainers run
        # exactly as before and no state accumulates anywhere.
        from repro.privacy import flow
        assert flow.get_listener() is None
        x, y = make_digits(40, seed=1)
        trainer = DPSGDTrainer(make_model(din=64, dout=10), lot_size=16,
                               seed=0)
        trainer.step(x, y)
        assert flow.get_listener() is None
