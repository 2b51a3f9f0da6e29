"""Tests for loss functions."""

import numpy as np
import pytest

from repro.nn import losses
from repro.tensor import Tensor, check_gradients


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestCrossEntropy:
    def test_uniform_logits_give_log_c(self):
        logits = Tensor(np.zeros((4, 5)))
        loss = losses.cross_entropy(logits, np.zeros(4, dtype=int))
        assert loss.item() == pytest.approx(np.log(5.0))

    def test_perfect_prediction_near_zero(self):
        logits = np.full((3, 4), -50.0)
        logits[np.arange(3), [1, 2, 0]] = 50.0
        loss = losses.cross_entropy(Tensor(logits), [1, 2, 0])
        assert loss.item() < 1e-8

    def test_gradient(self, rng):
        logits = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        labels = rng.integers(0, 4, size=5)
        check_gradients(lambda: losses.cross_entropy(logits, labels), [logits])

    def test_class_weights(self, rng):
        logits = Tensor(np.zeros((2, 2)))
        labels = np.array([0, 1])
        weighted = losses.cross_entropy(logits, labels, weight=[2.0, 0.0])
        assert weighted.item() == pytest.approx(np.log(2.0))

    def test_reductions(self, rng):
        logits = Tensor(rng.normal(size=(4, 3)))
        labels = rng.integers(0, 3, size=4)
        none = losses.cross_entropy(logits, labels, reduction="none")
        assert none.shape == (4,)
        total = losses.cross_entropy(logits, labels, reduction="sum")
        assert total.item() == pytest.approx(none.numpy().sum())
        with pytest.raises(ValueError):
            losses.cross_entropy(logits, labels, reduction="bogus")

    def test_extreme_logits_stable(self):
        logits = Tensor(np.array([[1000.0, -1000.0]]))
        loss = losses.cross_entropy(logits, [1])
        assert np.isfinite(loss.item())

    @pytest.mark.parametrize("shape, num_labels", [
        ((2, 5, 3), 2),  # (batch, time, classes): read as rows of time
        ((4, 3), 2),     # fewer labels than rows: averaged over two rows
        ((4,), 4),       # no class axis
    ], ids=["rank-3", "fewer-labels", "rank-1"])
    def test_misshapen_inputs_raise(self, shape, num_labels):
        with pytest.raises(ValueError, match="one label per row"):
            losses.cross_entropy(Tensor(np.zeros(shape)),
                                 np.zeros(num_labels, dtype=int))


class TestOtherLosses:
    def test_nll_matches_cross_entropy(self, rng):
        import repro.tensor as T

        logits = Tensor(rng.normal(size=(4, 3)))
        labels = rng.integers(0, 3, size=4)
        ce = losses.cross_entropy(logits, labels)
        nll = losses.nll_loss(T.log_softmax(logits), labels)
        assert ce.item() == pytest.approx(nll.item())

    @pytest.mark.parametrize("loss, shape, num_labels", [
        (losses.nll_loss, (2, 5, 3), 2),
        (losses.nll_loss, (4, 3), 2),
        (losses.hinge_loss, (4, 3), 1),  # one label broadcast over rows
    ], ids=["nll-rank-3", "nll-fewer-labels", "hinge-fewer-labels"])
    def test_label_losses_refuse_misshapen_inputs(self, loss, shape,
                                                  num_labels):
        with pytest.raises(ValueError, match="one label per row"):
            loss(Tensor(np.zeros(shape)), np.zeros(num_labels, dtype=int))

    def test_bce_matches_formula(self, rng):
        z = rng.normal(size=(6,))
        y = rng.integers(0, 2, size=6).astype(float)
        loss = losses.binary_cross_entropy(Tensor(z), Tensor(y))
        probs = 1 / (1 + np.exp(-z))
        expected = -(y * np.log(probs) + (1 - y) * np.log(1 - probs)).mean()
        assert loss.item() == pytest.approx(expected)

    def test_bce_gradient(self, rng):
        z = Tensor(rng.normal(size=(5,)), requires_grad=True)
        y = Tensor(rng.integers(0, 2, size=5).astype(float))
        check_gradients(lambda: losses.binary_cross_entropy(z, y), [z])

    def test_mse_and_l1(self):
        pred = Tensor(np.array([1.0, 2.0]))
        target = Tensor(np.array([0.0, 4.0]))
        assert losses.mse_loss(pred, target).item() == pytest.approx(2.5)
        assert losses.l1_loss(pred, target).item() == pytest.approx(1.5)

    def test_mse_gradient(self, rng):
        pred = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        target = Tensor(rng.normal(size=(4, 2)))
        check_gradients(lambda: losses.mse_loss(pred, target), [pred])

    def test_hinge_zero_when_margin_satisfied(self):
        scores = np.array([[10.0, 0.0, 0.0]])
        loss = losses.hinge_loss(Tensor(scores), [0])
        assert loss.item() == pytest.approx(0.0)

    def test_hinge_counts_violations(self):
        scores = np.array([[0.0, 0.5, 0.0]])
        loss = losses.hinge_loss(Tensor(scores), [0], margin=1.0)
        # violations: class1: 0.5-0+1=1.5; class2: 0-0+1=1.0 -> total 2.5
        assert loss.item() == pytest.approx(2.5)

    def test_hinge_gradient(self, rng):
        scores = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        labels = rng.integers(0, 3, size=4)
        check_gradients(lambda: losses.hinge_loss(scores, labels), [scores])

    def test_kl_zero_for_identical(self, rng):
        import repro.tensor as T

        logits = Tensor(rng.normal(size=(3, 4)))
        log_p = T.log_softmax(logits)
        assert losses.kl_divergence(log_p, log_p).item() == pytest.approx(0.0, abs=1e-10)

    def test_kl_positive_for_different(self, rng):
        import repro.tensor as T

        p = T.log_softmax(Tensor(rng.normal(size=(3, 4))))
        q = T.log_softmax(Tensor(rng.normal(size=(3, 4))))
        assert losses.kl_divergence(p, q).item() > 0

    def test_distillation_loss_gradient(self, rng):
        student = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        teacher = rng.normal(size=(4, 3))
        labels = rng.integers(0, 3, size=4)
        check_gradients(
            lambda: losses.distillation_loss(student, teacher, labels,
                                             temperature=2.0, alpha=0.6),
            [student],
        )

    def test_distillation_alpha_extremes(self, rng):
        student = Tensor(rng.normal(size=(4, 3)))
        teacher = rng.normal(size=(4, 3))
        labels = rng.integers(0, 3, size=4)
        hard_only = losses.distillation_loss(student, teacher, labels, alpha=0.0)
        ce = losses.cross_entropy(student, labels)
        assert hard_only.item() == pytest.approx(ce.item())
