"""Tests for GRU/LSTM cells and masked sequence handling."""

import numpy as np
import pytest

from repro import nn
from repro.tensor import Tensor, check_gradients
import repro.tensor as T


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestGRUCell:
    def test_matches_paper_equation(self, rng):
        """One step must match Eq. (1) computed by hand."""
        cell = nn.GRUCell(3, 4, rng=rng)
        x = rng.normal(size=(2, 3))
        h = rng.normal(size=(2, 4))

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        r = sig(x @ cell.w_r.data.T + h @ cell.u_r.data.T + cell.b_r.data)
        z = sig(x @ cell.w_z.data.T + h @ cell.u_z.data.T + cell.b_z.data)
        candidate = np.tanh(x @ cell.w_h.data.T + (r * h) @ cell.u_h.data.T
                            + cell.b_h.data)
        expected = z * h + (1 - z) * candidate
        out = cell(Tensor(x), Tensor(h)).numpy()
        assert np.allclose(out, expected)

    def test_initial_state_zero(self, rng):
        cell = nn.GRUCell(3, 4, rng=rng)
        assert np.allclose(cell.initial_state(5).numpy(), 0.0)

    def test_gradients_through_two_steps(self, rng):
        cell = nn.GRUCell(2, 3, rng=rng)
        x1 = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        x2 = Tensor(rng.normal(size=(2, 2)), requires_grad=True)

        def loss():
            h = cell(x1, cell.initial_state(2))
            h = cell(x2, h)
            return (h ** 2).sum()

        check_gradients(loss, [x1, x2, cell.w_r, cell.u_h, cell.b_z])


@pytest.mark.parametrize("make_cell,shapes", [
    (lambda: nn.GRUCell(5, 7), ((5,), (3, 7))),
    (lambda: nn.GRUCell(5, 7), ((3, 5), (1, 7))),
    (lambda: nn.GRUCell(5, 7), ((3, 1, 5), (3, 7))),
    (lambda: nn.LSTMCell(5, 7), ((5,), ((3, 7), (3, 7)))),
    (lambda: nn.LSTMCell(5, 7), ((3, 5), ((1, 7), (3, 7)))),
    (lambda: nn.LSTMCell(5, 7), ((3, 5), ((3, 7), (1, 7)))),
    (lambda: nn.LSTMCell(5, 7), ((3, 1, 5), ((3, 7), (3, 7)))),
], ids=["gru-x-rank", "gru-h-batch", "gru-x-sequence", "lstm-x-rank",
        "lstm-h-batch", "lstm-c-batch", "lstm-x-sequence"])
def test_cell_refuses_what_numpy_would_broadcast(make_cell, shapes):
    """An eager cell refuses the inputs its compiled rule refuses,
    instead of broadcasting one row or a (1, hidden) state over the
    batch."""
    cell = make_cell()
    x, state = shapes
    if isinstance(state[0], tuple):
        state = tuple(Tensor(np.zeros(s)) for s in state)
    else:
        state = Tensor(np.zeros(state))
    name = type(cell).__name__
    with pytest.raises(ValueError, match=r"^{}: expects a \(batch, 5\) input "
                       r"and \(batch, 7\) state".format(name)):
        cell(Tensor(np.ones(x)), state)


class TestGRULayer:
    def test_output_shapes(self, rng):
        gru = nn.GRU(3, 5, rng=rng)
        x = Tensor(rng.normal(size=(4, 7, 3)))
        last = gru(x)
        assert last.shape == (4, 5)
        seq, last2 = gru(x, return_sequence=True)
        assert seq.shape == (4, 7, 5)
        assert np.allclose(seq.numpy()[:, -1], last2.numpy())

    def test_mask_freezes_padded_steps(self, rng):
        """Hidden state must not change after the sequence ends."""
        gru = nn.GRU(3, 5, rng=rng)
        x = rng.normal(size=(2, 6, 3))
        mask = np.ones((2, 6))
        mask[0, 3:] = 0.0  # sequence 0 has length 3
        seq, last = gru(Tensor(x), mask=mask, return_sequence=True)
        out = seq.numpy()
        assert np.allclose(out[0, 3], out[0, 2])
        assert np.allclose(out[0, 5], out[0, 2])
        assert np.allclose(last.numpy()[0], out[0, 2])

    def test_masked_equals_short_sequence(self, rng):
        """Padding + mask must give the same state as the unpadded input."""
        gru = nn.GRU(3, 4, rng=rng)
        x_short = rng.normal(size=(1, 3, 3))
        x_padded = np.concatenate([x_short, np.zeros((1, 4, 3))], axis=1)
        mask = np.array([[1, 1, 1, 0, 0, 0, 0]], dtype=float)
        out_short = gru(Tensor(x_short)).numpy()
        out_padded = gru(Tensor(x_padded), mask=mask).numpy()
        assert np.allclose(out_short, out_padded)

    def test_gradients_flow_to_parameters(self, rng):
        gru = nn.GRU(2, 3, rng=rng)
        x = Tensor(rng.normal(size=(2, 4, 2)))
        (gru(x) ** 2).sum().backward()
        for param in gru.parameters():
            assert param.grad is not None
            assert np.abs(param.grad).sum() > 0

    def test_gradcheck_small(self, rng):
        gru = nn.GRU(2, 2, rng=rng)
        x = Tensor(rng.normal(size=(1, 3, 2)), requires_grad=True)
        check_gradients(lambda: (gru(x) ** 2).sum(),
                        [x, gru.cell.w_h, gru.cell.u_r])


class TestLSTM:
    def test_forget_gate_bias_initialized_to_one(self, rng):
        cell = nn.LSTMCell(3, 4, rng=rng)
        assert np.allclose(cell.b.data[4:8], 1.0)
        assert np.allclose(cell.b.data[:4], 0.0)

    def test_output_shapes(self, rng):
        lstm = nn.LSTM(3, 5, rng=rng)
        x = Tensor(rng.normal(size=(4, 6, 3)))
        last = lstm(x)
        assert last.shape == (4, 5)
        seq, _ = lstm(x, return_sequence=True)
        assert seq.shape == (4, 6, 5)

    def test_masked_equals_short_sequence(self, rng):
        lstm = nn.LSTM(3, 4, rng=rng)
        x_short = rng.normal(size=(1, 2, 3))
        x_padded = np.concatenate([x_short, np.zeros((1, 3, 3))], axis=1)
        mask = np.array([[1, 1, 0, 0, 0]], dtype=float)
        assert np.allclose(
            lstm(Tensor(x_short)).numpy(),
            lstm(Tensor(x_padded), mask=mask).numpy(),
        )

    def test_gradcheck_small(self, rng):
        lstm = nn.LSTM(2, 2, rng=rng)
        x = Tensor(rng.normal(size=(1, 3, 2)), requires_grad=True)
        check_gradients(lambda: (lstm(x) ** 2).sum(), [x, lstm.cell.w])


class TestBidirectional:
    def test_output_is_concatenation(self, rng):
        fwd = nn.GRU(3, 4, rng=rng)
        bwd = nn.GRU(3, 4, rng=np.random.default_rng(1))
        bi = nn.Bidirectional(fwd, bwd)
        x = rng.normal(size=(2, 5, 3))
        out = bi(Tensor(x)).numpy()
        assert out.shape == (2, 8)
        assert np.allclose(out[:, :4], fwd(Tensor(x)).numpy())
        assert np.allclose(out[:, 4:], bwd(Tensor(x[:, ::-1].copy())).numpy())

    def test_mask_reverses_valid_prefix_only(self, rng):
        fwd = nn.GRU(2, 3, rng=rng)
        bwd = nn.GRU(2, 3, rng=np.random.default_rng(1))
        bi = nn.Bidirectional(fwd, bwd)
        x = rng.normal(size=(1, 4, 2))
        mask = np.array([[1, 1, 0, 0]], dtype=float)
        out = bi(Tensor(x), mask=mask).numpy()
        # Backward half must equal running bwd on the reversed 2-step prefix.
        reversed_prefix = x[:, [1, 0], :]
        expected = bwd(Tensor(reversed_prefix)).numpy()
        assert np.allclose(out[:, 3:], expected)


class TestFusionLayers:
    def make_views(self, rng, batch=5):
        return [Tensor(rng.normal(size=(batch, 4))),
                Tensor(rng.normal(size=(batch, 6)))]

    def test_fc_fusion_shape_and_grad(self, rng):
        fusion = nn.FullyConnectedFusion([4, 6], 8, 3, rng=rng)
        views = self.make_views(rng)
        out = fusion(views)
        assert out.shape == (5, 3)
        (out ** 2).sum().backward()
        assert all(p.grad is not None for p in fusion.parameters())

    def test_fm_fusion_matches_equation(self, rng):
        """Eq. (3): y_a = sum(q_a * q_a) + w_a^T [h; 1]."""
        fusion = nn.FactorizationMachineFusion([4], 3, 2, rng=rng)
        h = rng.normal(size=(2, 4))
        out = fusion([Tensor(h)]).numpy()
        u = fusion.u.data.reshape(2, 3, 4)
        expected = np.empty((2, 2))
        for n in range(2):
            for a in range(2):
                q = u[a] @ h[n]
                b = fusion.w.data[a] @ np.concatenate([h[n], [1.0]])
                expected[n, a] = (q ** 2).sum() + b
        assert np.allclose(out, expected)

    def test_mvm_fusion_matches_equation(self, rng):
        """Eq. (4): y_a = sum_k prod_p (U_a^p [h^p; 1])_k."""
        fusion = nn.MultiViewMachineFusion([3, 2], 4, 2, rng=rng)
        h1 = rng.normal(size=(1, 3))
        h2 = rng.normal(size=(1, 2))
        out = fusion([Tensor(h1), Tensor(h2)]).numpy()
        u1 = fusion.u0.data.reshape(2, 4, 4)
        u2 = fusion.u1.data.reshape(2, 4, 3)
        expected = np.empty((1, 2))
        for a in range(2):
            q1 = u1[a] @ np.concatenate([h1[0], [1.0]])
            q2 = u2[a] @ np.concatenate([h2[0], [1.0]])
            expected[0, a] = (q1 * q2).sum()
        assert np.allclose(out, expected)

    def test_mvm_wrong_view_count_raises(self, rng):
        fusion = nn.MultiViewMachineFusion([3, 2], 4, 2, rng=rng)
        with pytest.raises(ValueError):
            fusion([Tensor(rng.normal(size=(1, 3)))])

    def test_fusion_gradients(self, rng):
        for fusion in [
            nn.FullyConnectedFusion([3, 2], 4, 2, rng=rng),
            nn.FactorizationMachineFusion([3, 2], 4, 2, rng=rng),
            nn.MultiViewMachineFusion([3, 2], 4, 2, rng=rng),
        ]:
            a = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
            b = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
            check_gradients(lambda f=fusion: (f([a, b]) ** 2).sum(),
                            [a, b] + fusion.parameters())
