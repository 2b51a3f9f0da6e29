"""Equivalence of the optimised hot-path kernels with the seed versions.

The strided im2col/col2im pair and the hoisted-projection recurrent paths
must be numerically identical (within 1e-10 at float64) to the original
loop implementations they replaced, kept in ``tests/oracles.py``.
"""

import numpy as np
import pytest

from repro import nn
from repro.tensor import Tensor, col2im, conv2d, im2col
from repro.tensor.conv import _out_size
from tests.oracles import col2im_loop, gru_stepwise, im2col_loop, lstm_stepwise


@pytest.fixture
def rng():
    return np.random.default_rng(42)


# Random-ish sweep of geometries: (N, C, H, W, KH, KW, stride, padding).
GEOMETRIES = [
    (2, 3, 6, 6, 3, 3, 1, 0),
    (1, 1, 4, 4, 2, 2, 2, 0),
    (3, 4, 9, 7, 3, 2, 2, 1),
    (2, 2, 8, 8, 5, 5, 3, 2),
    (1, 5, 11, 13, 4, 3, 2, 2),
    (4, 1, 5, 5, 1, 1, 1, 0),
    (2, 3, 10, 6, 3, 3, 1, 3),
    (1, 2, 7, 7, 7, 7, 1, 0),
]


class TestIm2colEquivalence:
    @pytest.mark.parametrize("n,c,h,w,kh,kw,stride,padding", GEOMETRIES)
    def test_strided_matches_loop(self, rng, n, c, h, w, kh, kw, stride, padding):
        x = rng.normal(size=(n, c, h, w))
        fast, oh_f, ow_f = im2col(x, kh, kw, stride=stride, padding=padding)
        slow, oh_s, ow_s = im2col_loop(x, kh, kw, stride=stride, padding=padding)
        assert (oh_f, ow_f) == (oh_s, ow_s)
        assert fast.shape == slow.shape
        # Patch extraction is a pure gather: bitwise identical.
        assert np.array_equal(fast, slow)

    def test_random_geometries(self, rng):
        """Fuzz over random shapes, strides, and paddings."""
        for _ in range(25):
            kh = int(rng.integers(1, 5))
            kw = int(rng.integers(1, 5))
            stride = int(rng.integers(1, 4))
            padding = int(rng.integers(0, 3))
            h = int(rng.integers(kh, kh + 9))
            w = int(rng.integers(kw, kw + 9))
            n = int(rng.integers(1, 4))
            c = int(rng.integers(1, 5))
            x = rng.normal(size=(n, c, h, w))
            fast, _, _ = im2col(x, kh, kw, stride=stride, padding=padding)
            slow, _, _ = im2col_loop(x, kh, kw, stride=stride, padding=padding)
            assert np.array_equal(fast, slow)

    def test_noncontiguous_input(self, rng):
        """Grouped conv feeds channel slices; views must unfold correctly."""
        x = rng.normal(size=(2, 6, 8, 8))
        view = x[:, 2:5]
        fast, _, _ = im2col(view, 3, 3, stride=2, padding=1)
        slow, _, _ = im2col_loop(np.ascontiguousarray(view), 3, 3, stride=2, padding=1)
        assert np.array_equal(fast, slow)


class TestCol2imEquivalence:
    @pytest.mark.parametrize("n,c,h,w,kh,kw,stride,padding", GEOMETRIES)
    def test_scatter_matches_loop(self, rng, n, c, h, w, kh, kw, stride, padding):
        oh = _out_size(h, kh, stride, padding)
        ow = _out_size(w, kw, stride, padding)
        cols = rng.normal(size=(n * oh * ow, c * kh * kw))
        fast = col2im(cols, (n, c, h, w), kh, kw, stride=stride, padding=padding)
        slow = col2im_loop(cols, (n, c, h, w), kh, kw, stride=stride, padding=padding)
        assert fast.shape == slow.shape
        # Accumulation order differs, so allow float64 round-off only.
        np.testing.assert_allclose(fast, slow, atol=1e-10, rtol=0)

    def test_adjointness_of_fast_pair(self, rng):
        """<im2col(x), g> == <x, col2im(g)> must hold for the new kernels."""
        x = rng.normal(size=(2, 3, 5, 5))
        cols, _, _ = im2col(x, 3, 3, stride=2, padding=1)
        g = rng.normal(size=cols.shape)
        back = col2im(g, x.shape, 3, 3, stride=2, padding=1)
        assert np.isclose((cols * g).sum(), (x * back).sum())


class TestConvUsesEquivalentKernels:
    def test_conv2d_matches_loop_built_reference(self, rng):
        """conv2d forward/backward agree with a loop-kernel reconstruction."""
        x = Tensor(rng.normal(size=(2, 3, 7, 7)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)) * 0.2, requires_grad=True)
        out = conv2d(x, w, stride=2, padding=1)
        cols, oh, ow = im2col_loop(x.data, 3, 3, stride=2, padding=1)
        ref = (cols @ w.data.reshape(4, -1).T).reshape(2, oh, ow, 4).transpose(0, 3, 1, 2)
        np.testing.assert_allclose(out.numpy(), ref, atol=1e-10, rtol=0)

        out.sum().backward()
        grad_cols = np.ones((2 * oh * ow, 4)) @ w.data.reshape(4, -1)
        ref_grad_x = col2im_loop(grad_cols, (2, 3, 7, 7), 3, 3, stride=2, padding=1)
        np.testing.assert_allclose(x.grad, ref_grad_x, atol=1e-10, rtol=0)


class TestRecurrentEquivalence:
    def test_gru_hoisted_matches_stepwise(self, rng):
        gru = nn.GRU(5, 7, rng=rng)
        x = Tensor(rng.normal(size=(4, 64, 5)))
        np.testing.assert_allclose(
            gru(x).numpy(), gru_stepwise(gru, x).numpy(), atol=1e-10, rtol=0
        )

    def test_gru_hoisted_matches_stepwise_with_mask_and_sequence(self, rng):
        gru = nn.GRU(3, 4, rng=rng)
        x = Tensor(rng.normal(size=(3, 9, 3)))
        mask = (rng.random((3, 9)) > 0.3).astype(float)
        mask[:, 0] = 1.0
        mask = np.sort(mask, axis=1)[:, ::-1].copy()  # valid prefixes
        seq_fast, last_fast = gru(x, mask=mask, return_sequence=True)
        seq_slow, last_slow = gru_stepwise(gru, x, mask=mask, return_sequence=True)
        np.testing.assert_allclose(seq_fast.numpy(), seq_slow.numpy(),
                                   atol=1e-10, rtol=0)
        np.testing.assert_allclose(last_fast.numpy(), last_slow.numpy(),
                                   atol=1e-10, rtol=0)

    def test_gru_gradients_match_stepwise(self, rng):
        gru = nn.GRU(3, 4, rng=rng)
        x_data = rng.normal(size=(2, 6, 3))

        def grads_via(path):
            gru.zero_grad()
            x = Tensor(x_data, requires_grad=True)
            (path(x) ** 2).sum().backward()
            return [x.grad] + [p.grad.copy() for p in gru.parameters()]

        fast = grads_via(gru.forward)
        slow = grads_via(lambda x: gru_stepwise(gru, x))
        for a, b in zip(fast, slow):
            np.testing.assert_allclose(a, b, atol=1e-10, rtol=0)

    def test_lstm_hoisted_matches_stepwise(self, rng):
        lstm = nn.LSTM(4, 6, rng=rng)
        x = Tensor(rng.normal(size=(3, 32, 4)))
        np.testing.assert_allclose(
            lstm(x).numpy(), lstm_stepwise(lstm, x).numpy(), atol=1e-10, rtol=0
        )

    def test_lstm_masked_hoisted_matches_stepwise(self, rng):
        lstm = nn.LSTM(3, 5, rng=rng)
        x = Tensor(rng.normal(size=(2, 8, 3)))
        mask = np.zeros((2, 8))
        mask[0, :5] = 1.0
        mask[1, :8] = 1.0
        seq_fast, _ = lstm(x, mask=mask, return_sequence=True)
        seq_slow, _ = lstm_stepwise(lstm, x, mask=mask, return_sequence=True)
        np.testing.assert_allclose(seq_fast.numpy(), seq_slow.numpy(),
                                   atol=1e-10, rtol=0)

    def test_bidirectional_matches_stepwise_composition(self, rng):
        fwd = nn.GRU(3, 4, rng=rng)
        bwd = nn.GRU(3, 4, rng=np.random.default_rng(9))
        bi = nn.Bidirectional(fwd, bwd)
        x_data = rng.normal(size=(3, 6, 3))
        mask = np.array([
            [1, 1, 1, 1, 1, 1],
            [1, 1, 1, 0, 0, 0],
            [1, 0, 0, 0, 0, 0],
        ], dtype=float)
        out = bi(Tensor(x_data), mask=mask).numpy()
        # Reference: seed-style per-row reversal + stepwise recurrences.
        ahead = gru_stepwise(fwd, Tensor(x_data), mask=mask).numpy()
        reversed_data = np.zeros_like(x_data)
        reversed_mask = np.zeros_like(mask)
        for i in range(3):
            length = int(mask[i].sum())
            reversed_data[i, :length] = x_data[i, :length][::-1]
            reversed_mask[i, :length] = 1.0
        behind = gru_stepwise(bwd, Tensor(reversed_data), mask=reversed_mask).numpy()
        np.testing.assert_allclose(out, np.concatenate([ahead, behind], axis=1),
                                   atol=1e-10, rtol=0)
