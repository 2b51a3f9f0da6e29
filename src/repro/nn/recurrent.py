"""Recurrent layers: GRU (paper Eq. 1), LSTM, and a bidirectional wrapper.

DeepMood (Sec. IV-A) models each view of the typing-dynamics time series
with a Gated Recurrent Unit.  The cell below implements the exact recurrence
from Eq. (1) of the paper:

    r_k = sigmoid(W_r x_k + U_r h_{k-1})
    z_k = sigmoid(W_z x_k + U_z h_{k-1})
    h~_k = tanh(W x_k + U (r_k * h_{k-1}))
    h_k = z_k * h_{k-1} + (1 - z_k) * h~_k

Variable-length sequences are handled with a (batch, time) mask: masked
steps carry the previous hidden state forward unchanged, so padding never
contaminates the final representation.

Performance: the input-side gate projections ``W x_k`` do not depend on
the recurrence, so the sequence layers hoist them out of the timestep
loop — one ``(batch*time, input) @ W`` matmul up front instead of ``time``
small matmuls — and only the hidden-side ``U h_{k-1}`` products remain
sequential.  On top of the hoist, the whole recurrence (hidden-side
matmuls, gate nonlinearities, and the mask blend) runs as a *single*
fused autograd node (:func:`_gru_sequence` / :func:`_lstm_sequence`)
with a hand-derived backward: one graph node per sequence instead of
roughly ten per timestep, which removes the per-step closure, parent
tuple, and temporary-tensor traffic that dominated the gate math.  The
original per-step path is the equivalence tests' oracle, in
``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

from .. import tensor as T
from ..tensor import Tensor
from . import init
from .module import Module, Parameter

__all__ = ["GRUCell", "GRU", "LSTMCell", "LSTM", "Bidirectional"]


def _sigmoid(x):
    """Stable sigmoid on ndarrays; numerics match :func:`repro.tensor.sigmoid`."""
    clipped = np.clip(x, -500.0, 500.0)
    positive = 1.0 / (1.0 + np.exp(-np.abs(clipped)))
    return np.where(clipped >= 0, positive, 1.0 - positive)


def _gru_sequence(projected, h0, u_r, u_z, u_h, mask, return_sequence):
    """Fused GRU recurrence over a whole (batch, time, 3H) projection.

    One autograd node runs every timestep's gate math (Eq. 1) in plain
    numpy, saving the per-step gate activations; the backward closure
    replays the recurrence in reverse with the analytic gradients.  The
    output is the (batch, time, hidden) state sequence when
    ``return_sequence`` else the final (batch, hidden) state.
    """
    p = projected.data
    batch, steps, three_h = p.shape
    hidden = three_h // 3
    ur, uz, uh = u_r.data, u_z.data, u_h.data
    dtype = np.result_type(p.dtype, h0.data.dtype, ur.dtype)
    mcols = None if mask is None else mask.astype(dtype)
    hs = np.empty((steps + 1, batch, hidden), dtype=dtype)
    hs[0] = h0.data
    rs = np.empty((steps, batch, hidden), dtype=dtype)
    zs = np.empty_like(rs)
    cs = np.empty_like(rs)
    for t in range(steps):  # repro-lint: allow[hot-loop] sequential recurrence
        h_prev = hs[t]
        p_t = p[:, t, :]
        r = _sigmoid(p_t[:, :hidden] + h_prev @ ur.T)
        z = _sigmoid(p_t[:, hidden:2 * hidden] + h_prev @ uz.T)
        cand = np.tanh(p_t[:, 2 * hidden:] + (r * h_prev) @ uh.T)
        rs[t], zs[t], cs[t] = r, z, cand
        h_new = z * h_prev + (1.0 - z) * cand
        if mcols is None:
            hs[t + 1] = h_new
        else:
            m = mcols[:, t:t + 1]
            hs[t + 1] = h_new * m + h_prev * (1.0 - m)
    if return_sequence:
        out_data = np.ascontiguousarray(hs[1:].transpose(1, 0, 2))
    else:
        out_data = hs[steps]

    def backward(grad, grads):
        gh = np.zeros((batch, hidden), dtype=dtype)
        if return_sequence:
            gseq = grad.transpose(1, 0, 2)
        else:
            gh += grad
        g_p = np.empty_like(p)
        gu_r = np.zeros_like(ur)
        gu_z = np.zeros_like(uz)
        gu_h = np.zeros_like(uh)
        for t in reversed(range(steps)):  # repro-lint: allow[hot-loop] sequential recurrence
            if return_sequence:
                gh = gh + gseq[t]
            h_prev, r, z, cand = hs[t], rs[t], zs[t], cs[t]
            if mcols is None:
                g_new = gh
                carry = None
            else:
                m = mcols[:, t:t + 1]
                g_new = gh * m
                carry = gh * (1.0 - m)
            d_pre_z = g_new * (h_prev - cand) * z * (1.0 - z)
            d_pre_c = g_new * (1.0 - z) * (1.0 - cand * cand)
            d_rh = d_pre_c @ uh
            d_pre_r = d_rh * h_prev * r * (1.0 - r)
            g_p[:, t, :hidden] = d_pre_r
            g_p[:, t, hidden:2 * hidden] = d_pre_z
            g_p[:, t, 2 * hidden:] = d_pre_c
            gu_r += d_pre_r.T @ h_prev
            gu_z += d_pre_z.T @ h_prev
            gu_h += d_pre_c.T @ (r * h_prev)
            gh = g_new * z + d_rh * r + d_pre_r @ ur + d_pre_z @ uz
            if carry is not None:
                gh += carry
        Tensor._send(grads, projected, g_p)
        Tensor._send(grads, u_r, gu_r)
        Tensor._send(grads, u_z, gu_z)
        Tensor._send(grads, u_h, gu_h)
        Tensor._send(grads, h0, gh)

    return Tensor._make(out_data, (projected, u_r, u_z, u_h, h0), backward)


def _lstm_sequence(projected, h0, c0, u, mask, return_sequence):
    """Fused LSTM recurrence over a whole (batch, time, 4H) projection.

    Mirrors :func:`_gru_sequence` for the LSTM cell: gate order [i; f; g; o]
    as in :meth:`LSTMCell.step`, with the mask blending both h and c.
    """
    p = projected.data
    batch, steps, four_h = p.shape
    hidden = four_h // 4
    ud = u.data
    dtype = np.result_type(p.dtype, h0.data.dtype, ud.dtype)
    mcols = None if mask is None else mask.astype(dtype)
    hs = np.empty((steps + 1, batch, hidden), dtype=dtype)
    cs = np.empty_like(hs)
    hs[0] = h0.data
    cs[0] = c0.data
    gates_saved = np.empty((steps, batch, 4 * hidden), dtype=dtype)
    tcs = np.empty((steps, batch, hidden), dtype=dtype)
    for t in range(steps):  # repro-lint: allow[hot-loop] sequential recurrence
        h_prev, c_prev = hs[t], cs[t]
        gates = p[:, t, :] + h_prev @ ud.T
        i = _sigmoid(gates[:, :hidden])
        f = _sigmoid(gates[:, hidden:2 * hidden])
        g = np.tanh(gates[:, 2 * hidden:3 * hidden])
        o = _sigmoid(gates[:, 3 * hidden:])
        saved = gates_saved[t]
        saved[:, :hidden] = i
        saved[:, hidden:2 * hidden] = f
        saved[:, 2 * hidden:3 * hidden] = g
        saved[:, 3 * hidden:] = o
        c_new = f * c_prev + i * g
        tc = np.tanh(c_new)
        tcs[t] = tc
        h_new = o * tc
        if mcols is None:
            hs[t + 1] = h_new
            cs[t + 1] = c_new
        else:
            m = mcols[:, t:t + 1]
            hs[t + 1] = h_new * m + h_prev * (1.0 - m)
            cs[t + 1] = c_new * m + c_prev * (1.0 - m)
    if return_sequence:
        out_data = np.ascontiguousarray(hs[1:].transpose(1, 0, 2))
    else:
        out_data = hs[steps]

    def backward(grad, grads):
        gh = np.zeros((batch, hidden), dtype=dtype)
        gc = np.zeros((batch, hidden), dtype=dtype)
        if return_sequence:
            gseq = grad.transpose(1, 0, 2)
        else:
            gh += grad
        g_p = np.empty_like(p)
        gu = np.zeros_like(ud)
        for t in reversed(range(steps)):  # repro-lint: allow[hot-loop] sequential recurrence
            if return_sequence:
                gh = gh + gseq[t]
            h_prev, c_prev, tc = hs[t], cs[t], tcs[t]
            saved = gates_saved[t]
            i = saved[:, :hidden]
            f = saved[:, hidden:2 * hidden]
            g = saved[:, 2 * hidden:3 * hidden]
            o = saved[:, 3 * hidden:]
            if mcols is None:
                g_h, g_c = gh, gc
                carry_h = carry_c = None
            else:
                m = mcols[:, t:t + 1]
                g_h, g_c = gh * m, gc * m
                inv = 1.0 - m
                carry_h, carry_c = gh * inv, gc * inv
            gc_inner = g_c + g_h * o * (1.0 - tc * tc)
            dp = g_p[:, t, :]
            dp[:, :hidden] = gc_inner * g * i * (1.0 - i)
            dp[:, hidden:2 * hidden] = gc_inner * c_prev * f * (1.0 - f)
            dp[:, 2 * hidden:3 * hidden] = gc_inner * i * (1.0 - g * g)
            dp[:, 3 * hidden:] = g_h * tc * o * (1.0 - o)
            gu += dp.T @ h_prev
            gh = dp @ ud
            gc = gc_inner * f
            if carry_h is not None:
                gh += carry_h
                gc += carry_c
        Tensor._send(grads, projected, g_p)
        Tensor._send(grads, u, gu)
        Tensor._send(grads, h0, gh)
        Tensor._send(grads, c0, gc)

    return Tensor._make(out_data, (projected, u, h0, c0), backward)


class GRUCell(Module):
    """Single-step GRU following the paper's Eq. (1)."""

    def __init__(self, input_size, hidden_size, rng=None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        # Gate kernels: stacked as [reset; update; candidate] for clarity.
        self.w_r = Parameter(init.glorot_uniform((hidden_size, input_size), rng))
        self.u_r = Parameter(init.orthogonal((hidden_size, hidden_size), rng))
        self.b_r = Parameter(np.zeros(hidden_size))
        self.w_z = Parameter(init.glorot_uniform((hidden_size, input_size), rng))
        self.u_z = Parameter(init.orthogonal((hidden_size, hidden_size), rng))
        self.b_z = Parameter(np.zeros(hidden_size))
        self.w_h = Parameter(init.glorot_uniform((hidden_size, input_size), rng))
        self.u_h = Parameter(init.orthogonal((hidden_size, hidden_size), rng))
        self.b_h = Parameter(np.zeros(hidden_size))

    def forward(self, x, h):
        """Advance one step: (batch, input) x (batch, hidden) -> (batch, hidden)."""
        r = T.sigmoid(x @ self.w_r.T + h @ self.u_r.T + self.b_r)
        z = T.sigmoid(x @ self.w_z.T + h @ self.u_z.T + self.b_z)
        candidate = T.tanh(x @ self.w_h.T + (r * h) @ self.u_h.T + self.b_h)
        return z * h + (1.0 - z) * candidate

    def input_projection(self, x):
        """Input-side gate pre-activations for a whole (rows, input) block.

        Returns a (rows, 3*hidden) tensor stacked [reset; update; candidate];
        sequence layers compute this once for all timesteps at once.
        """
        return T.concat(
            [
                x @ self.w_r.T + self.b_r,
                x @ self.w_z.T + self.b_z,
                x @ self.w_h.T + self.b_h,
            ],
            axis=1,
        )

    def initial_state(self, batch_size, dtype=None):
        """Zero hidden state for a batch."""
        return Tensor(np.zeros((batch_size, self.hidden_size)), dtype=dtype)


class GRU(Module):
    """GRU layer over (batch, time, features) sequences with optional mask."""

    def __init__(self, input_size, hidden_size, rng=None):
        super().__init__()
        self.cell = GRUCell(input_size, hidden_size, rng=rng)
        self.hidden_size = hidden_size

    def forward(self, x, mask=None, initial_state=None, return_sequence=False):
        """Run the recurrence over the full sequence.

        Parameters
        ----------
        x:
            Tensor of shape (batch, time, features).
        mask:
            Optional ndarray of shape (batch, time) with 1 for valid steps.
        return_sequence:
            If True return (outputs, last_state) where outputs has shape
            (batch, time, hidden); otherwise return only the last state.

        The input-side projections for every timestep are computed in one
        batched matmul before the loop, and the recurrence itself runs as
        a single fused autograd node (see the module docstring).
        """
        x = T.as_tensor(x)
        batch, steps, features = x.shape
        h = (
            initial_state
            if initial_state is not None
            else self.cell.initial_state(batch, dtype=x.dtype)
        )
        projected = self.cell.input_projection(
            x.reshape(batch * steps, features)
        ).reshape(batch, steps, 3 * self.hidden_size)
        mask = None if mask is None else np.asarray(mask)
        cell = self.cell
        if return_sequence:
            outputs = _gru_sequence(
                projected, h, cell.u_r, cell.u_z, cell.u_h, mask, True
            )
            # Masked steps carry the previous state forward, so the final
            # state is always the last entry of the sequence.
            return outputs, outputs[:, steps - 1, :]
        return _gru_sequence(
            projected, h, cell.u_r, cell.u_z, cell.u_h, mask, False
        )


class LSTMCell(Module):
    """Standard LSTM cell (Hochreiter & Schmidhuber), cited by the paper."""

    def __init__(self, input_size, hidden_size, rng=None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w = Parameter(init.glorot_uniform((4 * hidden_size, input_size), rng))
        self.u = Parameter(init.orthogonal((4 * hidden_size, hidden_size), rng))
        bias = np.zeros(4 * hidden_size)
        bias[hidden_size:2 * hidden_size] = 1.0  # forget-gate bias trick
        self.b = Parameter(bias)

    def forward(self, x, state):
        """Advance one step; ``state`` is an (h, c) pair of tensors."""
        return self.step(x @ self.w.T + self.b, state)

    def input_projection(self, x):
        """Input-side pre-activations for a (rows, input) block: (rows, 4H)."""
        return x @ self.w.T + self.b

    def step(self, projected, state):
        """Advance one step from precomputed input projections."""
        h, c = state
        gates = projected + h @ self.u.T
        n = self.hidden_size
        i = T.sigmoid(gates[:, 0:n])
        f = T.sigmoid(gates[:, n:2 * n])
        g = T.tanh(gates[:, 2 * n:3 * n])
        o = T.sigmoid(gates[:, 3 * n:4 * n])
        c_new = f * c + i * g
        h_new = o * T.tanh(c_new)
        return h_new, c_new

    def initial_state(self, batch_size, dtype=None):
        zeros = np.zeros((batch_size, self.hidden_size))
        return Tensor(zeros.copy(), dtype=dtype), Tensor(zeros.copy(), dtype=dtype)


class LSTM(Module):
    """LSTM layer over (batch, time, features) sequences with optional mask."""

    def __init__(self, input_size, hidden_size, rng=None):
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, rng=rng)
        self.hidden_size = hidden_size

    def forward(self, x, mask=None, return_sequence=False):
        x = T.as_tensor(x)
        batch, steps, features = x.shape
        h, c = self.cell.initial_state(batch, dtype=x.dtype)
        projected = self.cell.input_projection(
            x.reshape(batch * steps, features)
        ).reshape(batch, steps, 4 * self.hidden_size)
        mask = None if mask is None else np.asarray(mask)
        if return_sequence:
            outputs = _lstm_sequence(projected, h, c, self.cell.u, mask, True)
            return outputs, outputs[:, steps - 1, :]
        return _lstm_sequence(projected, h, c, self.cell.u, mask, False)


class Bidirectional(Module):
    """Run a recurrent layer forward and backward; concatenate final states.

    The paper notes DeepMood's fused dimension doubles under bidirectional
    GRUs (d = 2 m d_h); this wrapper provides that variant.  Both wrapped
    layers use the hoisted-projection sequence path, and the per-sequence
    prefix reversal is a single vectorised ``take_along_axis`` gather.
    """

    def __init__(self, forward_layer, backward_layer):
        super().__init__()
        self.forward_layer = forward_layer
        self.backward_layer = backward_layer

    def forward(self, x, mask=None):
        ahead = self.forward_layer(x, mask=mask)
        # Reverse only the valid prefix of each sequence.
        data = x.numpy()
        batch, steps, _ = data.shape
        if mask is None:
            reversed_x = Tensor(data[:, ::-1, :].copy(), dtype=data.dtype)
            reversed_mask = None
        else:
            mask = np.asarray(mask)
            lengths = mask.sum(axis=1).astype(int)[:, None]
            positions = np.arange(steps)[None, :]
            valid = positions < lengths
            # Within the valid prefix read index length-1-t, else read t
            # (the tail is zeroed below, matching the seed behaviour).
            gather = np.where(valid, lengths - 1 - positions, positions)
            reversed_data = np.take_along_axis(data, gather[:, :, None], axis=1)
            reversed_data = reversed_data * valid[:, :, None].astype(data.dtype)
            reversed_mask = valid.astype(mask.dtype)
            reversed_x = Tensor(reversed_data, dtype=data.dtype)
        behind = self.backward_layer(reversed_x, mask=reversed_mask)
        return T.concat([ahead, behind], axis=-1)
