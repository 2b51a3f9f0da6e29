"""Reference implementations the library's fast paths are checked against.

Each is the straightforward version a fast path replaced, kept only as a
test oracle (and as the kernel microbenchmarks' baseline):

* :func:`im2col_loop` / :func:`col2im_loop` — the kernel-position double
  loop behind :func:`repro.tensor.im2col` / :func:`repro.tensor.col2im`;
* :func:`gru_stepwise` / :func:`lstm_stepwise` — a full cell step per
  timestep, behind the fused sequence paths of :class:`repro.nn.GRU` and
  :class:`repro.nn.LSTM`;
* :func:`schedule` / :func:`schedule_array` — a
  :class:`repro.faults.FaultInjector`'s whole fault schedule read out
  through its scalar and its batch oracles.
"""

import numpy as np

from repro import tensor as T
from repro.tensor import Tensor
from repro.tensor.conv import _out_size


# ----------------------------------------------------------------------
# im2col / col2im
# ----------------------------------------------------------------------
def im2col_loop(x, kernel_h, kernel_w, stride=1, padding=0):
    """Reference im2col: double Python loop over kernel positions."""
    n, c, h, w = x.shape
    oh = _out_size(h, kernel_h, stride, padding)
    ow = _out_size(w, kernel_w, stride, padding)
    padded = np.pad(
        x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant"
    )
    cols = np.empty((n, c, kernel_h, kernel_w, oh, ow), dtype=x.dtype)
    for i in range(kernel_h):
        i_max = i + stride * oh
        for j in range(kernel_w):
            j_max = j + stride * ow
            cols[:, :, i, j, :, :] = padded[:, :, i:i_max:stride, j:j_max:stride]
    return cols.transpose(0, 4, 5, 1, 2, 3).reshape(n * oh * ow, -1), oh, ow


def col2im_loop(cols, x_shape, kernel_h, kernel_w, stride=1, padding=0):
    """Reference col2im: shift-accumulate loop over kernel positions."""
    n, c, h, w = x_shape
    oh = _out_size(h, kernel_h, stride, padding)
    ow = _out_size(w, kernel_w, stride, padding)
    cols = cols.reshape(n, oh, ow, c, kernel_h, kernel_w).transpose(0, 3, 4, 5, 1, 2)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(kernel_h):
        i_max = i + stride * oh
        for j in range(kernel_w):
            j_max = j + stride * ow
            padded[:, :, i:i_max:stride, j:j_max:stride] += cols[:, :, i, j, :, :]
    if padding == 0:
        return padded
    return padded[:, :, padding:-padding, padding:-padding]


# ----------------------------------------------------------------------
# Recurrences, one timestep at a time
# ----------------------------------------------------------------------
def _mask_step(h_new, h_prev, mask_t):
    """Blend new and previous hidden states according to a 0/1 mask column."""
    if mask_t is None:
        return h_new
    m = Tensor(mask_t[:, None], dtype=h_new.dtype)
    return h_new * m + h_prev * (1.0 - m)


def gru_stepwise(gru, x, mask=None, initial_state=None, return_sequence=False):
    """:meth:`repro.nn.GRU.forward` with the full cell forward at every
    timestep (same operations, input-side matmuls batched differently)."""
    batch, steps, _ = x.shape
    h = initial_state if initial_state is not None else gru.cell.initial_state(batch, dtype=x.dtype)
    outputs = []
    for t in range(steps):
        h_new = gru.cell(x[:, t, :], h)
        mask_t = None if mask is None else np.asarray(mask)[:, t]
        h = _mask_step(h_new, h, mask_t)
        if return_sequence:
            outputs.append(h)
    if return_sequence:
        return T.stack(outputs, axis=1), h
    return h


def lstm_stepwise(lstm, x, mask=None, return_sequence=False):
    """:meth:`repro.nn.LSTM.forward` with the gate math at every timestep."""
    batch, steps, _ = x.shape
    h, c = lstm.cell.initial_state(batch, dtype=x.dtype)
    outputs = []
    for t in range(steps):
        gates = x[:, t, :] @ lstm.cell.w.T + h @ lstm.cell.u.T + lstm.cell.b
        n = lstm.cell.hidden_size
        i = T.sigmoid(gates[:, 0:n])
        f = T.sigmoid(gates[:, n:2 * n])
        g = T.tanh(gates[:, 2 * n:3 * n])
        o = T.sigmoid(gates[:, 3 * n:4 * n])
        c_new = f * c + i * g
        h_new = o * T.tanh(c_new)
        mask_t = None if mask is None else np.asarray(mask)[:, t]
        h = _mask_step(h_new, h, mask_t)
        c = _mask_step(c_new, c, mask_t)
        if return_sequence:
            outputs.append(h)
    if return_sequence:
        return T.stack(outputs, axis=1), h
    return h


# ----------------------------------------------------------------------
# Fault schedules
# ----------------------------------------------------------------------
def schedule(injector, num_rounds, client_ids, attempts=1):
    """The full fault schedule as a nested dict, from the scalar oracles.

    Purely a readout of the deterministic oracle; calling it does not
    change any subsequent answer.
    """
    table = {}
    for round_index in range(1, num_rounds + 1):
        for client_id in client_ids:
            for attempt in range(attempts):
                table[(round_index, client_id, attempt)] = {
                    "dropout": injector.drops_out(round_index, client_id, attempt),
                    "straggler_factor": injector.straggler_factor(
                        round_index, client_id, attempt),
                    "upload_lost": injector.upload_lost(round_index, client_id, attempt),
                    "corrupt": injector.corrupts(round_index, client_id, attempt),
                    "staleness": injector.staleness(round_index, client_id, attempt),
                }
    return table


def schedule_array(injector, num_rounds, client_ids, attempts=1):
    """The full fault schedule as dense arrays, from the batch oracles.

    Returns a dict of arrays shaped ``(num_rounds, len(client_ids),
    attempts)`` keyed exactly like one :func:`schedule` cell; rounds are
    1-based like everywhere else.
    """
    ids = np.asarray(client_ids)
    names = ("dropout", "straggler_factor", "upload_lost", "corrupt",
             "staleness")
    oracles = (injector.drops_out_array, injector.straggler_factor_array,
               injector.upload_lost_array, injector.corrupts_array,
               injector.staleness_array)
    table = {}
    for name, oracle in zip(names, oracles):
        planes = [
            [oracle(round_index, ids, attempt)
             for attempt in range(attempts)]
            for round_index in range(1, num_rounds + 1)
        ]
        table[name] = np.stack([np.stack(row, axis=-1)
                                for row in planes])
    return table
