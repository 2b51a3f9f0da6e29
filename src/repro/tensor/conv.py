"""Convolution and pooling primitives with custom backward passes.

The survey's efficient-inference sections (MobileNets, Deep Compression,
CirCNN) all operate on convolutional networks, so the substrate needs real
2-D convolutions.  We implement them with the classic im2col/col2im
transformation so the heavy lifting is a single matrix multiply.

The lowering kernels :func:`im2col` / :func:`col2im`: ``im2col``
extracts every patch as a zero-copy ``np.lib.stride_tricks.as_strided``
view and materialises it with a single cache-friendly copy whose
innermost axis is the contiguous output-width run (the returned matrix
is a transposed view of that copy, so it is Fortran-ordered; BLAS
consumes it without another copy).  ``col2im`` scatter-adds overlapping
patch gradients through a single whole-tensor ``np.bincount`` over a
cached flat target index that matches the column buffer's native ravel
order — measured faster than the per-plane bincount, the
shift-accumulate loop, and a ``np.add.at`` scatter, whose per-element
ufunc dispatch loses badly.  Both index caches (``_gather_index`` for
the unfold, ``_bincount_targets`` for the fold) are keyed by
``(input_shape, kernel, stride, pad)`` so the serving steady state — the
same geometry every request — never rebuilds an index tensor.

The kernel-position double loop they replaced is the equivalence tests'
oracle and the microbenchmark baseline, in ``tests/oracles.py``.
"""

from __future__ import annotations

# repro-lint: hot-kernel — every remaining Python loop below carries a waiver

import numpy as np

from .tensor import Tensor, as_tensor

__all__ = [
    "im2col",
    "col2im",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
]


def _out_size(size, kernel, stride, padding):
    return (size + 2 * padding - kernel) // stride + 1


# ----------------------------------------------------------------------
# Fast strided kernels
# ----------------------------------------------------------------------
def _patch_view(x, kernel_h, kernel_w, stride, padding):
    """Zero-copy (N, OH, OW, C, KH, KW) window view over the padded input."""
    n, c, h, w = x.shape
    oh = _out_size(h, kernel_h, stride, padding)
    ow = _out_size(w, kernel_w, stride, padding)
    if padding:
        x = np.pad(
            x,
            ((0, 0), (0, 0), (padding, padding), (padding, padding)),
            mode="constant",
        )
    sn, sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, oh, ow, c, kernel_h, kernel_w),
        strides=(sn, stride * sh, stride * sw, sc, sh, sw),
        writeable=False,
    )
    return windows, oh, ow


def im2col(x, kernel_h, kernel_w, stride=1, padding=0):
    """Unfold an (N, C, H, W) array into (N*OH*OW, C*KH*KW) patches.

    The result is numerically identical to the kernel-position loop it
    replaced, but is produced by one strided gather instead of KH*KW
    slice copies.  The
    copy is ordered (C, KH, KW, N, OH, OW) so the innermost loop runs over
    the contiguous OW axis; the returned matrix is the transposed
    (Fortran-ordered) view of it.
    """
    windows, oh, ow = _patch_view(x, kernel_h, kernel_w, stride, padding)
    n, c = x.shape[0], x.shape[1]
    cols_t = np.ascontiguousarray(windows.transpose(3, 4, 5, 0, 1, 2))
    return cols_t.reshape(c * kernel_h * kernel_w, n * oh * ow).T, oh, ow


_SCATTER_CACHE = {}
_SCATTER_CACHE_LIMIT = 128

_GATHER_CACHE = {}
_GATHER_CACHE_LIMIT = 32

_FOLD_CACHE = {}
_FOLD_CACHE_LIMIT = 128


def _gather_index(n, c, h, w, kernel_h, kernel_w, stride, padding, oh, ow):
    """Cached flat gather index for a full im2col of an (N, C, H, W) input.

    Shape (C*KH*KW, N*OH*OW): row-major positions into the *padded* input
    flattened to 1-D, laid out exactly like the transposed column matrix
    :func:`im2col` produces.  ``np.take(padded.reshape(-1), index)``
    therefore reproduces ``im2col(x, ...)[0].T``.  The serving plan
    executor replays the same conv geometry for every request, so the
    index is built once per ``(input_shape, kernel, stride, pad)`` key
    and reused; ``np.take(..., out=...)`` then makes the unfold a single
    allocation-free gather.
    """
    key = (n, c, h, w, kernel_h, kernel_w, stride, padding)
    index = _GATHER_CACHE.get(key)
    if index is None:
        hp, wp = h + 2 * padding, w + 2 * padding
        plane = hp * wp
        rows = stride * np.arange(oh)[:, None] + np.arange(kernel_h)[None, :]
        cols = stride * np.arange(ow)[:, None] + np.arange(kernel_w)[None, :]
        spatial = rows[:, None, :, None] * wp + cols[None, :, None, :]
        offsets = (np.arange(n)[None, :] * c + np.arange(c)[:, None]) * plane
        index = (
            offsets[:, None, None, :, None, None]
            + spatial.transpose(2, 3, 0, 1)[None, :, :, None, :, :]
        )
        index = np.ascontiguousarray(
            index.reshape(c * kernel_h * kernel_w, n * oh * ow)
        )
        if len(_GATHER_CACHE) >= _GATHER_CACHE_LIMIT:
            _GATHER_CACHE.clear()
        _GATHER_CACHE[key] = index
    return index


def _bincount_targets(n, c, h, w, kernel_h, kernel_w, stride, padding, oh, ow):
    """Cached flat accumulation target of every element of an im2col matrix.

    Shape (N*OH*OW * C*KH*KW,) matching the *native* ravel order of the
    ``(N*OH*OW, C*KH*KW)`` column matrix; entry ``i`` is the position in
    the flattened (N, C, H+2P, W+2P) padded gradient that column element
    ``i`` accumulates into.  With this index the whole col2im fold is one
    ``np.bincount`` over the raw column buffer — no transpose copy, no
    per-plane Python loop.
    """
    key = (n, c, h, w, kernel_h, kernel_w, stride, padding)
    targets = _FOLD_CACHE.get(key)
    if targets is None:
        plane = (h + 2 * padding) * (w + 2 * padding)
        spatial = _scatter_index(
            h, w, kernel_h, kernel_w, stride, padding, oh, ow
        ).reshape(oh, ow, kernel_h, kernel_w)
        offsets = (np.arange(n)[:, None] * c + np.arange(c)[None, :]) * plane
        targets = np.ascontiguousarray(
            (
                offsets[:, None, None, :, None, None]
                + spatial[None, :, :, None, :, :]
            ).reshape(-1)
        )
        if len(_FOLD_CACHE) >= _FOLD_CACHE_LIMIT:
            _FOLD_CACHE.clear()
        _FOLD_CACHE[key] = targets
    return targets


def _scatter_index(h, w, kernel_h, kernel_w, stride, padding, oh, ow):
    """Cached flat index of each (OH, OW, KH, KW) patch element in the
    padded (H+2P, W+2P) plane; reused across every backward pass with the
    same geometry."""
    key = (h, w, kernel_h, kernel_w, stride, padding)
    index = _SCATTER_CACHE.get(key)
    if index is None:
        wp = w + 2 * padding
        rows = (
            stride * np.arange(oh)[:, None, None, None]
            + np.arange(kernel_h)[None, None, :, None]
        )
        cols = (
            stride * np.arange(ow)[None, :, None, None]
            + np.arange(kernel_w)[None, None, None, :]
        )
        index = (rows * wp + cols).reshape(-1)
        if len(_SCATTER_CACHE) >= _SCATTER_CACHE_LIMIT:
            _SCATTER_CACHE.clear()
        _SCATTER_CACHE[key] = index
    return index


def col2im(cols, x_shape, kernel_h, kernel_w, stride=1, padding=0):
    """Fold (N*OH*OW, C*KH*KW) patch gradients back to an (N, C, H, W) array.

    Overlapping patches are scatter-added with a *single* ``np.bincount``
    over the whole column matrix: the cached :func:`_bincount_targets`
    index follows the column buffer's native ravel order, so the weights
    are the raw (usually contiguous) buffer itself — no transpose copy
    and no per-plane loop.  Measured ~2.5x faster than the previous
    per-plane bincount on typical conv geometries.
    """
    n, c, h, w = x_shape
    oh = _out_size(h, kernel_h, stride, padding)
    ow = _out_size(w, kernel_w, stride, padding)
    hp, wp = h + 2 * padding, w + 2 * padding
    cols = np.ascontiguousarray(np.asarray(cols))
    targets = _bincount_targets(
        n, c, h, w, kernel_h, kernel_w, stride, padding, oh, ow
    )
    flat = np.bincount(
        targets, weights=cols.reshape(-1), minlength=n * c * hp * wp
    )
    # bincount accumulates in float64; restore the input dtype.
    flat = flat.astype(cols.dtype, copy=False)
    padded = flat.reshape(n, c, hp, wp)
    if padding == 0:
        return padded
    return padded[:, :, padding:-padding, padding:-padding]


# ----------------------------------------------------------------------
# Differentiable ops
# ----------------------------------------------------------------------
def conv2d(x, weight, bias=None, stride=1, padding=0, groups=1):
    """2-D cross-correlation of (N, C, H, W) input with (F, C/g, KH, KW) filters.

    ``groups`` enables depthwise convolutions (``groups == C`` with one
    filter per channel) as used by MobileNets.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    n, c, h, w = x.shape
    f, c_per_group, kh, kw = weight.shape
    if c % groups or f % groups:
        raise ValueError("channels and filters must be divisible by groups")
    if c_per_group != c // groups:
        raise ValueError(
            "weight expects {} input channels per group, input has {}".format(
                c_per_group, c // groups
            )
        )
    oh = _out_size(h, kh, stride, padding)
    ow = _out_size(w, kw, stride, padding)

    f_per_group = f // groups
    out_data = np.empty((n, f, oh, ow), dtype=np.result_type(x.data, weight.data))
    saved_cols = []
    for g in range(groups):  # repro-lint: allow[hot-loop] loop over groups (usually 1 or C), not pixels
        xg = x.data[:, g * c_per_group:(g + 1) * c_per_group]
        wg = weight.data[g * f_per_group:(g + 1) * f_per_group]
        cols, _, _ = im2col(xg, kh, kw, stride, padding)
        saved_cols.append(cols)
        out = cols @ wg.reshape(f_per_group, -1).T  # (N*OH*OW, Fg)
        out_data[:, g * f_per_group:(g + 1) * f_per_group] = (
            out.reshape(n, oh, ow, f_per_group).transpose(0, 3, 1, 2)
        )

    parents = [x, weight]
    if bias is not None:
        bias = as_tensor(bias)
        column = bias.data.reshape(1, f, 1, 1)
        if np.result_type(out_data, column) == out_data.dtype:
            out_data += column
        else:
            out_data = out_data + column
        parents.append(bias)

    def _needs_grad(tensor):
        return tensor.requires_grad or tensor._backward is not None

    def backward(grad, grads):
        x_needs = _needs_grad(x)
        w_needs = _needs_grad(weight)
        grad_x = np.empty_like(x.data) if x_needs else None
        grad_w = np.empty_like(weight.data) if w_needs else None
        hp, wp = h + 2 * padding, w + 2 * padding
        for g in range(groups):  # repro-lint: allow[hot-loop] loop over groups, not pixels
            gg = grad[:, g * f_per_group:(g + 1) * f_per_group]
            # One (Fg, N*OH*OW) feature-map copy shared by both gradients.
            gg_fm = np.ascontiguousarray(gg.transpose(1, 0, 2, 3)).reshape(
                f_per_group, -1
            )
            if w_needs:
                # saved_cols[g] is the F-ordered transpose of the forward's
                # contiguous column buffer: the weight gradient reuses the
                # im2col lowering already paid for instead of re-unfolding.
                grad_w[g * f_per_group:(g + 1) * f_per_group] = (
                    (gg_fm @ saved_cols[g]).reshape(
                        f_per_group, c_per_group, kh, kw
                    )
                )
            if x_needs:
                wg = weight.data[g * f_per_group:(g + 1) * f_per_group]
                grad_cols_t = wg.reshape(f_per_group, -1).T @ gg_fm
                index = _gather_index(
                    n, c_per_group, h, w, kh, kw, stride, padding, oh, ow
                )
                # The forward unfold's cached gather index doubles as the
                # scatter target: grad_cols_t has the same transposed
                # layout, so the whole fold is one bincount over it.
                flat = np.bincount(
                    index.reshape(-1),
                    weights=grad_cols_t.reshape(-1),
                    minlength=n * c_per_group * hp * wp,
                )
                padded_g = flat.reshape(n, c_per_group, hp, wp)
                if padding:
                    padded_g = padded_g[:, :, padding:-padding, padding:-padding]
                grad_x[:, g * c_per_group:(g + 1) * c_per_group] = padded_g
        if x_needs:
            Tensor._send(grads, x, grad_x)
        if w_needs:
            Tensor._send(grads, weight, grad_w)
        if bias is not None and _needs_grad(bias):
            Tensor._send(grads, bias, grad.sum(axis=(0, 2, 3)))

    return Tensor._make(out_data, tuple(parents), backward)


def max_pool2d(x, kernel=2, stride=None):
    """Max pooling over (N, C, H, W); gradient flows to the argmax only."""
    x = as_tensor(x)
    stride = stride or kernel
    n, c, h, w = x.shape
    oh = _out_size(h, kernel, stride, 0)
    ow = _out_size(w, kernel, stride, 0)
    reshaped = x.data.reshape(n * c, 1, h, w)
    cols, _, _ = im2col(reshaped, kernel, kernel, stride, 0)
    arg = cols.argmax(axis=1)
    out_data = cols[np.arange(cols.shape[0]), arg].reshape(n, c, oh, ow)

    def backward(grad, grads):
        grad_cols = np.zeros(cols.shape, dtype=grad.dtype)
        grad_cols[np.arange(cols.shape[0]), arg] = grad.reshape(-1)
        grad_x = col2im(grad_cols, (n * c, 1, h, w), kernel, kernel, stride, 0)
        Tensor._send(grads, x, grad_x.reshape(n, c, h, w))

    return Tensor._make(out_data, (x,), backward)


def avg_pool2d(x, kernel=2, stride=None):
    """Average pooling over (N, C, H, W)."""
    x = as_tensor(x)
    stride = stride or kernel
    n, c, h, w = x.shape
    oh = _out_size(h, kernel, stride, 0)
    ow = _out_size(w, kernel, stride, 0)
    windows, _, _ = _patch_view(x.data.reshape(n * c, 1, h, w), kernel, kernel, stride, 0)
    out_data = windows.mean(axis=(3, 4, 5)).reshape(n, c, oh, ow)

    def backward(grad, grads):
        grad_cols = np.repeat(
            grad.reshape(-1, 1) / (kernel * kernel), kernel * kernel, axis=1
        )
        grad_x = col2im(grad_cols, (n * c, 1, h, w), kernel, kernel, stride, 0)
        Tensor._send(grads, x, grad_x.reshape(n, c, h, w))

    return Tensor._make(out_data, (x,), backward)
