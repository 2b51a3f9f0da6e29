"""Collators: validate, bucket and pad serving requests into batches.

Mobile/edge serving (paper Sec. III) sees single requests arrive at
arbitrary times, but the plan executor is most efficient on batches: one
replay amortises the python-level step overhead over every row.  The
:class:`~repro.serve.fleet.FleetServer` coalesces requests, and a
collator tells it how:

* ``validate(payload)`` — reject a malformed request at submit time,
  before it can enter a batch;
* ``bucket_key(payload)`` — group compatible requests (feature
  dimension, padded sequence length, dtype);
* ``collate(payloads, batch_size)`` — pad a bucket's requests into one
  plan input of ``batch_size`` rows.

Sequence lengths and batch sizes are rounded up by :func:`_bucket_size`,
so a model compiles a handful of traces and then serves from frozen
arenas.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "VectorCollator",
    "SequenceCollator",
    "MultiViewCollator",
]


def _bucket_size(count, maximum):
    """Smallest power of two >= count, capped at ``maximum``."""
    size = 1
    while size < count:
        size *= 2
    return min(size, maximum)


def _check_length(array, max_length):
    """Reject a sequence the padded buckets cannot hold."""
    if array.shape[0] > max_length:
        raise ValueError(
            "sequence length {} exceeds max_length {}".format(
                array.shape[0], max_length
            )
        )
    return array


class VectorCollator:
    """Batch fixed-size feature vectors: key = (features, dtype)."""

    def validate(self, payload):
        array = np.asarray(payload)
        if array.ndim != 1:
            raise ValueError(
                "expected a 1-D feature vector, got shape {}".format(array.shape)
            )
        return array

    def bucket_key(self, payload):
        return (payload.shape[0], payload.dtype.str)

    def collate(self, payloads, batch_size):
        batch = np.zeros((batch_size,) + payloads[0].shape, payloads[0].dtype)
        for row, payload in enumerate(payloads):
            batch[row] = payload
        return batch


class SequenceCollator:
    """Batch variable-length (time, features) sequences with a mask.

    Sequences are right-padded to the bucket's power-of-two length; the
    plan input is the ``(padded, mask)`` pair the recurrent layers
    expect, so padding never contaminates the hidden state.
    """

    def __init__(self, max_length=512):
        self.max_length = max_length

    def validate(self, payload):
        array = np.asarray(payload)
        if array.ndim != 2:
            raise ValueError(
                "expected a (time, features) sequence, got shape {}".format(
                    array.shape
                )
            )
        return _check_length(array, self.max_length)

    def bucket_key(self, payload):
        return (
            _bucket_size(payload.shape[0], self.max_length),
            payload.shape[1],
            payload.dtype.str,
        )

    def collate(self, payloads, batch_size):
        steps = _bucket_size(
            max(p.shape[0] for p in payloads), self.max_length
        )
        features = payloads[0].shape[1]
        dtype = payloads[0].dtype
        padded = np.zeros((batch_size, steps, features), dtype)
        mask = np.zeros((batch_size, steps), dtype)
        for row, payload in enumerate(payloads):
            padded[row, :payload.shape[0]] = payload
            mask[row, :payload.shape[0]] = 1.0
        return (padded, mask)


class MultiViewCollator:
    """Batch DeepMood-style multi-view requests.

    Each payload is a list of per-view (time, features) arrays — one
    entry per view, lengths may differ across views.  Collation pads
    each view independently and emits the list of ``(padded, mask)``
    pairs :class:`~repro.core.model.MultiViewGRUClassifier` consumes.
    """

    def __init__(self, view_dims, max_length=512):
        self.view_dims = tuple(view_dims)
        self.max_length = max_length

    def validate(self, payload):
        if len(payload) != len(self.view_dims):
            raise ValueError(
                "expected {} views, got {}".format(
                    len(self.view_dims), len(payload)
                )
            )
        views = []
        for dim, view in zip(self.view_dims, payload):
            array = np.asarray(view)
            if array.ndim != 2 or array.shape[1] != dim:
                raise ValueError(
                    "expected a (time, {}) view, got shape {}".format(
                        dim, array.shape
                    )
                )
            views.append(_check_length(array, self.max_length))
        return views

    def bucket_key(self, payload):
        return tuple(
            (_bucket_size(view.shape[0], self.max_length), view.dtype.str)
            for view in payload
        )

    def collate(self, payloads, batch_size):
        collated = []
        for index in range(len(self.view_dims)):
            views = [payload[index] for payload in payloads]
            steps = _bucket_size(
                max(v.shape[0] for v in views), self.max_length
            )
            dtype = views[0].dtype
            padded = np.zeros((batch_size, steps, self.view_dims[index]), dtype)  # repro-lint: allow[alloc-in-loop] collation builds the batch, not a replay step
            mask = np.zeros((batch_size, steps), dtype)  # repro-lint: allow[alloc-in-loop] collation builds the batch, not a replay step
            for row, view in enumerate(views):
                padded[row, :view.shape[0]] = view
                mask[row, :view.shape[0]] = 1.0
            collated.append((padded, mask))
        return collated
