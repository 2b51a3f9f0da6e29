"""Batching: the DataLoader and padding for variable-length sequences."""

from __future__ import annotations

import numpy as np

from ..tensor import as_float_array
from .dataset import ArrayDataset

__all__ = ["DataLoader", "pad_sequences", "collate_multiview"]


def pad_sequences(sequences, max_length=None):
    """Pad a list of (length_i, dim) arrays into a dense batch.

    Returns
    -------
    padded:
        (batch, max_length, dim) float array, zero-padded at the end.
    mask:
        (batch, max_length) float array with 1.0 at valid positions.
    """
    sequences = [np.atleast_2d(as_float_array(s)) for s in sequences]
    if not sequences:
        raise ValueError("cannot pad an empty batch")
    lengths = [len(s) for s in sequences]
    limit = max_length or max(lengths)
    dim = sequences[0].shape[1]
    dtype = np.result_type(*[s.dtype for s in sequences])
    padded = np.zeros((len(sequences), limit, dim), dtype=dtype)
    mask = np.zeros((len(sequences), limit), dtype=dtype)
    for i, seq in enumerate(sequences):
        length = min(len(seq), limit)
        padded[i, :length] = seq[:length]
        mask[i, :length] = 1.0
    return padded, mask


def collate_multiview(samples, max_length=None):
    """Collate [(views_tuple, label), ...] into per-view padded batches.

    Returns (list_of_(padded, mask) per view, labels array).
    """
    if not samples:
        raise ValueError("cannot collate an empty batch")
    num_views = len(samples[0][0])
    views = []
    for v in range(num_views):
        views.append(pad_sequences([s[0][v] for s in samples], max_length=max_length))
    labels = np.asarray([s[1] for s in samples])
    return views, labels


class DataLoader:
    """Iterate a dataset in (optionally shuffled) mini-batches.

    Works with both :class:`ArrayDataset` (yields (X, y) ndarrays) and
    :class:`MultiViewSequenceDataset` (yields (views, labels) via
    :func:`collate_multiview`).
    """

    def __init__(self, dataset, batch_size=32, shuffle=True, rng=None,
                 drop_last=False, max_length=None):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.rng = rng or np.random.default_rng(0)
        self.drop_last = drop_last
        self.max_length = max_length

    def __len__(self):
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def __iter__(self):
        n = len(self.dataset)
        order = self.rng.permutation(n) if self.shuffle else np.arange(n)
        for start in range(0, n, self.batch_size):
            indices = order[start:start + self.batch_size]
            if self.drop_last and len(indices) < self.batch_size:
                return
            yield self._fetch(indices)

    def _fetch(self, indices):
        if isinstance(self.dataset, ArrayDataset):
            # One gather per array instead of a Python loop over rows.
            return self.dataset.features[indices], self.dataset.labels[indices]
        samples = [self.dataset[int(i)] for i in indices]
        return collate_multiview(samples, max_length=self.max_length)
