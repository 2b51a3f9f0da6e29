"""Multi-view fusion layers from DeepMood (paper Eqs. 2-4).

DeepMood is a late-fusion architecture: one GRU per view produces a final
hidden vector ``h^(p)``; these are then fused by one of three heads:

* :class:`FullyConnectedFusion` — concatenate and pass through an MLP
  (Eq. 2),
* :class:`FactorizationMachineFusion` — explicit second-order feature
  interactions (Eq. 3),
* :class:`MultiViewMachineFusion` — full m-th-order interactions across
  views (Eq. 4), equivalent to Multi-view Machines (Cao et al., WSDM'16).
"""

from __future__ import annotations

import numpy as np

from .. import tensor as T
from ..tensor import Tensor
from . import init
from .module import Module, Parameter

__all__ = [
    "FullyConnectedFusion",
    "FactorizationMachineFusion",
    "MultiViewMachineFusion",
]


def _concat_views(views, view_sizes):
    """Concatenate (batch, width) views, refusing widths other than
    ``view_sizes`` even where they sum to the same total."""
    widths = [tuple(view.shape[1:]) for view in views]
    if widths != [(size,) for size in view_sizes]:
        raise ValueError("expected views of widths {}, got {}".format(
            list(view_sizes), widths))
    return T.concat(list(views), axis=1)


def _append_ones(x):
    """Append a constant-1 column to model the global bias (paper's [h; 1]).

    The ones column adopts the input dtype: a default-dtype constant would
    silently upcast a float32 activation through the broadcast.
    """
    ones = Tensor(np.ones((x.shape[0], 1), dtype=x.data.dtype), dtype=x.data.dtype)
    return T.concat([x, ones], axis=1)


class FullyConnectedFusion(Module):
    """Eq. (2): concatenate views, one hidden ReLU layer, linear output.

        q = relu(W1 [h; 1]);  y = W2 q
    """

    def __init__(self, view_sizes, hidden_units, num_classes, rng=None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        total = int(sum(view_sizes))
        self.view_sizes = tuple(view_sizes)
        self.w1 = Parameter(init.glorot_uniform((hidden_units, total + 1), rng))
        self.w2 = Parameter(init.glorot_uniform((num_classes, hidden_units), rng))

    def forward(self, views):
        h = _concat_views(views, self.view_sizes)
        q = T.relu(_append_ones(h) @ self.w1.T)
        return q @ self.w2.T


class FactorizationMachineFusion(Module):
    """Eq. (3): per-class second-order interactions on the concatenated views.

        q_a = U_a h;  b_a = w_a^T [h; 1];  y_a = sum(q_a * q_a) + b_a
    """

    def __init__(self, view_sizes, factor_units, num_classes, rng=None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        total = int(sum(view_sizes))
        self.view_sizes = tuple(view_sizes)
        self.num_classes = num_classes
        self.factor_units = factor_units
        # U stacked over classes: (c * k, d) so a single matmul serves all classes.
        self.u = Parameter(
            init.glorot_uniform((num_classes * factor_units, total), rng) * 0.1
        )
        self.w = Parameter(init.glorot_uniform((num_classes, total + 1), rng))

    def forward(self, views):
        h = _concat_views(views, self.view_sizes)
        q = (h @ self.u.T).reshape(h.shape[0], self.num_classes, self.factor_units)
        quadratic = (q * q).sum(axis=2)
        linear = _append_ones(h) @ self.w.T
        return quadratic + linear


class MultiViewMachineFusion(Module):
    """Eq. (4): full m-th-order interactions across the m views.

        q_a^(p) = U_a^(p) [h^(p); 1];  y_a = sum_k prod_p q_a^(p)[k]
    """

    def __init__(self, view_sizes, factor_units, num_classes, rng=None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.view_sizes = tuple(view_sizes)
        self.num_classes = num_classes
        self.factor_units = factor_units
        self._factor_names = []
        for index, size in enumerate(view_sizes):
            name = "u{}".format(index)
            scale = 0.5 ** (1.0 / max(len(view_sizes), 1))
            param = Parameter(
                init.glorot_uniform((num_classes * factor_units, size + 1), rng) * scale
            )
            setattr(self, name, param)
            self._factor_names.append(name)

    def forward(self, views):
        views = list(views)
        if len(views) != len(self.view_sizes):
            raise ValueError(
                "expected {} views, got {}".format(len(self.view_sizes), len(views))
            )
        product = None
        for name, view in zip(self._factor_names, views):
            u = getattr(self, name)
            q = (_append_ones(view) @ u.T).reshape(
                view.shape[0], self.num_classes, self.factor_units
            )
            product = q if product is None else product * q
        return product.sum(axis=2)
