"""Per-layer cost profiling: FLOPs, parameter counts, activation sizes.

These profiles feed the energy and latency models used by the cloud-vs-
device and split-inference benchmarks.  Profiling walks a
:class:`repro.nn.Module` tree and maps each leaf layer to an analytic
cost; unknown parameter-free layers are treated as negligible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn

__all__ = ["LayerCost", "ModelCostProfile", "profile_model"]

BYTES_PER_WORD = 4  # 32-bit deployment precision


@dataclass
class LayerCost:
    """Cost of one layer at a given input shape."""

    name: str
    kind: str
    flops: float
    params: int
    input_size: int    # elements entering the layer
    output_size: int   # elements leaving the layer

    @property
    def output_bytes(self):
        return self.output_size * BYTES_PER_WORD


@dataclass
class ModelCostProfile:
    """Ordered per-layer costs for a model at a fixed input shape."""

    layers: list

    @property
    def total_flops(self):
        return sum(layer.flops for layer in self.layers)

    @property
    def total_params(self):
        return sum(layer.params for layer in self.layers)

    def split(self, index):
        """Partition into (device part, cloud part) at layer ``index``."""
        if not 0 <= index <= len(self.layers):
            raise ValueError("split index out of range")
        return ModelCostProfile(self.layers[:index]), ModelCostProfile(self.layers[index:])

    def cut_points(self):
        """All valid split indices, 0 (all cloud) .. len (all device)."""
        return range(len(self.layers) + 1)

    def boundary_bytes(self, index):
        """Bytes crossing the wire if split at ``index`` (activation size).

        Index 0 means the raw input is transmitted.
        """
        if index == 0:
            return self.layers[0].input_size * BYTES_PER_WORD if self.layers else 0
        return self.layers[index - 1].output_bytes


def _conv_out(size, kernel, stride, padding):
    return (size + 2 * padding - kernel) // stride + 1


def profile_model(model, input_shape):
    """Profile a feed-forward :class:`~repro.nn.Sequential`-style model.

    ``input_shape`` excludes the batch dimension: e.g. ``(1, 8, 8)`` for the
    synthetic digit images or ``(64,)`` for flat features.  Returns a
    :class:`ModelCostProfile` with one entry per layer in execution order.
    """
    layers = []
    shape = tuple(input_shape)
    modules = list(model) if isinstance(model, nn.Sequential) else [model]
    for index, module in enumerate(modules):
        name = "{}:{}".format(index, type(module).__name__)
        in_size = int(np.prod(shape))
        if isinstance(module, nn.Linear):
            flops = 2.0 * module.in_features * module.out_features
            params = module.in_features * module.out_features
            if module.bias is not None:
                params += module.out_features
            shape = (module.out_features,)
        elif isinstance(module, nn.Conv2d):
            c, h, w = shape
            kh, kw = module.kernel_size
            oh = _conv_out(h, kh, module.stride, module.padding)
            ow = _conv_out(w, kw, module.stride, module.padding)
            per_position = 2.0 * (module.in_channels // module.groups) * kh * kw
            flops = per_position * module.out_channels * oh * ow
            params = module.weight.data.size + (
                module.bias.data.size if module.bias is not None else 0
            )
            shape = (module.out_channels, oh, ow)
        elif isinstance(module, (nn.MaxPool2d, nn.AvgPool2d)):
            c, h, w = shape
            oh = _conv_out(h, module.kernel, module.stride, 0)
            ow = _conv_out(w, module.kernel, module.stride, 0)
            flops = float(c * oh * ow * module.kernel * module.kernel)
            params = 0
            shape = (c, oh, ow)
        elif isinstance(module, nn.GlobalAvgPool2d):
            c, h, w = shape
            flops = float(c * h * w)
            params = 0
            shape = (c,)
        elif isinstance(module, nn.Flatten):
            flops = 0.0
            params = 0
            shape = (in_size,)
        elif isinstance(module, nn.DepthwiseSeparableConv2d):
            # Recurse over the two inner convolutions.
            inner = profile_model(
                nn.Sequential(module.depthwise, module.pointwise), shape
            )
            for sub in inner.layers:
                sub.name = name + "." + sub.name
                layers.append(sub)
            c, h, w = shape
            oh = _conv_out(h, module.depthwise.kernel_size[0],
                           module.depthwise.stride, module.depthwise.padding)
            ow = _conv_out(w, module.depthwise.kernel_size[1],
                           module.depthwise.stride, module.depthwise.padding)
            shape = (module.pointwise.out_channels, oh, ow)
            continue
        else:
            # Activations, dropout, norm layers: negligible FLOPs, but norm
            # layers do carry parameters.
            params = sum(p.data.size for p in module.parameters()) if isinstance(
                module, nn.Module) else 0
            flops = float(in_size)
            shape = shape
        layers.append(LayerCost(
            name=name, kind=type(module).__name__, flops=float(flops),
            params=int(params), input_size=in_size, output_size=int(np.prod(shape)),
        ))
    return ModelCostProfile(layers)
