"""The three-stage Deep Compression pipeline (Han et al., ICLR'16).

"Firstly, the network was pruned by learning only the important
connections.  Then, they quantized the parameters to enforce parameter
sharing.  Finally, the Huffman coding was applied." (Sec. III).

Each stage records the storage it would need on a phone, so the benchmark
can print the per-stage compression ratios the original paper tabulates.
Sparse storage after pruning uses the same relative-index scheme as the
paper (compressed sparse rows with bounded index gaps).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..nn import losses
from ..optim import Adam
from ..tensor import Tensor, no_grad
from .huffman import huffman_encode
from .pruning import MagnitudePruner, prunable_parameters, sparsity
from .quantization import quantize_model

__all__ = ["StageReport", "CompressionReport", "DeepCompressionPipeline",
           "dense_bits", "sparse_bits"]

INDEX_BITS = 5  # relative-index width used by Deep Compression's CSR variant


def dense_bits(model):
    """Bits to store every parameter densely at 32-bit precision."""
    return int(sum(p.data.size for p in model.parameters()) * 32)


def sparse_bits(model, value_bits=32, index_bits=INDEX_BITS):
    """Bits for pruned weights in relative-indexed sparse form.

    Every nonzero costs ``value_bits`` plus a relative index; gaps larger
    than 2^index_bits insert zero-padding entries, exactly as in the
    paper's storage format.  Biases and other dense 1-D parameters stay
    dense.
    """
    total = 0
    prunable = {name for name, _ in prunable_parameters(model)}
    for name, param in model.named_parameters():
        flat = param.data.reshape(-1)
        if name not in prunable:
            total += flat.size * 32
            continue
        positions = np.flatnonzero(flat)
        if len(positions) == 0:
            total += value_bits + index_bits
            continue
        gaps = np.diff(np.concatenate([[-1], positions])) - 1
        padding = int((gaps // (2 ** index_bits)).sum())
        entries = len(positions) + padding
        total += entries * (value_bits + index_bits)
    return int(total)


@dataclass
class StageReport:
    """Size and accuracy after one pipeline stage."""

    stage: str
    bits: int
    accuracy: float

    def megabytes(self):
        return self.bits / 8e6


@dataclass
class CompressionReport:
    """Full pipeline trajectory with compression ratios."""

    stages: list = field(default_factory=list)

    def add(self, stage, bits, accuracy):
        self.stages.append(StageReport(stage=stage, bits=int(bits),
                                       accuracy=float(accuracy)))

    def ratio(self, stage):
        """Compression ratio of ``stage`` relative to the original model."""
        baseline = self.stages[0].bits
        for report in self.stages:
            if report.stage == stage:
                return baseline / report.bits
        raise KeyError("no stage named '{}'".format(stage))

    def final_ratio(self):
        return self.stages[0].bits / self.stages[-1].bits

    def accuracy_drop(self):
        """Accuracy change from the original to the final stage."""
        return self.stages[0].accuracy - self.stages[-1].accuracy

    def table(self):
        """Formatted per-stage table (stage, size, ratio, accuracy)."""
        lines = ["{:<22} {:>10} {:>8} {:>9}".format(
            "stage", "size (KB)", "ratio", "accuracy")]
        baseline = self.stages[0].bits
        for report in self.stages:
            lines.append("{:<22} {:>10.1f} {:>7.1f}x {:>9.4f}".format(
                report.stage, report.bits / 8e3, baseline / report.bits,
                report.accuracy))
        return "\n".join(lines)


class DeepCompressionPipeline:
    """Prune -> retrain -> quantize -> Huffman, with accuracy tracking."""

    def __init__(self, model, prune_sparsity=0.8, quant_bits=5,
                 retrain_epochs=5, retrain_lr=0.01, batch_size=32, seed=0):
        self.model = model
        self.prune_sparsity = prune_sparsity
        self.quant_bits = quant_bits
        self.retrain_epochs = retrain_epochs
        self.retrain_lr = retrain_lr
        self.batch_size = batch_size
        self.rng = np.random.default_rng(seed)
        self.pruner = None
        self.quantized_ = None

    def _accuracy(self, features, labels):
        self.model.eval()
        with no_grad():
            logits = self.model(Tensor(np.asarray(features)))
        self.model.train()
        return float((logits.numpy().argmax(axis=1) == np.asarray(labels)).mean())

    def run(self, train_data, eval_data):
        """Execute the full pipeline; returns a :class:`CompressionReport`."""
        train_x, train_y = train_data
        eval_x, eval_y = eval_data
        report = CompressionReport()
        report.add("original", dense_bits(self.model),
                   self._accuracy(eval_x, eval_y))

        # Stage 1: prune + retrain with masks held fixed.
        self.pruner = MagnitudePruner(self.model)
        self.pruner.prune(self.prune_sparsity)
        self.pruner.retrain(
            train_x, train_y,
            Adam(self.model.parameters(), lr=self.retrain_lr),
            losses.cross_entropy,
            epochs=self.retrain_epochs, batch_size=self.batch_size,
            rng=self.rng,
        )
        report.add("pruned ({:.0%})".format(sparsity(self.model)),
                   sparse_bits(self.model),
                   self._accuracy(eval_x, eval_y))

        # Stage 2: k-means weight sharing on the surviving connections.
        self.quantized_ = quantize_model(self.model, bits=self.quant_bits,
                                         scheme="kmeans", rng=self.rng)
        report.add(
            "quantized ({}b)".format(self.quant_bits),
            sparse_bits(self.model, value_bits=self.quant_bits)
            + sum(q.codebook.size * 32 for q in self.quantized_.values()),
            self._accuracy(eval_x, eval_y),
        )

        # Stage 3: Huffman-code the quantized index stream per layer.
        huffman_total = 0
        prunable = {name for name, _ in prunable_parameters(self.model)}
        for name, param in self.model.named_parameters():
            if name not in prunable or name not in self.quantized_:
                huffman_total += param.data.size * 32
                continue
            quantized = self.quantized_[name]
            nonzero = quantized.indices.reshape(-1)
            nonzero = nonzero[nonzero != 0]
            if len(nonzero):
                _, bit_length, _ = huffman_encode(nonzero)
            else:
                bit_length = 0
            # Indices of nonzeros still need relative positions.
            flat = param.data.reshape(-1)
            positions = np.flatnonzero(flat)
            gaps = np.diff(np.concatenate([[-1], positions])) - 1
            padding = int((gaps // (2 ** INDEX_BITS)).sum()) if len(positions) else 0
            bit_length += (len(positions) + padding) * INDEX_BITS
            bit_length += quantized.codebook.size * 32
            huffman_total += bit_length
        report.add("huffman", huffman_total, self._accuracy(eval_x, eval_y))
        return report
