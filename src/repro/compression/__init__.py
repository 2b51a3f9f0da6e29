"""Model compression and acceleration (paper Sec. III-B)."""

from .pruning import MagnitudePruner, prunable_parameters, sparsity
from .quantization import (
    QuantizedTensor,
    kmeans_quantize,
    quantization_error,
    quantize_model,
    uniform_quantize,
)
from .huffman import HuffmanCode, huffman_decode, huffman_encode
from .pipeline import (
    CompressionReport,
    DeepCompressionPipeline,
    StageReport,
    dense_bits,
    sparse_bits,
)
from .lowrank import factorize_linear, factorize_model, rank_for_energy
from .circulant import CirculantLinear, circulant_matrix, circulant_matvec
from .distillation import DistillationTrainer

__all__ = [
    "MagnitudePruner",
    "prunable_parameters",
    "sparsity",
    "QuantizedTensor",
    "kmeans_quantize",
    "quantization_error",
    "quantize_model",
    "uniform_quantize",
    "HuffmanCode",
    "huffman_decode",
    "huffman_encode",
    "CompressionReport",
    "DeepCompressionPipeline",
    "StageReport",
    "dense_bits",
    "sparse_bits",
    "factorize_linear",
    "factorize_model",
    "rank_for_energy",
    "CirculantLinear",
    "circulant_matrix",
    "circulant_matvec",
    "DistillationTrainer",
]
