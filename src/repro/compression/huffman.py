"""Huffman coding — the final stage of Deep Compression.

Quantized weight indices follow a highly skewed distribution (most
connections cluster around zero), so entropy coding buys a further ~1.3-2x
on top of pruning and quantization.  This is a complete codec: canonical
code construction, bit-packed encoding, and decoding that round-trips.
"""

from __future__ import annotations

import heapq
from collections import Counter

import numpy as np

__all__ = ["HuffmanCode", "huffman_encode", "huffman_decode"]


class HuffmanCode:
    """A prefix code built from symbol frequencies."""

    def __init__(self, codes):
        self.codes = dict(codes)
        self._decoder = {bits: symbol for symbol, bits in self.codes.items()}

    @classmethod
    def from_symbols(cls, symbols):
        """Build an optimal prefix code for the observed symbol stream."""
        counts = Counter(int(s) for s in symbols)
        if not counts:
            raise ValueError("cannot build a code from an empty stream")
        if len(counts) == 1:
            symbol = next(iter(counts))
            return cls({symbol: "0"})
        heap = [(count, index, symbol) for index, (symbol, count)
                in enumerate(counts.items())]
        heapq.heapify(heap)
        next_id = len(heap)
        children = {}
        while len(heap) > 1:
            c1, _, n1 = heapq.heappop(heap)
            c2, _, n2 = heapq.heappop(heap)
            node = "internal-{}".format(next_id)
            children[node] = (n1, n2)
            heapq.heappush(heap, (c1 + c2, next_id, node))
            next_id += 1
        root = heap[0][2]
        codes = {}

        def assign(node, prefix):
            if node in children:
                left, right = children[node]
                assign(left, prefix + "0")
                assign(right, prefix + "1")
            else:
                codes[node] = prefix

        assign(root, "")
        return cls(codes)

    def expected_bits_per_symbol(self, symbols):
        """Average code length over a symbol stream."""
        total = sum(len(self.codes[int(s)]) for s in symbols)
        return total / len(symbols)


def huffman_encode(symbols, code=None):
    """Encode a stream of integer symbols.

    Returns (packed bytes, bit length, HuffmanCode).
    """
    symbols = [int(s) for s in np.asarray(symbols).reshape(-1)]
    code = code or HuffmanCode.from_symbols(symbols)
    bits = "".join(code.codes[s] for s in symbols)
    packed = bytearray()
    for start in range(0, len(bits), 8):
        chunk = bits[start:start + 8].ljust(8, "0")
        packed.append(int(chunk, 2))
    return bytes(packed), len(bits), code


def huffman_decode(packed, bit_length, code, count=None):
    """Decode ``bit_length`` bits back into the symbol list."""
    bits = "".join(format(byte, "08b") for byte in packed)[:bit_length]
    decoder = code._decoder
    symbols = []
    buffer = ""
    for bit in bits:
        buffer += bit
        if buffer in decoder:
            symbols.append(decoder[buffer])
            buffer = ""
            if count is not None and len(symbols) == count:
                break
    if buffer:
        raise ValueError("ran out of bits mid-symbol; corrupted stream")
    return symbols
