"""Vectorized keyed-RNG streams: numpy's seeding pipeline as array ops.

The scalar fault oracles (:class:`repro.faults.FaultInjector`) derive a
fresh ``np.random.default_rng((seed, tag, round, client, attempt))`` per
decision.  That is the right *contract* — every decision is a pure
function of its coordinate — but constructing a ``SeedSequence`` +
``PCG64`` + ``Generator`` per client costs microseconds each, which caps
a simulated fleet at tens of thousands of devices.

This module reimplements the exact same derivation pipeline as numpy
uint32/uint64 **array** arithmetic, so one call produces the first
``ndraws`` uniforms of *every* client's keyed stream at once:

* ``SeedSequence`` entropy-pool mixing (O'Neill's seed_seq hash with
  numpy's constants, 4-word pool, zero-padding for short keys);
* ``generate_state(4, uint64)`` (the little-endian uint32-pair view);
* ``PCG64`` stream setup (``pcg_setseq_128_srandom``: the 128-bit LCG
  seeded with two pool-derived 128-bit words) via 32-bit limb
  multiplication; and
* the XSL-RR output function plus the ``>> 11`` 53-bit double
  conversion of ``Generator.random()``.

Every pass updates a batch-shaped buffer in place.  A stream allocates
two blocks, one of uint32 rows for seeding and one of uint64 rows for
the generator, and each draw allocates only the array of doubles it
returns.  Scalar key positions stay Python ints until they meet a
vector position, so a shared ``(seed, tag, round)`` prefix is hashed
once, not per client.

Bit-identity with ``default_rng(key).random()`` is a tested invariant
(`tests/test_fleet.py` proves it property-style against live numpy), so
the batch oracles built on top are replay-compatible with every scalar
schedule ever recorded under the same seed.

Nothing here is security-relevant; it is a *simulation determinism*
device.  The implementation follows the published PCG and seed_seq
algorithms that numpy itself ships.
"""

from __future__ import annotations

import numpy as np

__all__ = ["KeyedStream", "keyed_uniforms", "entropy_words"]

# SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_L = 0xCA01F9DD
_MIX_R = 0x4973F715
_XSHIFT = 16
_POOL_WORDS = 4

# PCG64's default 128-bit multiplier, split into uint64 halves; the low
# half also as the two 32-bit limbs of the 64x64 high product.
_MUL_HI = np.uint64(0x2360ED051FC65DA4)
_MUL_LO = np.uint64(0x4385DF649FCCF645)
_M32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_MUL_LO_0 = _MUL_LO & _M32
_MUL_LO_1 = _MUL_LO >> _SHIFT32

_U32_MASK = 0xFFFFFFFF
_DOUBLE_SCALE = 1.0 / 9007199254740992.0  # 2**-53


def entropy_words(*components):
    """Split key components into SeedSequence's uint32 entropy words.

    Scalar ints (and 0-d integer arrays) may be any non-negative size:
    they split into as many little-endian 32-bit words as they need,
    exactly like numpy's ``_coerce_to_uint32_array``, and stay Python
    ints.  Array components must fit in one word each (every
    id/round/attempt coordinate in this repo is ``< 2**32``) so the
    whole batch shares a single word layout; they become uint32 arrays.
    """
    words = []
    for component in components:
        if not isinstance(component, (int, np.integer)):
            array = np.asarray(component)
            if array.dtype.kind not in "iu":
                raise TypeError("array key components must be integers")
            if array.ndim:
                if array.size and (int(array.min()) < 0
                                   or int(array.max()) > _U32_MASK):
                    raise ValueError(
                        "array key components must lie in [0, 2**32) so "
                        "every element shares one entropy-word layout")
                words.append(array.astype(np.uint32))
                continue
            component = array[()]
        value = int(component)
        if value < 0:
            raise ValueError("entropy components must be non-negative")
        if value == 0:
            words.append(0)
            continue
        while value > 0:
            words.append(value & _U32_MASK)
            value >>= 32
    return words


def _hash_constants(init, mult):
    """seed_seq's running hash constant: one (xor, multiply) pair a step."""
    const = init
    while True:
        following = (const * mult) & _U32_MASK
        yield const, following
        const = following


def _xorshift(word, tmp):
    """``word ^= word >> 16`` in place, through the scratch array ``tmp``."""
    np.right_shift(word, np.uint32(_XSHIFT), out=tmp)
    word ^= tmp


def _rows(block):
    """The rows of ``block`` as arrays (``block[k, ...]`` stays an ndarray
    for a 0-d row, where ``block[k]`` would be a numpy scalar)."""
    return [block[k, ...] for k in range(block.shape[0])]


def _hashmix(value, constants, out, tmp):
    """One seed_seq hash step of ``value``, a Python int or uint32 array.

    An int hashes to an int.  An array hashes into ``out``.
    """
    xor_const, mul_const = next(constants)
    if isinstance(value, int):
        value = ((value ^ xor_const) * mul_const) & _U32_MASK
        return value ^ (value >> _XSHIFT)
    out = np.bitwise_xor(value, np.uint32(xor_const), out=out)
    out *= np.uint32(mul_const)
    _xorshift(out, tmp)
    return out


def _mix(x, y, tmp, row):
    """seed_seq's ``mix(x, y)`` of pool word ``x`` and hashed word ``y``.

    An array ``x`` is updated in place and an array ``y`` is consumed
    (it is the caller's hash scratch).  An int ``x`` meeting an array
    ``y`` becomes an array in ``row``, the pool word's own row.
    """
    if isinstance(y, int):
        y = (y * _MIX_R) & _U32_MASK
        if isinstance(x, int):
            result = (x * _MIX_L - y) & _U32_MASK
            return result ^ (result >> _XSHIFT)
        x *= np.uint32(_MIX_L)
        x -= np.uint32(y)
    else:
        y *= np.uint32(_MIX_R)
        if isinstance(x, int):
            x = np.subtract(np.uint32((x * _MIX_L) & _U32_MASK), y,
                            out=row)
        else:
            x *= np.uint32(_MIX_L)
            x -= y
    _xorshift(x, tmp)
    return x


def _mixed_pool(words, shape, rows, hashed, tmp):
    """The 4-word entropy pool for every element of the batch.

    Scalar key positions stay Python ints as long as possible: the hash
    chain over a (seed, tag, round) prefix is computed once, not per
    client — pool word ``i`` becomes a batch array, in ``rows[i]``, only
    at its first contact with a vector word.
    """
    sources = [word if isinstance(word, int)
               else np.broadcast_to(word, shape) for word in words]
    constants = _hash_constants(_INIT_A, _MULT_A)
    pool = []
    for index in range(_POOL_WORDS):
        source = sources[index] if index < len(sources) else 0
        pool.append(_hashmix(source, constants, rows[index], tmp))
    for i_src in range(_POOL_WORDS):
        for i_dst in range(_POOL_WORDS):
            if i_src != i_dst:
                pool[i_dst] = _mix(
                    pool[i_dst],
                    _hashmix(pool[i_src], constants, hashed, tmp), tmp,
                    rows[i_dst])
    for source in sources[_POOL_WORDS:]:
        for i_dst in range(_POOL_WORDS):
            pool[i_dst] = _mix(pool[i_dst],
                               _hashmix(source, constants, hashed, tmp), tmp,
                               rows[i_dst])
    return pool


def _state_words(pool, words, low, high, tmp):
    """``generate_state(4, uint64)`` into the four uint64 arrays ``words``.

    Eight hashed uint32 outputs, paired little-endian (low word first).
    """
    constants = _hash_constants(_INIT_B, _MULT_B)
    for index, word in enumerate(words):
        lo32 = _hashmix(pool[2 * index % _POOL_WORDS], constants, low, tmp)
        hi32 = _hashmix(pool[(2 * index + 1) % _POOL_WORDS], constants,
                        high, tmp)
        word[...] = hi32
        word <<= _SHIFT32
        word |= lo32


class KeyedStream:
    """The PCG64 streams of a whole batch of entropy keys, advanced in step.

    Construction runs the full SeedSequence + PCG64 seeding for every
    element; each :meth:`next_uniform` call then advances every stream by
    exactly one draw, matching ``Generator.random()`` bit-for-bit.

    Every batch-shaped array is a row of one of two blocks: seven uint32
    rows for seeding (the pool, two hash outputs, a scratch word) and
    eight uint64 rows for the generator (the 128-bit state and increment,
    four scratch words), updated in place.  Rows are ndarrays even for an
    all-scalar key's 0-d shape, never numpy scalars, which would rebind
    on ``*=`` and drop the update.
    """

    def __init__(self, components):
        words = entropy_words(*components)
        shape = np.broadcast_shapes(*[np.shape(word) for word in words])
        seeding = _rows(np.empty((7,) + shape, dtype=np.uint32))
        generator = _rows(np.empty((8,) + shape, dtype=np.uint64))
        low, high, tmp = seeding[4:]
        init_hi, init_lo, seq_hi, seq_lo = generator[:4]
        _state_words(_mixed_pool(words, shape, seeding[:4], low, tmp),
                     generator[:4], low, high, tmp)
        self._scratch = tuple(generator[4:])
        self._carry = np.empty(shape, dtype=bool)
        # pcg_setseq_128_srandom: inc = (initseq << 1) | 1; step;
        # state += initstate; step.  The first step from state 0 is just
        # state = inc.
        spill = self._scratch[0]
        np.right_shift(seq_lo, np.uint64(63), out=spill)
        seq_hi <<= np.uint64(1)
        seq_hi |= spill
        seq_lo <<= np.uint64(1)
        seq_lo |= np.uint64(1)
        self._inc_hi, self._inc_lo = seq_hi, seq_lo
        init_lo += seq_lo
        init_hi += seq_hi
        np.less(init_lo, seq_lo, out=self._carry)
        init_hi += self._carry
        self._state_hi, self._state_lo = init_hi, init_lo
        self._step()

    def _step(self):
        """128-bit LCG advance in place: state = state * MUL + inc.

        The high word gathers ``hi*MUL_LO + lo*MUL_HI`` plus the high 64
        bits of ``lo*MUL_LO``, built from 32-bit limbs; the low word's
        ``+ inc`` carries into it.
        """
        hi, lo = self._state_hi, self._state_lo
        a, b, c, d = self._scratch
        hi *= _MUL_LO
        np.multiply(lo, _MUL_HI, out=a)
        hi += a
        np.bitwise_and(lo, _M32, out=a)       # low limb of lo
        np.right_shift(lo, _SHIFT32, out=b)   # high limb of lo
        np.multiply(a, _MUL_LO_1, out=c)      # low x high cross product
        np.multiply(b, _MUL_LO_0, out=d)      # high x low cross product
        a *= _MUL_LO_0                        # low x low
        a >>= _SHIFT32
        b *= _MUL_LO_1                        # high x high
        hi += b
        np.right_shift(c, _SHIFT32, out=b)
        hi += b
        np.right_shift(d, _SHIFT32, out=b)
        hi += b
        c &= _M32
        d &= _M32
        a += c
        a += d
        a >>= _SHIFT32                        # carry out of the low half
        hi += a
        lo *= _MUL_LO
        lo += self._inc_lo
        hi += self._inc_hi
        np.less(lo, self._inc_lo, out=self._carry)
        hi += self._carry

    def next_uniform(self):
        """One ``Generator.random()`` double in [0, 1) per stream."""
        self._step()
        hi, lo = self._state_hi, self._state_lo
        rot, value, spill, _ = self._scratch
        # XSL-RR: rotate hi ^ lo right by the top six bits of hi.
        np.right_shift(hi, np.uint64(58), out=rot)
        np.bitwise_xor(hi, lo, out=value)
        np.right_shift(value, rot, out=spill)
        np.subtract(np.uint64(64), rot, out=rot)
        rot &= np.uint64(63)
        value <<= rot
        value |= spill
        value >>= np.uint64(11)
        return value * _DOUBLE_SCALE


def keyed_uniforms(components, ndraws):
    """First ``ndraws`` uniforms of every keyed stream, as a list of arrays.

    ``components`` is the entropy key with scalar and/or array positions
    (arrays broadcast against each other).  Element ``i`` of each
    returned array equals draw ``k`` of
    ``np.random.default_rng(tuple_of_element_i).random()``.
    """
    stream = KeyedStream(components)
    return [stream.next_uniform() for _ in range(int(ndraws))]
