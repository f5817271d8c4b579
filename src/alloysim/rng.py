"""Seeded random stream derivation.

Every stochastic routine in the package draws from a generator derived from a
``(master_seed, stream_index, attempt)`` triple, so that estimates are pure
functions of their seed arguments and independent streams can be consumed in
any order (realization ``r`` of a Monte Carlo loop always uses stream ``r``).

The triple is hashed into a PCG64 seed exactly as
``np.random.SeedSequence(entropy=master_seed, spawn_key=(stream_index,
attempt))`` hashes it (the mixing hash of NEP 19), but for a whole aligned
block of ``_BLOCK`` streams that share the master seed and the attempt: the
part of the hash pool that depends on the master seed alone is mixed once with
Python integers, and mixing in the stream and attempt words and hashing out
the seed words are ``uint32`` array operations across the block.  Each call
then only builds the generator from its row of seed words.
"""

from __future__ import annotations

import functools
import operator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["stream_rng"]

# Constants of numpy's SeedSequence hash (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF

_BLOCK = 1024  # streams hashed together; a divisor of 2**32
_WORD_LIMIT = 1 << 32  # spawn-key values at or above this take two words


def _hashmix(value, hash_const: int, mult: int = _MULT_A):
    """One step of the hash on a Python int or a ``uint32`` array.

    Returns the hashed value and the next hash constant.  Every operand of an
    array operation is below 2**32, so the array arithmetic wraps silently
    (scalar ``uint32`` products would warn); Python ints are masked.
    """
    value = value ^ hash_const
    hash_const = (hash_const * mult) & _MASK32
    value = (value * hash_const) & _MASK32
    return value ^ (value >> _XSHIFT), hash_const


def _mix(x, y):
    """Combine a pool word with a hashed word (Python ints or ``uint32`` arrays)."""
    result = (((_MIX_MULT_L * x) & _MASK32) - ((_MIX_MULT_R * y) & _MASK32)) & _MASK32
    return result ^ (result >> _XSHIFT)


def _absorb(pool: list, word, hash_const: int) -> int:
    """Mix one entropy word past the pool size into every pool word."""
    for i_dst in range(_POOL_SIZE):
        value, hash_const = _hashmix(word, hash_const)
        pool[i_dst] = _mix(pool[i_dst], value)
    return hash_const


def _words32(n: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int (``[0]`` for 0)."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


@functools.lru_cache(maxsize=8)
def _master_pool(master_seed: int) -> tuple[tuple[int, ...], int]:
    """Hash pool and hash constant after every master-seed word is mixed in.

    With a spawn key, SeedSequence pads the entropy words with zeros to the
    pool size, so the first ``_POOL_SIZE`` words, and any beyond them, come
    from the master seed alone.
    """
    words = _words32(master_seed)
    words += [0] * (_POOL_SIZE - len(words))
    hash_const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        value, hash_const = _hashmix(word, hash_const)
        pool.append(value)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                value, hash_const = _hashmix(pool[i_src], hash_const)
                pool[i_dst] = _mix(pool[i_dst], value)
    for word in words[_POOL_SIZE:]:
        hash_const = _absorb(pool, word, hash_const)
    return tuple(pool), hash_const


@functools.lru_cache(maxsize=16)
def _block_words(master_seed: int, attempt: int, block: int) -> np.ndarray:
    """PCG64 seed words of streams ``block * _BLOCK`` onward, shape (_BLOCK, 4).

    Row ``i`` equals ``SeedSequence(entropy=master_seed, spawn_key=(block *
    _BLOCK + i, attempt)).generate_state(4, np.uint64)``.  The array is
    read-only because the cache hands it to every caller.
    """
    base, hash_const = _master_pool(master_seed)
    pool = list(base)
    streams = np.arange(block * _BLOCK, (block + 1) * _BLOCK, dtype=np.uint32)
    hash_const = _absorb(pool, streams, hash_const)
    _absorb(pool, attempt, hash_const)
    state = np.empty((_BLOCK, 8), dtype=np.uint32)
    hash_const = _INIT_B
    for i_dst in range(8):
        state[:, i_dst], hash_const = _hashmix(pool[i_dst % _POOL_SIZE], hash_const, _MULT_B)
    words = state.astype("<u4").view("<u8").astype(np.uint64)
    words.flags.writeable = False
    return words


class _StreamSeed(ISeedSequence):
    """Seed source that hands PCG64 one stream's precomputed seed words."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for exactly this; ``is`` keeps the check off the
        # per-stream cost that ``np.dtype`` comparison would add.
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("a stream seed holds exactly 4 uint64 words")
        return self._words


def stream_rng(master_seed: int, stream_index: int, attempt: int = 0) -> np.random.Generator:
    """Return the generator for one stream of a master seed.

    The generator is in the same state as ``np.random.default_rng(
    np.random.SeedSequence(entropy=master_seed, spawn_key=(stream_index,
    attempt)))``; its ``bit_generator.seed_seq`` is not a ``SeedSequence``
    and cannot ``spawn``.

    Parameters
    ----------
    master_seed : int
        Seed of the whole experiment.
    stream_index : int
        Index of the independent substream (realization counter).
    attempt : int, optional
        Retry counter; redraws after a rejected realization use the same
        stream index with an incremented attempt so results stay reproducible
        regardless of which realizations needed retries.
    """
    master_seed = operator.index(master_seed)
    stream_index = operator.index(stream_index)
    attempt = operator.index(attempt)
    if master_seed < 0 or stream_index < 0 or attempt < 0:
        raise ValueError("seed, stream and attempt must be non-negative")
    if stream_index >= _WORD_LIMIT or attempt >= _WORD_LIMIT:
        seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(stream_index, attempt))
        return np.random.default_rng(seq)
    block, row = divmod(stream_index, _BLOCK)
    words = _block_words(master_seed, attempt, block)[row]
    return np.random.Generator(np.random.PCG64(_StreamSeed(words)))
