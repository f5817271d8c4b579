import warnings

import numpy as np
import pytest

from alloysim.rng import stream_rng

SEEDS = [0, 1, 2**32 - 1, 2**32, 10**20]
# 1023/1024 straddle a block edge; 2**32 needs a second spawn-key word
STREAMS = [0, 1023, 1024, 5000, 2**32]
ATTEMPTS = [0, 1, 7]


def _reference(seed, stream, attempt):
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(stream, attempt))
    return np.random.default_rng(seq)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("stream", STREAMS)
@pytest.mark.parametrize("attempt", ATTEMPTS)
def test_matches_seed_sequence(seed, stream, attempt):
    got, want = stream_rng(seed, stream, attempt), _reference(seed, stream, attempt)
    np.testing.assert_array_equal(got.random(50), want.random(50))
    np.testing.assert_array_equal(got.standard_normal(9), want.standard_normal(9))


def test_same_stream_gives_independent_copies():
    a = stream_rng(3, 17)
    first = [a.random()]
    others = [stream_rng(3, s).random() for s in (16, 18, 2000)]
    b = stream_rng(3, 17)
    first.append(a.random())
    second = [b.random(), b.random()]
    first.append(a.random())
    second.append(b.random())
    assert first == second
    assert not set(others) & set(first)


@pytest.mark.parametrize("args", [(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
def test_negative_arguments_rejected(args):
    with pytest.raises(ValueError):
        stream_rng(*args)


def test_no_overflow_warnings():
    # seeds no other test uses, so their blocks are hashed here, not cached
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (918273645, 2**64 + 5):
            for attempt in (0, 2):
                stream_rng(seed, 3000, attempt).random()
