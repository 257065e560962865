import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtseval.rng import SplitMix64, sample_indices

from oracles import fisher_yates


def test_reference_vector_seed_zero():
    # first outputs of the reference splitmix64 stream for seed 0
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_reference_vector_seed_1234567():
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_seed_masking():
    # seeds are taken modulo 2^64
    assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()


def test_next_below_range():
    rng = SplitMix64(3)
    draws = [rng.next_below(7) for _ in range(200)]
    assert all(0 <= d < 7 for d in draws)
    assert len(set(draws)) == 7


def test_next_float_range():
    rng = SplitMix64(4)
    draws = [rng.next_float() for _ in range(200)]
    assert all(0.0 <= d < 1.0 for d in draws)


def test_shuffle_deterministic():
    a = list(range(10))
    b = list(range(10))
    SplitMix64(5).shuffle(a)
    SplitMix64(5).shuffle(b)
    assert a == b
    assert sorted(a) == list(range(10))


def test_sample_indices_sorted_distinct():
    rng = SplitMix64(6)
    out = sample_indices(50, 10, rng)
    assert len(out) == len(set(out)) == 10
    assert out == sorted(out)


@pytest.mark.parametrize("m,n", [(12, -3), (12, -1), (3, 4)])
def test_sample_indices_refuses_a_size_outside_0_to_m(m, n):
    with pytest.raises(ValueError) as info:
        sample_indices(m, n, SplitMix64(0))
    assert str(info.value) == f"cannot draw {n} distinct indices from {m}"


def test_sample_indices_of_size_0_and_m():
    assert sample_indices(12, 0, SplitMix64(0)) == []
    assert sample_indices(12, 12, SplitMix64(0)) == list(range(12))


SEEDS = st.one_of(st.integers(0, 2**64 - 1), st.integers(2**64 - 2**20, 2**64 - 1))


@settings(max_examples=200, deadline=None)
@given(SEEDS, st.integers(0, 300))
def test_bulk_equals_scalar_draws(seed, k):
    bulk, scalar = SplitMix64(seed), SplitMix64(seed)
    draws = bulk.bulk(k)
    assert draws.dtype == np.uint64
    assert draws.tolist() == [scalar.next_u64() for _ in range(k)]
    # the state advanced by k steps: the streams go on together
    assert bulk._state == scalar._state
    assert bulk.next_u64() == scalar.next_u64()


def test_bulk_wraps_the_state():
    gamma = 0x9E3779B97F4A7C15
    seed = 2**64 - gamma // 2  # the first step already passes 2**64
    bulk, scalar = SplitMix64(seed), SplitMix64(seed)
    assert bulk.bulk(3).tolist() == [scalar.next_u64() for _ in range(3)]
    assert bulk._state == scalar._state == (seed + 3 * gamma) % 2**64
    empty = SplitMix64(seed)
    assert empty.bulk(0).tolist() == [] and empty._state == seed


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.integers(0, 60))
def test_shuffle_equals_scalar_fisher_yates(seed, m):
    a, b = list(range(m)), list(range(m))
    rng_a, rng_b = SplitMix64(seed), SplitMix64(seed)
    rng_a.shuffle(a)
    fisher_yates(b, rng_b)
    assert a == b
    assert rng_a.next_u64() == rng_b.next_u64()
