"""Unit tests for the deterministic RNG."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import BLOCK, MASK64, SplitMix, mix_hash


class ScalarSplitMix:
    """Reference: the scalar SplitMix64 recurrence, one output per call,
    with the helper methods' documented semantics on top."""

    def __init__(self, seed):
        self.state = seed & MASK64
        self.draws = 0

    def next_u64(self):
        self.draws += 1
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def uniform(self):
        return self.next_u64() / float(1 << 64)

    def randint(self, lo, hi):
        return lo + self.next_u64() % (hi - lo + 1)

    def choice(self, seq):
        return seq[self.next_u64() % len(seq)]

    def geometric(self, mean):
        p = 1.0 / mean
        count = 1
        while self.uniform() > p:
            count += 1
            if count > 64 * mean:
                break
        return count

    def split(self):
        return ScalarSplitMix(self.next_u64() ^ 0xA5A5A5A5DEADBEEF)


def test_known_answers():
    # The published SplitMix64 outputs for seed 0, and the seed whose
    # first state wraps past 2**64.
    zero = SplitMix(0)
    assert [zero.next_u64() for _ in range(3)] == [
        16294208416658607535, 7960286522194355700, 487617019471545679]
    top = SplitMix(2 ** 64 - 1)
    assert [top.next_u64() for _ in range(3)] == [
        16490336266968443936, 16834447057089888969, 4048727598324417001]


@pytest.mark.parametrize("seed", [0, 1, 42, 2 ** 63, 2 ** 64 - 1, 2 ** 64 + 5])
def test_stream_matches_scalar_recurrence(seed):
    rng, ref = SplitMix(seed), ScalarSplitMix(seed)
    n = 2 * BLOCK + 3
    assert [rng.next_u64() for _ in range(n)] == [ref.next_u64() for _ in range(n)]


_OPS = st.one_of(
    st.just(("next_u64",)),
    st.just(("uniform",)),
    st.tuples(st.just("randint"), st.integers(-50, 50), st.integers(0, 2 ** 40)),
    st.tuples(st.just("choice"), st.integers(1, 9)),
    st.tuples(st.just("geometric"), st.floats(1.0, 20.0)),
    st.just(("split",)),
)


def _apply(rng, op):
    name = op[0]
    if name == "randint":
        return rng.randint(op[1], op[1] + op[2])
    if name == "choice":
        return rng.choice(list(range(op[1])))
    if name == "geometric":
        return rng.geometric(op[1])
    if name == "split":
        child = rng.split()
        return [child.next_u64() for _ in range(3)]
    return getattr(rng, name)()


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2 ** 64 - 1),
    skip=st.integers(0, BLOCK - 1),
    gap=st.integers(256, 1024),
    ops=st.lists(_OPS, min_size=1, max_size=12),
)
def test_any_interleaving_matches_reference(seed, skip, gap, ops):
    """Every helper draws from the one stream in the scalar order, across
    at least two block boundaries at any alignment. Rounds of *ops* are
    separated by *gap* raw draws so a round of splits stays cheap."""
    rng, ref = SplitMix(seed), ScalarSplitMix(seed)
    for _ in range(skip):
        rng.next_u64()
        ref.next_u64()
    while ref.draws < skip + 2 * BLOCK + 1:
        for op in ops:
            assert _apply(rng, op) == _apply(ref, op)
        assert [rng.next_u64() for _ in range(gap)] == [
            ref.next_u64() for _ in range(gap)]
    assert rng.next_u64() == ref.next_u64()


def test_same_seed_same_stream():
    a, b = SplitMix(42), SplitMix(42)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_different_seeds_differ():
    a, b = SplitMix(1), SplitMix(2)
    assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]


def test_uniform_in_unit_interval():
    rng = SplitMix(7)
    for _ in range(1000):
        u = rng.uniform()
        assert 0.0 <= u < 1.0


def test_randint_bounds_inclusive():
    rng = SplitMix(3)
    seen = {rng.randint(2, 5) for _ in range(500)}
    assert seen == {2, 3, 4, 5}


def test_randint_empty_range_raises():
    with pytest.raises(ValueError):
        SplitMix(1).randint(5, 4)


def test_choice_and_empty():
    rng = SplitMix(9)
    assert rng.choice([42]) == 42
    with pytest.raises(ValueError):
        rng.choice([])


def test_weighted_choice_respects_zero_weight():
    rng = SplitMix(11)
    picks = {rng.weighted_choice(["a", "b"], [1.0, 0.0]) for _ in range(200)}
    assert picks == {"a"}


def test_weighted_choice_rough_proportion():
    rng = SplitMix(13)
    counts = {"a": 0, "b": 0}
    for _ in range(4000):
        counts[rng.weighted_choice(["a", "b"], [3.0, 1.0])] += 1
    ratio = counts["a"] / counts["b"]
    assert 2.2 < ratio < 4.2


def test_weighted_choice_requires_positive_total():
    with pytest.raises(ValueError):
        SplitMix(1).weighted_choice(["a"], [0.0])


def test_geometric_mean_close():
    rng = SplitMix(17)
    samples = [rng.geometric(6.0) for _ in range(4000)]
    mean = sum(samples) / len(samples)
    assert 5.0 < mean < 7.2
    assert min(samples) >= 1


def test_geometric_mean_one_is_constant():
    rng = SplitMix(19)
    assert all(rng.geometric(1.0) == 1 for _ in range(10))


def test_geometric_rejects_sub_one():
    with pytest.raises(ValueError):
        SplitMix(1).geometric(0.5)


def test_split_streams_are_independent():
    parent = SplitMix(23)
    child = parent.split()
    a = [child.next_u64() for _ in range(4)]
    b = [parent.next_u64() for _ in range(4)]
    assert a != b


def test_mix_hash_deterministic_and_sensitive():
    assert mix_hash(1, 2, 3) == mix_hash(1, 2, 3)
    assert mix_hash(1, 2, 3) != mix_hash(3, 2, 1)
    assert mix_hash(0) != mix_hash(1)
