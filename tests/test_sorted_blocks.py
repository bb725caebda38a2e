import random

import pytest
from hypothesis import given, settings, strategies as st

from streamdecomp.freight import SortedBlocks
from streamdecomp.partition import MinBlockHeap

from reference import BucketSortedBlocks, bucket_ranges


def check_invariants(sb: SortedBlocks):
    k = sb.k
    assert sorted(sb.a) == list(range(k))                 # A is a permutation
    assert all(sb.a[sb.b[i]] == i for i in range(k))      # B o A = identity
    cards = [sb.cardinality(block) for block in sb.a]
    assert cards == sorted(cards)                         # ascending order
    ranges = bucket_ranges(sb)
    pos = 0
    for card, l, r in ranges:
        assert l == pos and r >= l
        assert all(sb.cardinality(sb.a[p]) == card for p in range(l, r + 1))
        pos = r + 1
    assert pos == k                                       # buckets partition A
    assert all(ranges[i][0] < ranges[i + 1][0]
               for i in range(len(ranges) - 1))           # maximal runs


def test_fresh_structure_min_is_cardinality_zero():
    sb = SortedBlocks(8)
    assert sb.cardinality(sb.min_block()) == 0
    check_invariants(sb)


def test_first_increment_moves_block_to_bucket_edge():
    sb = SortedBlocks(4)
    sb.increment(2)
    check_invariants(sb)
    # block 2 swapped to the rightmost slot of the zero bucket (position 3)
    assert sb.b[2] == 3
    assert bucket_ranges(sb) == [(0, 0, 2), (1, 3, 3)]


def test_k2_increment_block0_min_becomes_block1():
    sb = SortedBlocks(2)
    sb.increment(0)
    assert sb.min_block() == 1
    check_invariants(sb)


def test_five_consecutive_increments_singleton_bucket_chain():
    sb = SortedBlocks(4)
    for step in range(1, 6):
        sb.increment(1)
        check_invariants(sb)
        # one singleton bucket per new cardinality, zero bucket shrinks once
        assert bucket_ranges(sb) == [(0, 0, 2), (step, 3, 3)]
        assert sb.cardinality(1) == step


def test_equal_cardinality_buckets_merge():
    sb = SortedBlocks(3)
    sb.increment(0)
    sb.increment(1)
    check_invariants(sb)
    # blocks 0 and 1 both at cardinality 1 must share one bucket
    assert bucket_ranges(sb) == [(0, 0, 0), (1, 1, 2)]


def test_random_increments_match_resort_oracle():
    rng = random.Random(99)
    k = 64
    sb = SortedBlocks(k)
    counts = [0] * k
    for step in range(5000):
        d = rng.randrange(k)
        sb.increment(d)
        counts[d] += 1
        if step % 100 == 0:
            check_invariants(sb)
            assert sb.cardinality(sb.min_block()) == min(counts)
            assert [sb.cardinality(b) for b in sb.a] == sorted(counts)
    check_invariants(sb)
    assert all(sb.cardinality(i) == counts[i] for i in range(k))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.lists(st.integers(0, 11), max_size=120))
def test_invariants_under_arbitrary_sequences(k, raw_sequence):
    sb = SortedBlocks(k)
    counts = [0] * k
    for d in raw_sequence:
        d %= k
        sb.increment(d)
        counts[d] += 1
    check_invariants(sb)
    assert sb.cardinality(sb.min_block()) == min(counts)


@pytest.mark.parametrize("k", [1, 2, 7, 64, 300])
def test_flat_runs_match_bucket_objects(k):
    # the flat end list moves every block exactly as the bucket objects do
    rng = random.Random(400 + k)
    flat, buckets = SortedBlocks(k), BucketSortedBlocks(k)
    for step in range(3000):
        # skewed sequences too: long runs on few blocks open many
        # cardinalities, as at k=1
        d = rng.randrange(k) if step % 500 < 250 else rng.randrange(
            min(k, 3))
        flat.increment(d)
        buckets.increment(d)
        assert flat.min_block() == buckets.min_block()
        if step % 50 == 0 or k <= 2:
            assert flat.a == buckets.a and flat.b == buckets.b
            assert [flat.cardinality(i) for i in range(k)] == \
                [buckets.cardinality(i) for i in range(k)]
    assert flat.a == buckets.a and flat.b == buckets.b
    assert bucket_ranges(flat) == sorted(
        (bucket.cardinality, bucket.l, bucket.r)
        for bucket in {id(x): x for x in buckets.bucket_of}.values())


class TestMinBlockHeap:
    def test_min_is_lowest_index_of_min_weight(self):
        weights = [0] * 4
        q = MinBlockHeap(weights)

        def add(block, delta):
            weights[block] += delta
            q.update(block)

        assert q.min_block() == 0
        add(0, 5)
        add(1, 2)
        assert q.min_block() == 2      # blocks 2,3 at weight 0, lowest index
        add(2, 1)
        add(3, 1)
        assert q.min_block() == 2      # 2,3 at weight 1
        add(2, 4)
        assert q.min_block() == 3

    def test_decrement_brings_block_back(self):
        weights = [0] * 3
        q = MinBlockHeap(weights)
        for block, delta in ((0, 4), (1, 2), (2, 3), (0, -3), (2, -3)):
            weights[block] += delta
            q.update(block)
        assert weights == [1, 2, 0]
        assert q.min_block() == 2
        weights[2] += 1
        q.update(2)
        assert q.min_block() == 0      # 0 and 2 tie at weight 1
        weights[0] += 1
        q.update(0)
        weights[0] -= 1
        q.update(0)                    # same weight as before: still the min
        assert q.min_block() == 0

    def test_matches_scan_oracle(self):
        # increments and decrements (restreaming removes nodes) at several k
        for k in (1, 2, 16, 300):
            rng = random.Random(5 + k)
            weights = [0] * k
            q = MinBlockHeap(weights)
            for step in range(4000):
                b = rng.randrange(k)
                delta = rng.randint(1, 4)
                if weights[b] >= delta and rng.random() < 0.4:
                    delta = -delta
                weights[b] += delta
                q.update(b)
                if step % 3 == 0:
                    lo = min(range(k), key=lambda i: (weights[i], i))
                    assert q.min_block() == lo
                assert len(q.heap) <= 4 * k   # stale entries stay bounded
