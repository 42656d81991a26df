import random

import pytest

from covprune import CoverageTree, build_tree

from conftest import iset, naive_range_min_max, pairs_of, random_instance, segment_values

# the demo's delimiters are (0, 1, 2, 3, 4, 6, 8, 10); the tree takes
# segment indices, so [0, 10) is [0, 7) and [4, 6) is [4, 5)


def flat_shift(values, lo, hi, delta):
    for j in range(lo, hi):
        values[j] += delta


def test_build_demo(demo):
    tree = build_tree(demo)
    assert tree.num_segments == 7
    assert segment_values(tree) == [2, 4, 4, 3, 4, 3, 2]
    assert tree.range_query(0, 7) == (2, 4)
    # root aggregates are stored directly while no balance is pending
    assert tree.mn[1] == 2 and tree.mx[1] == 4


def test_build_single_interval():
    tree = build_tree(iset([(0, 5)]))
    assert segment_values(tree) == [1]
    assert tree.range_query(0, 1) == (1, 1)


def test_build_two_adjacent():
    tree = build_tree(iset([(0, 2), (2, 4)]))
    assert segment_values(tree) == [1, 1]
    assert tree.range_query(0, 2) == (1, 1)


def test_query_demo_inner_range(demo):
    assert build_tree(demo).range_query(1, 3) == (4, 4)  # coordinates [1, 3)


def test_decrement_then_query(demo):
    tree = build_tree(demo)
    tree.range_decrement(0, 2)  # delete B=[0,2)
    assert tree.range_query(0, 2) == (1, 3)
    assert segment_values(tree) == [1, 3, 4, 3, 4, 3, 2]


def test_decrement_is_local(demo):
    tree = build_tree(demo)
    before = tree.range_query(4, 7)
    tree.range_decrement(0, 3)
    assert tree.range_query(4, 7) == before


def test_repeated_full_span_decrements(demo):
    tree = build_tree(demo)
    for _ in range(5):
        tree.range_decrement(0, 7)
    assert tree.range_query(0, 7) == (2 - 5, 4 - 5)


def test_single_segment_query(demo):
    tree = build_tree(demo)
    assert tree.range_query(4, 5) == (4, 4)


def test_push_down_is_semantic_noop(demo):
    tree = build_tree(demo)
    tree.range_decrement(0, 7)
    tree.range_decrement(0, 7)
    # node 2 spans the first four segments, all inside [0, 7)
    assert tree.bal[2] == -2
    values_before = segment_values(tree)
    # a query of segment 0 pushes down the path 1, 2, 4 to leaf 8
    assert tree.range_query(0, 1) == (0, 0)
    assert tree.bal[2] == 0 and tree.bal[4] == 0
    assert tree.bal[5] == -2 and tree.bal[8] == -2 and tree.bal[9] == -2
    assert segment_values(tree) == values_before
    # idempotent once the balance is gone
    assert tree.range_query(0, 1) == (0, 0)
    assert tree.bal[5] == -2 and tree.bal[8] == -2 and tree.bal[9] == -2
    assert segment_values(tree) == values_before
    assert tree.range_query(0, 7) == (0, 2)


def test_query_requires_delimiters(demo):
    # a range is a non-empty run [lo, hi) of delimiter indices, 0 <= lo < hi <= 7
    tree = build_tree(demo)
    with pytest.raises(ValueError):
        tree.range_query(0, 8)  # past the last delimiter
    with pytest.raises(ValueError):
        tree.range_query(-1, 2)
    with pytest.raises(ValueError):
        tree.range_query(3, 3)
    with pytest.raises(ValueError):
        tree.range_decrement(5, 2)
    with pytest.raises(ValueError):
        tree.range_increment(0, 8)


def test_empty_input_rejected():
    from covprune import IntervalSet
    with pytest.raises(ValueError):
        build_tree(IntervalSet())
    with pytest.raises(ValueError):
        CoverageTree([])


def test_touched_counter_advances(demo):
    tree = build_tree(demo)
    assert tree.nodes_touched == 0
    tree.range_query(0, 7)
    assert tree.nodes_touched > 0


def test_increment_undoes_decrement(demo):
    tree = build_tree(demo)
    tree.range_decrement(1, 5)
    tree.range_increment(1, 5)
    assert segment_values(tree) == [2, 4, 4, 3, 4, 3, 2]
    assert tree.range_query(0, 7) == (2, 4)


def test_matches_flat_array_oracle():
    # random interleavings of decrements, increments and queries against plain lists
    rng = random.Random(97)
    for round_ in range(40):
        s = random_instance(rng, rng.randint(1, 25), max_coord=50, max_len=20)
        tree = build_tree(s)
        delims = sorted({c for pair in pairs_of(s) for c in pair})
        flat = segment_values(tree)
        spans = [(delims.index(a), delims.index(b)) for a, b in pairs_of(s)]
        for _ in range(120):
            lo, hi = spans[rng.randrange(len(spans))]
            draw = rng.random()
            if draw < 0.4:
                shift = tree.range_decrement if draw < 0.25 else tree.range_increment
                shift(lo, hi)
                flat_shift(flat, lo, hi, -1 if draw < 0.25 else 1)
            else:
                assert tree.range_query(lo, hi) == naive_range_min_max(flat, lo, hi)
        assert segment_values(tree) == flat
