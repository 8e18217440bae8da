import random

import pytest
from hypothesis import given, settings, strategies as st

from cordiality import (
    GraphError,
    cut_stats,
    from_edges,
    is_balanced_bipartition,
    is_cordial_labeling,
    path_graph,
    random_connected_graph,
    spider_graph,
    star_graph,
)


def test_path_graph_shapes():
    assert path_graph(1).n == 1 and path_graph(1).edge_count == 0
    assert path_graph(4).edges == ((0, 1), (1, 2), (2, 3))
    p6 = path_graph(6)
    assert p6.n == 6 and p6.edge_count == 5
    assert path_graph(0).n == 0 and path_graph(0).edge_count == 0


def test_from_edges_validation_and_dedup():
    assert from_edges(2, [(0, 1)]).edges == ((0, 1),)
    star = from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert star.degree(0) == 3
    duplicated = from_edges(3, [(0, 1), (0, 1)])
    assert duplicated.edge_count == 1
    assert duplicated.degree(2) == 0
    with pytest.raises(GraphError):
        from_edges(3, [(0, 3)])
    with pytest.raises(GraphError):
        from_edges(3, [(1, 1)])


def test_random_connected_graph_refuses_probabilities_outside_unit_interval():
    # none of these is a probability; at 0, below 0 or nan no connected
    # sample on two or more vertices can occur, so the retries would never end
    rng = random.Random(0)
    for p in (0.0, -0.5, 1.5, float("nan"), float("inf")):
        for n in (2, 5):
            with pytest.raises(GraphError, match="edge probability"):
                random_connected_graph(n, p, rng)
    assert random_connected_graph(1, 0.0, rng).n == 1
    assert random_connected_graph(4, 1.0, rng).edge_count == 6


def test_cut_stats_known_values():
    stats = cut_stats(path_graph(5), [0, 2, 4])
    assert (stats.cut, stats.signed) == (4, 4)
    empty = cut_stats(path_graph(5), [])
    assert (empty.cut, empty.signed) == (0, -4)
    prefix = cut_stats(path_graph(6), [0, 1, 2])
    assert (prefix.cut, prefix.signed) == (1, -3)


def test_balanced_bipartition():
    assert is_balanced_bipartition(path_graph(4), [0, 2])
    assert not is_balanced_bipartition(path_graph(5), [])
    assert is_balanced_bipartition(path_graph(5), [0, 1, 2])


def test_cordial_labeling():
    assert is_cordial_labeling(path_graph(3), [0, 1])
    assert not is_cordial_labeling(path_graph(3), [1])
    assert is_cordial_labeling(path_graph(0), [])


def test_spider_and_star():
    spider = spider_graph([1, 1, 2])
    assert spider.n == 5 and spider.degree(0) == 3
    assert star_graph(4).edges == ((0, 1), (0, 2), (0, 3))


@st.composite
def graph_and_subset(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=2 * n,
        )
    )
    subset = draw(st.sets(st.integers(0, n - 1)))
    return from_edges(n, pairs), subset


@settings(max_examples=80, deadline=None)
@given(graph_and_subset())
def test_cut_invariants(case):
    g, subset = case
    stats = cut_stats(g, subset)
    complement = cut_stats(g, set(range(g.n)) - subset)
    assert stats.cut == complement.cut
    assert stats.signed == complement.signed
    assert stats.e0 + stats.e1 == g.edge_count
    assert stats.signed == stats.e1 - stats.e0
    assert stats.signed % 2 == g.edge_count % 2
