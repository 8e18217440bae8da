import pickle
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from cordiality import (
    GraphError,
    Objective,
    from_edges,
    path_graph,
    random_connected_graph,
    spider_graph,
    star_graph,
    winning_family,
)
from cordiality.graphs import (
    MAX_VERTICES, component, cut_size_of_mask, edges_between, path_walk, vertex_mask,
)


def test_path_graph_shapes():
    assert path_graph(1).n == 1 and path_graph(1).edge_count == 0
    assert path_graph(4).edges == ((0, 1), (1, 2), (2, 3))
    p6 = path_graph(6)
    assert p6.n == 6 and p6.edge_count == 5
    assert path_graph(0).n == 0 and path_graph(0).edge_count == 0


def test_graphs_compare_hash_and_pickle_by_their_edges():
    a, b = path_graph(5), path_graph(5)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert path_graph(4) != path_graph(5)
    assert from_edges(3, [(0, 1)]) != from_edges(3, [(1, 2)])
    # the --jobs pool pickles each input graph to its worker
    for g in (a, star_graph(6), spider_graph([1, 2, 3]), path_graph(0)):
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and copy.adj == g.adj and hash(copy) == hash(g)


def test_graphs_are_immutable():
    g = path_graph(4)
    for field in ("n", "edges", "adj", "extra"):
        with pytest.raises(AttributeError):
            setattr(g, field, 0)
        with pytest.raises(AttributeError):
            delattr(g, field)
    assert g == path_graph(4) and g.adj == path_graph(4).adj


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


def test_graphs_above_the_vertex_limit_are_refused_before_their_edges_are_read():
    def unread():
        raise AssertionError("edges were read")
        yield

    with pytest.raises(GraphError, match="above the limit of 10000"):
        from_edges(MAX_VERTICES + 1, unread())
    for build in (path_graph, star_graph, lambda n: spider_graph([n - 1])):
        assert build(MAX_VERTICES).n == MAX_VERTICES
        with pytest.raises(GraphError, match="above the limit"):
            build(10**9)


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


def test_random_connected_graph_gives_up_after_capped_draws():
    # at p = 1e-9 a connected 4-vertex sample is practically unreachable
    with pytest.raises(GraphError, match="100000 draws"):
        random_connected_graph(4, 1e-9, random.Random(0))


def test_component_stays_inside_the_mask():
    g = path_graph(6)
    assert component(g, g.full_mask, 2) == g.full_mask
    assert component(g, vertex_mask({0, 1, 2, 4, 5}), 1) == vertex_mask({0, 1, 2})
    assert component(g, vertex_mask({0, 1, 2, 4, 5}), 5) == vertex_mask({4, 5})
    star = star_graph(5)
    assert component(star, vertex_mask({1, 2, 3}), 2) == vertex_mask({2})
    assert path_graph(3).is_connected() and path_graph(1).is_connected()
    assert not from_edges(4, [(0, 1), (2, 3)]).is_connected()


def test_path_walk_orders_from_either_end_or_refuses():
    g = from_edges(5, [(3, 0), (0, 4), (4, 1), (1, 2)])  # the path 3-0-4-1-2
    assert path_walk(g, g.full_mask, 3) == (3, 0, 4, 1, 2)
    assert path_walk(g, g.full_mask, 2) == (2, 1, 4, 0, 3)
    assert path_walk(g, vertex_mask({0, 4, 1}), 1) == (1, 4, 0)
    assert path_walk(g, vertex_mask({4}), 4) == (4,)
    assert path_walk(g, g.full_mask, 4) is None  # not an end
    assert path_walk(g, vertex_mask({3, 0, 1, 2}), 3) is None  # disconnected
    assert path_walk(g, vertex_mask({0, 1}), 2) is None  # start outside the mask
    spider = spider_graph([1, 1, 2])  # center 0 branches
    assert path_walk(spider, spider.full_mask, 1) is None
    assert path_walk(spider, vertex_mask({1, 0, 3, 4}), 1) == (1, 0, 3, 4)
    cycle = from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert all(path_walk(cycle, cycle.full_mask, v) is None for v in range(4))
    chord = from_edges(4, [(0, 1), (1, 2), (2, 3), (1, 3)])  # 0-1-2-3 plus 1-3
    assert path_walk(chord, chord.full_mask, 0) is None


def test_cut_size_known_values():
    assert cut_size_of_mask(path_graph(5), vertex_mask([0, 2, 4])) == 4
    assert cut_size_of_mask(path_graph(5), 0) == 0
    assert cut_size_of_mask(path_graph(6), vertex_mask([0, 1, 2])) == 1


def test_edges_between_counts_only_the_two_masks():
    # on the 6-path, 3-4 and 4-5 cross; 0-1 lies inside one mask, and 1-2
    # and 2-3 touch vertex 2, which is in neither
    g = path_graph(6)
    assert edges_between(g, vertex_mask([0, 1, 4]), vertex_mask([3, 5])) == 2
    assert edges_between(g, vertex_mask([3, 5]), vertex_mask([0, 1, 4])) == 2
    assert edges_between(g, vertex_mask([0, 1]), 0) == 0


def test_balanced_bipartition():
    # at k = |E| the winning family holds exactly the balanced parts
    def balanced(g, part):
        return vertex_mask(part) in winning_family(g, g.edge_count, Objective.CORDIALITY).members

    assert balanced(path_graph(4), [0, 2])
    assert not balanced(path_graph(5), [])
    assert balanced(path_graph(5), [0, 1, 2])


def test_cordial_labeling():
    # a zero side is cordial iff it is balanced and |e1 - e0| <= 1, that is,
    # a member of the winning family at k = 1
    def cordial(g, zero_side):
        return vertex_mask(zero_side) in winning_family(g, 1, Objective.CORDIALITY).members

    assert cordial(path_graph(3), [0, 1])
    assert not cordial(path_graph(3), [1])
    assert cordial(path_graph(0), [])


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
    cut = cut_size_of_mask(g, vertex_mask(subset))
    reference = nx.Graph()
    reference.add_nodes_from(range(g.n))
    reference.add_edges_from(g.edges)
    assert cut == nx.cut_size(reference, subset)
    assert cut == cut_size_of_mask(g, g.full_mask & ~vertex_mask(subset))
    # each degree in the subset counts its inside edges twice, its cut edges once
    assert cut % 2 == sum(g.degree(v) for v in subset) % 2
