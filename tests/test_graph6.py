import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from cordiality import (
    Graph6Error,
    GraphError,
    emit_graph6,
    enumerate_trees,
    from_edges,
    parse_edge_list,
    parse_graph6,
    parse_graph6_file,
    path_graph,
)


def test_emit_known_strings():
    assert emit_graph6(path_graph(2)) == "A_"
    assert emit_graph6(from_edges(3, [(0, 1), (1, 2)])) == "Bg"


def test_round_trip_small_trees():
    for n in range(1, 9):
        for tree in enumerate_trees(n):
            assert parse_graph6(emit_graph6(tree)) == tree


def test_round_trip_matches_networkx():
    # networkx is an independent implementation of the same format
    for n in range(2, 9):
        for tree in enumerate_trees(n):
            ours = emit_graph6(tree)
            theirs = nx.to_graph6_bytes(
                nx.Graph(list(tree.edges)) if tree.edges else nx.empty_graph(tree.n),
                header=False,
            ).decode().strip()
            assert ours == theirs
            parsed = nx.from_graph6_bytes(ours.encode())
            assert set(map(frozenset, parsed.edges())) == set(map(frozenset, tree.edges))


def test_header_prefix_accepted():
    g = path_graph(4)
    assert parse_graph6(">>graph6<<" + emit_graph6(g)) == g


def test_long_form_vertex_count():
    g = from_edges(63, [(0, 62)])
    encoded = emit_graph6(g)
    assert encoded.startswith("~")
    assert parse_graph6(encoded) == g


def test_parse_errors_carry_offsets():
    with pytest.raises(Graph6Error) as err:
        parse_graph6("B\x07")
    assert err.value.offset == 1
    with pytest.raises(Graph6Error):
        parse_graph6("E")  # truncated bit vector for n = 6
    with pytest.raises(Graph6Error):
        parse_graph6(emit_graph6(path_graph(5)) + "AA")  # trailing data
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error, match="8-byte vertex counts") as err:
        parse_graph6("~~??????")
    assert err.value.offset == 1
    with pytest.raises(Graph6Error, match="truncated vertex count") as err:
        parse_graph6("~?")
    assert err.value.offset == 2


def test_file_errors_name_the_line_and_the_byte_once():
    with pytest.raises(Graph6Error) as err:
        parse_graph6_file("A_\nE\n")  # line 2 is truncated for n = 6
    assert err.value.offset == 1
    assert str(err.value) == "line 2: truncated bit vector: need 3 data bytes, got 0 (byte 1)"
    with pytest.raises(Graph6Error) as err:
        parse_graph6_file("E")
    assert str(err.value).count("(byte") == 1
    # a valid line for 10001 vertices is refused before its bits are read
    with pytest.raises(Graph6Error) as err:
        parse_graph6_file("A_\n~A[P" + "?" * ((10001 * 10000 // 2 + 5) // 6))
    assert str(err.value) == "line 2: graph has 10001 vertices, above the limit of 10000"


def test_edge_list_parsing():
    text = "# a comment\n0 1\n1 2   # trailing comment\n\n3 1\n"
    g = parse_edge_list(text)
    assert g.n == 4
    assert g.edges == ((0, 1), (1, 2), (1, 3))
    assert parse_edge_list("").n == 0
    with pytest.raises(GraphError, match="expected 'u v'"):
        parse_edge_list("0 1 2")
    with pytest.raises(GraphError, match="line 2: non-integer endpoint"):
        parse_edge_list("0 1\n1 x\n")
    with pytest.raises(GraphError, match="line 1: negative vertex index"):
        parse_edge_list("0 -1\n")


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=12),
    st.data(),
)
def test_round_trip_random_graphs(n, data):
    if n >= 2:
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=3 * n,
            )
        )
    else:
        pairs = []
    g = from_edges(n, pairs)
    assert parse_graph6(emit_graph6(g)) == g
