import hashlib

import pytest

from cordiality import (
    Graph,
    GraphError,
    NonTreeError,
    centroids,
    emit_graph6,
    enumerate_trees,
    from_edges,
    path_graph,
    prufer_decode,
    star_graph,
    tree_canonical_code,
    trees_by_order,
)
from cordiality.trees import MAX_ENUM_ORDER

# number of unlabeled trees per order (classic counting sequence)
TREE_CLASS_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235}


def test_enumeration_counts():
    for n, count in TREE_CLASS_COUNTS.items():
        assert len(enumerate_trees(n)) == count


def test_enumeration_members_are_trees_without_duplicates():
    for n in range(1, 10):
        trees = enumerate_trees(n)
        codes = [tree_canonical_code(t) for t in trees]
        assert len(set(codes)) == len(trees)
        for t in trees:
            assert t.is_tree()
            assert t.edge_count == n - 1


# sha256 of ``cordiality trees N`` (one graph6 line per tree): the
# representatives, their vertex numbering and their order.  The pinned
# tree-bound verify output depends on all three.
TREES_OUTPUT_SHA256 = {
    10: "ef662765a76f235191e179792663d7e711f5f9b20c0a9c590c28163476eaf94c",
    12: "366906f752d80ec1fce983a77e8cc37e922e76a93e4130415b0253603afc461e",
}


def test_enumeration_output_is_pinned():
    for n, digest in TREES_OUTPUT_SHA256.items():
        text = "".join(emit_graph6(t) + "\n" for t in enumerate_trees(n))
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest, n


def test_order_walk_yields_each_enumeration():
    walked = list(trees_by_order(MAX_ENUM_ORDER))
    assert len(walked) == MAX_ENUM_ORDER
    for n, trees in enumerate(walked, 1):
        assert trees == enumerate_trees(n), n


def enumerate_trees_via_prufer(n: int) -> list[Graph]:
    """Classes of trees on n vertices by decoding every Prüfer sequence.

    Exponential in n; useful as an independent cross-check of
    ``enumerate_trees`` for small n.
    """
    if n == 1:
        return [from_edges(1, [])]
    if n == 2:
        return [from_edges(2, [(0, 1)])]
    reps: dict[str, Graph] = {}
    seq = [0] * (n - 2)
    while True:
        tree = prufer_decode(seq, n)
        code = tree_canonical_code(tree)
        if code not in reps:
            reps[code] = tree
        i = n - 3
        while i >= 0 and seq[i] == n - 1:
            seq[i] = 0
            i -= 1
        if i < 0:
            break
        seq[i] += 1
    return [reps[code] for code in sorted(reps)]


def test_enumeration_agrees_with_prufer_sweep():
    for n in range(2, 8):
        grown = {tree_canonical_code(t) for t in enumerate_trees(n)}
        swept = {tree_canonical_code(t) for t in enumerate_trees_via_prufer(n)}
        assert grown == swept


def test_enumeration_range_check():
    with pytest.raises(GraphError):
        enumerate_trees(0)
    with pytest.raises(GraphError):
        enumerate_trees(13)
    # the walk refuses when called, before it is iterated
    with pytest.raises(GraphError):
        trees_by_order(0)
    with pytest.raises(GraphError):
        trees_by_order(MAX_ENUM_ORDER + 1)


def test_canonical_code_isomorphism_invariance():
    p4 = path_graph(4)
    relabeled = from_edges(4, [(2, 0), (0, 3), (3, 1)])  # 2-0-3-1 path
    assert tree_canonical_code(p4) == tree_canonical_code(relabeled)
    assert tree_canonical_code(p4) != tree_canonical_code(star_graph(4))
    assert tree_canonical_code(path_graph(1)) == "()"


def test_canonical_code_rejects_non_trees():
    cycle = from_edges(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(NonTreeError):
        tree_canonical_code(cycle)


def test_centroids():
    assert centroids(path_graph(4)) == [1, 2]
    assert centroids(path_graph(5)) == [2]
    assert centroids(star_graph(5)) == [0]
    # a star with a tail: the centroid shifts into the tail, and is unique
    lopsided = from_edges(7, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6)])
    weightiest = centroids(lopsided)
    assert len(weightiest) in (1, 2)


def test_prufer_decode_known():
    assert prufer_decode([], 2) == path_graph(2)
    star = prufer_decode([1, 1], 4)
    assert star.degree(1) == 3
    assert prufer_decode([1, 2], 4).edges == ((0, 1), (1, 2), (2, 3))


def test_prufer_decode_validation():
    with pytest.raises(GraphError):
        prufer_decode([0], 2)
    with pytest.raises(GraphError):
        prufer_decode([5], 3)
    with pytest.raises(GraphError):
        prufer_decode([], 1)
