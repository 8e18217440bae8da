"""Tree canonicalization, Prüfer decoding, and unlabeled-tree enumeration."""

from __future__ import annotations

import heapq
from typing import Iterator

from .graphs import Graph, GraphError, from_edges

MAX_ENUM_ORDER = 12


class NonTreeError(GraphError):
    """Operation requires a tree."""


def _bfs(nbrs: list[list[int]], root: int) -> tuple[list[int], list[int]]:
    """Each vertex's parent (the root's is -1), and the vertices in BFS order."""
    parent = [-1] * len(nbrs)
    order = [root]
    for v in order:
        up = parent[v]
        for u in nbrs[v]:
            if u != up:
                parent[u] = v
                order.append(u)
    return parent, order


def _centroids(nbrs: list[list[int]]) -> list[int]:
    n = len(nbrs)
    parent, order = _bfs(nbrs, 0)
    size = [1] * n
    heaviest = [0] * n  # largest child subtree
    for v in reversed(order):
        p = parent[v]
        if p >= 0:
            size[p] += size[v]
            heaviest[p] = max(heaviest[p], size[v])
    weight = [max(heaviest[v], n - size[v]) for v in range(n)]
    best = min(weight)
    return [v for v in range(n) if weight[v] == best]


def _canonical_code(nbrs: list[list[int]]) -> str:
    """The smallest centroid-rooted code of the tree with these neighbour lists.

    A rooted code is "(" + the sorted codes of the root's subtrees + ")",
    so it does not depend on the vertex numbering.
    """
    codes = []
    for root in _centroids(nbrs):
        parent, order = _bfs(nbrs, root)
        below: list[list[str]] = [[] for _ in nbrs]
        for v in reversed(order):
            kids = below[v]
            kids.sort()
            code = "(" + "".join(kids) + ")"
            if v != root:
                below[parent[v]].append(code)
        codes.append(code)  # the root comes last
    return min(codes)


def _neighbor_lists(g: Graph) -> list[list[int]]:
    if not g.is_tree():
        raise NonTreeError("canonical codes and centroids are defined for trees only")
    return [list(g.neighbors(v)) for v in range(g.n)]


def centroids(g: Graph) -> list[int]:
    """Vertices minimizing the largest component left by their removal.

    Every tree has one centroid or two adjacent ones.
    """
    return _centroids(_neighbor_lists(g))


def tree_canonical_code(g: Graph) -> str:
    """Canonical code rooted at the centroid (ties: lexicographically smaller);
    equal codes mean isomorphic trees."""
    return _canonical_code(_neighbor_lists(g))


def prufer_decode(seq: list[int], n: int) -> Graph:
    """The unique labeled tree on n vertices with the given sequence."""
    if n < 2:
        raise GraphError("sequences decode to trees on at least 2 vertices")
    if len(seq) != n - 2:
        raise GraphError(f"sequence length must be {n - 2}, got {len(seq)}")
    if any(not 0 <= x < n for x in seq):
        raise GraphError("sequence entries must lie in 0..n-1")
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return from_edges(n, edges)


def trees_by_order(max_n: int) -> Iterator[list[Graph]]:
    """``enumerate_trees(n)`` for n = 1, 2, ..., ``max_n``, growing each order once.

    Each class on ``size`` vertices is grown from the classes on ``size - 1``,
    in the order they were first seen, by attaching leaf ``size - 1`` to each
    vertex in turn; a candidate is kept, and its ``Graph`` built, only when
    its canonical code is new.  Each order is yielded sorted by code.
    """
    if not 1 <= max_n <= MAX_ENUM_ORDER:
        raise GraphError(f"supported range is 1..{MAX_ENUM_ORDER}")
    return _grow(max_n)


def _grow(max_n: int) -> Iterator[list[Graph]]:
    level = {"()": from_edges(1, [])}  # code -> representative, in first-seen order
    yield list(level.values())
    for size in range(2, max_n + 1):
        leaf = size - 1
        grown: dict[str, Graph] = {}
        for tree in level.values():
            # attach the leaf to each vertex in turn, in place
            nbrs = [list(tree.neighbors(v)) for v in range(leaf)] + [[]]
            for v in range(leaf):
                nbrs[v].append(leaf)
                nbrs[leaf].append(v)
                code = _canonical_code(nbrs)
                if code not in grown:
                    grown[code] = from_edges(size, tree.edges + ((v, leaf),))
                nbrs[v].pop()
                nbrs[leaf].pop()
        level = grown
        yield [level[code] for code in sorted(level)]


def enumerate_trees(n: int) -> list[Graph]:
    """One representative per isomorphism class of trees on n vertices,
    sorted by canonical code, so the order is deterministic.

    This drains ``trees_by_order(n)``; a caller that needs every order up to
    n should walk that generator instead of calling this once per order.
    """
    *_, trees = trees_by_order(n)
    return trees
