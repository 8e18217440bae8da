"""Tree canonicalization, Prüfer decoding, and unlabeled-tree enumeration."""

from __future__ import annotations

import heapq

from .graphs import Graph, GraphError, from_edges

MAX_ENUM_ORDER = 12


class NonTreeError(GraphError):
    """Operation requires a tree."""


def _rooted_bfs(g: Graph, root: int) -> tuple[dict[int, int], list[int]]:
    """Each reachable vertex's parent (the root's is -1), and the vertices in BFS order."""
    parent = {root: -1}
    order = [root]
    for v in order:
        for u in g.neighbors(v):
            if u not in parent:
                parent[u] = v
                order.append(u)
    return parent, order


def centroids(g: Graph) -> list[int]:
    """Vertices minimizing the largest component left by their removal.

    Every tree has one centroid or two adjacent ones.
    """
    if not g.is_tree():
        raise NonTreeError("centroid is defined for trees only")
    if g.n <= 2:
        return list(range(g.n))
    parent, order = _rooted_bfs(g, 0)
    size = [1] * g.n
    heaviest = [0] * g.n  # largest child subtree
    for v in reversed(order):
        p = parent[v]
        if p >= 0:
            size[p] += size[v]
            heaviest[p] = max(heaviest[p], size[v])
    weight = [max(heaviest[v], g.n - size[v]) for v in range(g.n)]
    best = min(weight)
    return [v for v in range(g.n) if weight[v] == best]


def _rooted_code(g: Graph, root: int) -> str:
    # Iterative post-order; children codes are sorted so the code is
    # invariant under relabeling.
    parent, order = _rooted_bfs(g, root)
    codes: dict[int, str] = {}
    for v in reversed(order):
        children = sorted(codes[u] for u in g.neighbors(v) if parent.get(u) == v)
        codes[v] = "(" + "".join(children) + ")"
    return codes[root]


def tree_canonical_code(g: Graph) -> str:
    """Canonical code rooted at the centroid (ties: lexicographically smaller);
    equal codes mean isomorphic trees."""
    return min(_rooted_code(g, c) for c in centroids(g))


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


def enumerate_trees(n: int) -> list[Graph]:
    """One representative per isomorphism class of trees on n vertices.

    Grows representatives by attaching a new leaf to every vertex of every
    class on n-1 vertices and deduplicating by canonical code.  Output is
    sorted by code, so the order is deterministic.
    """
    if not 1 <= n <= MAX_ENUM_ORDER:
        raise GraphError(f"supported range is 1..{MAX_ENUM_ORDER}")
    reps = {"()": from_edges(1, [])}
    for size in range(2, n + 1):
        grown: dict[str, Graph] = {}
        for tree in reps.values():
            for v in range(tree.n):
                bigger = from_edges(size, list(tree.edges) + [(v, size - 1)])
                code = tree_canonical_code(bigger)
                if code not in grown:
                    grown[code] = bigger
        reps = grown
    return [reps[code] for code in sorted(reps)]
