"""Immutable simple undirected graphs, generators and the cut count.

Vertex sets are bitmasks (bit i is vertex i).  ``component`` and
``path_walk`` are the one flood fill and the one path walk inside such a
mask; connectivity checks, the branch decomposition and the strategies'
territories all use them.  ``edges_between`` is the one edge count across
two vertex masks: the zero and one labels of a position give its label-1
(cut) edges so far, and ``cut_size_of_mask`` applies it to a labelling's
zero side and the rest, for the signed score 2*cut - |E|.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    import random


class GraphError(ValueError):
    """Malformed graph construction input."""


# a tiny positive edge probability makes a connected sample practically
# unreachable; past this many draws the sampler gives up
MAX_CONNECT_DRAWS = 100_000

# each neighbor mask is as wide as the graph, so a graph costs O(n^2) bits;
# no graph above this order is built (it is also the solver's --force cap)
MAX_VERTICES = 10_000


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    ``edges`` is a sorted tuple of (u, v) pairs with u < v, duplicates
    collapsed.  ``adj`` holds one neighbor bitmask per vertex and is fully
    determined by ``edges``, so equality and hashing read ``(n, edges)``.
    Instances are immutable and safe to share across workers; ``__reduce__``
    is what pickles one for a pool.

    A slotted class rather than a named tuple: the branching, tree
    enumeration and flood-fill loops read ``g.adj`` over and over, and a
    slot is read about twice as fast as a named-tuple field.
    """

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...], adj: tuple[int, ...]):
        init = object.__setattr__
        init(self, "n", n)
        init(self, "edges", edges)
        init(self, "adj", adj)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"Graph is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Graph is immutable: cannot delete {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not Graph:
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __reduce__(self):
        return Graph, (self.n, self.edges, self.adj)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> Iterator[int]:
        return iter_bits(self.adj[v])

    def is_connected(self) -> bool:
        return self.n <= 1 or component(self, self.full_mask, 0) == self.full_mask

    def is_tree(self) -> bool:
        return self.n >= 1 and len(self.edges) == self.n - 1 and self.is_connected()

    def is_path(self) -> bool:
        return self.is_tree() and all(self.degree(v) <= 2 for v in range(self.n))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, edges={list(self.edges)})"


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def component(g: Graph, mask: int, start: int) -> int:
    """The vertices of ``mask`` reachable from ``start`` inside ``mask``, as a mask."""
    seen = frontier = 1 << start
    while frontier:
        reach = 0
        for v in iter_bits(frontier):
            reach |= g.adj[v]
        frontier = reach & mask & ~seen
        seen |= frontier
    return seen


def path_walk(g: Graph, mask: int, start: int) -> tuple[int, ...] | None:
    """The vertices of ``mask`` in path order from ``start``.

    None unless ``mask`` induces a path with ``start`` at one end: each
    step must find exactly one unvisited neighbor inside ``mask``, so a
    branching vertex, a chord or cycle, or a second component all fail.
    """
    if not mask >> start & 1:
        return None
    order = [start]
    left = mask ^ 1 << start
    cur = start
    while left:
        ahead = g.adj[cur] & left
        if not ahead or ahead & (ahead - 1):
            return None
        cur = ahead.bit_length() - 1
        order.append(cur)
        left ^= ahead
    return tuple(order)


def vertex_mask(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def from_edges(n: int, pairs: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list, validating and deduplicating.

    Raises GraphError on out-of-range endpoints or self-loops, and on an
    ``n`` above ``MAX_VERTICES`` before reading ``pairs``.
    """
    if n < 0:
        raise GraphError("vertex count must be non-negative")
    if n > MAX_VERTICES:
        raise GraphError(f"graph has {n} vertices, above the limit of {MAX_VERTICES}")
    seen: set[tuple[int, int]] = set()
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        seen.add((u, v) if u < v else (v, u))
    edges = tuple(sorted(seen))
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, edges, tuple(adj))


def path_graph(n: int) -> Graph:
    """The path v0-v1-...-v(n-1); n = 0 gives the empty graph."""
    if n < 0:
        raise GraphError("vertex count must be non-negative")
    return from_edges(n, ((i, i + 1) for i in range(n - 1)))


def star_graph(n: int) -> Graph:
    """Star with center 0 and n-1 leaves."""
    if n < 1:
        raise GraphError("star needs at least one vertex")
    return from_edges(n, ((0, i) for i in range(1, n)))


def spider_graph(leg_lengths: Sequence[int]) -> Graph:
    """Paths of the given lengths all attached to a shared center 0."""
    if any(k < 1 for k in leg_lengths):
        raise GraphError("leg lengths must be positive")

    def legs():
        nxt = 1
        for k in leg_lengths:
            prev = 0
            for _ in range(k):
                yield prev, nxt
                prev = nxt
                nxt += 1

    return from_edges(1 + sum(leg_lengths), legs())


def edges_between(g: Graph, a: int, b: int) -> int:
    """Number of edges with one endpoint in ``a`` and the other in ``b``,
    for disjoint vertex masks ``a`` and ``b``."""
    adj = g.adj
    total = 0
    while a:
        low = a & -a
        a ^= low
        total += (adj[low.bit_length() - 1] & b).bit_count()
    return total


def cut_size_of_mask(g: Graph, mask: int) -> int:
    """Number of edges with exactly one endpoint in ``mask``."""
    return edges_between(g, mask, ~mask)


def random_connected_graph(n: int, p: float, rng: random.Random) -> Graph:
    """Seeded G(n, p) sample, retried until connected, at most ``MAX_CONNECT_DRAWS`` times."""
    if n < 1:
        raise GraphError("need at least one vertex")
    if n >= 2 and not 0 < p <= 1:  # also refuses nan
        # at p <= 0 or nan no connected sample can occur and the retries would never end
        raise GraphError(f"edge probability must be in (0, 1], got {p}")
    for _ in range(MAX_CONNECT_DRAWS):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = from_edges(n, pairs)
        if g.is_connected():
            return g
    raise GraphError(
        f"no connected G({n}, {p}) sample in {MAX_CONNECT_DRAWS} draws; raise the edge probability"
    )
