"""Executable labeling strategies with verifiable worst-case guarantees.

Every strategy is one ``PairingStrategy``: a flat tuple of parts, each a
territory of host vertices and the name of a pairing over it.  A path
peels six-vertex parts off its end; a tree peels the branch shapes of
``branching`` one at a time and puts the path parts of what is left first.
One rule plays every part.  The opening goes to part 0, an opponent move
is answered in its own part while that part has a free vertex, and
otherwise the reply opens the lowest part with a free vertex.  A part
therefore sees three local move orders: the zero player opens, the
opponent opens, or the opponent opens and later the zero player moves
twice in a row (local pass).

Inside its part the strategy takes one label in each set of the pairing,
following the opponent into the set they just played, then the first set
still lacking a zero label, then the first free position.  The reply to
the opponent's label in a set without a zero label is another label of
that set, so in every local order each set of two or more positions ends
with a zero label, and each pairing is chosen so that every such
labelling keeps its part within bound.  A strategy reads only the
position's label masks and the last move and holds no state, so a sweep
memoizes on the position alone.  The pairings cover the parts of one or
two vertices (two leaves under one center and the balance pairs
included), the 3- to 6-paths, two 2-arms, a leaf beside a 3-arm and two
3-arms.

The one-player balance strategy plays the path's vertex pairs (n-2, n-1),
(n-4, n-3), ... (and vertex 0 alone when n is odd) as parts.  Each pair
takes its highest free vertex, so the pair's edge always gets labeled 1,
whether the strategy answers in the pair or opens it at the far end.
"""

from __future__ import annotations

from .branching import BranchDecomposition, find_branch_in
from .game import Move, Player
from .graphs import Graph, GraphError, iter_bits, path_walk, vertex_mask
from .trees import NonTreeError


class StrategyError(RuntimeError):
    """A strategy produced no move or an illegal one; always a bug."""


class Strategy:
    """Deterministic move policy for one side of the game."""

    role: Player = Player.ZERO
    provenance: str = "abstract"

    def choose(self, zero: int, one: int, passes: int, last_move: Move) -> Move:
        """The move at the position with 0-labelled vertex mask ``zero``,
        1-labelled mask ``one`` and ``passes`` passes spent; ``last_move``
        is the move just played, or None when nothing has been played yet
        or the opponent passed (``passes`` tells the two apart)."""
        raise NotImplementedError


_PAIRINGS = {
    # any move is optimal on a 1 or 2 vertex path component; on two leaves
    # under one center (branch case 2) it takes the sibling of the
    # opponent's leaf; a balance pair lists its far end first, so it takes
    # the highest free vertex there
    "exact-tiny": (frozenset({1, 2}),),
    # the 3-path a-b-c: take the middle when opening, avoid it when answering
    "path-script-3": (frozenset({2}), frozenset({1, 3})),
    # a label in each alternating class holds the 4-path's discrepancy to 1
    # and the 5-path's to 2
    "path-script-4": (frozenset({1, 3}), frozenset({2, 4})),
    "path-script-5": (frozenset({1, 3, 5}), frozenset({2, 4})),
    # two 2-arms (1,2) and (3,4), with 2 and 3 beside the center v: one of
    # {2,3} cancels the two center edges, leaving at most 2 from the outer
    "twin-2-arms": (frozenset({2, 3}), frozenset({1, 4})),
    # a leaf and a 3-arm: one label per pair balances the two center edges
    # and bounds the arm edges by 2
    "leaf-and-3-arm": (frozenset({1, 2}), frozenset({3, 4})),
    # six positions: each of the 8 transversals (one label per pair)
    # completes none of the 6-path's eight discrepancy >= 3 sets, so the
    # path ends at discrepancy 1; on two 3-arms (1,2,3) and (4,5,6) under a
    # center, 1 and 4 beside it, each lies in ``CASE6_WINNING_SETS``
    "path-script-6": (frozenset({1, 3}), frozenset({2, 5}), frozenset({4, 6})),
    "twin-3-arms": (frozenset({1, 3}), frozenset({2, 5}), frozenset({4, 6})),
}

# two 3-arms (1,2,3) and (4,5,6) under one center, 1 and 4 beside it: the
# zero sets of three positions that keep the seven branch edges within
# discrepancy 2 whatever the center's label, split across the two center
# neighbours or not
_CASE6_WIN_SPLIT = (
    frozenset({1, 2, 5}), frozenset({1, 2, 6}), frozenset({1, 3, 6}),
    frozenset({1, 5, 6}), frozenset({2, 3, 4}), frozenset({2, 4, 5}),
    frozenset({3, 4, 5}), frozenset({3, 4, 6}),
)
_CASE6_WIN_EVEN = (
    frozenset({1, 2, 4}), frozenset({1, 4, 5}),
    frozenset({2, 3, 6}), frozenset({3, 5, 6}),
)
CASE6_WINNING_SETS = _CASE6_WIN_SPLIT + _CASE6_WIN_EVEN


class PairingStrategy(Strategy):
    """Play a flat tuple of parts, each ``(host vertices, pairing name)``.

    A part's positions are 1-based, host i being position i + 1, and
    ``_PAIRINGS`` names the pairings.  A pairing's sets are disjoint and
    cover its part, so the last move prompts one set.  The strategy reads
    the position from the zero player's side: a set holding a 0 label is
    done (the balance strategy's pairs read only which positions are free).

    Parts are answered at once, so the opponent can close a part only when
    every lower part is already full; a free lower part means the pairing
    discipline was broken.  A split of more than one part is built for a
    pass-free game the zero player opens; one part plays on after a pass.
    """

    def __init__(self, parts, provenance: str, role: Player = Player.ZERO):
        self.parts = tuple((tuple(hosts), name) for hosts, name in parts)
        self.provenance = provenance
        self.role = role
        self._masks = tuple(vertex_mask(hosts) for hosts, _ in self.parts)
        self._part_of = {}
        # each part's sets, and each vertex's set, as the set's host mask and
        # its hosts in position order
        self._sets = []
        self._set_of = {}
        for k, (hosts, name) in enumerate(self.parts):
            self._part_of.update(dict.fromkeys(hosts, k))
            sets = []
            for pair in _PAIRINGS[name]:
                set_hosts = tuple(hosts[p - 1] for p in sorted(pair) if p <= len(hosts))
                sets.append((vertex_mask(set_hosts), set_hosts))
                self._set_of.update(dict.fromkeys(set_hosts, sets[-1]))
            self._sets.append(sets)

    def choose(self, zero, one, passes, last_move):
        free = ~(zero | one)
        if last_move is None:
            if len(self.parts) > 1:
                if passes:
                    raise StrategyError(f"{self.provenance}: built for pass-free variants")
                if zero | one:
                    raise StrategyError(f"{self.provenance}: unprompted move mid-game")
                if self.role is not Player.ZERO:
                    raise StrategyError(f"{self.provenance}: expects the opponent to start")
            k = 0
        else:
            # the prompted set lies in the last move's part
            mask, hosts = self._set_of[last_move]
            if free & mask and not zero & mask:
                for v in hosts:
                    if free >> v & 1:
                        return v
            k = self._part_of[last_move]
        if not self._masks[k] & free:
            for j, mask in enumerate(self._masks):
                if mask & free:
                    if j < k:
                        raise StrategyError(
                            f"{self.provenance}: part {j} left open below the closed part "
                            f"{k}; the pairing discipline was broken"
                        )
                    k = j
                    break
        for mask, hosts in self._sets[k]:
            if free & mask and not zero & mask:
                break
        else:
            hosts = self.parts[k][0]
        for v in hosts:
            if free >> v & 1:
                return v
        raise StrategyError(f"{self.provenance}: no free vertex to play")


# the pairing of a path part by its vertex count
_PATH_SCRIPTS = {1: "exact-tiny", 2: "exact-tiny", 3: "path-script-3",
                 4: "path-script-4", 5: "path-script-5", 6: "path-script-6"}


def _path_parts(ordered: tuple[int, ...]) -> list[tuple]:
    """A path's parts in play order: its first 1 to 6 vertices, then
    six-vertex ``path-script-6`` parts to its end."""
    head = (len(ordered) - 1) % 6 + 1
    parts = [(ordered[:head], _PATH_SCRIPTS[head])]
    parts += [(ordered[s:s + 6], "path-script-6") for s in range(head, len(ordered), 6)]
    return parts


def path_strategy(n: int) -> Strategy:
    """Zero-player strategy for the path on n vertices.

    Peels six-vertex parts off the end of the path and plays the first 1
    to 6 vertices as one more part, answering the opponent part-for-part.
    Against any play of the maximizer in the zero-starts game its final
    discrepancy is within ``path_bound(n)``.  For n <= 6 it is a single
    pairing, which meets the path's value in every variant.
    """
    if n < 3:
        raise GraphError("path strategy needs at least 3 vertices")
    parts = _path_parts(tuple(range(n)))
    return PairingStrategy(parts, parts[0][1] if len(parts) == 1 else "split-path")


def _induced_path_order(g: Graph, mask: int) -> tuple[int, ...] | None:
    """The vertices of ``mask`` from its lower path end, or None if not a path."""
    ends = [v for v in iter_bits(mask) if (g.adj[v] & mask).bit_count() <= 1]
    return path_walk(g, mask, ends[0]) if ends else None


# a branch case's part: its roles in position order, and its pairing
_CASE_SCRIPTS = {
    1: (("v1", "v2", "v3", "v4"), "path-script-4"),
    2: (("v1", "v2"), "exact-tiny"),
    3: (("v1", "v2", "v3", "v4"), "twin-2-arms"),
    4: (("v4", "v1", "v2", "v3"), "path-script-4"),
    5: (("v1", "v2", "v3", "v4"), "leaf-and-3-arm"),
    6: (("v1", "v2", "v3", "v4", "v5", "v6"), "twin-3-arms"),
    7: (("v3", "v2", "v1", "v4", "v5", "v6"), "path-script-6"),
}


def branch_script(decomposition: BranchDecomposition) -> tuple:
    """The part of a decomposed branch's interior: its hosts and pairing."""
    roles, name = _CASE_SCRIPTS[decomposition.case_id]
    return tuple(decomposition.roles[r] for r in roles), name


def tree_strategy(t: Graph) -> Strategy:
    """Zero-player strategy for a tree; worst case within n/2.

    Peels one branch shape at a time (see ``branching``) until a path is
    left.  The path's parts come first and the branches follow, the last
    peeled first; each branch interior is one part with its case's pairing.
    """
    if not t.is_tree():
        raise NonTreeError("tree strategy needs a tree")
    branches = []
    mask = t.full_mask
    while (order := _induced_path_order(t, mask)) is None:
        decomposition = find_branch_in(t, mask)
        branches.append(branch_script(decomposition))
        mask = decomposition.remainder_mask
    parts = _path_parts(order) + branches[::-1]
    provenance = "split-tree" if branches else "split-path"
    return PairingStrategy(parts, parts[0][1] if len(parts) == 1 else provenance)


def balance_maximizer_strategy(n: int) -> Strategy:
    """One-player strategy for the zero-starts balance game on the path.

    Its parts are vertex 0 alone when n is odd and then the pairs
    (n % 2, n % 2 + 1), ..., (n - 2, n - 1), each listed far end first.
    """
    if n < 2:
        raise GraphError("balance strategy needs at least 2 vertices")
    parts = [((0,), "exact-tiny")] if n % 2 else []
    parts += [((v + 1, v), "exact-tiny") for v in range(n % 2, n, 2)]
    return PairingStrategy(parts, "balance-pair-split", role=Player.ONE)


def suffix_pair_edge(n: int) -> tuple[int, int]:
    """The path edge the balance strategy always gets labeled 1."""
    return (n - 2, n - 1)


def path_bound(n: int) -> int:
    """Guaranteed-achievable path discrepancy bound, mod-3 form."""
    return {0: (n - 3) // 3, 1: (n - 1) // 3, 2: (n + 1) // 3}[n % 3]


def tree_bound(n: int) -> int:
    """Guaranteed-achievable tree discrepancy bound."""
    return n // 2
