"""Executable labeling strategies with verifiable worst-case guarantees.

Every composite strategy is one ``SplitStrategy``: a flat tuple of
territories, each a vertex set played by one ``PairScript``.  A path peels
six-vertex parts off its end; a tree peels the branch shapes of
``branching`` one at a time and puts the path parts of what is left first.
One territory rule plays every split: the opening goes to part 0, an
opponent move is answered in its own part while that part has a free
vertex, and otherwise the reply opens the lowest part with a free vertex.
A part therefore sees three local move orders: the zero player opens, the
opponent opens, or the opponent opens and later the zero player moves
twice in a row (local pass).

Every script is a pairing: take one label in each of a few position sets,
following the opponent into the set they just played, then the lowest free
position.  The reply to the opponent's label in a set without a zero label
is another label of that set, so in every local order each set of two or
more positions ends with a zero label, and each pairing is chosen so that
every such labelling keeps its part within bound.  A script reads only the
position's label masks and the last move; no strategy holds state, so a
sweep memoizes on the position alone.
The pairings cover the parts of one or two vertices (two leaves under one
center and the balance pairs included), the 3- to 6-paths, two 2-arms, a
leaf beside a 3-arm and two 3-arms.

The one-player balance strategy is the same split, with the path's vertex
pairs (n-2, n-1), (n-4, n-3), ... (and vertex 0 alone when n is odd) as
territories.  Each pair takes its highest free vertex, so the pair's edge
always gets labeled 1, whether the strategy answers in the pair or opens
it at the far end.
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


class PairScript(Strategy):
    """Take one label in each set of a pairing over a fixed tuple of host
    vertices, following the opponent into the set they just played, then
    the lowest free position.

    Positions are 1-based, ``verts[i]`` being position i + 1, and
    ``_PAIRINGS`` names the pairings by provenance.  The script reads the
    position from the zero player's side: a set holding a 0 label is done
    (the balance strategy's pairs read only which positions are free).
    """

    def __init__(self, verts, provenance: str):
        self.verts = tuple(verts)
        self.provenance = provenance
        # each set as its host mask and its host vertices in position order
        self._pairs = []
        for pair in _PAIRINGS[provenance]:
            hosts = tuple(self.verts[p - 1] for p in sorted(pair) if p <= len(self.verts))
            self._pairs.append((vertex_mask(hosts), hosts))

    def choose(self, zero, one, passes, last_move):
        free = ~(zero | one)
        prompt = 0 if last_move is None else 1 << last_move
        lacking = None  # the set to play: the prompted one, else the first
        for mask, hosts in self._pairs:
            if free & mask and not zero & mask:
                if mask & prompt:
                    lacking = hosts
                    break
                lacking = lacking or hosts
        for v in lacking or self.verts:
            if free >> v & 1:
                return v
        raise StrategyError(f"{self.provenance}: asked to move with no free vertex")


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


class SplitStrategy(Strategy):
    """Play a flat tuple of territories, one script per part.

    The opening goes to part 0.  An opponent move is answered in its own
    part while that part has a free vertex; otherwise the reply opens the
    lowest part with a free vertex, which its script experiences as a
    local pass.  Parts are answered at once, so the opponent can close a
    part only when every lower part is already full; a free lower part
    means the pairing discipline was broken.
    """

    def __init__(self, parts, provenance: str, role: Player = Player.ZERO):
        self.parts = tuple(parts)
        self.provenance = provenance
        self.role = role
        self._masks = tuple(vertex_mask(part.verts) for part in self.parts)
        self._part_of = {v: k for k, part in enumerate(self.parts) for v in part.verts}
        # part k's move by (k, its zero labels, its one labels, the last
        # move's vertex): everything its script reads
        self._moves: dict[tuple, Move] = {}

    def choose(self, zero, one, passes, last_move):
        occupied = zero | one
        if last_move is None:
            if passes:
                raise StrategyError(f"{self.provenance}: built for pass-free variants")
            if occupied:
                raise StrategyError(f"{self.provenance}: unprompted move mid-game")
            if self.role is not Player.ZERO:
                raise StrategyError(f"{self.provenance}: expects the opponent to start")
            return self.parts[0].choose(zero, one, passes, None)
        free = ~occupied
        k = self._part_of[last_move]
        if self._masks[k] & free:
            return self._part_move(k, zero, one, passes, last_move)
        for j, mask in enumerate(self._masks):
            if mask & free:
                if j < k:
                    raise StrategyError(
                        f"{self.provenance}: part {j} left open below the closed part {k}; "
                        "the pairing discipline was broken"
                    )
                return self._part_move(j, zero, one, passes, last_move)
        raise StrategyError(f"{self.provenance}: no free vertex to play")

    def _part_move(self, k: int, zero: int, one: int, passes: int, last_move: Move) -> Move:
        mask = self._masks[k]
        key = (k, zero & mask, one & mask, last_move)
        move = self._moves.get(key)
        if move is None:
            move = self._moves[key] = self.parts[k].choose(zero, one, passes, last_move)
        return move


# the pairing of a path part by its vertex count
_PATH_SCRIPTS = {1: "exact-tiny", 2: "exact-tiny", 3: "path-script-3",
                 4: "path-script-4", 5: "path-script-5", 6: "path-script-6"}


def _path_parts(ordered: tuple[int, ...]) -> list[Strategy]:
    """A path's territories in play order: its first 1 to 6 vertices, then
    six-vertex ``path-script-6`` parts to its end."""
    head = (len(ordered) - 1) % 6 + 1
    parts = [PairScript(ordered[:head], _PATH_SCRIPTS[head])]
    for start in range(head, len(ordered), 6):
        parts.append(PairScript(ordered[start:start + 6], "path-script-6"))
    return parts


def _split(parts: list[Strategy], provenance: str) -> Strategy:
    return parts[0] if len(parts) == 1 else SplitStrategy(parts, provenance)


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
    return _split(_path_parts(tuple(range(n))), "split-path")


def _induced_path_order(g: Graph, mask: int) -> tuple[int, ...] | None:
    """The vertices of ``mask`` from its lower path end, or None if not a path."""
    ends = [v for v in iter_bits(mask) if (g.adj[v] & mask).bit_count() <= 1]
    return path_walk(g, mask, ends[0]) if ends else None


# a branch case's script: its roles in position order, and its pairing
_CASE_SCRIPTS = {
    1: (("v1", "v2", "v3", "v4"), "path-script-4"),
    2: (("v1", "v2"), "exact-tiny"),
    3: (("v1", "v2", "v3", "v4"), "twin-2-arms"),
    4: (("v4", "v1", "v2", "v3"), "path-script-4"),
    5: (("v1", "v2", "v3", "v4"), "leaf-and-3-arm"),
    6: (("v1", "v2", "v3", "v4", "v5", "v6"), "twin-3-arms"),
    7: (("v3", "v2", "v1", "v4", "v5", "v6"), "path-script-6"),
}


def branch_script(decomposition: BranchDecomposition) -> Strategy:
    """The scripted policy for the interior of a decomposed branch."""
    roles, provenance = _CASE_SCRIPTS[decomposition.case_id]
    return PairScript(tuple(decomposition.roles[r] for r in roles), provenance)


def tree_strategy(t: Graph) -> Strategy:
    """Zero-player strategy for a tree; worst case within n/2.

    Peels one branch shape at a time (see ``branching``) until a path is
    left.  The path's parts come first and the branches follow, the last
    peeled first; each branch interior is played by its script.
    """
    if not t.is_tree():
        raise NonTreeError("tree strategy needs a tree")
    branches = []
    mask = t.full_mask
    while (order := _induced_path_order(t, mask)) is None:
        decomposition = find_branch_in(t, mask)
        branches.append(branch_script(decomposition))
        mask = decomposition.remainder_mask
    return _split(_path_parts(order) + branches[::-1], "split-tree" if branches else "split-path")


def balance_maximizer_strategy(n: int) -> Strategy:
    """One-player strategy for the zero-starts balance game on the path.

    Its parts are vertex 0 alone when n is odd and then the pairs
    (n % 2, n % 2 + 1), ..., (n - 2, n - 1), each listed far end first.
    """
    if n < 2:
        raise GraphError("balance strategy needs at least 2 vertices")
    parts = [PairScript((0,), "exact-tiny")] if n % 2 else []
    parts += [PairScript((v + 1, v), "exact-tiny") for v in range(n % 2, n, 2)]
    return SplitStrategy(parts, "balance-pair-split", role=Player.ONE)


def suffix_pair_edge(n: int) -> tuple[int, int]:
    """The path edge the balance strategy always gets labeled 1."""
    return (n - 2, n - 1)


def path_bound(n: int) -> int:
    """Guaranteed-achievable path discrepancy bound, mod-3 form."""
    return {0: (n - 3) // 3, 1: (n - 1) // 3, 2: (n + 1) // 3}[n % 3]


def tree_bound(n: int) -> int:
    """Guaranteed-achievable tree discrepancy bound."""
    return n // 2
