"""Executable labeling strategies with verifiable worst-case guarantees.

Every composite strategy is one ``SplitStrategy``: a flat tuple of
territories, each a vertex set played by a small script.  A path peels
six-vertex ``Path6Script`` parts off its end; a tree peels the branch
shapes of ``branching`` one at a time and puts the path parts of what is
left first.  One territory rule plays every split: the opening goes to
part 0, an opponent move is answered in its own part while that part has
a free vertex, and otherwise the reply opens the lowest part with a free
vertex.  Scripts therefore have to tolerate three local move orders: the
zero player opens, the opponent opens, or the opponent opens and later the
zero player moves twice in a row (local pass).  Script decisions are driven
by the observed local position plus the opponent's last move, so a
strategy remembers little: it stays immutable and cheap to advance, and
playout memoization merges across interleavings.

Five scripts are pairings, one ``PairScript`` each: take one label in each
of a few position sets, following the opponent into the set they just
played.  They play the parts of one or two vertices (two leaves under one
center and the balance pairs included), the 3-path, the 4-path, two 2-arms,
and a leaf beside a 3-arm.  The 5-path keeps its own script.  The two
six-position scripts (the 6-path and two 3-arms under a center) share one
book in ``_FirstMoveMemory`` (the opening, the answers to an opening, the
arm-pair play after an opening on the middle of an arm, and the fallback)
and differ only in their follow-up moves.

The one-player balance strategy is the same split, with the path's vertex
pairs (n-2, n-1), (n-4, n-3), ... (and vertex 0 alone when n is odd) as
territories.  Each pair takes its highest free vertex, so the pair's edge
always gets labeled 1, whether the strategy answers in the pair or opens
it at the far end.
"""

from __future__ import annotations

from .branching import BranchDecomposition, find_branch_in
from .game import PASS, Move, Player
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

    def after(self, move: Move, mover: Player) -> "Strategy":
        """The policy once ``mover`` has played ``move``; never mutates ``self``.

        A move that changes nothing the policy remembers returns ``self``;
        default policies are stateless, so every move does.
        """
        return self

    def state_key(self) -> object:
        return ()

    def _copy(self, **changes) -> "Strategy":
        """A shallow copy with ``changes`` applied; fields are immutable."""
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__, **changes)
        return twin


class _ScriptBase(Strategy):
    """Scripted policy over a fixed tuple of host vertices.

    Scripts see the position from the zero player's side (the balance
    strategy's pairs read only which positions are free) and reason in
    1-based local positions; ``verts[i]`` is position i + 1.  ``_view``
    extracts (own, opp, free, prompted) where prompted is the local
    position of the opponent's last label when it landed in this script's
    territory.
    """

    def __init__(self, verts: tuple[int, ...]):
        self.verts = tuple(verts)
        self._pos = {v: i + 1 for i, v in enumerate(self.verts)}
        self._bits = tuple((i + 1, 1 << v) for i, v in enumerate(self.verts))

    def _view(self, zero: int, one: int, last_move: Move):
        own, opp, free = set(), set(), set()
        for p, bit in self._bits:
            if zero & bit:
                own.add(p)
            elif one & bit:
                opp.add(p)
            else:
                free.add(p)
        prompted = self._pos.get(last_move)
        if prompted in own:
            prompted = None  # our own previous move, not a prompt
        return own, opp, free, prompted

    def choose(self, zero, one, passes, last_move):
        own, opp, free, prompted = self._view(zero, one, last_move)
        if not free:
            raise StrategyError(f"{self.provenance}: asked to move with no free vertex")
        return self.verts[self._decide(own, opp, free, prompted) - 1]

    def _decide(self, own: set, opp: set, free: set, prompted: int | None) -> int:
        raise NotImplementedError


class Path5Script(_ScriptBase):
    """Answer in the class the opponent just played.

    Classes are the two alternating position sets of the path.  Ending with
    a label in each class keeps the path's edge discrepancy at 2 no matter
    what the opponent does.
    """

    provenance = "path-script-5"
    classes = (frozenset({1, 3, 5}), frozenset({2, 4}))

    def _decide(self, own, opp, free, prompted):
        first, second = self.classes
        if prompted is not None:
            cls = first if prompted in first else second
            mine = free & cls
            if mine:
                return min(mine)
            other = free & (second if cls is first else first)
            return min(other) if other else min(free)
        lacking = [c for c in self.classes if not own & c and free & c]
        if len(lacking) == 1:
            return min(free & lacking[0])
        return min(free)


_P6_BAD = (
    frozenset({1, 3, 5}), frozenset({2, 4, 6}),
    frozenset({1, 2, 3}), frozenset({4, 5, 6}),
    frozenset({2, 3, 5}), frozenset({2, 4, 5}),
    frozenset({1, 4, 6}), frozenset({1, 3, 6}),
)


def _avoid_bad(own: set, free: set, bad: tuple) -> int:
    for cand in sorted(free):
        if frozenset(own | {cand}) not in bad:
            return cand
    return min(free)


def _one_per_pair(own: set, free: set, prompted: int | None, pairs: tuple) -> int | None:
    """A spot in a pair still lacking our label, preferring the pair the
    opponent just played; None once no pair lacks one."""
    lacking = [pair for pair in pairs if not own & pair and free & pair]
    for pair in lacking:
        if prompted in pair:
            return min(free & pair)
    return min(free & lacking[0]) if lacking else None


class PairScript(_ScriptBase):
    """Take one label in each set of a pairing, following the opponent into
    the set they just played, then the lowest free position.  ``_PAIRINGS``
    names the pairings by provenance."""

    def __init__(self, verts, provenance: str):
        super().__init__(verts)
        self.provenance = provenance
        self.pairs = _PAIRINGS[provenance]

    def _decide(self, own, opp, free, prompted):
        move = _one_per_pair(own, free, prompted, self.pairs)
        return min(free) if move is None else move


_PAIRINGS = {
    # any move is optimal on a 1 or 2 vertex path component; on two leaves
    # under one center (branch case 2) it takes the sibling of the
    # opponent's leaf; a balance pair lists its far end first, so it takes
    # the highest free vertex there
    "exact-tiny": (frozenset({1, 2}),),
    # the 3-path a-b-c: take the middle when opening, avoid it when answering
    "path-script-3": (frozenset({2}), frozenset({1, 3})),
    # a label in each alternating class holds the 4-path's discrepancy to 1
    "path-script-4": (frozenset({1, 3}), frozenset({2, 4})),
    # two 2-arms (1,2) and (3,4), with 2 and 3 beside the center v: one of
    # {2,3} cancels the two center edges, leaving at most 2 from the outer
    "twin-2-arms": (frozenset({2, 3}), frozenset({1, 4})),
    # a leaf and a 3-arm: one label per pair balances the two center edges
    # and bounds the arm edges by 2
    "leaf-and-3-arm": (frozenset({1, 2}), frozenset({3, 4})),
}

_OUTER_PAIRS = (frozenset({1, 3}), frozenset({4, 6}))


class _FirstMoveMemory(_ScriptBase):
    """Six-position script that remembers who opened its territory and with what.

    The shared book: open on 1; answer an opening on 1, 2 or 3 with 3, 5 or
    1, and read an opening on 4-6 through ``flip``, an automorphism mapping
    it onto 1-3; after an opening on 2, take one label in each outer pair
    {1,3}, {4,6}, following the opponent into the pair they just played.
    Every later move comes from ``_next`` (None defers), and the fallback is
    the lowest free spot completing no set in ``bad``.
    """

    flip: dict[int, int] = {}
    bad: tuple = ()

    def __init__(self, verts):
        super().__init__(verts)
        # None until the territory is opened, then 0 if we opened it or
        # else the opponent's opening position; later moves change nothing
        self.first: int | None = None

    def after(self, move, mover):
        if self.first is not None or move not in self._pos:
            return self
        return self._copy(first=0 if mover is self.role else self._pos[move])

    def state_key(self):
        return self.first

    def _decide(self, own, opp, free, prompted):
        first = self.first or None  # the book reads our opening as no opponent opening
        if first is None or first <= 3:
            return self._answer(own, opp, free, prompted, first)
        f = self.flip
        local = self._answer({f[p] for p in own}, {f[p] for p in opp}, {f[p] for p in free},
                             None if prompted is None else f[prompted], f[first])
        return f[local]

    def _answer(self, own, opp, free, prompted, first):
        """The book move; ``first`` is the opponent's opening on 1-3, or
        None when we opened or nobody has."""
        if not own:
            return 1 if first is None else {1: 3, 2: 5, 3: 1}[first]
        if first == 2:
            move = _one_per_pair(own, free, prompted, _OUTER_PAIRS)
        else:
            move = self._next(own, opp, free, first)
        return _avoid_bad(own, free, self.bad) if move is None else move

    def _next(self, own: set, opp: set, free: set, first: int | None) -> int | None:
        raise NotImplementedError


class Path6Script(_FirstMoveMemory):
    """Endgame book for a 6-vertex path; final discrepancy 1 in every order.

    Opening: take an end, then the adjacent or the mirror-adjacent spot,
    then anything that completes none of the eight discrepancy>=3 sets.
    Answering: mirror-pair the opponent's opening (1->3, 2->5, 3->1 and the
    reversed images), then the lower free spot of {4,6} after an opening on
    1 or of {2,5} after one on 3.
    """

    provenance = "path-script-6"
    flip = {p: 7 - p for p in range(1, 7)}
    bad = _P6_BAD
    second = {None: (2, 5), 1: (4, 6), 3: (2, 5)}  # by opening, in preference order

    def _next(self, own, opp, free, first):
        if len(own) == 1:
            return next((p for p in self.second[first] if p in free), None)
        return None


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


class Case6Script(_FirstMoveMemory):
    """Two 3-paths under one center: arms (1,2,3) and (4,5,6), with 1 and 4
    adjacent to the center.  Every finished labeling lands in one of the
    twelve sets of CASE6_WINNING_SETS, keeping the seven branch edges within
    discrepancy 2 regardless of the center's label."""

    provenance = "twin-3-arms"
    flip = {1: 4, 2: 5, 3: 6, 4: 1, 5: 2, 6: 3}  # swap the two arms
    # after our answer to an opening on 1 or 3: (spot watched, reply if the
    # opponent holds it, reply otherwise)
    second = {1: (4, 6, 4), 3: (5, 2, 5)}

    def _next(self, own, opp, free, first):
        if first is None:
            if len(own) == 1:
                return 2 if 6 in opp else (6 if 6 in free else None)
            if own == {1, 6}:
                return min(free - {4}, default=None)
            if own == {1, 2}:
                reply = 5 if 4 in opp else 4
                return reply if reply in free else None
            return None
        if len(own) == 1:
            watched, blocked, reply = self.second[first]
            reply = blocked if watched in opp else reply
            return reply if reply in free else None
        return None


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
        # the vertices whose part's script overrides ``after``; a move on any
        # other vertex changes nothing the strategy remembers
        self._stateful = vertex_mask(v for part in self.parts
                                     if type(part).after is not Strategy.after
                                     for v in part.verts)
        self._key = tuple(part.state_key() for part in self.parts)
        # part k's move by (k, its zero labels, its one labels, the last
        # move's vertex, its state key): everything its script reads.
        # Copies share it.
        self._moves: dict[tuple, Move] = {}

    def state_key(self):
        return self._key

    def after(self, move, mover):
        if move is PASS or not self._stateful >> move & 1:
            return self
        k = self._part_of[move]
        part = self.parts[k].after(move, mover)
        if part is self.parts[k]:
            return self
        return self._copy(parts=self.parts[:k] + (part,) + self.parts[k + 1:],
                          _key=self._key[:k] + (part.state_key(),) + self._key[k + 1:])

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
        key = (k, zero & mask, one & mask, last_move, self._key[k])
        move = self._moves.get(key)
        if move is None:
            move = self._moves[key] = self.parts[k].choose(zero, one, passes, last_move)
        return move


_PATH_SCRIPTS = {
    1: lambda verts: PairScript(verts, "exact-tiny"),
    2: lambda verts: PairScript(verts, "exact-tiny"),
    3: lambda verts: PairScript(verts, "path-script-3"),
    4: lambda verts: PairScript(verts, "path-script-4"),
    5: Path5Script,
    6: Path6Script,
}


def _path_parts(ordered: tuple[int, ...]) -> list[Strategy]:
    """A path's territories in play order: its first 1 to 6 vertices, then
    six-vertex ``Path6Script`` parts to its end."""
    head = (len(ordered) - 1) % 6 + 1
    parts = [_PATH_SCRIPTS[head](ordered[:head])]
    for start in range(head, len(ordered), 6):
        parts.append(Path6Script(ordered[start:start + 6]))
    return parts


def _split(parts: list[Strategy], provenance: str) -> Strategy:
    return parts[0] if len(parts) == 1 else SplitStrategy(parts, provenance)


def path_strategy(n: int) -> Strategy:
    """Zero-player strategy for the path on n vertices.

    Peels six-vertex scripted endgames off the end of the path and plays
    the first 1 to 6 vertices by a small script, answering the opponent
    part-for-part.  Against any play of the maximizer in the zero-starts
    game its final discrepancy is within ``path_bound(n)``.  For n <= 6
    it is a single script, which reads the observed move order and so
    plays optimally in every variant.
    """
    if n < 3:
        raise GraphError("path strategy needs at least 3 vertices")
    return _split(_path_parts(tuple(range(n))), "split-path")


def _induced_path_order(g: Graph, mask: int) -> tuple[int, ...] | None:
    """The vertices of ``mask`` from its lower path end, or None if not a path."""
    ends = [v for v in iter_bits(mask) if (g.adj[v] & mask).bit_count() <= 1]
    return path_walk(g, mask, ends[0]) if ends else None


_CASE_SCRIPTS = {
    1: lambda r: PairScript((r["v1"], r["v2"], r["v3"], r["v4"]), "path-script-4"),
    2: lambda r: PairScript((r["v1"], r["v2"]), "exact-tiny"),
    3: lambda r: PairScript((r["v1"], r["v2"], r["v3"], r["v4"]), "twin-2-arms"),
    4: lambda r: PairScript((r["v4"], r["v1"], r["v2"], r["v3"]), "path-script-4"),
    5: lambda r: PairScript((r["v1"], r["v2"], r["v3"], r["v4"]), "leaf-and-3-arm"),
    6: lambda r: Case6Script((r["v1"], r["v2"], r["v3"], r["v4"], r["v5"], r["v6"])),
    7: lambda r: Path6Script((r["v3"], r["v2"], r["v1"], r["v4"], r["v5"], r["v6"])),
}


def branch_script(decomposition: BranchDecomposition) -> Strategy:
    """The scripted policy for the interior of a decomposed branch."""
    return _CASE_SCRIPTS[decomposition.case_id](decomposition.roles)


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
