"""Executable labeling strategies with verifiable worst-case guarantees.

All zero-player strategies here share one structure: a component is either
played by a small scripted policy (paths of up to 6 vertices, or one of the
branch shapes from ``branching``), or split into a main part, which the
strategy opens and keeps strictly alternating by answering every opponent
move in the same part, and a small even-sized branch part handled by a
script.  Scripts therefore have to tolerate three local move orders: the
zero player opens, the opponent opens, or the opponent opens and later the
zero player moves twice in a row (local pass).  Script decisions are driven
by the observed local position plus the opponent's last move, so a
strategy remembers little: it stays immutable and cheap to advance, and
playout memoization merges across interleavings.

Territories are vertex bitmasks: a tree policy recurses on the masks that
``branching.find_branch_in`` returns, and a split keeps one mask per part.
The two six-position scripts (the 6-path and two 3-arms under a center)
share one book in ``_FirstMoveMemory`` (the opening, the answers to an
opening, the arm-pair play after an opening on the middle of an arm, and
the fallback) and differ only in their follow-up moves.

The one-player balance strategy mirrors the same split idea: a recursive
main path plus a terminal vertex pair whose inner edge it always claims.
"""

from __future__ import annotations

from .branching import BranchDecomposition, find_branch_in
from .game import GameState, Move, Player
from .graphs import Graph, GraphError, iter_bits, path_walk, vertex_mask
from .trees import NonTreeError


class StrategyError(RuntimeError):
    """A strategy produced no move or an illegal one; always a bug."""


class Strategy:
    """Deterministic move policy for one side of the game."""

    role: Player = Player.ZERO
    provenance: str = "abstract"

    def choose(self, state: GameState, last_move: Move | None) -> Move:
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
    """Zero-player policy over a fixed tuple of host vertices.

    Scripts reason in 1-based local positions; ``verts[i]`` is position
    i + 1.  ``_view`` extracts (own, opp, free, prompted) where prompted is
    the local position of the opponent's last label when it landed in this
    script's territory.
    """

    def __init__(self, verts: tuple[int, ...]):
        self.verts = tuple(verts)
        self._pos = {v: i + 1 for i, v in enumerate(self.verts)}
        self._bits = tuple((i + 1, 1 << v) for i, v in enumerate(self.verts))

    def _view(self, state: GameState, last_move: Move | None):
        zero, one = state.zero_mask, state.one_mask
        own, opp, free = set(), set(), set()
        for p, bit in self._bits:
            if zero & bit:
                own.add(p)
            elif one & bit:
                opp.add(p)
            else:
                free.add(p)
        prompted = None
        if last_move is not None and not last_move.is_pass:
            prompted = self._pos.get(last_move.vertex)
            if prompted in own:
                prompted = None  # our own previous move, not a prompt
        return own, opp, free, prompted

    def choose(self, state: GameState, last_move: Move | None) -> Move:
        own, opp, free, prompted = self._view(state, last_move)
        if not free:
            raise StrategyError(f"{self.provenance}: asked to move with no free vertex")
        return Move.label(self.verts[self._decide(own, opp, free, prompted) - 1])

    def _decide(self, own: set, opp: set, free: set, prompted: int | None) -> int:
        raise NotImplementedError


class TinyScript(_ScriptBase):
    """Take the lowest free vertex.

    Any move is optimal on a 1 or 2 vertex path component.  On two leaves
    under one center (branch case 2), taking the sibling of whatever the
    opponent takes means taking the lone free vertex.
    """

    provenance = "exact-tiny"

    def _decide(self, own, opp, free, prompted):
        return min(free)


class Path3Script(_ScriptBase):
    """Path a-b-c: take the middle when opening, avoid it when answering."""

    provenance = "path-script-3"

    def _decide(self, own, opp, free, prompted):
        if prompted is None:
            return 2 if 2 in free else min(free)
        safe = free - {2}
        return min(safe) if safe else min(free)


class _ClassScript(_ScriptBase):
    """Answer in the class the opponent just played; used for P4 and P5.

    Classes are the two alternating position sets of the path.  Ending with
    a label in each class keeps the path's edge discrepancy at 1 (P4) or
    2 (P5) no matter what the opponent does.
    """

    classes: tuple[frozenset, frozenset] = (frozenset(), frozenset())

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


class Path4Script(_ClassScript):
    provenance = "path-script-4"
    classes = (frozenset({1, 3}), frozenset({2, 4}))


class Path5Script(_ClassScript):
    provenance = "path-script-5"
    classes = (frozenset({1, 3, 5}), frozenset({2, 4}))


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
        self.opened_by_us = False
        self.opp_first: int | None = None

    def after(self, move, mover):
        if self.opp_first is not None or move.is_pass or move.vertex not in self._pos:
            return self
        if mover is self.role:
            return self if self.opened_by_us else self._copy(opened_by_us=True)
        return self._copy(opp_first=self._pos[move.vertex])

    def state_key(self):
        return (self.opened_by_us, self.opp_first)

    def _decide(self, own, opp, free, prompted):
        first = None if self.opened_by_us else self.opp_first
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


class Case3Script(_ScriptBase):
    """Two 2-paths under one center v: positions (1,2) and (3,4) with 2 and
    3 adjacent to v.  Securing exactly one of {2,3} cancels the two center
    edges, leaving at most 2 from the outer edges."""

    provenance = "twin-2-arms"

    def _decide(self, own, opp, free, prompted):
        middle = {2, 3}
        outer = {1, 4}
        if not own & middle:
            if prompted in middle:
                other = middle - {prompted}
                if other & free:
                    return min(other & free)
            if prompted in outer:
                other = outer - {prompted}
                if other & free:
                    return min(other & free)
                if free & middle:
                    return min(free & middle)
            if free & middle:
                return min(free & middle)
            return min(free)
        if free & outer:
            return min(free & outer)
        return min(free)


class Case5Script(_ScriptBase):
    """A leaf and a 3-path under one center: pairs (1,2) and (3,4).

    One label in each pair balances the two center edges and bounds the
    arm edges by 2.  Follow the opponent into whichever pair they play."""

    provenance = "leaf-and-3-arm"

    pairs = (frozenset({1, 2}), frozenset({3, 4}))

    def _decide(self, own, opp, free, prompted):
        move = _one_per_pair(own, free, prompted, self.pairs)
        return min(free) if move is None else move


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
    """Open in the main part; answer the opponent inside the part they play.

    When the opponent's move fills the main part, the next reply opens the
    branch part, which its script experiences as a local pass.  The branch
    part has even order and is answered immediately, so it can never be
    filled by the opponent while the main part is still open.
    """

    def __init__(self, main: Strategy, branch: Strategy,
                 main_mask: int, branch_mask: int, provenance: str):
        self.main = main
        self.branch = branch
        self.main_mask = main_mask
        self.branch_mask = branch_mask
        self.provenance = provenance

    def state_key(self):
        return (self.main.state_key(), self.branch.state_key())

    def after(self, move, mover):
        # each part's scripts ignore moves outside their own vertices
        if move.is_pass:
            return self
        if self.main_mask >> move.vertex & 1:
            main = self.main.after(move, mover)
            return self if main is self.main else self._copy(main=main)
        if self.branch_mask >> move.vertex & 1:
            branch = self.branch.after(move, mover)
            return self if branch is self.branch else self._copy(branch=branch)
        return self

    def choose(self, state: GameState, last_move: Move | None) -> Move:
        occupied = state.zero_mask | state.one_mask
        main_free = self.main_mask & ~occupied
        branch_free = self.branch_mask & ~occupied
        if last_move is None:
            if occupied:
                raise StrategyError(f"{self.provenance}: unprompted move mid-game")
            return self.main.choose(state, None)
        if last_move.is_pass:
            raise StrategyError(f"{self.provenance}: built for pass-free variants")
        v = last_move.vertex
        if self.main_mask >> v & 1:
            if main_free:
                return self.main.choose(state, last_move)
            if branch_free:
                return self.branch.choose(state, last_move)
        else:
            if branch_free:
                return self.branch.choose(state, last_move)
            if main_free:
                raise StrategyError(
                    f"{self.provenance}: branch part closed by the opponent; "
                    "the pairing discipline was broken"
                )
        raise StrategyError(f"{self.provenance}: no free vertex to play")


def _path_policy(ordered: tuple[int, ...]) -> Strategy:
    k = len(ordered)
    if k <= 2:
        return TinyScript(ordered)
    if k == 3:
        return Path3Script(ordered)
    if k == 4:
        return Path4Script(ordered)
    if k == 5:
        return Path5Script(ordered)
    if k == 6:
        return Path6Script(ordered)
    prefix, suffix = ordered[:-6], ordered[-6:]
    return SplitStrategy(
        main=_path_policy(prefix),
        branch=Path6Script(suffix),
        main_mask=vertex_mask(prefix),
        branch_mask=vertex_mask(suffix),
        provenance="split-path",
    )


def path_strategy(n: int) -> Strategy:
    """Recursive zero-player strategy for the path on n vertices.

    Splits off the last six vertices, plays the scripted endgame there, and
    recurses on the prefix, answering the opponent part-for-part.  Against
    any play of the maximizer in the zero-starts game its final discrepancy
    is within the mod-6 path bound.  For n <= 6 it is a single script, which
    reads the observed move order and so plays optimally in every variant.
    """
    if n < 3:
        raise GraphError("path strategy needs at least 3 vertices")
    return _path_policy(tuple(range(n)))


def _induced_path_order(g: Graph, mask: int) -> tuple[int, ...] | None:
    """The vertices of ``mask`` from its lower path end, or None if not a path."""
    ends = [v for v in iter_bits(mask) if (g.adj[v] & mask).bit_count() <= 1]
    return path_walk(g, mask, ends[0]) if ends else None


_CASE_SCRIPTS = {
    1: lambda r: Path4Script((r["v1"], r["v2"], r["v3"], r["v4"])),
    2: lambda r: TinyScript((r["v1"], r["v2"])),
    3: lambda r: Case3Script((r["v1"], r["v2"], r["v3"], r["v4"])),
    4: lambda r: Path4Script((r["v4"], r["v1"], r["v2"], r["v3"])),
    5: lambda r: Case5Script((r["v1"], r["v2"], r["v3"], r["v4"])),
    6: lambda r: Case6Script((r["v1"], r["v2"], r["v3"], r["v4"], r["v5"], r["v6"])),
    7: lambda r: Path6Script((r["v3"], r["v2"], r["v1"], r["v4"], r["v5"], r["v6"])),
}


def branch_script(decomposition: BranchDecomposition) -> Strategy:
    """The scripted policy for the interior of a decomposed branch."""
    return _CASE_SCRIPTS[decomposition.case_id](decomposition.roles)


def _tree_policy(g: Graph, mask: int) -> Strategy:
    order = _induced_path_order(g, mask)
    if order is not None:
        return _path_policy(order)
    decomposition = find_branch_in(g, mask)
    return SplitStrategy(
        main=_tree_policy(g, decomposition.remainder_mask),
        branch=branch_script(decomposition),
        main_mask=decomposition.remainder_mask,
        branch_mask=decomposition.branch_mask,
        provenance="split-tree",
    )


def tree_strategy(t: Graph) -> Strategy:
    """Recursive zero-player strategy for a tree; worst case within n/2.

    Peels one branch shape at a time (see ``branching``), playing each
    branch interior by its script and the remainder recursively.
    """
    if not t.is_tree():
        raise NonTreeError("tree strategy needs a tree")
    return _tree_policy(t, t.full_mask)


class BalancePairStrategy(Strategy):
    """One-player strategy keeping the signed score of a path non-negative.

    The last two path vertices form a pair whose inner edge this strategy
    always gets labeled 1: answer any opponent move in the pair with the
    pair's other vertex, and grab the far end the moment the opponent
    finishes the prefix.  The prefix replays the same idea recursively.
    """

    role = Player.ONE
    provenance = "balance-pair-split"

    def __init__(self, ordered: tuple[int, ...]):
        if len(ordered) < 2:
            raise GraphError("balance strategy needs at least 2 vertices")
        self.ordered = tuple(ordered)
        self.pair = (ordered[-2], ordered[-1])
        prefix = ordered[:-2]
        self.prefix_mask = vertex_mask(prefix)
        self.prefix_policy = BalancePairStrategy(prefix) if len(prefix) >= 2 else None

    def choose(self, state: GameState, last_move: Move | None) -> Move:
        if last_move is None or last_move.is_pass:
            raise StrategyError("balance strategy expects the opponent to start")
        v = last_move.vertex
        free = ~(state.zero_mask | state.one_mask)
        near, far = self.pair
        if v in (near, far):
            other = far if v == near else near
            if free >> other & 1:
                return Move.label(other)
            raise StrategyError("pair closed out of order")  # pragma: no cover
        if self.prefix_mask & free:
            if self.prefix_policy is None:  # pragma: no cover - 1-vertex prefix
                raise StrategyError("single-vertex prefix cannot be open here")
            return self.prefix_policy.choose(state, last_move)
        # the opponent just finished the prefix: take the far end
        if free >> far & 1:
            return Move.label(far)
        if free >> near & 1:  # pragma: no cover - defensive
            return Move.label(near)
        raise StrategyError("no free vertex to play")  # pragma: no cover


def balance_maximizer_strategy(n: int) -> Strategy:
    """One-player strategy for the zero-starts balance game on the path."""
    if n < 2:
        raise GraphError("balance strategy needs at least 2 vertices")
    return BalancePairStrategy(tuple(range(n)))


def suffix_pair_edge(n: int) -> tuple[int, int]:
    """The path edge the balance strategy always gets labeled 1."""
    return (n - 2, n - 1)


def path_bound(n: int) -> int:
    """Guaranteed-achievable path discrepancy bound, mod-3 form."""
    return {0: (n - 3) // 3, 1: (n - 1) // 3, 2: (n + 1) // 3}[n % 3]


def path_bound_mod6(n: int) -> int:
    """The same bound in its mod-6 form (equal to ``path_bound``)."""
    return 2 * (n // 6) + {0: -1, 1: 0, 2: 1, 3: 0, 4: 1, 5: 2}[n % 6]


def tree_bound(n: int) -> int:
    """Guaranteed-achievable tree discrepancy bound."""
    return n // 2
