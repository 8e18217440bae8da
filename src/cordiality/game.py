"""Game mechanics: states, variants, objectives, moves, terminal scoring.

Two players alternately label unlabeled vertices.  The zero player (wire
code "A") labels vertices 0 and tries to minimize the final score; the one
player (wire code "I") labels vertices 1 and maximizes.  An edge's label is
the XOR of its endpoint labels, so label-1 edges are exactly the edges cut
by the bipartition.  The score is |e1 - e0| under the cordiality objective
and e1 - e0 under the balance objective.

A variant names the starting player and whether the one player may pass.
Passing consumes the turn; it is legal only while at least two vertices
remain unlabeled, which is the reading under which the small-path values
this package verifies actually hold (a pass with one vertex left would hand
the last two labels of an odd path to the zero player).

A position stores the two label sets as vertex bitmasks (bit v set means
vertex v carries that label), the same encoding the solver, the oracle and
the Maker-Breaker solver use.  A move is the vertex it labels, a plain
int (not a bool), or ``PASS`` (None) for a pass.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple, Optional

from .graphs import Graph, cut_size_of_mask, iter_bits


class Player(Enum):
    ZERO = "A"
    ONE = "I"

    @property
    def opponent(self) -> "Player":
        return Player.ONE if self is Player.ZERO else Player.ZERO


class Objective(Enum):
    CORDIALITY = "cordiality"
    BALANCE = "balance"


class _VariantFields(NamedTuple):
    starter: Player
    pass_budget: int = 0


class Variant(_VariantFields):
    """Who starts, and how many passes the one player holds (0 or 1)."""

    __slots__ = ()

    def __new__(cls, starter: Player, pass_budget: int = 0) -> Variant:
        if pass_budget not in (0, 1):
            raise ValueError("pass budget must be 0 or 1")
        if pass_budget and starter is not Player.ONE:
            raise ValueError("only the one player may hold a pass")
        return super().__new__(cls, starter, pass_budget)

    @classmethod
    def _make(cls, iterable) -> Variant:  # ``_replace`` builds through this: check it too
        return cls(*iterable)

    @property
    def code(self) -> str:
        if self.pass_budget:
            return "I+pass"
        return self.starter.value


ZERO_STARTS = Variant(Player.ZERO, 0)
ONE_STARTS = Variant(Player.ONE, 0)
ONE_STARTS_WITH_PASS = Variant(Player.ONE, 1)

VARIANT_CODES = {
    "A": ZERO_STARTS,
    "I": ONE_STARTS,
    "I+pass": ONE_STARTS_WITH_PASS,
}


Move = Optional[int]
PASS = None


class IllegalMoveError(ValueError):
    pass


class GameState(NamedTuple):
    """Immutable position: who has labeled what, and passes spent.

    ``zero_mask`` and ``one_mask`` are disjoint vertex bitmasks of the
    0-labeled and 1-labeled vertices.  A named tuple rather than a frozen
    dataclass: a tuple is built without a ``__setattr__`` call per field.
    The strategy sweep runs on plain masks and builds one only for
    ``Sweep.line`` and for a strategy move that is not a free vertex.
    """

    n: int
    variant: Variant
    zero_mask: int
    one_mask: int
    passes_used: int


def new_game(g: Graph, variant: Variant) -> GameState:
    return GameState(g.n, variant, 0, 0, 0)


def is_terminal(state: GameState) -> bool:
    return (state.zero_mask | state.one_mask).bit_count() == state.n


def _mover(state: GameState, labeled: int) -> Player:
    """The turn rule: the player to move once ``labeled`` vertices carry labels."""
    starter = state.variant.starter
    if (labeled + state.passes_used) % 2 == 0:
        return starter
    return starter.opponent


def to_move(state: GameState) -> Player:
    return _mover(state, (state.zero_mask | state.one_mask).bit_count())


def _may_pass(state: GameState, labeled: int) -> bool:
    """The pass rule, for a position that is not terminal."""
    return (
        _mover(state, labeled) is Player.ONE
        and state.passes_used < state.variant.pass_budget
        and state.n - labeled >= 2
    )


def legal_moves(state: GameState) -> list[Move]:
    occupied = state.zero_mask | state.one_mask
    labeled = occupied.bit_count()
    if labeled == state.n:
        return []
    moves: list[Move] = list(iter_bits(((1 << state.n) - 1) & ~occupied))
    if _may_pass(state, labeled):
        moves.append(PASS)
    return moves


def is_legal(state: GameState, move: Move) -> bool:
    """Whether ``move`` is among ``legal_moves(state)``, without building it."""
    occupied = state.zero_mask | state.one_mask
    labeled = occupied.bit_count()
    if labeled == state.n:
        return False
    if move is PASS:
        return _may_pass(state, labeled)
    return type(move) is int and 0 <= move < state.n and not occupied >> move & 1


def apply_move(state: GameState, move: Move) -> GameState:
    n, variant, zero, one, passes = state
    occupied = zero | one
    labeled = occupied.bit_count()
    if labeled == n:
        raise IllegalMoveError("game is over")
    mover = _mover(state, labeled)
    if move is PASS:
        if mover is not Player.ONE:
            raise IllegalMoveError("only the one player may pass")
        if passes >= variant.pass_budget:
            raise IllegalMoveError("no pass budget remaining")
        if n - labeled < 2:
            raise IllegalMoveError("passing requires at least two unlabeled vertices")
        return GameState(n, variant, zero, one, passes + 1)
    if not (type(move) is int and 0 <= move < n):
        raise IllegalMoveError(f"vertex {move!r} is out of range")
    if occupied >> move & 1:
        raise IllegalMoveError(f"vertex {move} is already labeled")
    bit = 1 << move
    if mover is Player.ZERO:
        return GameState(n, variant, zero | bit, one, passes)
    return GameState(n, variant, zero, one | bit, passes)


def terminal_value(state: GameState, g: Graph, objective: Objective) -> int:
    """The score of a fully labeled position: cut edges minus uncut edges,
    taken absolutely under cordiality."""
    if not is_terminal(state):
        raise IllegalMoveError("position is not fully labeled")
    d = 2 * cut_size_of_mask(g, state.zero_mask) - g.edge_count
    return abs(d) if objective is Objective.CORDIALITY else d


def replay(g: Graph, variant: Variant, moves: Iterable[Move]) -> GameState:
    """Apply a move sequence from the start, validating each move."""
    state = new_game(g, variant)
    for move in moves:
        state = apply_move(state, move)
    return state

