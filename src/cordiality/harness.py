"""Exhaustive verification of fixed strategies against a free adversary.

``Sweep`` pins one side to a Strategy and ranges over every legal reply
of the other side, so its ``worst`` is the exact worst value the strategy
can be held to (the adversary maximizes against a zero-player strategy and
minimizes against a one-player strategy).  A strategy holds no state and
answers from the position and the last move alone, so an adversary-to-move
position is memoized on its label masks and passes alone, one int, which
makes the search collapse across move-order interleavings;
``Sweep.entries`` counts the memo's positions.

The recursion runs on plain ints: the two label masks, the passes spent,
the labelled count and the running count of cut edges, which each label
move raises by the new vertex's neighbours holding the other label.  A
terminal scores ``2 * cut - |E|`` (taken absolutely under cordiality).  The
adversary's replies come from walking the free mask, each reply the vertex
itself, under ``game``'s turn and pass rules.  The strategy's ``choose``
reads the same ints.  Its move is legal at once when it is a vertex int on
a free vertex; anything else (a pass, or no move at all) is checked by
``game.is_legal`` on a built ``GameState``, and an illegal move raises
``StrategyMoveError``.  Otherwise a ``GameState`` is built only for
``Sweep.line``.

An optional terminal check is a predicate on the final zero mask of every
reachable terminal (which fixes the whole labelling), so per-playout
structural claims are verified in the same sweep.
A terminal that fails it scores one past every real score in the
adversary's favour (``|E| + 1`` against a zero-player strategy,
``-|E| - 1`` against a one-player strategy), so the worst case exposes it
and ``Sweep.line`` leads to it.
"""

from __future__ import annotations

from typing import Callable

from .game import (
    PASS,
    GameState,
    Move,
    Objective,
    Player,
    Variant,
    apply_move,
    is_legal,
    is_terminal,
    legal_moves,
    new_game,
    to_move,
)
from .graphs import Graph, edges_between
from .strategies import Strategy


class StrategyMoveError(RuntimeError):
    """A strategy returned an illegal move; carries the offending position."""

    def __init__(self, state: GameState, move: Move, reason: str):
        shown = "pass" if move is PASS else repr(move)
        super().__init__(f"illegal strategy move {shown} at {state}: {reason}")
        self.state = state
        self.move = move


class Sweep:
    """One exhaustive sweep of ``strategy`` on ``g``: the worst value, and a
    line realizing it on demand, both read from the same memo.

    ``worst`` is the exact extremal value over all adversary plays with the
    strategy fixed.  A reachable terminal whose zero mask fails
    ``terminal_check`` scores one past the worst real score, ``|E| + 1``
    against a zero-player strategy and ``-|E| - 1`` against a one-player
    strategy.
    """

    def __init__(
        self,
        g: Graph,
        strategy: Strategy,
        variant: Variant,
        objective: Objective,
        terminal_check: Callable[[int], bool] | None = None,
    ):
        self._g = g
        self._n = g.n
        self._adj = g.adj
        self._edges = g.edge_count
        self._variant = variant
        self._absolute = objective is Objective.CORDIALITY
        self._terminal_check = terminal_check
        role = self._role = strategy.role
        self._role_labels_zero = role is Player.ZERO
        # the adversary of a zero-player strategy is the one player, who maximizes
        self._maximizing = role is Player.ZERO
        self._failed = g.edge_count + 1 if self._maximizing else -g.edge_count - 1
        self._start = new_game(g, variant)
        # the strategy moves when labelled + passes has this parity
        self._role_parity = 0 if to_move(self._start) is role else 1
        # only the one player may pass, so only a zero-player strategy's
        # adversary holds the variant's passes
        self._adversary_passes = variant.pass_budget if role is Player.ZERO else 0
        self._memo: dict[int, int] = {}
        self._choose = strategy.choose
        self.worst = self._value(0, 0, 0, 0, 0, None)

    @property
    def entries(self) -> int:
        """The number of memoized positions: the sweep's work count."""
        return len(self._memo)

    def _value(self, zero: int, one: int, passes: int, labeled: int, cross: int,
               last_move: Move) -> int:
        """The memoized value of the position ``(zero, one, passes)``, with
        ``labeled`` vertices labelled and ``cross`` edges cut, reached by
        ``last_move``."""
        n = self._n
        adj = self._adj
        # the strategy's moves, up to the adversary's turn or the end
        while True:
            if labeled == n:
                check = self._terminal_check
                if check is not None and not check(zero):
                    return self._failed
                d = 2 * cross - self._edges
                return abs(d) if self._absolute else d
            if (labeled + passes) & 1 != self._role_parity:
                break
            move = self._choose(zero, one, passes, last_move)
            # a vertex int on a free vertex is legal by ``game``'s rule;
            # anything else, a pass included, is left to ``is_legal``
            if not (type(move) is int and 0 <= move < n and not (zero | one) >> move & 1):
                state = GameState(n, self._variant, zero, one, passes)
                if not is_legal(state, move):
                    raise StrategyMoveError(state, move, "not among the legal moves")
            if move is PASS:
                passes += 1
            elif self._role_labels_zero:
                cross += (adj[move] & one).bit_count()
                zero |= 1 << move
                labeled += 1
            else:
                cross += (adj[move] & zero).bit_count()
                one |= 1 << move
                labeled += 1
            last_move = move
        memo = self._memo
        key = passes << 2 * n | one << n | zero
        cached = memo.get(key)
        if cached is not None:
            return cached
        maximizing = self._maximizing
        value = self._value
        free = ((1 << n) - 1) & ~(zero | one)
        adversary_labels_zero = not self._role_labels_zero
        best: int | None = None
        while free:
            bit = free & -free
            free ^= bit
            v = bit.bit_length() - 1
            if adversary_labels_zero:
                score = value(zero | bit, one, passes, labeled + 1,
                              cross + (adj[v] & one).bit_count(), v)
            else:
                score = value(zero, one | bit, passes, labeled + 1,
                              cross + (adj[v] & zero).bit_count(), v)
            if best is None or (score > best if maximizing else score < best):
                best = score
        # the pass rule: budget left and at least two free vertices
        if passes < self._adversary_passes and n - labeled >= 2:
            score = value(zero, one, passes + 1, labeled, cross, PASS)
            if score > best if maximizing else score < best:
                best = score
        memo[key] = best
        return best

    def _value_at(self, state: GameState, last_move: Move) -> int:
        """``_value`` of a ``GameState``."""
        zero, one = state.zero_mask, state.one_mask
        return self._value(zero, one, state.passes_used, (zero | one).bit_count(),
                           edges_between(self._g, zero, one), last_move)

    def line(self) -> list[Move]:
        """One complete move list realizing ``worst``.

        At each adversary turn the line takes the first legal reply that
        keeps the position's memoized value.  Under a ``terminal_check``
        that fails somewhere, the line ends on a failing terminal.
        """
        value = self._value_at
        state = self._start
        line: list[Move] = []
        last: Move = None
        while not is_terminal(state):
            if to_move(state) is self._role:
                move = self._choose(state.zero_mask, state.one_mask, state.passes_used, last)
                child = apply_move(state, move)
            else:
                target = value(state, last)
                for move in legal_moves(state):
                    child = apply_move(state, move)
                    if value(child, move) == target:
                        break
                else:  # pragma: no cover - would indicate a memo bug
                    raise RuntimeError("no reply keeps the memoized value")
            line.append(move)
            state = child
            last = move
        return line
