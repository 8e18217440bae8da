"""Exhaustive verification of fixed strategies against a free adversary.

``Sweep`` pins one side to a Strategy and ranges over every legal reply
of the other side, so its ``worst`` is the exact worst value the strategy
can be held to (the adversary maximizes against a zero-player strategy and
minimizes against a one-player strategy).  Positions are memoized together
with the strategy's internal state key, which makes the search collapse
across move-order interleavings.  Each position's labelled vertices are
counted once, and the mover comes from ``game._mover``, the one copy of the
turn rule.  The adversary's replies come from ``game.children``; a strategy
move must pass ``is_legal`` or the sweep raises ``StrategyMoveError``.

An optional terminal check is a predicate on every reachable final
position, so per-playout structural claims are verified in the same sweep.
A terminal that fails it scores one past every real score in the
adversary's favour (``|E| + 1`` against a zero-player strategy,
``-|E| - 1`` against a one-player strategy), so the worst case exposes it
and ``Sweep.line`` leads to it.
"""

from __future__ import annotations

from typing import Callable

from .game import (
    GameState,
    Move,
    Objective,
    Player,
    Variant,
    _mover,
    apply_move,
    children,
    is_legal,
    is_terminal,
    new_game,
    terminal_value,
    to_move,
)
from .graphs import Graph
from .strategies import Strategy


class StrategyMoveError(RuntimeError):
    """A strategy returned an illegal move; carries the offending position."""

    def __init__(self, state: GameState, move: Move, reason: str):
        super().__init__(f"illegal strategy move {move} at {state}: {reason}")
        self.state = state
        self.move = move


class Sweep:
    """One exhaustive sweep of ``strategy`` on ``g``: the worst value, and a
    line realizing it on demand, both read from the same memo.

    ``worst`` is the exact extremal value over all adversary plays with the
    strategy fixed.  A reachable terminal on which ``terminal_check`` is
    false scores one past the worst real score, ``|E| + 1`` against a
    zero-player strategy and ``-|E| - 1`` against a one-player strategy.
    """

    def __init__(
        self,
        g: Graph,
        strategy: Strategy,
        variant: Variant,
        objective: Objective,
        terminal_check: Callable[[GameState], bool] | None = None,
    ):
        self._g = g
        self._objective = objective
        self._terminal_check = terminal_check
        self._role = strategy.role
        self._maximizing = strategy.role.opponent is Player.ONE
        self._failed = g.edge_count + 1 if self._maximizing else -g.edge_count - 1
        self._memo: dict[tuple, int] = {}
        self._start = new_game(g, variant)
        self._strategy = strategy
        self.worst = self._value(self._start, strategy, None)

    def _value(self, state: GameState, strat: Strategy, last_move: Move | None) -> int:
        """The memoized value of ``state`` with ``strat`` to play on."""
        role = self._role
        n = self._g.n
        # the strategy's moves, up to the adversary's turn or the end
        while True:
            labeled = (state.zero_mask | state.one_mask).bit_count()
            if labeled == n:
                check = self._terminal_check
                if check is not None and not check(state):
                    return self._failed
                return terminal_value(state, self._g, self._objective)
            if _mover(state, labeled) is not role:
                break
            move = strat.choose(state, last_move)
            if not is_legal(state, move):
                raise StrategyMoveError(state, move, "not among the legal moves")
            strat = strat.after(move, role)
            state = apply_move(state, move)
            last_move = move
        memo = self._memo
        key = (state.zero_mask, state.one_mask, state.passes_used, strat.state_key())
        cached = memo.get(key)
        if cached is not None:
            return cached
        adversary = role.opponent
        maximizing = self._maximizing
        value = self._value
        best: int | None = None
        for move, child in children(state):
            score = value(child, strat.after(move, adversary), move)
            if best is None or (score > best if maximizing else score < best):
                best = score
        memo[key] = best
        return best

    def line(self) -> list[Move]:
        """One complete move list realizing ``worst``.

        At each adversary turn the line takes the first legal reply that
        keeps the position's memoized value.  Under a ``terminal_check``
        that fails somewhere, the line ends on a failing terminal.
        """
        value = self._value
        state = self._start
        strat = self._strategy
        line: list[Move] = []
        last: Move | None = None
        while not is_terminal(state):
            mover = to_move(state)
            if mover is strat.role:
                move = strat.choose(state, last)
                child = apply_move(state, move)
            else:
                target = value(state, strat, last)
                move, child = next((m, c) for m, c in children(state)
                                   if value(c, strat.after(m, mover), m) == target)
            strat = strat.after(move, mover)
            line.append(move)
            state = child
            last = move
        return line
