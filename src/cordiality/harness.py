"""Exhaustive verification of fixed strategies against a free adversary.

``worst_case_vs_optimal`` pins one side to a Strategy and ranges over every
legal reply of the other side, so the result is the exact worst value the
strategy can be held to (the adversary maximizes against a zero-player
strategy and minimizes against a one-player strategy).  Positions are
memoized together with the strategy's internal state key, which makes the
search collapse across move-order interleavings.  An optional terminal
check runs on every reachable final position, so per-playout structural
claims can be verified in the same sweep.
"""

from __future__ import annotations

from typing import Callable

from .game import (
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


def _strategy_step(state: GameState, strat: Strategy, last_move: Move | None):
    """Apply the strategy's forced moves until the adversary's turn.

    Returns the position reached and the strategy as it stands there.
    """
    while not is_terminal(state) and to_move(state) is strat.role:
        move = strat.choose(state, last_move)
        if not is_legal(state, move):
            raise StrategyMoveError(state, move, "not among the legal moves")
        strat = strat.after(move, strat.role)
        state = apply_move(state, move)
        last_move = move
    return state, strat


def worst_case_vs_optimal(
    g: Graph,
    strategy: Strategy,
    variant: Variant,
    objective: Objective,
    terminal_check: Callable[[GameState], None] | None = None,
) -> int:
    """Exact extremal value over all adversary plays with the strategy fixed."""
    value = _sweep(g, strategy, objective, terminal_check)
    return value(new_game(g, variant), strategy, None)


def worst_case_line(
    g: Graph,
    strategy: Strategy,
    variant: Variant,
    objective: Objective,
) -> tuple[int, list[Move]]:
    """Worst value plus one complete move list realizing it.

    At each adversary turn the line takes the first legal reply that keeps
    the position's memoized value.
    """
    value = _sweep(g, strategy, objective, None)
    state = new_game(g, variant)
    result = value(state, strategy, None)
    line: list[Move] = []
    strat = strategy
    last: Move | None = None
    while not is_terminal(state):
        mover = to_move(state)
        if mover is strat.role:
            move = strat.choose(state, last)
        else:
            target = value(state, strat, last)
            move = next(m for m in legal_moves(state)
                        if value(apply_move(state, m), strat.after(m, mover), m) == target)
        strat = strat.after(move, mover)
        line.append(move)
        state = apply_move(state, move)
        last = move
    return result, line


def _sweep(g, strategy, objective, terminal_check):
    """The memoized ``value(state, strat, last_move)`` of one sweep."""
    adversary = strategy.role.opponent
    maximizing = adversary is Player.ONE
    memo: dict[tuple, int] = {}

    def value(state: GameState, strat: Strategy, last_move: Move | None) -> int:
        state, strat = _strategy_step(state, strat, last_move)
        if is_terminal(state):
            if terminal_check is not None:
                terminal_check(state)
            return terminal_value(state, g, objective)
        key = (state.zero_mask, state.one_mask, state.passes_used, strat.state_key())
        cached = memo.get(key)
        if cached is not None:
            return cached
        best: int | None = None
        for move in legal_moves(state):
            child = value(apply_move(state, move), strat.after(move, adversary), move)
            if best is None or (child > best if maximizing else child < best):
                best = child
        memo[key] = best
        return best

    return value
