"""The strategy harness against a memo-free reference, and its legality check."""

import gc
import io

import pytest

from cordiality import (
    GameState,
    Objective,
    PASS,
    Player,
    ONE_STARTS,
    ONE_STARTS_WITH_PASS,
    ZERO_STARTS,
    StrategyMoveError,
    Sweep,
    apply_move,
    balance_maximizer_strategy,
    enumerate_trees,
    is_terminal,
    legal_moves,
    new_game,
    path_graph,
    path_strategy,
    terminal_value,
    to_move,
    tree_strategy,
)
from cordiality import harness
from cordiality.cli import main
from cordiality.strategies import Strategy

ALL_VARIANTS = (ZERO_STARTS, ONE_STARTS, ONE_STARTS_WITH_PASS)
PASS_FREE = (ZERO_STARTS, ONE_STARTS)


def reference_worst(g, strategy, variant, objective, terminal_check=None):
    """Plain recursion over every adversary reply, with no memo.

    The harness memoizes adversary-to-move positions under the key
    (zero_mask, one_mask, passes_used) alone.  This walks the whole playout
    tree instead and checks that trust directly: every position reached
    under one key must have the same subtree value, or a memo hit could
    return the value of another history.  A terminal whose zero mask fails
    ``terminal_check`` scores |E| + 1 for a maximizing adversary and
    -|E| - 1 for a minimizing one.
    """
    maximizing = strategy.role.opponent is Player.ONE
    pick = max if maximizing else min
    failed = g.edge_count + 1 if maximizing else -g.edge_count - 1
    by_key = {}

    def value(state, last):
        if is_terminal(state):
            if terminal_check is not None and not terminal_check(state.zero_mask):
                return failed
            return terminal_value(state, g, objective)
        if to_move(state) is strategy.role:
            move = strategy.choose(state.zero_mask, state.one_mask, state.passes_used, last)
            assert move in legal_moves(state)
            return value(apply_move(state, move), move)
        key = (state.zero_mask, state.one_mask, state.passes_used)
        best = pick(value(apply_move(state, move), move) for move in legal_moves(state))
        assert by_key.setdefault(key, best) == best, f"memo key {key} holds two values"
        return best

    return value(new_game(g, variant), None)


def assert_memo_sound(g, strategy, variant, objective, terminal_check=None):
    expected = reference_worst(g, strategy, variant, objective, terminal_check)
    got = Sweep(g, strategy, variant, objective, terminal_check=terminal_check).worst
    assert got == expected


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.code)
def test_memo_sound_small_path_scripts(variant):
    for n in range(3, 7):
        assert_memo_sound(path_graph(n), path_strategy(n), variant,
                          Objective.CORDIALITY)


# the split strategies refuse passes, so they run in the two pass-free variants
@pytest.mark.parametrize("variant", PASS_FREE, ids=lambda v: v.code)
def test_memo_sound_path_strategy(variant):
    for n in range(3, 9):
        assert_memo_sound(path_graph(n), path_strategy(n), variant, Objective.CORDIALITY)


# zero-starts reaches every tree that ``verify all --max-n 10`` sweeps
@pytest.mark.parametrize("variant, max_n, count", [
    # 1, 1, 1, 2, 3, 6, 11, 23, 47, 106 trees on 1..10 vertices
    pytest.param(ZERO_STARTS, 10, 201, id="A"),
    pytest.param(ONE_STARTS, 8, 48, id="I"),
])
def test_memo_sound_tree_strategy(variant, max_n, count):
    checked = 0
    for n in range(1, max_n + 1):
        for t in enumerate_trees(n):
            assert_memo_sound(t, tree_strategy(t), variant, Objective.CORDIALITY)
            checked += 1
    assert checked == count


def test_memo_sound_balance_strategy():
    for n in range(2, 9):
        assert_memo_sound(path_graph(n), balance_maximizer_strategy(n), ZERO_STARTS,
                          Objective.BALANCE)


def test_failing_terminal_check_scores_past_every_score():
    # the balance strategy on P6 keeps its pair edges (0, 1), (2, 3) and
    # (4, 5) cut; edge (1, 2) is the adversary's to leave uncut
    g = path_graph(6)
    strategy = balance_maximizer_strategy(6)

    def edge_12_cut(zero):
        return bool((zero >> 1 ^ zero >> 2) & 1)

    expected = reference_worst(g, strategy, ZERO_STARTS, Objective.BALANCE, edge_12_cut)
    assert expected == -g.edge_count - 1
    assert_memo_sound(g, strategy, ZERO_STARTS, Objective.BALANCE, edge_12_cut)
    sweep = Sweep(g, strategy, ZERO_STARTS, Objective.BALANCE, edge_12_cut)
    value, line = sweep.worst, sweep.line()
    assert value == expected
    state = new_game(g, ZERO_STARTS)
    for move in line:
        assert move in legal_moves(state)
        state = apply_move(state, move)
    assert is_terminal(state) and not edge_12_cut(state.zero_mask)


def test_finished_sweep_is_freed_without_the_cyclic_collector():
    # a sweep holds no reference cycle, so dropping it frees its memo at once
    gc.collect()
    gc.disable()
    try:
        sweep = Sweep(path_graph(12), path_strategy(12), ZERO_STARTS, Objective.CORDIALITY)
        assert len(sweep.line()) == 12
        del sweep
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- the legality check on strategy moves -------------------------------------


class _Stub(Strategy):
    """Plays ``pick(occupied)`` whatever the position, given the mask of
    labelled vertices."""

    provenance = "stub"

    def __init__(self, role, pick):
        self.role = role
        self.pick = pick

    def choose(self, zero, one, passes, last_move):
        return self.pick(zero | one)


def _first_free_then_pass(occupied):
    return PASS if occupied else 0


def _true_then_lowest_free(occupied):
    # a fast path that took True for vertex 1 would finish the game unrefused
    return (~occupied & occupied + 1).bit_length() - 1 if occupied else True


ILLEGAL_STUBS = {
    # the second zero move reuses vertex 0
    "occupied": (Player.ZERO, ZERO_STARTS, 3, lambda s: 0, 0),
    "out-of-range": (Player.ZERO, ZERO_STARTS, 3, lambda s: 3, 3),
    "negative": (Player.ZERO, ZERO_STARTS, 3, lambda s: -1, -1),
    # a move is a vertex int or PASS; anything else is no move at all
    "not-a-vertex": (Player.ZERO, ZERO_STARTS, 3, lambda s: "x", "x"),
    "not-an-int": (Player.ONE, ONE_STARTS, 3, lambda s: 1.5, 1.5),
    # a bool is an int subclass, and True shifts like vertex 1
    "a-bool": (Player.ZERO, ZERO_STARTS, 3, _true_then_lowest_free, True),
    # the one player holds the pass in this variant, the zero player never does
    "zero-passes": (Player.ZERO, ONE_STARTS_WITH_PASS, 4, lambda s: PASS, PASS),
    # the first pass is legal, the second exceeds the budget of one
    "budget-spent": (Player.ONE, ONE_STARTS_WITH_PASS, 5, lambda s: PASS, PASS),
    # one, zero, then a pass with a single vertex left on the 3-path
    "one-left": (Player.ONE, ONE_STARTS_WITH_PASS, 3, _first_free_then_pass, PASS),
}


@pytest.mark.parametrize("case", sorted(ILLEGAL_STUBS))
def test_illegal_strategy_move_raises(case):
    role, variant, n, pick, bad = ILLEGAL_STUBS[case]
    objective = Objective.CORDIALITY
    with pytest.raises(StrategyMoveError) as info:
        Sweep(path_graph(n), _Stub(role, pick), variant, objective)
    assert info.value.move == bad
    # compared with its type too, since True == 1
    assert (type(bad), bad) not in [(type(m), m) for m in legal_moves(info.value.state)]
    assert "not among the legal moves" in str(info.value)
    shown = "pass" if bad is PASS else repr(bad)
    assert str(info.value).startswith(f"illegal strategy move {shown} at ")


def test_strategy_moves_build_no_game_state(monkeypatch):
    # the sweep hands a strategy its masks and checks a vertex move on them,
    # and the terminal check its zero mask; a legal move builds no GameState
    built = checked = 0

    def counted(*fields):
        nonlocal built
        built += 1
        return GameState(*fields)

    monkeypatch.setattr(harness, "GameState", counted)
    assert main(["verify", "tree-bound", "--max-n", "8"], out=io.StringIO()) == 0
    assert built == 0

    def edge_45_cut(zero):
        nonlocal checked
        checked += 1
        return bool((zero >> 4 ^ zero >> 5) & 1)

    sweep = Sweep(path_graph(6), balance_maximizer_strategy(6), ZERO_STARTS, Objective.BALANCE,
                  edge_45_cut)
    assert sweep.worst >= 0
    assert built == 0 < checked
