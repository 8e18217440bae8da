import random

import pytest

from cordiality import (
    IllegalMoveError,
    Objective,
    PASS,
    Player,
    ONE_STARTS,
    ONE_STARTS_WITH_PASS,
    VARIANT_CODES,
    Variant,
    ZERO_STARTS,
    apply_move,
    is_legal,
    is_terminal,
    legal_moves,
    new_game,
    path_graph,
    star_graph,
    terminal_value,
    to_move,
)
from cordiality.game import replay
from cordiality.graphs import vertex_mask


def test_new_game_basics():
    state = new_game(path_graph(4), ZERO_STARTS)
    assert to_move(state) is Player.ZERO
    assert state.zero_mask == state.one_mask == 0
    state = new_game(path_graph(6), ONE_STARTS_WITH_PASS)
    assert to_move(state) is Player.ONE
    assert PASS in legal_moves(state)
    assert is_terminal(new_game(path_graph(0), ZERO_STARTS))


def test_turn_alternation_and_pass_turn():
    state = new_game(path_graph(6), ONE_STARTS_WITH_PASS)
    state = apply_move(state, PASS)
    assert to_move(state) is Player.ZERO
    state = new_game(path_graph(4), ZERO_STARTS)
    state = apply_move(state, 0)
    state = apply_move(state, 1)
    assert to_move(state) is Player.ZERO


def test_legal_moves():
    assert len(legal_moves(new_game(path_graph(3), ZERO_STARTS))) == 3
    fresh = new_game(path_graph(6), ONE_STARTS_WITH_PASS)
    assert len(legal_moves(fresh)) == 7  # six labels plus the pass
    full = replay(path_graph(2), ZERO_STARTS, [0, 1])
    assert legal_moves(full) == []


def test_pass_needs_two_unlabeled():
    # one-starts-with-pass on a 3-path: after two labels only one vertex
    # remains, so the maximizer's pass is no longer available
    state = replay(path_graph(3), ONE_STARTS_WITH_PASS, [1, 0])
    assert to_move(state) is Player.ONE
    assert PASS not in legal_moves(state)
    with pytest.raises(IllegalMoveError):
        apply_move(state, PASS)


def test_apply_move_validation():
    state = new_game(path_graph(3), ZERO_STARTS)
    state = apply_move(state, 1)
    assert state.zero_mask == vertex_mask({1})
    with pytest.raises(IllegalMoveError):
        apply_move(state, 1)
    with pytest.raises(IllegalMoveError, match="no pass budget"):
        apply_move(state, PASS)  # the one player moves, with no pass in this variant
    with pytest.raises(IllegalMoveError):
        apply_move(state, 7)
    # the zero player may not pass, even in a variant with a pass left
    state = apply_move(new_game(path_graph(3), ONE_STARTS_WITH_PASS), 0)
    with pytest.raises(IllegalMoveError, match="only the one player may pass"):
        apply_move(state, PASS)
    with pytest.raises(IllegalMoveError, match="game is over"):
        apply_move(replay(path_graph(3), ZERO_STARTS, [0, 1, 2]), 0)


def test_moves_are_vertices_and_states_frozen():
    assert legal_moves(new_game(path_graph(6), ZERO_STARTS)) == list(range(6))
    assert legal_moves(new_game(path_graph(70), ZERO_STARTS)) == list(range(70))
    assert legal_moves(new_game(path_graph(3), ONE_STARTS_WITH_PASS)) == [0, 1, 2, PASS]
    state = new_game(path_graph(3), ZERO_STARTS)
    for move in (-1, 3, 10**6, 1.5, "x", "pass", True):
        assert not is_legal(state, move)
        with pytest.raises(IllegalMoveError):
            apply_move(state, move)
    with pytest.raises(AttributeError):
        state.zero_mask = 1


def test_variants_check_their_pass_budget():
    with pytest.raises(ValueError, match="0 or 1"):
        Variant(Player.ONE, 2)
    with pytest.raises(ValueError, match="only the one player"):
        Variant(Player.ZERO, 1)
    with pytest.raises(ValueError, match="only the one player"):
        ZERO_STARTS._replace(pass_budget=1)
    assert ONE_STARTS._replace(pass_budget=1) == ONE_STARTS_WITH_PASS
    assert Variant(Player.ONE, 1) == ONE_STARTS_WITH_PASS
    assert Variant(Player.ZERO) == ZERO_STARTS
    assert {v.code: v for v in (ZERO_STARTS, ONE_STARTS, ONE_STARTS_WITH_PASS)} == VARIANT_CODES
    with pytest.raises(AttributeError):
        ZERO_STARTS.pass_budget = 1


def test_terminal_values():
    state = replay(
        path_graph(6),
        ZERO_STARTS,
        [0, 1, 2, 3, 4, 5],
    )
    assert state.zero_mask == vertex_mask({0, 2, 4})
    assert terminal_value(state, path_graph(6), Objective.CORDIALITY) == 5
    state = replay(path_graph(2), ZERO_STARTS, [0, 1])
    assert terminal_value(state, path_graph(2), Objective.CORDIALITY) == 1
    assert terminal_value(state, path_graph(2), Objective.BALANCE) == 1
    # zero player holding one end of the path: signed value goes negative
    state = replay(
        path_graph(6),
        ZERO_STARTS,
        [3, 0, 4, 1, 5, 2],
    )
    assert state.zero_mask == vertex_mask({3, 4, 5})
    assert terminal_value(state, path_graph(6), Objective.BALANCE) == -3
    with pytest.raises(IllegalMoveError):
        terminal_value(new_game(path_graph(3), ZERO_STARTS), path_graph(3), Objective.CORDIALITY)


@pytest.mark.parametrize("variant", [ZERO_STARTS, ONE_STARTS, ONE_STARTS_WITH_PASS])
def test_random_playout_invariants(variant):
    rng = random.Random(1234)
    for graph in (path_graph(5), path_graph(6), star_graph(5)):
        for _ in range(300):
            state = new_game(graph, variant)
            while not is_terminal(state):
                assert not state.zero_mask & state.one_mask
                moves = legal_moves(state)
                state = apply_move(state, rng.choice(moves))
            zeros, ones = state.zero_mask.bit_count(), state.one_mask.bit_count()
            assert abs(zeros - ones) <= 1
            cord = terminal_value(state, graph, Objective.CORDIALITY)
            bal = terminal_value(state, graph, Objective.BALANCE)
            assert cord == abs(bal)
            assert cord % 2 == graph.edge_count % 2
            if state.passes_used and graph.n % 2 == 0:
                assert zeros == ones
            if state.passes_used and graph.n % 2 == 1:
                assert zeros == ones + 1


@pytest.mark.parametrize("variant", [ZERO_STARTS, ONE_STARTS, ONE_STARTS_WITH_PASS])
def test_is_legal_matches_legal_moves(variant):
    rng = random.Random(4321)
    for graph in (path_graph(5), path_graph(6), star_graph(7)):
        n = graph.n
        candidates = [*range(-1, n + 2), PASS, 1.5, "x", "pass"]
        for _ in range(100):
            state = new_game(graph, variant)
            while True:
                moves = legal_moves(state)
                for move in candidates:
                    assert is_legal(state, move) == (move in moves), (state, move)
                assert not state.zero_mask & state.one_mask
                if is_terminal(state):
                    break
                state = apply_move(state, rng.choice(moves))
    # vertices past 63, beyond one machine word of mask
    state = replay(path_graph(70), variant, [66, 3])
    moves = legal_moves(state)
    assert len(moves) == 68 + (variant.pass_budget == 1)
    assert all(is_legal(state, m) for m in moves)
    assert not is_legal(state, 66)
