import random
import warnings

import pytest

import cordiality.solver
from cordiality import (
    Move,
    Objective,
    SolveOptions,
    SolverCapError,
    ONE_STARTS,
    ONE_STARTS_WITH_PASS,
    ZERO_STARTS,
    brute_force_value,
    enumerate_trees,
    from_edges,
    game_number,
    new_game,
    path_graph,
    random_connected_graph,
    solve,
    star_graph,
    terminal_value,
)
from cordiality.game import Player, replay
from cordiality.solver import _Searcher

ALL_VARIANTS = (ZERO_STARTS, ONE_STARTS, ONE_STARTS_WITH_PASS)

# regression pins computed with the reference evaluator
P5_CORDIALITY = 2
K13_CORDIALITY = 1
K13_BALANCE = 1


def test_small_path_values_all_variants():
    for n, expected in ((3, 0), (4, 1), (6, 1)):
        for variant in ALL_VARIANTS:
            assert solve(path_graph(n), variant, Objective.CORDIALITY).value == expected


def test_p5_pinned_by_reference():
    for variant in ALL_VARIANTS:
        value = solve(path_graph(5), variant, Objective.CORDIALITY).value
        assert value <= 2
        assert value == brute_force_value(path_graph(5), variant, Objective.CORDIALITY)
        assert value == P5_CORDIALITY


def test_star_pinned_by_reference():
    star = star_graph(4)
    for variant in ALL_VARIANTS:
        assert brute_force_value(star, variant, Objective.CORDIALITY) == K13_CORDIALITY
        assert solve(star, variant, Objective.CORDIALITY).value == K13_CORDIALITY
    assert solve(star, ZERO_STARTS, Objective.BALANCE).value == K13_BALANCE


def test_trivial_values():
    assert solve(path_graph(2), ZERO_STARTS, Objective.BALANCE).value == 1
    assert solve(path_graph(0), ZERO_STARTS, Objective.CORDIALITY).value == 0
    assert brute_force_value(path_graph(1), ONE_STARTS, Objective.BALANCE) == 0


def test_game_number_dispatch():
    p6 = path_graph(6)
    assert game_number(p6, "cg") == 1
    assert game_number(p6, "cg_i") == 1
    assert game_number(p6, "cg_ip") == 1
    assert game_number(p6, "bg") == 1
    with pytest.raises(ValueError):
        game_number(p6, "nope")


def test_option_independence_small(monkeypatch):
    grids = [
        SolveOptions(),
        SolveOptions(table_capacity=0),
    ]
    for n in (5, 6, 7):
        g = path_graph(n)
        for variant in ALL_VARIANTS:
            for objective in (Objective.CORDIALITY, Objective.BALANCE):
                values = {solve(g, variant, objective, opts).value for opts in grids}
                # the same grid with path reversal forced on at every order
                monkeypatch.setattr(cordiality.solver, "_REVERSAL_MIN_N", 1)
                values |= {solve(g, variant, objective, opts).value for opts in grids}
                monkeypatch.undo()
                assert len(values) == 1


def test_symmetry_requires_path_order(monkeypatch):
    # neither graph is a path in path order, so the solver searches both
    # without folding keys under reversal
    scrambled = from_edges(3, [(0, 2), (2, 1)])  # a path, but not in index order
    for g in (star_graph(4), scrambled):
        for variant in ALL_VARIANTS:
            for objective in (Objective.CORDIALITY, Objective.BALANCE):
                assert solve(g, variant, objective).value == brute_force_value(g, variant, objective)
    p8 = path_graph(8)
    plain = solve(p8, ZERO_STARTS, Objective.CORDIALITY)
    monkeypatch.setattr(cordiality.solver, "_REVERSAL_MIN_N", 1)
    folded = solve(p8, ZERO_STARTS, Objective.CORDIALITY)
    assert folded.value == plain.value
    assert folded.nodes < plain.nodes


def test_principal_line_replays_to_value():
    for variant in ALL_VARIANTS:
        for g in (path_graph(3), path_graph(6), star_graph(5)):
            result = solve(g, variant, Objective.CORDIALITY)
            final = replay(g, variant, result.principal_line)
            assert terminal_value(final, g, Objective.CORDIALITY) == result.value


def test_principal_line_tiebreak_prefers_low_labels():
    line = solve(path_graph(3), ZERO_STARTS, Objective.CORDIALITY).principal_line
    assert line[0] == Move.label(1)  # the middle vertex secures value 0


def test_hard_cap_refusal_and_env(monkeypatch):
    with pytest.raises(SolverCapError):
        solve(path_graph(23), ZERO_STARTS, Objective.CORDIALITY)
    with pytest.raises(SolverCapError):
        solve(path_graph(5), ZERO_STARTS, Objective.CORDIALITY, SolveOptions(max_n=4))
    assert solve(path_graph(5), ZERO_STARTS, Objective.CORDIALITY, SolveOptions(max_n=6)).value == 2
    monkeypatch.setenv("CORDIALITY_TABLE_CAP", "1")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = solve(path_graph(6), ZERO_STARTS, Objective.CORDIALITY, SolveOptions(max_n=22)).value
    assert value == 1
    assert any("capacity" in str(w.message) for w in caught)


def test_nodes_counter_positive_and_deterministic():
    first = solve(path_graph(8), ZERO_STARTS, Objective.CORDIALITY)
    second = solve(path_graph(8), ZERO_STARTS, Objective.CORDIALITY)
    assert first.nodes > 0
    assert first.nodes == second.nodes


def test_balance_node_count_is_pinned():
    # A regression guard on search work: a change that moves this total
    # records the before and after counts in CHANGES.md.  The static degree
    # order expanded 10961 nodes here; swing order from five free vertices
    # expands 6902.
    rng = random.Random(2024)
    graphs = [random_connected_graph(n, 0.4, rng) for n in (8, 9, 10) for _ in range(4)]
    total = sum(solve(g, ZERO_STARTS, Objective.BALANCE, line=True).nodes for g in graphs)
    assert total == 6902


def test_oracle_rejects_large_instances():
    with pytest.raises(ValueError):
        brute_force_value(path_graph(11), ZERO_STARTS, Objective.CORDIALITY)


def test_disconnected_graphs_are_supported():
    g = from_edges(5, [(0, 1), (2, 3)])  # two edges plus an isolated vertex
    for variant in ALL_VARIANTS:
        for objective in (Objective.CORDIALITY, Objective.BALANCE):
            assert (
                solve(g, variant, objective).value
                == brute_force_value(g, variant, objective)
            )


def test_edge_cap_matches_table_entry_range(monkeypatch):
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(cordiality.solver, "_Searcher", reached)
    clique = [(u, v) for u in range(33) for v in range(u + 1, 33)]  # 528 edges
    opts = SolveOptions(max_n=10_000)
    with pytest.raises(Reached):  # 511 edges: the sentinels are still valid bounds
        solve(from_edges(33, clique[:511]), ZERO_STARTS, Objective.CORDIALITY, opts)
    with pytest.raises(SolverCapError, match="512 edges"):
        solve(from_edges(33, clique[:512]), ZERO_STARTS, Objective.CORDIALITY, opts)


def _moves(g, variant, zero, one, passes):
    """Whether the zero player moves, and every position one move on."""
    free = g.full_mask & ~(zero | one)
    plies = zero.bit_count() + one.bit_count() + passes
    zero_to_move = (variant.starter is Player.ZERO) == (plies % 2 == 0)
    children = [
        (zero | 1 << v, one, passes) if zero_to_move else (zero, one | 1 << v, passes)
        for v in range(g.n)
        if free >> v & 1
    ]
    if not zero_to_move and passes < variant.pass_budget and free.bit_count() >= 2:
        children.append((zero, one, passes + 1))
    return zero_to_move, children


def _plain_value(g, variant, objective, zero, one, passes, memo=None):
    """Minimax from a position with no pruning, no closed form and no bounds.

    ``memo``, if given, is a dict that caches exact values by position for
    this graph, variant and objective.
    """
    if memo is not None and (zero, one, passes) in memo:
        return memo[zero, one, passes]
    if not g.full_mask & ~(zero | one):
        cut = sum(1 for u, v in g.edges if (zero >> u ^ zero >> v) & 1)
        d = 2 * cut - g.edge_count
        value = abs(d) if objective is Objective.CORDIALITY else d
    else:
        zero_to_move, children = _moves(g, variant, zero, one, passes)
        values = [_plain_value(g, variant, objective, *child, memo) for child in children]
        value = min(values) if zero_to_move else max(values)
    if memo is not None:
        memo[zero, one, passes] = value
    return value


def _reachable_positions(g, variant, free_counts):
    """Every reachable position whose count of free vertices is in ``free_counts``."""
    seen = {(0, 0, 0)}
    stack = [(0, 0, 0)]
    found = []
    while stack:
        position = stack.pop()
        zero, one, _ = position
        free_count = g.n - zero.bit_count() - one.bit_count()
        if free_count in free_counts:
            found.append(position)
        if free_count <= min(free_counts):
            continue
        for child in _moves(g, variant, *position)[1]:
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return found


def test_endgame_closed_form_matches_plain_recursion():
    rng = random.Random(2718)
    graphs = [tree for n in range(2, 8) for tree in enumerate_trees(n)]
    graphs += [random_connected_graph(n, 0.5, rng) for n in (6, 7, 8, 8)]
    inputs = [(g, (2, 3)) for g in graphs]  # every endgame position
    # every position at any free count, so the root probe loop also meets
    # balance values below its first window at the parity floor
    small = [tree for n in range(1, 7) for tree in enumerate_trees(n)]
    small += [random_connected_graph(n, 0.5, rng) for n in (6, 7)]
    inputs += [(g, range(g.n + 1)) for g in small]
    one_may_pass_at_three = 0
    below_first_window = 0
    for g, free_counts in inputs:
        for variant in ALL_VARIANTS:
            positions = _reachable_positions(g, variant, free_counts)
            for zero, one, passes in positions:
                free_count = g.n - zero.bit_count() - one.bit_count()
                zero_to_move = _moves(g, variant, zero, one, passes)[0]
                if free_count == 3 and not zero_to_move and passes < variant.pass_budget:
                    one_may_pass_at_three += 1
            for objective in (Objective.CORDIALITY, Objective.BALANCE):
                searcher = _Searcher(g, variant, objective, SolveOptions())
                memo = {}
                for zero, one, passes in positions:
                    value = _plain_value(g, variant, objective, zero, one, passes, memo)
                    assert searcher.state_value(zero, one, passes) == value, (
                        g.edges, variant.code, objective.value, zero, one, passes
                    )
                    below_first_window += value < g.edge_count % 2
    # the positions where the closed form must not fire are among those checked
    assert one_may_pass_at_three > 0
    assert below_first_window > 0


def _reference_line(g, variant, objective):
    """The value and the lowest-index optimal line, pass last, by plain recursion."""
    position = (0, 0, 0)
    value = None
    line = []
    memo = {}
    while g.full_mask & ~(position[0] | position[1]):
        zero_to_move, children = _moves(g, variant, *position)
        values = [_plain_value(g, variant, objective, *child, memo) for child in children]
        if value is None:  # the root: every later position on the line keeps its value
            value = min(values) if zero_to_move else max(values)
        child = children[values.index(value)]
        placed = (child[0] | child[1]) ^ (position[0] | position[1])
        line.append(Move.label(placed.bit_length() - 1) if placed else Move(None))
        position = child
    if value is None:  # no vertices
        value = _plain_value(g, variant, objective, *position)
    return value, line


def test_principal_line_is_lowest_index_optimal_line():
    rng = random.Random(1618)
    graphs = [tree for n in range(1, 8) for tree in enumerate_trees(n)]
    graphs += [random_connected_graph(n, 0.5, rng) for n in (5, 6, 7, 7)]
    both = (Objective.CORDIALITY, Objective.BALANCE)
    cases = [(g, both) for g in graphs]
    # dense graphs where balance positions with at least _SWING_MIN_FREE
    # free vertices search moves in swing order, not index order
    cases += [(random_connected_graph(8, 0.45, rng), (Objective.BALANCE,)) for _ in range(4)]
    for g, objectives in cases:
        for variant in ALL_VARIANTS:
            for objective in objectives:
                value, line = _reference_line(g, variant, objective)
                for opts in (SolveOptions(), SolveOptions(table_capacity=0)):
                    result = solve(g, variant, objective, opts)
                    assert (result.value, result.principal_line) == (value, line), (
                        g.edges, variant.code, objective.value, opts
                    )
