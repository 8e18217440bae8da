import random
import sys
import warnings

import pytest

import cordiality.solver
from cordiality import (
    PASS,
    Objective,
    SolverCapError,
    ONE_STARTS,
    ONE_STARTS_WITH_PASS,
    ZERO_STARTS,
    apply_move,
    brute_force_value,
    enumerate_trees,
    from_edges,
    game_number,
    is_terminal,
    legal_moves,
    new_game,
    path_graph,
    position_values,
    random_connected_graph,
    solve,
    star_graph,
    terminal_value,
)
from cordiality.game import replay
from cordiality.solver import (
    RECURSION_HEADROOM,
    TABLE_CAPACITY,
    SolveResult,
    _descend_line,
    _Searcher,
)

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
    # the empty graph takes no special case: the root loop starts at
    # lo == hi == 0 and probes nothing, and the start is already terminal
    for variant in ALL_VARIANTS:
        for objective in (Objective.CORDIALITY, Objective.BALANCE):
            for line in (True, False):
                assert solve(path_graph(0), variant, objective, line=line) == SolveResult(0, 0, [])
    assert brute_force_value(path_graph(1), ONE_STARTS, Objective.BALANCE) == 0


def test_game_number_dispatch():
    p6 = path_graph(6)
    assert game_number(p6, "cg") == 1
    assert game_number(p6, "cg_i") == 1
    assert game_number(p6, "cg_ip") == 1
    assert game_number(p6, "bg") == 1
    with pytest.raises(ValueError):
        game_number(p6, "nope")


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
    assert line[0] == 1  # the middle vertex secures value 0


def test_hard_cap_refusal_and_env(monkeypatch):
    with pytest.raises(SolverCapError):
        solve(path_graph(23), ZERO_STARTS, Objective.CORDIALITY)
    with pytest.raises(SolverCapError):
        solve(path_graph(5), ZERO_STARTS, Objective.CORDIALITY, max_n=4)
    assert solve(path_graph(5), ZERO_STARTS, Objective.CORDIALITY, max_n=6).value == 2
    monkeypatch.setattr(cordiality.solver, "TABLE_CAPACITY", 1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = solve(path_graph(6), ZERO_STARTS, Objective.CORDIALITY, max_n=22).value
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
    # expanded 6902, and skipping twins 6840; valuing four-free positions in
    # closed form, with swing order from six free vertices, expanded 3708;
    # valuing five-free positions with no pass left in closed form instead,
    # as counted table entries, with four-free ones searched, expands 3682.
    rng = random.Random(2024)
    graphs = [random_connected_graph(n, 0.4, rng) for n in (8, 9, 10) for _ in range(4)]
    total = sum(solve(g, ZERO_STARTS, Objective.BALANCE, line=True).nodes for g in graphs)
    assert total == 3682
    # The principal-line descent's work: probing each child until it was
    # shown to keep or miss the value expanded 76085 nodes here; one probe
    # per child expanded 62800; the five-free closed form in place of the
    # four-free one expands 63614, as a four-free position reached with no
    # pass left, mostly through a pass, is now searched.
    paths = [path_graph(n) for n in range(3, 14)]
    total = sum(solve(g, ONE_STARTS_WITH_PASS, Objective.BALANCE).nodes for g in paths)
    assert total == 63614


def test_star_node_count_is_pinned():
    # The leaves of a star are twins, so the search tries one free leaf per
    # position: without twin pruning these solves expand 281236 nodes, with
    # it 1894, and with four-free positions valued in closed form 1634; with
    # five-free positions with no pass left in closed form instead they
    # expand 1668, as a four-free position reached with no pass left,
    # through a pass or a probe of the line descent, is now searched.
    total = sum(
        solve(star_graph(n), variant, objective).nodes
        for n in range(8, 16)
        for variant in ALL_VARIANTS
        for objective in (Objective.CORDIALITY, Objective.BALANCE)
    )
    assert total == 1668


def test_oracle_equals_solver_on_small_paths_and_trees():
    # The oracle's memo is keyed by the exact position: a key without the
    # pass count already misvalues P4 in I+pass under both objectives.
    graphs = [path_graph(n) for n in range(2, 8)] + enumerate_trees(6)
    for g in graphs:
        for variant in ALL_VARIANTS:
            for objective in (Objective.CORDIALITY, Objective.BALANCE):
                assert brute_force_value(g, variant, objective) == solve(
                    g, variant, objective, line=False
                ).value, (g.edges, variant.code, objective.value)


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
    with pytest.raises(Reached):  # 511 edges: the sentinels are still valid bounds
        solve(from_edges(33, clique[:511]), ZERO_STARTS, Objective.CORDIALITY, max_n=10_000)
    with pytest.raises(SolverCapError, match="512 edges"):
        solve(from_edges(33, clique[:512]), ZERO_STARTS, Objective.CORDIALITY, max_n=10_000)


def test_graphs_deeper_than_the_recursion_limit_allows_are_refused():
    # K32's vertices are all twins, so its search is one line of plies as
    # deep as the graph, and a pass in I+pass adds one more; without a pass
    # each player labels 16 vertices, 256 of the 496 edges are cut, and the
    # one player gains nothing by passing: the value is 2 * 256 - 496 = 16
    clique = from_edges(32, [(u, v) for v in range(32) for u in range(v)])
    sparse = from_edges(33, [(0, 1)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(32 + RECURSION_HEADROOM)
    try:
        for objective in (Objective.CORDIALITY, Objective.BALANCE):
            assert solve(clique, ONE_STARTS_WITH_PASS, objective, max_n=32).value == 16
        with pytest.raises(SolverCapError, match="33 vertices, above the 32"):
            solve(sparse, ZERO_STARTS, Objective.CORDIALITY, max_n=33)
    finally:
        sys.setrecursionlimit(limit)


def _reachable_positions(g, variant, free_counts):
    """Every reachable state whose count of free vertices is in ``free_counts``."""
    start = new_game(g, variant)
    seen = {start}
    stack = [start]
    found = []
    while stack:
        state = stack.pop()
        free_count = g.n - (state.zero_mask | state.one_mask).bit_count()
        if free_count in free_counts:
            found.append(state)
        if free_count <= min(free_counts):
            continue
        for move in legal_moves(state):
            child = apply_move(state, move)
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return found


def test_endgame_closed_form_matches_plain_recursion():
    rng = random.Random(2718)
    graphs = [tree for n in range(2, 8) for tree in enumerate_trees(n)]
    graphs += [random_connected_graph(n, 0.5, rng) for n in (6, 7, 8, 8)]
    inputs = [(g, (2, 3, 4, 5)) for g in graphs]  # every endgame position
    # every position at any free count, so the root probe loop also meets
    # balance values below its first window at the parity floor
    small = [tree for n in range(1, 7) for tree in enumerate_trees(n)]
    small += [random_connected_graph(n, 0.5, rng) for n in (6, 7)]
    inputs += [(g, range(g.n + 1)) for g in small]
    one_may_pass_at_three = 0
    pass_left_at_four = 0
    pass_left_at_five = 0
    below_first_window = 0
    for g, free_counts in inputs:
        for variant in ALL_VARIANTS:
            states = _reachable_positions(g, variant, free_counts)
            for state in states:
                free_count = g.n - (state.zero_mask | state.one_mask).bit_count()
                one_may_pass_at_three += free_count == 3 and PASS in legal_moves(state)
                pass_left = state.passes_used < variant.pass_budget
                pass_left_at_four += free_count == 4 and pass_left
                pass_left_at_five += free_count == 5 and pass_left
            for objective in (Objective.CORDIALITY, Objective.BALANCE):
                searcher = _Searcher(g, variant, objective)
                reference = position_values(g, variant, objective)
                for _, _, zero, one, passes in states:
                    value = reference(zero, one, passes)
                    assert searcher.state_value(zero, one, passes) == value, (
                        g.edges, variant.code, objective.value, zero, one, passes
                    )
                    below_first_window += value < g.edge_count % 2
    # the positions where the closed form must not fire are among those checked
    assert one_may_pass_at_three > 0
    assert pass_left_at_four > 0
    assert pass_left_at_five > 0
    assert below_first_window > 0


def test_five_free_store_meets_a_full_table(monkeypatch):
    # A five-free position with no pass left is valued in closed form and
    # stored through the capacity check of every other store: at capacity 1
    # each such store after the first meets a full table, at capacity 0 every
    # one does, and each clears the table, warns and keeps the value.
    g = random_connected_graph(8, 0.7, random.Random(31))
    assert g.edge_count == 23  # of the 28 pairs
    for capacity in (1, 0):
        monkeypatch.setattr(cordiality.solver, "TABLE_CAPACITY", capacity)
        for variant in ALL_VARIANTS:
            states = [
                state for state in _reachable_positions(g, variant, (5,))
                if state.passes_used >= variant.pass_budget
            ]
            assert states
            for objective in (Objective.CORDIALITY, Objective.BALANCE):
                searcher = _Searcher(g, variant, objective)
                reference = position_values(g, variant, objective)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    for _, _, zero, one, passes in states:
                        assert searcher.state_value(zero, one, passes) == reference(zero, one, passes)
                assert any("capacity" in str(w.message) for w in caught)
                assert solve(g, variant, objective).value == reference(0, 0, 0)


def test_probe_bound_holds_at_every_gamma():
    # the one-bound test fails soft: g <= gamma proves v <= g, and g > gamma
    # proves v >= g, at any integer gamma, on or off the parity grid of the
    # values, with one table shared by every probe of a game
    rng = random.Random(4242)
    graphs = [tree for n in range(1, 8) for tree in enumerate_trees(n)]
    graphs += [random_connected_graph(8, 0.5, rng) for _ in range(3)]
    for g in graphs:
        for variant in ALL_VARIANTS:
            states = _reachable_positions(g, variant, range(g.n + 1))
            for objective in (Objective.CORDIALITY, Objective.BALANCE):
                searcher = _Searcher(g, variant, objective)
                reference = position_values(g, variant, objective)
                for gamma in range(searcher.floor - 1, g.edge_count + 2):
                    for _, _, zero, one, passes in states:
                        value = reference(zero, one, passes)
                        got = searcher.probe(zero, one, passes, gamma)
                        assert value <= got if got <= gamma else value >= got, (
                            g.edges, variant.code, objective.value, zero, one, passes, gamma
                        )


def test_line_descent_probes_each_child_at_most_once(monkeypatch):
    # probes[i]: the probes the descent makes on the i-th child it tries
    probes = []
    apply = cordiality.solver.apply_move

    def counting_apply(state, move):
        probes.append(0)
        return apply(state, move)

    monkeypatch.setattr(cordiality.solver, "apply_move", counting_apply)

    def descent_probes(g, variant, objective):
        searcher = _Searcher(g, variant, objective)
        value = searcher.state_value(0, 0, 0)
        probe = searcher.probe

        def counting_probe(*args):
            probes[-1] += 1
            return probe(*args)

        searcher.probe = counting_probe
        probes.clear()
        _descend_line(searcher, value)
        return list(probes)

    for n in range(3, 15):
        counts = descent_probes(path_graph(n), ONE_STARTS_WITH_PASS, Objective.BALANCE)
        assert counts and max(counts) <= 1, n
    # every ply's value is the mover's extreme, |E| or the floor, so every
    # child keeps it and none is probed
    for variant in ALL_VARIANTS:
        assert set(descent_probes(path_graph(2), variant, Objective.CORDIALITY)) == {0}
        for objective in (Objective.CORDIALITY, Objective.BALANCE):
            assert set(descent_probes(from_edges(5, []), variant, objective)) == {0}


def _reference_line(g, variant, objective):
    """The value and the lowest-index optimal line, pass last, by the oracle."""
    reference = position_values(g, variant, objective)
    value = reference(0, 0, 0)  # every position on an optimal line keeps this value
    state = new_game(g, variant)
    line = []
    while not is_terminal(state):
        # the tie-break order: ascending vertex, then the pass
        for move in sorted(legal_moves(state), key=lambda m: (m is PASS, m or 0)):
            child = apply_move(state, move)
            if reference(child.zero_mask, child.one_mask, child.passes_used) == value:
                break
        line.append(move)
        state = child
    return value, line


def test_principal_line_is_lowest_index_optimal_line(monkeypatch):
    rng = random.Random(1618)
    graphs = [tree for n in range(1, 8) for tree in enumerate_trees(n)]
    graphs += [random_connected_graph(n, 0.5, rng) for n in (5, 6, 7, 7)]
    # adjacent twins, which trees lack apart from P2: K5, K6, and a triangle
    # with two pendants on one corner
    graphs += [from_edges(n, [(u, v) for v in range(n) for u in range(v)]) for n in (5, 6)]
    graphs.append(from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4)]))
    both = (Objective.CORDIALITY, Objective.BALANCE)
    cases = [(g, both) for g in graphs]
    # dense graphs where balance positions with at least _SWING_MIN_FREE
    # free vertices search moves in swing order, not index order: on these
    # n = 8 graphs, positions with six and seven free vertices
    cases += [(random_connected_graph(8, 0.45, rng), (Objective.BALANCE,)) for _ in range(4)]
    for g, objectives in cases:
        for variant in ALL_VARIANTS:
            for objective in objectives:
                value, line = _reference_line(g, variant, objective)
                # the default table; a 50-entry table that fills and clears
                # mid-search; a table of one entry
                for capacity in (TABLE_CAPACITY, 50, 0):
                    monkeypatch.setattr(cordiality.solver, "TABLE_CAPACITY", capacity)
                    result = solve(g, variant, objective)
                    assert (result.value, result.principal_line) == (value, line), (
                        g.edges, variant.code, objective.value, capacity
                    )
