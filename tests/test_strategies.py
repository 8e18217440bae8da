import random
from itertools import combinations, product

import pytest

from cordiality import (
    CASE6_WINNING_SETS,
    Objective,
    ONE_STARTS,
    ONE_STARTS_WITH_PASS,
    ZERO_STARTS,
    Sweep,
    apply_move,
    balance_maximizer_strategy,
    enumerate_trees,
    find_branch,
    from_edges,
    is_terminal,
    legal_moves,
    new_game,
    path_bound,
    path_graph,
    path_strategy,
    spider_graph,
    suffix_pair_edge,
    terminal_value,
    to_move,
    tree_bound,
    tree_strategy,
)
from cordiality.branching import arm_components
from cordiality.graphs import vertex_mask
from cordiality.strategies import _PAIRINGS, PairingStrategy, StrategyError
from cordiality.trees import NonTreeError
from conftest import path_bound_mod6

ALL_VARIANTS = (ZERO_STARTS, ONE_STARTS, ONE_STARTS_WITH_PASS)


# -- scripted small-path policies -------------------------------------------


def test_small_scripts_meet_their_values():
    targets = {3: 0, 4: 1, 5: 2, 6: 1}
    for n, target in targets.items():
        for variant in ALL_VARIANTS:
            worst = Sweep(path_graph(n), path_strategy(n), variant, Objective.CORDIALITY).worst
            assert worst <= target, (n, variant.code, worst)


def test_script_openings_and_replies():
    # the 3-path book: open on the middle, answer away from it
    p3 = path_strategy(3)
    assert p3.provenance == "path-script-3"
    assert p3.choose(0, 0, 0, None) == 1
    for opening, reply in ((0, 2), (1, 0), (2, 0)):
        state = apply_move(new_game(path_graph(3), ONE_STARTS), opening)
        assert p3.choose(state.zero_mask, state.one_mask, 0, opening) == reply, opening

    # 6-path, maximizer opens the second vertex: the reply is the fifth
    p6 = path_strategy(6)
    state = new_game(path_graph(6), ONE_STARTS)
    opening = 1
    state = apply_move(state, opening)
    assert p6.choose(state.zero_mask, state.one_mask, 0, opening) == 4


def test_path4_script_secures_one_label_per_class():
    def zero_final_sets(variant):
        seen = set()

        strat = path_strategy(4)

        def explore(state, last):
            while not is_terminal(state) and to_move(state) is strat.role:
                move = strat.choose(state.zero_mask, state.one_mask, state.passes_used, last)
                state = apply_move(state, move)
                last = move
            if is_terminal(state):
                seen.add(state.zero_mask)
                return
            for move in legal_moves(state):
                explore(apply_move(state, move), move)

        explore(new_game(path_graph(4), variant), None)
        return seen

    for variant in ALL_VARIANTS:
        for final in zero_final_sets(variant):
            assert final & vertex_mask({0, 2}) and final & vertex_mask({1, 3})


# -- the recursive path strategy --------------------------------------------


@pytest.mark.parametrize("n", range(3, 16))
def test_path_strategy_meets_bounds(n):
    worst = Sweep(path_graph(n), path_strategy(n), ZERO_STARTS, Objective.CORDIALITY).worst
    assert worst <= path_bound(n)
    assert worst <= path_bound_mod6(n)


def test_path18_sweep_work_is_pinned():
    # the sweep memoizes on the position alone, so the six-vertex parts'
    # move orders merge; a change that splits positions again shows here
    sweep = Sweep(path_graph(18), path_strategy(18), ZERO_STARTS, Objective.CORDIALITY)
    assert sweep.worst == 5 == path_bound(18)
    assert sweep.entries == 12866


def test_bound_forms_agree():
    for n in range(3, 40):
        assert path_bound(n) == path_bound_mod6(n)


# -- branch decomposition -----------------------------------------------------


def test_find_branch_cases():
    assert find_branch(spider_graph([1, 1, 2])).case_id == 2
    assert find_branch(spider_graph([1, 1, 5])).case_id == 1
    assert find_branch(spider_graph([2, 2, 1])).case_id == 3
    assert find_branch(spider_graph([1, 3, 2])).case_id == 5
    assert find_branch(spider_graph([3, 3, 2])).case_id == 6
    case4 = find_branch(from_edges(8, [(0, 1), (1, 2), (2, 3), (1, 4), (0, 5), (5, 6), (5, 7)]))
    assert case4.case_id == 4
    assert case4.roles["v1"] == 1 and case4.roles["v"] == 0
    case7 = find_branch(
        from_edges(10, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (5, 6), (0, 7), (7, 8), (7, 9)])
    )
    assert case7.case_id == 7


def test_find_branch_rejects_paths_and_non_trees():
    with pytest.raises(NonTreeError):
        find_branch(path_graph(7))
    with pytest.raises(NonTreeError):
        find_branch(from_edges(3, [(0, 1), (1, 2), (0, 2)]))


def test_find_branch_total_on_enumerated_trees():
    for n in range(2, 12):
        for tree in enumerate_trees(n):
            if all(tree.degree(v) <= 2 for v in range(tree.n)):
                continue
            d = find_branch(tree)
            assert d.case_id in range(1, 8)
            assert d.branch_mask.bit_count() in (2, 4, 6)
            assert d.remainder_mask >> d.roles["v"] & 1
            assert not d.branch_mask & d.remainder_mask
            assert d.branch_mask | d.remainder_mask == tree.full_mask


def test_arm_components_are_ordered_paths():
    g = spider_graph([2, 3, 1])
    arms = arm_components(g, g.full_mask, 0)
    assert sorted(len(arm) for arm in arms) == [1, 2, 3]
    for arm in arms:
        assert g.adj[0] >> arm[0] & 1
        for a, b in zip(arm, arm[1:]):
            assert g.adj[a] >> b & 1


def test_case6_winning_sets_regenerate():
    split, even = [], []
    arm_edges = [(1, 2), (2, 3), (4, 5), (5, 6)]
    for comb in combinations(range(1, 7), 3):
        s = set(comb)
        cross = sum(1 for a, b in arm_edges if (a in s) != (b in s))
        disc = 2 * cross - len(arm_edges)
        if len(s & {1, 4}) == 1:
            if abs(disc) <= 2:
                split.append(frozenset(s))
        elif disc == 0:
            even.append(frozenset(s))
    assert len(split) == 8 and len(even) == 4
    assert set(split + even) == set(CASE6_WINNING_SETS)


def test_six_position_transversals_avoid_the_bad_sets_and_win_case6():
    # the 6-path and two 3-arms share one pairing; each zero set with one
    # position per pair completes none of the eight P6 sets of discrepancy
    # >= 3 that test_c03 lists, and lies in a twin-3-arm winning set
    pairs = _PAIRINGS["path-script-6"]
    assert _PAIRINGS["twin-3-arms"] == pairs
    assert set(pairs) == {frozenset({1, 3}), frozenset({2, 5}), frozenset({4, 6})}
    bad = {
        frozenset({1, 3, 5}), frozenset({2, 4, 6}),
        frozenset({1, 2, 3}), frozenset({4, 5, 6}),
        frozenset({2, 3, 5}), frozenset({2, 4, 5}),
        frozenset({1, 4, 6}), frozenset({1, 3, 6}),
    }
    transversals = {frozenset(pick) for pick in product(*pairs)}
    assert len(transversals) == 8
    assert not transversals & bad
    assert transversals <= set(CASE6_WINNING_SETS)


def test_case6_script_always_lands_in_winning_sets():
    # two 3-arms as a standalone graph; positions map to vertices 0..5
    g = from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    script = PairingStrategy([(tuple(range(6)), "twin-3-arms")], "twin-3-arms")
    winning = {vertex_mask(p - 1 for p in s) for s in CASE6_WINNING_SETS}

    def check(zero):
        return zero in winning

    for variant in ALL_VARIANTS:
        worst = Sweep(g, script, variant, Objective.CORDIALITY, terminal_check=check).worst
        assert abs(worst) <= g.edge_count, (variant.code, worst)  # no terminal failed


# -- the recursive tree strategy ---------------------------------------------


@pytest.mark.parametrize("n", range(2, 11))
def test_tree_strategy_meets_bound(n):
    for tree in enumerate_trees(n):
        worst = Sweep(tree, tree_strategy(tree), ZERO_STARTS, Objective.CORDIALITY).worst
        assert worst <= tree_bound(n), (n, tree.edges, worst)


def test_case2_branch_edges_always_differ():
    g = spider_graph([1, 1, 3])  # case 2 at the center
    decomposition = find_branch(g)
    assert decomposition.case_id == 2
    v1 = decomposition.roles["v1"]
    v2 = decomposition.roles["v2"]

    def check(zero):
        return bool((zero >> v1 ^ zero >> v2) & 1)

    worst = Sweep(
        g, tree_strategy(g), ZERO_STARTS, Objective.CORDIALITY, terminal_check=check
    ).worst
    assert abs(worst) <= g.edge_count, worst  # no terminal failed


def test_case3_script_reply_mirrors_inner_and_outer():
    g = spider_graph([2, 2, 2])
    d = find_branch(g)
    assert d.case_id == 3
    strategy = tree_strategy(g)
    state = new_game(g, ZERO_STARTS)
    move = strategy.choose(0, 0, 0, None)
    state = apply_move(state, move)
    # the opponent grabs the outer vertex of one arm; the reply is the
    # outer vertex of the other arm
    outer = d.roles["v1"]
    state = apply_move(state, outer)
    reply = strategy.choose(state.zero_mask, state.one_mask, 0, outer)
    assert reply == d.roles["v4"]


def test_case6_script_reply_to_second_position():
    # opponent opens the middle of one arm; the reply is the middle of the
    # other arm
    script = PairingStrategy([(tuple(range(6)), "twin-3-arms")], "twin-3-arms")
    g = from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    state = new_game(g, ONE_STARTS)
    opening = 1  # position 2
    state = apply_move(state, opening)
    assert script.choose(state.zero_mask, state.one_mask, 0, opening) == 4  # position 5


# -- the balance strategy -----------------------------------------------------


@pytest.mark.parametrize("n", range(2, 15))
def test_balance_strategy_nonnegative_with_suffix_edge(n):
    g = path_graph(n)
    a, b = suffix_pair_edge(n)

    def check(zero):
        return bool((zero >> a ^ zero >> b) & 1)

    worst = Sweep(
        g, balance_maximizer_strategy(n), ZERO_STARTS, Objective.BALANCE, terminal_check=check
    ).worst
    assert 0 <= worst <= g.edge_count  # the lower end also shows that no terminal failed


def test_balance_strategy_small_cases():
    # on the 2-path the reply is forced and the value is exactly 1
    sweep = Sweep(path_graph(2), balance_maximizer_strategy(2), ZERO_STARTS, Objective.BALANCE)
    assert sweep.worst == 1


# -- the territory rule -------------------------------------------------------


def _position(zero, one):
    # a hand-built pass-free position: choose's zero, one and passes
    return vertex_mask(zero), vertex_mask(one), 0


def test_split_opens_the_next_free_part_once_the_lower_ones_fill():
    # path_strategy(12) has the parts 0..5 and 6..11; the opponent's label
    # fills part 0, so the reply opens part 1 on its first vertex
    assert path_strategy(12).choose(*_position({0, 2, 4}, {1, 3, 5}), 5) == 6
    # balance_maximizer_strategy(6) has the pairs (0,1), (2,3), (4,5) and
    # opens a pair on its far end
    balance = balance_maximizer_strategy(6)
    assert balance.choose(*_position({0, 1}, set()), 1) == 3
    assert balance.choose(*_position({0, 2}, {1, 3}), 2) == 5


def test_split_refuses_a_part_closed_above_an_open_one():
    with pytest.raises(StrategyError, match="pairing discipline"):
        path_strategy(12).choose(*_position({6, 8, 10}, {7, 9, 11}), 11)
    with pytest.raises(StrategyError, match="pairing discipline"):
        balance_maximizer_strategy(6).choose(*_position({4}, {5}), 4)


def test_split_refuses_a_pass_and_an_unprompted_move():
    # no last move is the opening, or else an opponent's pass or a call out of turn
    strategy = path_strategy(12)
    with pytest.raises(StrategyError, match="built for pass-free variants"):
        strategy.choose(0, 0, 1, None)
    with pytest.raises(StrategyError, match="unprompted move mid-game"):
        strategy.choose(*_position({0}, {1}), None)


def test_parts_partition_the_vertices_and_pairings_cover_their_hosts():
    # every strategy is a pairing over its territories: the parts split the
    # vertex set, and each part's sets are disjoint and cover its hosts
    cases = [(n, path_strategy(n)) for n in range(3, 41)]
    cases += [(t.n, tree_strategy(t)) for n in range(1, 11) for t in enumerate_trees(n)]
    cases += [(n, balance_maximizer_strategy(n)) for n in range(2, 17)]
    for n, strategy in cases:
        hosts = [v for part_hosts, _ in strategy.parts for v in part_hosts]
        assert sorted(hosts) == list(range(n)), strategy.provenance
        for part_hosts, name in strategy.parts:
            sets = [{part_hosts[p - 1] for p in pair if p <= len(part_hosts)}
                    for pair in _PAIRINGS[name]]
            assert sum(map(len, sets)) == len(set().union(*sets)), (part_hosts, name)
            assert set().union(*sets) == set(part_hosts), (part_hosts, name)


# -- harness behavior ---------------------------------------------------------


def test_worst_case_never_beats_the_optimum(solved):
    for n in range(3, 10):
        g = path_graph(n)
        worst = Sweep(g, path_strategy(n), ZERO_STARTS, Objective.CORDIALITY).worst
        assert worst >= solved(g, "cg")
    for n in range(2, 10):
        g = path_graph(n)
        worst = Sweep(g, balance_maximizer_strategy(n), ZERO_STARTS, Objective.BALANCE).worst
        assert worst <= solved(g, "bg")


def test_sweep_line_is_a_legal_witness():
    # each line is legal, ends at a terminal scoring the returned value, and
    # that value is the sweep's worst case
    cases = [(path_graph(9), path_strategy(9), ZERO_STARTS, Objective.CORDIALITY),
             (path_graph(8), balance_maximizer_strategy(8), ZERO_STARTS, Objective.BALANCE),
             (path_graph(5), path_strategy(5), ONE_STARTS_WITH_PASS, Objective.CORDIALITY)]
    cases += [(t, tree_strategy(t), ZERO_STARTS, Objective.CORDIALITY) for t in enumerate_trees(8)]
    assert len(cases) == 3 + 23
    for g, strategy, variant, objective in cases:
        sweep = Sweep(g, strategy, variant, objective)
        value, line = sweep.worst, sweep.line()
        state = new_game(g, variant)
        for move in line:
            assert move in legal_moves(state)
            state = apply_move(state, move)
        assert is_terminal(state)
        assert terminal_value(state, g, objective) == value
        assert value == Sweep(g, strategy, variant, objective).worst


def test_strategies_stay_legal_under_random_play():
    rng = random.Random(4242)
    fixtures = [
        (path_graph(12), path_strategy(12), ZERO_STARTS),
        (spider_graph([2, 3, 1, 2]), None, ZERO_STARTS),
        (path_graph(6), path_strategy(6), ONE_STARTS_WITH_PASS),
    ]
    for g, strategy, variant in fixtures:
        strat = strategy or tree_strategy(g)
        for _ in range(400):
            state = new_game(g, variant)
            last = None
            while not is_terminal(state):
                if to_move(state) is strat.role:
                    move = strat.choose(state.zero_mask, state.one_mask, state.passes_used, last)
                    assert move in legal_moves(state)
                else:
                    move = rng.choice(legal_moves(state))
                state = apply_move(state, move)
                last = move


def test_builders_validate_inputs():
    with pytest.raises(Exception):
        path_strategy(2)
    with pytest.raises(Exception):
        balance_maximizer_strategy(1)
    with pytest.raises(NonTreeError):
        tree_strategy(from_edges(3, [(0, 1), (1, 2), (0, 2)]))
