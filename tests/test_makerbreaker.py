import gc
from itertools import combinations

import pytest

from cordiality import (
    Objective,
    ONE_STARTS,
    ONE_STARTS_WITH_PASS,
    ZERO_STARTS,
    export_hypergraph,
    maker_breaker_value,
    path_graph,
    solve,
    star_graph,
    winning_family,
)
from cordiality.game import replay
from cordiality.graphs import vertex_mask

P6_BAD_SETS = {
    vertex_mask(s) for s in (
        {0, 2, 4}, {1, 3, 5}, {0, 1, 2}, {3, 4, 5},
        {1, 2, 4}, {1, 3, 4}, {0, 3, 5}, {0, 2, 5},
    )
}


def test_p6_family_excludes_exactly_the_bad_sets():
    family = winning_family(path_graph(6), 1, Objective.CORDIALITY)
    members = set(family.members)
    balanced = {vertex_mask(c) for c in combinations(range(6), 3)}
    assert members == balanced - P6_BAD_SETS
    assert len(members) == 12


def test_p3_family_at_zero():
    family = winning_family(path_graph(3), 0, Objective.CORDIALITY)
    # in export order: by sorted vertex list
    assert family.members == (0b001, 0b011, 0b110, 0b100)


def test_family_at_edge_count_is_all_balanced_parts():
    g = star_graph(5)
    family = winning_family(g, g.edge_count, Objective.CORDIALITY)
    sizes = {m.bit_count() for m in family.members}
    assert sizes <= {2, 3}
    assert len(family.members) == sum(
        1 for k in (2, 3) for _ in combinations(range(5), k)
    )


def test_family_complement_closure_and_monotonic():
    g = path_graph(6)
    previous: set = set()
    for k in (1, 3, 5):
        family = winning_family(g, k, Objective.CORDIALITY)
        members = set(family.members)
        assert previous <= members
        previous = members
        for member in members:
            assert g.full_mask & ~member in members


def test_export_parse_round_trip():
    family = winning_family(path_graph(3), 0, Objective.CORDIALITY)
    assert export_hypergraph(family) == "3 4\n0\n0 1\n1 2\n2\n"
    empty = winning_family(path_graph(3), -5, Objective.BALANCE)
    assert export_hypergraph(empty).splitlines() == ["3 0"]


def test_equivalence_small_paths():
    assert maker_breaker_value(path_graph(6), ZERO_STARTS, Objective.CORDIALITY) == 1
    assert maker_breaker_value(path_graph(4), ZERO_STARTS, Objective.CORDIALITY) == 1
    for n in range(2, 9):
        g = path_graph(n)
        for variant, objective in (
            (ZERO_STARTS, Objective.CORDIALITY),
            (ONE_STARTS, Objective.CORDIALITY),
            (ONE_STARTS_WITH_PASS, Objective.CORDIALITY),
            (ZERO_STARTS, Objective.BALANCE),
        ):
            assert maker_breaker_value(g, variant, objective) == solve(g, variant, objective).value


def test_principal_line_terminal_set_membership():
    for n in range(3, 9):
        g = path_graph(n)
        result = solve(g, ZERO_STARTS, Objective.CORDIALITY)
        final = replay(g, ZERO_STARTS, result.principal_line)
        value = result.value
        inside = winning_family(g, value, Objective.CORDIALITY)
        assert final.zero_mask in inside.members
        if value >= 2:
            tighter = winning_family(g, value - 2, Objective.CORDIALITY)
            assert final.zero_mask not in tighter.members


def test_caps():
    with pytest.raises(ValueError):
        maker_breaker_value(path_graph(15), ZERO_STARTS, Objective.CORDIALITY)
    with pytest.raises(ValueError):
        winning_family(path_graph(21), 1, Objective.CORDIALITY)


def test_solved_game_is_freed_without_the_cyclic_collector():
    # the recursive closure holds no reference cycle once the value is
    # returned, so its memo is freed at once
    gc.collect()
    gc.disable()
    try:
        assert maker_breaker_value(path_graph(8), ZERO_STARTS, Objective.CORDIALITY) == 3
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("line", [False, True])
def test_solve_is_freed_without_the_cyclic_collector(line):
    # the solver's search closure calls itself; solve breaks that cycle, so
    # its searcher and table are freed by reference counting on return
    gc.collect()
    gc.disable()
    try:
        result = solve(path_graph(10), ZERO_STARTS, Objective.CORDIALITY, line=line)
        assert len(result.principal_line) == (10 if line else 0)
        assert gc.collect() == 0
    finally:
        gc.enable()
