import gc
import random
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
from cordiality.game import Player, replay
from cordiality.graphs import iter_bits, vertex_mask
from cordiality.makerbreaker import _maker_wins

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


def reference_maker_wins(n, members, variant):
    """Maker's win from the empty position by plain recursion: no memo and
    no closed forms, with a Breaker pass wherever two vertices are free."""
    full = (1 << n) - 1

    def wins(zero, one, passes):
        free = full & ~(zero | one)
        if not free:
            return zero in members
        plies = zero.bit_count() + one.bit_count() + passes
        moves = [1 << v for v in iter_bits(free)]
        if (variant.starter is Player.ZERO) == (plies % 2 == 0):
            return any(wins(zero | m, one, passes) for m in moves)
        if not all(wins(zero, one | m, passes) for m in moves):
            return False
        return passes >= variant.pass_budget or len(moves) < 2 or wins(zero, one, passes + 1)

    return wins(0, 0, 0)


def test_closed_forms_match_plain_recursion():
    # every family of balanced parts on 1-4 vertices, where the empty
    # position itself is closed-form, and a seeded sample on 5 and 6, where
    # the closed forms decide the leaves of a search
    rng = random.Random(5)
    checked = 0
    for n, samples in ((1, None), (2, None), (3, None), (4, None), (5, 1000), (6, 800)):
        g = path_graph(n)
        parts = [m for m in range(1 << n) if m.bit_count() in (n // 2, (n + 1) // 2)]
        if samples is None:
            families = [
                frozenset(m for i, m in enumerate(parts) if pick >> i & 1)
                for pick in range(1 << len(parts))
            ]
        else:
            families = []
            for _ in range(samples):
                density = rng.random()
                families.append(frozenset(m for m in parts if rng.random() < density))
        for members in families:
            for variant in (ZERO_STARTS, ONE_STARTS, ONE_STARTS_WITH_PASS):
                expected = reference_maker_wins(n, members, variant)
                assert _maker_wins(g, members, variant) == expected, (n, sorted(members), variant.code)
                checked += 1
    assert checked == 3 * (4 + 4 + 64 + 64 + 1000 + 800)


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
