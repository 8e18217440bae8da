"""Acceptance gate: every criterion exact, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
The shared corpus (paths to 14 vertices, all tree classes to 9, and 200
seeded random connected graphs on 5 to 9 vertices) comes from conftest.
"""

from __future__ import annotations

import random
import time
from itertools import combinations

import pytest

import cordiality.solver
from cordiality import (
    CASE6_WINNING_SETS,
    Objective,
    ONE_STARTS,
    ONE_STARTS_WITH_PASS,
    ZERO_STARTS,
    Sweep,
    balance_maximizer_strategy,
    brute_force_value,
    enumerate_trees,
    find_branch,
    maker_breaker_value,
    path_bound,
    path_graph,
    path_strategy,
    solve,
    suffix_pair_edge,
    tree_bound,
    tree_strategy,
)
from cordiality.graphs import cut_size_of_mask, vertex_mask
from cordiality.oracle import ORACLE_MAX_N
from cordiality.solver import TABLE_CAPACITY
from conftest import path_bound_mod6, scrambled_path

ALL_VARIANTS = (ZERO_STARTS, ONE_STARTS, ONE_STARTS_WITH_PASS)
GAME_NUMBER_COMBOS = (
    ("cg", ZERO_STARTS, Objective.CORDIALITY),
    ("cg_i", ONE_STARTS, Objective.CORDIALITY),
    ("cg_ip", ONE_STARTS_WITH_PASS, Objective.CORDIALITY),
    ("bg", ZERO_STARTS, Objective.BALANCE),
)


def verdict(name: str) -> None:
    print(f"[acceptance] {name}: PASS")


def test_c01_small_path_exact_values():
    started = time.monotonic()
    for n, expected in ((3, 0), (4, 1), (6, 1)):
        g = path_graph(n)
        for variant in ALL_VARIANTS:
            assert solve(g, variant, Objective.CORDIALITY).value == expected
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"small-path values took {elapsed:.2f}s"
    verdict("small-path exact values (P3=0, P4=1, P6=1, all variants)")


def test_c02_p5_bounded_and_pinned():
    g = path_graph(5)
    for variant in ALL_VARIANTS:
        value = solve(g, variant, Objective.CORDIALITY).value
        assert value <= 2
        assert value == brute_force_value(g, variant, Objective.CORDIALITY)
        assert value == 2  # pinned by the reference evaluator
    verdict("P5 value bounded by 2 and pinned at 2 in all variants")


def test_c03_p6_bad_set_enumeration():
    g = path_graph(6)
    listed = {
        frozenset({0, 2, 4}), frozenset({1, 3, 5}),
        frozenset({0, 1, 2}), frozenset({3, 4, 5}),
        frozenset({1, 2, 4}), frozenset({1, 3, 4}),
        frozenset({0, 3, 5}), frozenset({0, 2, 5}),
    }
    regenerated = {
        frozenset(c)
        for c in combinations(range(6), 3)
        if abs(2 * cut_size_of_mask(g, vertex_mask(c)) - g.edge_count) >= 3
    }
    assert regenerated == listed
    verdict("P6 balanced bipartitions of discrepancy >= 3 are exactly the 8 listed sets")


def test_c04_path_bounds_to_16(solved):
    for n in range(3, 17):
        value = solved(path_graph(n), "cg")
        assert value <= path_bound(n), (n, value)
        assert value <= path_bound_mod6(n), (n, value)
    verdict("solved path values within mod-3 and mod-6 bounds for 3 <= n <= 16")


def test_c05_path_strategy_to_15():
    for n in range(3, 16):
        worst = Sweep(path_graph(n), path_strategy(n), ZERO_STARTS, Objective.CORDIALITY).worst
        assert worst <= path_bound(n), (n, worst)
        assert worst <= path_bound_mod6(n), (n, worst)
    verdict("path strategy worst case within bounds for 3 <= n <= 15")


def test_c06_tree_bound_to_10(solved):
    for n in range(2, 11):
        bound = tree_bound(n)
        for tree in enumerate_trees(n):
            if n <= 9:
                value = solved(tree, "cg")
            else:
                value = solve(tree, ZERO_STARTS, Objective.CORDIALITY).value
            assert value <= bound, (n, tree.edges, value)
            worst = Sweep(tree, tree_strategy(tree), ZERO_STARTS, Objective.CORDIALITY).worst
            assert worst <= bound, (n, tree.edges, worst)
            # the strategy's worst case bounds the game value from above
            assert value <= worst, (n, tree.edges, value, worst)
    verdict("every tree with 2 <= n <= 10: solved value <= strategy worst case <= n/2")


def test_c07_branch_coverage_to_11_and_twin_arm_sets():
    for n in range(2, 12):
        for tree in enumerate_trees(n):
            if all(tree.degree(v) <= 2 for v in range(tree.n)):
                continue
            d = find_branch(tree)
            assert d.case_id in range(1, 8), (n, tree.edges)
            assert d.branch_mask.bit_count() in (2, 4, 6)
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
    verdict("branch decomposition total on trees to n=11; twin-3-arm winning sets regenerate")


def test_c08_balance_to_14(solved):
    for n in range(2, 15):
        g = path_graph(n)
        assert solved(g, "bg") >= 0, n
        a, b = suffix_pair_edge(n)

        def suffix_edge_cut(zero, a=a, b=b):
            return bool((zero >> a ^ zero >> b) & 1)

        worst = Sweep(
            g, balance_maximizer_strategy(n), ZERO_STARTS, Objective.BALANCE,
            terminal_check=suffix_edge_cut,
        ).worst
        # a terminal with the suffix edge uncut would score -|E| - 1
        assert 0 <= worst <= g.edge_count, (n, worst)
        # the one-player strategy's worst case bounds the game value from below
        assert worst <= solved(g, "bg"), (n, worst)
    verdict("balance values and strategy worst cases non-negative to n=14, suffix edge always 1")


def test_c09_balance_below_cordiality_on_corpus(full_corpus, solved):
    for g in full_corpus:
        assert solved(g, "bg") <= solved(g, "cg"), g.edges
    verdict(f"signed value <= absolute value on all {len(full_corpus)} corpus graphs")


def test_c10_pass_can_only_help_the_maximizer(full_corpus, solved):
    for g in full_corpus:
        assert solved(g, "cg_i") <= solved(g, "cg_ip"), g.edges
    verdict(f"one-starts value <= one-starts-with-pass value on all {len(full_corpus)} corpus graphs")


def test_c11_maker_breaker_equivalence(solved):
    for n in range(2, 13):
        g = path_graph(n)
        for name, variant, objective in GAME_NUMBER_COMBOS:
            assert maker_breaker_value(g, variant, objective) == solved(g, name), (n, name)
    for n in range(2, 10):
        for tree in enumerate_trees(n):
            for name, variant, objective in GAME_NUMBER_COMBOS:
                mb = maker_breaker_value(tree, variant, objective)
                assert mb == solve(tree, variant, objective).value, (n, tree.edges, name)
    verdict("maker-breaker value equals game value for paths to 12 and all trees to 9")


def test_c12_oracle_equivalence_and_option_independence(full_corpus, monkeypatch):
    subjects = [g for g in full_corpus if g.n <= ORACLE_MAX_N]
    for g in subjects:
        for variant in ALL_VARIANTS:
            for objective in (Objective.CORDIALITY, Objective.BALANCE):
                assert solve(g, variant, objective).value == brute_force_value(
                    g, variant, objective
                ), (g.edges, variant.code, objective.value)

    # each path twice: in index order, where keys fold with their mirror
    # images, and under a scrambled numbering, where they never do
    rng = random.Random(12)
    spot_checks = [(path_graph(n), scrambled_path(n, rng)) for n in range(4, 9)]
    spot_checks += [(g,) for g in enumerate_trees(7)[:4] + [g for g in subjects if not g.is_tree()][:4]]
    for numberings in spot_checks:
        for variant in ALL_VARIANTS:
            for objective in (Objective.CORDIALITY, Objective.BALANCE):
                values = set()
                # each numbering with the default table, a 50-entry table that
                # fills and clears mid-search, and a table of one entry
                for g in numberings:
                    for capacity in (TABLE_CAPACITY, 50, 0):
                        monkeypatch.setattr(cordiality.solver, "TABLE_CAPACITY", capacity)
                        values.add(solve(g, variant, objective).value)
                assert len(values) == 1, (numberings[0].edges, variant.code, objective.value)
    verdict(
        f"solver equals the reference evaluator on {len(subjects)} corpus graphs x 6 "
        "variant/objective combos; value invariant across options"
    )


def test_c13_parity_and_bounds_across_corpus(full_corpus, solved):
    for g in full_corpus:
        parity = g.edge_count % 2
        for name, _, _ in GAME_NUMBER_COMBOS:
            value = solved(g, name)
            assert value % 2 == parity, (g.edges, name)
            if name == "bg":
                assert -g.edge_count <= value <= g.edge_count
            else:
                assert 0 <= value <= g.edge_count
        # the 1-player's optimal balance play guarantees e1 - e0 >= bg, and
        # |e1 - e0| >= e1 - e0, so the cordiality value is never below bg
        assert solved(g, "cg") >= solved(g, "bg"), g.edges
    verdict("every solved value matches the edge-count parity and range, and cg >= bg, "
            "across the corpus")
