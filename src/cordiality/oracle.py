"""Reference game evaluator: plain minimax, memoized by exact position.

Deliberately shares no search machinery with the solver: no pruning, no
move ordering, no closed form, no bounds, its own turn and pass rule, and
an edge-loop terminal evaluation.  The memo is keyed by the exact position
``(zero, one, passes)``, with no symmetry folding, and lives for one call of
``position_values``.  The evaluator exists so the solver can be checked
against an implementation simple enough to audit by eye.
"""

from __future__ import annotations

from typing import Callable

from .game import Objective, Player, Variant
from .graphs import Graph

ORACLE_MAX_N = 10


def position_values(
    g: Graph, variant: Variant, objective: Objective
) -> Callable[[int, int, int], int]:
    """The exact value function ``value(zero, one, passes)`` of the game on ``g``.

    ``zero`` and ``one`` are disjoint vertex bitmasks and ``passes`` counts
    the passes spent.  Values are cached in a dict owned by the returned
    function.
    """
    if g.n > ORACLE_MAX_N:
        raise ValueError(f"reference evaluator is capped at n = {ORACLE_MAX_N}")
    n = g.n
    full = (1 << n) - 1
    edges = g.edges
    budget = variant.pass_budget
    starter_is_zero = variant.starter is Player.ZERO
    cordiality = objective is Objective.CORDIALITY
    edge_count = len(edges)
    memo: dict[tuple[int, int, int], int] = {}

    def value(zero: int, one: int, passes: int) -> int:
        key = (zero, one, passes)
        if key in memo:
            return memo[key]
        free = full & ~(zero | one)
        if free == 0:
            e1 = 0
            for u, v in edges:
                if (zero >> u & 1) != (zero >> v & 1):
                    e1 += 1
            d = 2 * e1 - edge_count
            memo[key] = best = abs(d) if cordiality else d
            return best
        plies = zero.bit_count() + one.bit_count() + passes
        zero_to_move = starter_is_zero == (plies % 2 == 0)
        best = None
        rest = free
        while rest:
            low = rest & -rest
            rest ^= low
            if zero_to_move:
                child = value(zero | low, one, passes)
                if best is None or child < best:
                    best = child
            else:
                child = value(zero, one | low, passes)
                if best is None or child > best:
                    best = child
        if not zero_to_move and passes < budget and free.bit_count() >= 2:
            child = value(zero, one, passes + 1)
            if child > best:
                best = child
        memo[key] = best
        return best

    return value


def brute_force_value(g: Graph, variant: Variant, objective: Objective) -> int:
    return position_values(g, variant, objective)(0, 0, 0)
