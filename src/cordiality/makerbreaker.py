"""Positional-game view: winning families and the Maker-Breaker solver.

For a threshold k, the winning family holds every vertex set that is one
part of a balanced bipartition whose discrepancy meets the threshold
(absolute discrepancy |2*cut - |E|| <= k under the cordiality objective,
signed 2*cut - |E| <= k under balance).  Maker moves as the zero player
and wins if the set it has claimed at the end is a member of the family;
Breaker moves as the one player and tries to prevent that.  Members are
vertex masks (bit i is vertex i), the encoding of the solver's positions,
so a final position is scored by one set lookup of its zero mask.  A
position with at most four free vertices is decided in closed form, by
membership tests on the few final zero sets it can still reach; only
positions with five or more free vertices are searched and memoized.

This solver shares no search code with the minimax solver (only its cap
exception, so a refusal exits the CLI like a solver refusal); agreement
between ``maker_breaker_value`` and ``game_number`` is checked by tests
rather than assumed.
"""

from __future__ import annotations

from typing import NamedTuple

from .game import Objective, Player, Variant
from .graphs import Graph, cut_size_of_mask, iter_bits
from .solver import SolverCapError

FAMILY_MAX_N = 20
MB_MAX_N = 14


class SetFamily(NamedTuple):
    """A family of vertex subsets of 0..ground-1 as vertex masks, each
    ordered by its sorted vertex list (the export order)."""

    ground: int
    members: tuple[int, ...]


def _scored_parts(g: Graph, objective: Objective) -> list[tuple[int, int]]:
    """(discrepancy, mask) for every balanced-bipartition part, in mask order."""
    n = g.n
    e = g.edge_count
    lo_size = n // 2
    hi_size = (n + 1) // 2
    scored = []
    for mask in range(1 << n):
        size = mask.bit_count()
        if size != lo_size and size != hi_size:
            continue
        signed = 2 * cut_size_of_mask(g, mask) - e
        scored.append((abs(signed) if objective is Objective.CORDIALITY else signed, mask))
    return scored


def winning_family(g: Graph, k: int, objective: Objective) -> SetFamily:
    """All balanced-bipartition parts with discrepancy at most k."""
    if g.n > FAMILY_MAX_N:
        raise SolverCapError(f"family enumeration is capped at n = {FAMILY_MAX_N}")
    members = sorted((mask for d, mask in _scored_parts(g, objective) if d <= k),
                     key=lambda mask: tuple(iter_bits(mask)))
    return SetFamily(ground=g.n, members=tuple(members))


def _maker_wins(g: Graph, members: frozenset[int], variant: Variant) -> bool:
    n = g.n
    full = g.full_mask
    budget = variant.pass_budget
    starter_is_zero = variant.starter is Player.ZERO
    memo: dict[int, bool] = {}
    two_n = 2 * n

    def wins(zero: int, one: int, passes: int) -> bool:
        free = full & ~(zero | one)
        count = free.bit_count()
        zero_to_move = starter_is_zero == ((n - count + passes) % 2 == 0)
        if count <= 4:
            # Closed forms, by the free vertices a < b < c < d; a pair is the
            # zero set with two of them added.  A Breaker pass needs two free
            # vertices, and at two it only hands Maker the choice, so the
            # pass first counts at three.
            if count <= 1:
                return (zero | free if zero_to_move else zero) in members
            a = free & -free
            if count == 2:
                if zero_to_move:
                    return zero | a in members or zero | free ^ a in members
                return zero | a in members and zero | free ^ a in members
            rest = free ^ a
            b = rest & -rest
            rest ^= b
            c = rest & -rest
            pass_left = passes < budget
            if count == 3:
                # Maker claims x and then needs both pairs through x;
                # Breaker claims x and Maker then needs one of the other two
                pairs = (zero | a | b in members) + (zero | a | c in members) + (zero | b | c in members)
                if zero_to_move:
                    return pairs >= 2
                singles = (zero | a in members) + (zero | b in members) + (zero | c in members)
                return singles >= 2 and (not pass_left or pairs >= 2)
            d = rest ^ c
            ab = zero | a | b in members
            ac = zero | a | c in members
            ad = zero | a | d in members
            bc = zero | b | c in members
            bd = zero | b | d in members
            cd = zero | c | d in members
            if zero_to_move:
                # Maker claims x and then needs two of the pairs through x;
                # with a pass left, also two of the triples through x
                if not pass_left:
                    return ab + ac + ad >= 2 or ab + bc + bd >= 2 or ac + bc + cd >= 2 or ad + bd + cd >= 2
                na = zero | free ^ a in members
                nb = zero | free ^ b in members
                nc = zero | free ^ c in members
                nd = zero | free ^ d in members
                return (
                    ab + ac + ad >= 2 and nb + nc + nd >= 2
                    or ab + bc + bd >= 2 and na + nc + nd >= 2
                    or ac + bc + cd >= 2 and na + nb + nd >= 2
                    or ad + bd + cd >= 2 and na + nb + nc >= 2
                )
            # Breaker claims x; Maker then needs two of the pairs without x.
            # A pass (a variant holds one at most) cannot help Breaker here:
            # when each three vertices hold two member pairs, some vertex
            # lies on two of them, which is Maker's win after the pass
            return bc + bd + cd >= 2 and ac + ad + cd >= 2 and ab + ad + bd >= 2 and ab + ac + bc >= 2
        key = passes << two_n | one << n | zero
        cached = memo.get(key)
        if cached is not None:
            return cached
        if zero_to_move:
            result = False
            rest = free
            while rest:
                low = rest & -rest
                rest ^= low
                if wins(zero | low, one, passes):
                    result = True
                    break
        else:
            result = True
            rest = free
            while rest:
                low = rest & -rest
                rest ^= low
                if not wins(zero, one | low, passes):
                    result = False
                    break
            if result and passes < budget:
                result = wins(zero, one, passes + 1)
        memo[key] = result
        return result

    result = wins(0, 0, 0)
    del wins  # the closure refers to itself: free its memo now, not at a collection
    return result


def maker_breaker_value(g: Graph, variant: Variant, objective: Objective) -> int:
    """Smallest k for which Maker can force its final set to be a family member."""
    if g.n > MB_MAX_N:
        raise SolverCapError(f"maker-breaker solving is capped at n = {MB_MAX_N}")
    if g.n == 0:
        return 0
    e = g.edge_count
    lo = e % 2 if objective is Objective.CORDIALITY else -e
    hi = e
    # Maker always wins at k = |E| since the final claimed set is one part
    # of a balanced bipartition; bisect down the parity grid from there,
    # scoring each part once.
    scored = _scored_parts(g, objective)
    while lo < hi:
        gamma = lo + 2 * ((hi - lo) // 4)
        if _maker_wins(g, frozenset(mask for d, mask in scored if d <= gamma), variant):
            hi = gamma
        else:
            lo = gamma + 2
    return lo


def export_hypergraph(family: SetFamily) -> str:
    """Text form: header "n m", then one member per line as sorted indices."""
    lines = [f"{family.ground} {len(family.members)}"]
    for member in family.members:
        lines.append(" ".join(map(str, iter_bits(member))))
    return "\n".join(lines) + "\n"
