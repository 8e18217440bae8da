"""Exact game values by memoized minimax, probed by one-bound tests.

The search runs on bitmask positions keyed by (zero set, one set, passes);
whose turn it is follows from the counts.  It tests a position's value v
against one bound gamma and fails soft, as MTD(f) does: a result g <= gamma
proves v <= g, and g > gamma proves v >= g.  The transposition table stores
value bounds per position, and a probe returns a stored bound that settles
its test.  Values share the parity of |E|, so the root value is found by
one probe loop that narrows the interval from the least value to |E| by
tests on that grid: the first at the parity floor |E| % 2, where most
values lie, then just below each new upper bound or at each new lower
bound.  The principal-line descent carries that value down: it plays
through ``game.py``'s moves, turn order and pass rule, and at each ply
probes each child, in tie-break order, once: all of the mover's children
lie on one side of the value, so one test shows whether a child keeps it.
The table capacity changes only the work, never the value: a table that
reaches ``TABLE_CAPACITY`` entries is cleared and refilled, so the search
keeps caching its newest positions (capacity 0 keeps one entry at a time).
A position with two free vertices, or with three and a mover that cannot
pass, is valued in closed form: it is never probed, stored or counted, so
``SolveResult.nodes`` counts only the positions that go through the table.
A position with five free vertices and no pass left does: once its probe
misses, it is counted, valued in closed form from its ten pair scores and
stored as an exact entry.  Four-free positions are searched, down to the
closed forms at two and three free.  On a path in index order, the
vertices numbered along the path, with up to 32 vertices, a position and
its mirror image share one table key.

Move order changes only the work.  Under cordiality every position tries
free vertices in one static order, highest degree first: the score is
``|2 cut - |E||``, so whether a cut edge helps a player depends on which
side of balance the cut ends, and the swing order below, tried there,
expanded more nodes on trees.  Under balance, where the zero player
minimises the cut and the one player maximises it, a position with at
least ``_SWING_MIN_FREE`` free vertices tries them in ascending order of
swing, ``|adj[v] & one| - |adj[v] & zero|``: how many more cut edges ``v``
adds when the zero player labels it than when the one player does.  The
zero player gains most by taking the lowest swing, and the one player
gains most by denying it, so both movers use the same order.  Ties go to
the lower index, the order the principal-line descent tries moves in,
which keeps the descent cheap.  A pass is always tried last.

Twin pruning.  Two vertices are twins when they have the same neighbours
apart from each other: equal open neighbourhoods when they are not
adjacent (the leaves of a star), equal closed ones when they are.  Swapping
two twins is an automorphism that fixes every other vertex, so while both
are free, labelling either gives the same value, and the search skips a
free vertex while a lower-numbered twin of it is free.  Twins share a
degree and a swing, so the lower one is tried first in either order, and
the table keys stay exact positions.  Twins are found once per graph by
grouping vertices on their open and closed neighbourhoods, with O(n) dict
operations, not by comparing pairs.  The principal-line descent tries every
legal move, so lines stay the lowest-index optimal ones.
"""

from __future__ import annotations

import sys
import warnings
from functools import cache
from typing import NamedTuple

from .game import (
    Move,
    Objective,
    Player,
    Variant,
    ONE_STARTS,
    ONE_STARTS_WITH_PASS,
    ZERO_STARTS,
    apply_move,
    is_terminal,
    legal_moves,
    new_game,
    to_move,
)
from .graphs import Graph, edges_between

DEFAULT_MAX_N = 22
TABLE_CAPACITY = 4_000_000
# The search recurses once per ply: a graph may have the interpreter's
# recursion limit less this many vertices, the frames left for its callers.
RECURSION_HEADROOM = 100

# Under balance, a position with at least this many free vertices tries the
# mover's labels in ascending order of swing (see _Searcher._make_search).
# Solving the 160 graphs of perfbench's random-batch corpus (seed 1) with
# lines, with five-free positions in closed form when no pass is left:
# swing order from six free vertices expands 81 336 nodes and from seven
# 92 117; from five it expands as many as from six, since a five-free
# position is searched only with a pass left.  From seven is 3-6 % faster
# there on a 2 GHz Xeon core, as a six-free position's children are
# closed-form table entries, but 2 % slower on the trees to 10 vertices and
# 9 % slower on the paths to 14 (balance, every variant), where it expands
# 10 % and 20 % more nodes.
_SWING_MIN_FREE = 6


@cache
def _mirror_tables(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The images under ``v -> n - 1 - v``, as n-bit masks, of every mask on
    the low ``n // 2`` vertices and of every mask on the others, shifted down."""
    h = n // 2
    rev_low = tuple(int(f"{m:0{h}b}"[::-1], 2) << n - h for m in range(1 << h))
    rev_high = tuple(int(f"{m:0{n - h}b}"[::-1], 2) for m in range(1 << n - h))
    return rev_low, rev_high


@cache
def _index_path_edges(n: int) -> tuple[tuple[int, int], ...]:
    """The edges of the path on n vertices in index order."""
    return tuple((v, v + 1) for v in range(n - 1))


# packed table entries: (lo + _BIAS) << _SHIFT | (hi + _BIAS)
_BIAS = 512
_SHIFT = 11
_MASK = (1 << _SHIFT) - 1


class SolverCapError(ValueError):
    """Instance exceeds the configured hard cap."""


class SolveResult(NamedTuple):
    value: int
    nodes: int  # positions through the table; two- and three-free closed forms are not counted
    principal_line: list[Move]


class _Searcher:
    def __init__(self, g: Graph, variant: Variant, objective: Objective):
        self.g = g
        self.full = g.full_mask
        self.variant = variant
        self.starter_is_zero = variant.starter is Player.ZERO
        self.edge_count = g.edge_count
        cordiality = objective is Objective.CORDIALITY
        # the least value any position can have
        self.floor = self.edge_count % 2 if cordiality else -self.edge_count
        self._nodes_cell = [0]
        self._search, self.release = self._make_search(cordiality)

    @property
    def nodes(self) -> int:
        return self._nodes_cell[0]

    def _make_search(self, cordiality: bool):
        # One closure with everything bound locally; this is the hot loop.
        # Returned with ``release``, which breaks its reference to itself.
        g = self.g
        n = g.n
        adj = g.adj
        edge_count = self.edge_count
        budget = self.variant.pass_budget
        table: dict[int, int] = {}
        capacity = TABLE_CAPACITY
        nodes_cell = self._nodes_cell
        # lower_twins[v]: the lower-numbered twins of v.  Twins have equal
        # open neighbourhoods (not adjacent) or equal closed ones (adjacent);
        # an open and a closed neighbourhood are never equal, so one dict
        # groups both kinds.
        lower_twins = [0] * n
        seen: dict[int, int] = {}
        for v in range(n):
            for hood in (adj[v], adj[v] | 1 << v):
                lower = seen.get(hood, 0)
                lower_twins[v] |= lower
                seen[hood] = lower | 1 << v
        # (lower twins, mask without v) of each vertex with a lower twin
        twins = tuple((tw, ~(1 << v)) for v, tw in enumerate(lower_twins) if tw)
        move_bits = tuple((v, 1 << v) for v in range(n))
        deg = tuple(a.bit_count() for a in adj)
        static_order = tuple(move_bits[v] for v in sorted(range(n), key=lambda v: (-deg[v], v)))
        # cordiality keeps the static order at every position
        swing_min_free = n + 1 if cordiality else _SWING_MIN_FREE
        v_shift = n.bit_length()
        v_mask = (1 << v_shift) - 1
        # a path in index order folds each key with its mirror image; past 32
        # vertices the tables would pass 2^16 entries, and no search that
        # large finishes
        reverse = n <= 32 and edge_count == n - 1 and g.edges == _index_path_edges(n)
        if reverse:
            h = n // 2
            low = (1 << h) - 1
            rev_low, rev_high = _mirror_tables(n)

        warned = [False]
        two_n = 2 * n

        def warn_capacity() -> None:
            if not warned[0]:
                warned[0] = True
                warnings.warn(
                    f"transposition table capacity {capacity} reached; "
                    "clearing the table each time it fills"
                )

        def search(
            zero: int,
            one: int,
            free: int,
            passes: int,
            zero_to_move: bool,
            cross: int,
            gamma: int,
        ) -> int:
            # cross = count of zero-one edges so far; at a full labeling the
            # signed score is 2*cross - |E|.
            if free == 0:
                d = 2 * cross - edge_count
                return abs(d) if cordiality else d
            if free & (free - 1) == 0:  # one vertex left: forced label
                v = free.bit_length() - 1
                inc = (adj[v] & (one if zero_to_move else zero)).bit_count()
                d = 2 * (cross + inc) - edge_count
                return abs(d) if cordiality else d
            can_pass = not zero_to_move and passes < budget
            count = free.bit_count()
            if count == 2 or (count == 3 and not can_pass):
                # Closed-form endgame: the mover labels every free vertex but
                # one, y, which the opponent labels, so the score depends on
                # y alone.  With two free the mover picks y (a pass would only
                # hand that pick to the zero player); with three the mover
                # strikes one candidate and the opponent picks from the other
                # two, which yields the median score whoever moves.
                if zero_to_move:
                    near = zero | free
                    opp = one
                else:
                    near = one | free
                    opp = zero
                a_bit = free & -free
                rest = free ^ a_bit
                b_bit = rest & -rest
                c_bit = rest ^ b_bit  # 0 with two free
                a_adj = adj[a_bit.bit_length() - 1]
                b_adj = adj[b_bit.bit_length() - 1]
                a_opp = (a_adj & opp).bit_count()
                b_opp = (b_adj & opp).bit_count()
                base = 2 * (cross + a_opp + b_opp) - edge_count
                if c_bit:
                    c_adj = adj[c_bit.bit_length() - 1]
                    c_opp = (c_adj & opp).bit_count()
                    base += 2 * c_opp
                # the signed score when y = x: base + 2 (|adj[x] & near| - |adj[x] & opp|)
                s_a = base + 2 * ((a_adj & near).bit_count() - a_opp)
                s_b = base + 2 * ((b_adj & near).bit_count() - b_opp)
                if cordiality:
                    s_a = abs(s_a)
                    s_b = abs(s_b)
                if s_a > s_b:
                    s_a, s_b = s_b, s_a
                if not c_bit:
                    return s_a if zero_to_move else s_b
                s_c = base + 2 * ((c_adj & near).bit_count() - c_opp)
                if cordiality:
                    s_c = abs(s_c)
                # the median of s_a <= s_b and s_c
                if s_c <= s_a:
                    return s_a
                return s_c if s_c < s_b else s_b
            key = passes << two_n | one << n | zero
            if reverse:
                rk = (passes << two_n | (rev_low[one & low] | rev_high[one >> h]) << n
                      | rev_low[zero & low] | rev_high[zero >> h])
                if rk < key:
                    key = rk
            entry = table.get(key)
            if entry is not None:
                lo = (entry >> _SHIFT) - _BIAS
                hi = (entry & _MASK) - _BIAS
                # an exact entry, lo == hi, meets one of the two tests
                if lo > gamma:
                    return lo
                if hi <= gamma:
                    return hi
            else:
                lo = -_BIAS + 1
                hi = _BIAS - 1
            nodes_cell[0] += 1
            if count == 5 and passes >= budget:
                # Closed-form endgame with no pass left: the mover labels three
                # free vertices and the opponent a pair {y, z}, so the score
                # depends on that pair alone.  After the mover's x and the
                # opponent's y, the three-free child is worth the median of y's
                # pair scores with the other three (the closed form above).  The
                # scores are negated when the one player moves, so either way
                # the mover minimises over x the opponent's best y.
                opp = one if zero_to_move else zero
                a_bit = free & -free
                rest = free ^ a_bit
                b_bit = rest & -rest
                rest ^= b_bit
                c_bit = rest & -rest
                rest ^= c_bit
                d_bit = rest & -rest
                e_bit = rest ^ d_bit
                a = a_bit.bit_length() - 1
                b = b_bit.bit_length() - 1
                c = c_bit.bit_length() - 1
                d = d_bit.bit_length() - 1
                e = e_bit.bit_length() - 1
                a_adj, b_adj, c_adj, d_adj = adj[a], adj[b], adj[c], adj[d]
                h_a = (a_adj & opp).bit_count()
                h_b = (b_adj & opp).bit_count()
                h_c = (c_adj & opp).bit_count()
                h_d = (d_adj & opp).bit_count()
                h_e = (adj[e] & opp).bit_count()
                # base: the signed score with every free vertex the mover's; t_u:
                # what giving u to the opponent adds to it, as its h_u edges to
                # the opponent leave the cut and its deg[u] - h_u others join it
                base = 2 * (cross + h_a + h_b + h_c + h_d + h_e) - edge_count
                t_a = 2 * (deg[a] - 2 * h_a)
                t_b = 2 * (deg[b] - 2 * h_b)
                t_c = 2 * (deg[c] - 2 * h_c)
                t_d = 2 * (deg[d] - 2 * h_d)
                t_e = 2 * (deg[e] - 2 * h_e)
                # the score when the opponent holds {y, z}: an edge y ~ z is not cut
                s_ab = base + t_a + t_b - (4 if a_adj & b_bit else 0)
                s_ac = base + t_a + t_c - (4 if a_adj & c_bit else 0)
                s_ad = base + t_a + t_d - (4 if a_adj & d_bit else 0)
                s_ae = base + t_a + t_e - (4 if a_adj & e_bit else 0)
                s_bc = base + t_b + t_c - (4 if b_adj & c_bit else 0)
                s_bd = base + t_b + t_d - (4 if b_adj & d_bit else 0)
                s_be = base + t_b + t_e - (4 if b_adj & e_bit else 0)
                s_cd = base + t_c + t_d - (4 if c_adj & d_bit else 0)
                s_ce = base + t_c + t_e - (4 if c_adj & e_bit else 0)
                s_de = base + t_d + t_e - (4 if d_adj & e_bit else 0)
                if cordiality:
                    s_ab, s_ac, s_ad, s_ae, s_bc = abs(s_ab), abs(s_ac), abs(s_ad), abs(s_ae), abs(s_bc)
                    s_bd, s_be, s_cd, s_ce, s_de = abs(s_bd), abs(s_be), abs(s_cd), abs(s_ce), abs(s_de)
                if not zero_to_move:
                    s_ab, s_ac, s_ad, s_ae, s_bc = -s_ab, -s_ac, -s_ad, -s_ae, -s_bc
                    s_bd, s_be, s_cd, s_ce, s_de = -s_bd, -s_be, -s_cd, -s_ce, -s_de
                # v: the opponent's best y after the mover's x, for x = a to e
                # in turn, each m the median of one y; g_val: the least v
                v = (s_bd if s_be <= s_bd else s_be if s_be < s_bc else s_bc) if s_bd < s_bc else (
                    s_bc if s_be <= s_bc else s_be if s_be < s_bd else s_bd)
                m = (s_cd if s_ce <= s_cd else s_ce if s_ce < s_bc else s_bc) if s_cd < s_bc else (
                    s_bc if s_ce <= s_bc else s_ce if s_ce < s_cd else s_cd)
                v = m if m > v else v
                m = (s_cd if s_de <= s_cd else s_de if s_de < s_bd else s_bd) if s_cd < s_bd else (
                    s_bd if s_de <= s_bd else s_de if s_de < s_cd else s_cd)
                v = m if m > v else v
                m = (s_ce if s_de <= s_ce else s_de if s_de < s_be else s_be) if s_ce < s_be else (
                    s_be if s_de <= s_be else s_de if s_de < s_ce else s_ce)
                v = m if m > v else v
                g_val = v
                v = (s_ad if s_ae <= s_ad else s_ae if s_ae < s_ac else s_ac) if s_ad < s_ac else (
                    s_ac if s_ae <= s_ac else s_ae if s_ae < s_ad else s_ad)
                m = (s_cd if s_ce <= s_cd else s_ce if s_ce < s_ac else s_ac) if s_cd < s_ac else (
                    s_ac if s_ce <= s_ac else s_ce if s_ce < s_cd else s_cd)
                v = m if m > v else v
                m = (s_cd if s_de <= s_cd else s_de if s_de < s_ad else s_ad) if s_cd < s_ad else (
                    s_ad if s_de <= s_ad else s_de if s_de < s_cd else s_cd)
                v = m if m > v else v
                m = (s_ce if s_de <= s_ce else s_de if s_de < s_ae else s_ae) if s_ce < s_ae else (
                    s_ae if s_de <= s_ae else s_de if s_de < s_ce else s_ce)
                v = m if m > v else v
                g_val = v if v < g_val else g_val
                v = (s_ad if s_ae <= s_ad else s_ae if s_ae < s_ab else s_ab) if s_ad < s_ab else (
                    s_ab if s_ae <= s_ab else s_ae if s_ae < s_ad else s_ad)
                m = (s_bd if s_be <= s_bd else s_be if s_be < s_ab else s_ab) if s_bd < s_ab else (
                    s_ab if s_be <= s_ab else s_be if s_be < s_bd else s_bd)
                v = m if m > v else v
                m = (s_bd if s_de <= s_bd else s_de if s_de < s_ad else s_ad) if s_bd < s_ad else (
                    s_ad if s_de <= s_ad else s_de if s_de < s_bd else s_bd)
                v = m if m > v else v
                m = (s_be if s_de <= s_be else s_de if s_de < s_ae else s_ae) if s_be < s_ae else (
                    s_ae if s_de <= s_ae else s_de if s_de < s_be else s_be)
                v = m if m > v else v
                g_val = v if v < g_val else g_val
                v = (s_ac if s_ae <= s_ac else s_ae if s_ae < s_ab else s_ab) if s_ac < s_ab else (
                    s_ab if s_ae <= s_ab else s_ae if s_ae < s_ac else s_ac)
                m = (s_bc if s_be <= s_bc else s_be if s_be < s_ab else s_ab) if s_bc < s_ab else (
                    s_ab if s_be <= s_ab else s_be if s_be < s_bc else s_bc)
                v = m if m > v else v
                m = (s_bc if s_ce <= s_bc else s_ce if s_ce < s_ac else s_ac) if s_bc < s_ac else (
                    s_ac if s_ce <= s_ac else s_ce if s_ce < s_bc else s_bc)
                v = m if m > v else v
                m = (s_be if s_ce <= s_be else s_ce if s_ce < s_ae else s_ae) if s_be < s_ae else (
                    s_ae if s_ce <= s_ae else s_ce if s_ce < s_be else s_be)
                v = m if m > v else v
                g_val = v if v < g_val else g_val
                v = (s_ac if s_ad <= s_ac else s_ad if s_ad < s_ab else s_ab) if s_ac < s_ab else (
                    s_ab if s_ad <= s_ab else s_ad if s_ad < s_ac else s_ac)
                m = (s_bc if s_bd <= s_bc else s_bd if s_bd < s_ab else s_ab) if s_bc < s_ab else (
                    s_ab if s_bd <= s_ab else s_bd if s_bd < s_bc else s_bc)
                v = m if m > v else v
                m = (s_bc if s_cd <= s_bc else s_cd if s_cd < s_ac else s_ac) if s_bc < s_ac else (
                    s_ac if s_cd <= s_ac else s_cd if s_cd < s_bc else s_bc)
                v = m if m > v else v
                m = (s_bd if s_cd <= s_bd else s_cd if s_cd < s_ad else s_ad) if s_bd < s_ad else (
                    s_ad if s_cd <= s_ad else s_cd if s_cd < s_bd else s_bd)
                v = m if m > v else v
                g_val = v if v < g_val else g_val
                if not zero_to_move:
                    g_val = -g_val
                lo = hi = g_val
            else:
                # the free vertices to try: those with no free lower twin
                movable = free
                for tw, others in twins:
                    if free & tw:
                        movable &= others
                if count >= swing_min_free:
                    # swing order (see the module docstring): one int per movable
                    # vertex, swing << v_shift | v, sorts by swing, then index
                    keys = []
                    rest = movable
                    while rest:
                        bit = rest & -rest
                        rest ^= bit
                        v = bit.bit_length() - 1
                        a_v = adj[v]
                        keys.append(((a_v & one).bit_count() - (a_v & zero).bit_count()) << v_shift | v)
                    keys.sort()
                    order = [move_bits[k & v_mask] for k in keys]
                else:
                    order = static_order
                if zero_to_move:
                    g_val = _BIAS
                    for v, bit in order:
                        if not movable & bit:
                            continue
                        inc = (adj[v] & one).bit_count()
                        value = search(zero | bit, one, free ^ bit, passes, False,
                                       cross + inc, gamma)
                        if value < g_val:
                            g_val = value
                            if g_val <= gamma:
                                break
                else:
                    g_val = -_BIAS
                    for v, bit in order:
                        if not movable & bit:
                            continue
                        inc = (adj[v] & zero).bit_count()
                        value = search(zero, one | bit, free ^ bit, passes, True,
                                       cross + inc, gamma)
                        if value > g_val:
                            g_val = value
                            if g_val > gamma:
                                break
                    if can_pass and g_val <= gamma:
                        value = search(zero, one, free, passes + 1, True, cross, gamma)
                        if value > g_val:
                            g_val = value
                # lo <= gamma < hi here, so the new bound is the tighter one
                if g_val <= gamma:
                    hi = g_val
                else:
                    lo = g_val
            if entry is None and len(table) >= capacity:
                table.clear()
                warn_capacity()
            table[key] = (lo + _BIAS) << _SHIFT | (hi + _BIAS)
            return g_val

        def release() -> None:
            # search calls itself through this scope's cell; emptying the cell
            # lets reference counting free the closure and the table it holds
            # as soon as the searcher is dropped, not at a later collection
            nonlocal search
            del search

        return search, release

    def probe(self, zero: int, one: int, passes: int, gamma: int) -> int:
        """Test the position's value ``v`` against ``gamma``, failing soft.

        A result ``g <= gamma`` proves ``v <= g``, and a result ``g > gamma``
        proves ``v >= g``.  This and ``state_value`` are the searcher's only
        entries; the principal-line descent calls it once per child it tries.
        """
        free = self.full & ~(zero | one)
        zero_to_move = self.starter_is_zero == (
            (zero.bit_count() + one.bit_count() + passes) % 2 == 0
        )
        cross = edges_between(self.g, zero, one)
        return self._search(zero, one, free, passes, zero_to_move, cross, gamma)

    def state_value(self, zero: int, one: int, passes: int) -> int:
        """Exact value of a position, by probes on the parity grid of the values.

        ``[lo, hi]`` starts at ``[floor, |E|]``.  A result ``g <= gamma`` is a
        new upper bound and any other a new lower bound, so the next test is
        just below the upper bound or at the lower bound until they meet.
        """
        lo, hi = self.floor, self.edge_count
        gamma = max(lo, min(hi % 2, hi - 2))  # the parity floor |E| % 2 first
        while lo < hi:
            g_val = self.probe(zero, one, passes, gamma)
            if g_val <= gamma:
                hi = max(g_val, lo)
                gamma = hi - 2
            else:
                lo = g_val
                gamma = lo
        return lo


def _descend_line(searcher: _Searcher, value: int) -> list[Move]:
    """The lowest-index line along which every position keeps ``value``.

    The game rules order the tries: ``legal_moves`` gives ascending vertices
    with any pass last.  The mover's children all lie on one side of the
    value: at or above it when the zero player moves, at or below it when
    the one player does.  So one probe settles each child: a zero player's
    child keeps the value iff it is not above it, ``probe(value) <= value``,
    and a one player's child iff it is not below it, ``probe(value - 2) >
    value - 2``.  When the value is the mover's extreme, ``|E|`` or the
    floor, every child keeps it and none is probed.
    """
    state = new_game(searcher.g, searcher.variant)
    line: list[Move] = []
    while not is_terminal(state):
        zero_moves = to_move(state) is Player.ZERO
        gamma = value if zero_moves else value - 2
        every_child_keeps = value == (searcher.edge_count if zero_moves else searcher.floor)
        for move in legal_moves(state):
            child = apply_move(state, move)
            if every_child_keeps or zero_moves == (
                searcher.probe(child.zero_mask, child.one_mask, child.passes_used, gamma) <= gamma
            ):
                line.append(move)
                state = child
                break
        else:  # pragma: no cover - would indicate a search bug
            raise RuntimeError("no move preserves the solved value")
    return line


def solve(
    g: Graph,
    variant: Variant,
    objective: Objective,
    *,
    line: bool = True,
    max_n: int | None = None,
) -> SolveResult:
    """Exact game value and a principal line.

    Ties among optimal moves break toward the lowest vertex index, with a
    pass ranked after every label.  With ``line=False`` only the value is
    searched: the principal-line descent is skipped, and the line is empty.
    ``max_n`` is the vertex cap; ``None`` means ``DEFAULT_MAX_N``.  A graph
    past it, the table's edge range or the recursion limit is refused.
    """
    cap = DEFAULT_MAX_N if max_n is None else max_n
    if g.n > cap:
        raise SolverCapError(
            f"graph has {g.n} vertices, above the hard cap {cap}; "
            "raise max_n (--force on the command line) to override"
        )
    if g.edge_count > _BIAS - 1:
        # past this, a real bound can collide with the table's +-(_BIAS - 1)
        # "unknown" sentinels and a stored entry can be false
        raise SolverCapError(
            f"graph has {g.edge_count} edges, above the {_BIAS - 1} a table entry can hold"
        )
    depth_cap = sys.getrecursionlimit() - RECURSION_HEADROOM
    if g.n > depth_cap:
        raise SolverCapError(
            f"graph has {g.n} vertices, above the {depth_cap} the search can recurse "
            "through under the interpreter's recursion limit"
        )
    searcher = _Searcher(g, variant, objective)
    value = searcher.state_value(0, 0, 0)
    moves = _descend_line(searcher, value) if line else []
    searcher.release()
    return SolveResult(value=value, nodes=searcher.nodes, principal_line=moves)


GAME_NUMBERS = {
    "cg": (ZERO_STARTS, Objective.CORDIALITY),
    "cg_i": (ONE_STARTS, Objective.CORDIALITY),
    "cg_ip": (ONE_STARTS_WITH_PASS, Objective.CORDIALITY),
    "bg": (ZERO_STARTS, Objective.BALANCE),
}


def game_number(g: Graph, which: str) -> int:
    """One of the four standard game values.

    "cg": cordiality, zero player starts.  "cg_i": cordiality, one player
    starts.  "cg_ip": cordiality, one player starts and may pass once.
    "bg": balance (signed), zero player starts.
    """
    try:
        variant, objective = GAME_NUMBERS[which]
    except KeyError:
        raise ValueError(f"unknown game number {which!r}; pick from {sorted(GAME_NUMBERS)}")
    return solve(g, variant, objective, line=False).value
