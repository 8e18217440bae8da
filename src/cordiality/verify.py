"""The ``verify`` fixtures: each proves one claim of the paper once.

A fixture appends one record per check to a list; every record carries
``pass``.  A strategy's bound is proven by sweeping every adversary reply
(``harness.Sweep``), a value by solving it.  ``run`` checks the requested
``--max-n`` against every selected fixture's least value and cap before any
work, then runs the fixtures in order.

The fixtures solve through ``cli.solve`` and write graphs through
``cli.emit_graph6``: those are the names a timer or tracer wrapped around
``cordiality.cli`` replaces to time every solve a command runs
(``perfbench/child.py``, ``perfbench/spans.py``).
"""

from __future__ import annotations

from . import cli
from .cli import line_json
from .game import ONE_STARTS, ONE_STARTS_WITH_PASS, ZERO_STARTS, Objective, Player
from .graphs import GraphError, path_graph
from .harness import Sweep
from .makerbreaker import MB_MAX_N, maker_breaker_value
from .solver import DEFAULT_MAX_N, GAME_NUMBERS, SolverCapError
from .strategies import (
    balance_maximizer_strategy,
    path_bound,
    path_strategy,
    suffix_pair_edge,
    tree_bound,
    tree_strategy,
)
from .trees import MAX_ENUM_ORDER, trees_by_order


def _check_strategy(records, fixture, g, strategy, variant, objective, bound,
                    terminal_check=None) -> None:
    """Sweep ``strategy`` on ``g`` and record whether its worst case meets ``bound``.

    The worst case over every adversary reply is the proof: a zero-player
    strategy holding it to at most ``bound`` bounds the game value from
    above, a one-player strategy holding it to at least ``bound`` from
    below.  A failing record carries a witness line, read from the same
    sweep, that realizes the worst case; a terminal that fails
    ``terminal_check`` counts as the worst case.
    """
    sweep = Sweep(g, strategy, variant, objective, terminal_check)
    worst = sweep.worst
    ok = worst <= bound if strategy.role is Player.ZERO else worst >= bound
    record = {
        "fixture": fixture,
        "graph": cli.emit_graph6(g),
        "strategy": strategy.provenance,
        "claimed_bound": bound,
        "worst_case": worst,
        "pass": ok,
    }
    if not ok:
        record["witness_line"] = line_json(sweep.line())
    records.append(record)


def _verify_small_paths(records, max_n: int) -> None:
    """Exact values and scripts on the paths with 3 to min(6, ``max_n``) vertices."""
    expected = {3: 0, 4: 1, 5: 2, 6: 1}
    for n, value in expected.items():
        if n > max_n:
            break
        g = path_graph(n)
        for variant in (ZERO_STARTS, ONE_STARTS, ONE_STARTS_WITH_PASS):
            got = cli.solve(g, variant, Objective.CORDIALITY, line=False).value
            records.append(
                {
                    "fixture": "small-paths",
                    "graph": cli.emit_graph6(g),
                    "variant": variant.code,
                    "expected": value,
                    "got": got,
                    "pass": got == value,
                }
            )
            _check_strategy(records, "small-paths", g, path_strategy(n), variant,
                            Objective.CORDIALITY, value)


def _verify_path_bound(records, max_n) -> None:
    for n in range(3, max_n + 1):
        g = path_graph(n)
        bound = path_bound(n)
        value = cli.solve(g, ZERO_STARTS, Objective.CORDIALITY, line=False).value
        records.append(
            {
                "fixture": "path-bound",
                "graph": cli.emit_graph6(g),
                "value": value,
                "claimed_bound": bound,
                "pass": value <= bound,
            }
        )
        _check_strategy(records, "path-bound", g, path_strategy(n), ZERO_STARTS,
                        Objective.CORDIALITY, bound)


def _verify_tree_bound(records, max_n) -> None:
    for n, trees in enumerate(trees_by_order(max_n), 1):
        if n < 2:
            continue
        bound = tree_bound(n)
        for g in trees:
            _check_strategy(records, "tree-bound", g, tree_strategy(g), ZERO_STARTS,
                            Objective.CORDIALITY, bound)


def _verify_balance_bound(records, max_n) -> None:
    for n in range(2, max_n + 1):
        g = path_graph(n)
        a, b = suffix_pair_edge(n)

        def suffix_edge_cut(zero, a=a, b=b):
            return bool((zero >> a ^ zero >> b) & 1)

        _check_strategy(records, "balance-bound", g, balance_maximizer_strategy(n),
                        ZERO_STARTS, Objective.BALANCE, 0, suffix_edge_cut)


def _verify_mb_equiv(records, max_n) -> None:
    subjects = [path_graph(n) for n in range(2, max_n + 1)]
    for n, trees in enumerate(trees_by_order(min(max_n, 6)), 1):
        if n >= 2:
            subjects.extend(trees)
    for g in subjects:
        for name, (variant, objective) in GAME_NUMBERS.items():
            mb = maker_breaker_value(g, variant, objective)
            sv = cli.solve(g, variant, objective, line=False).value
            records.append(
                {
                    "fixture": "mb-equiv",
                    "graph": cli.emit_graph6(g),
                    "which": name,
                    "mb_value": mb,
                    "game_value": sv,
                    "pass": mb == sv,
                }
            )


# fixture name -> (check, default --max-n, least --max-n (its smallest
# instance; below it the fixture would check nothing), largest --max-n and
# the error past it: a tree order past enumeration is an input error, a
# graph past a solver's cap a refusal), in run order; ``cli.FIXTURES`` lists
# the same names
FIXTURE_RUNS = {
    "small-paths": (_verify_small_paths, 6, 3, None, None),
    "path-bound": (_verify_path_bound, 12, 3, DEFAULT_MAX_N, SolverCapError),
    "tree-bound": (_verify_tree_bound, 8, 2, MAX_ENUM_ORDER, GraphError),
    "balance-bound": (_verify_balance_bound, 10, 2, DEFAULT_MAX_N, SolverCapError),
    "mb-equiv": (_verify_mb_equiv, 8, 2, MB_MAX_N, SolverCapError),
}


def run(names, max_n: int | None) -> list[dict]:
    """The records of the named fixtures, in order.

    An out-of-range ``max_n`` is refused before any fixture runs: below a
    fixture's least value as an input error, past its cap with the
    fixture's error; ``None`` runs each at its default.
    """
    for name in names:
        _, _, least, cap, error = FIXTURE_RUNS[name]
        if max_n is not None and max_n < least:
            raise cli.InputError(f"verify {name} needs --max-n of at least {least}")
        if cap is not None and max_n is not None and max_n > cap:
            raise error(f"verify {name} supports --max-n up to {cap}")
    records: list[dict] = []
    for name in names:
        check, default_max_n, _, _, _ = FIXTURE_RUNS[name]
        check(records, max_n or default_max_n)
    return records
