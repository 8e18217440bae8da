"""Write perfbench/expected.json, the committed answers the runs check.

    python3 perfbench/make_expected.py

random-batch values come from the Maker-Breaker solver, which shares no
code with the minimax solver the workload times, and the script stops if
the two disagree.  verify-all record counts follow from the fixtures'
definitions for ``--max-n N``: small-paths checks value and strategy on
paths 3..6 in three variants; path-bound checks value and strategy on paths
3..N; tree-bound covers every tree class on 2..N vertices; balance-bound
covers paths 2..N; mb-equiv covers paths 2..N and the tree classes on 2..6
vertices, four game numbers each.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from cordiality.game import ZERO_STARTS, Objective  # noqa: E402
from cordiality.graphs import from_edges  # noqa: E402
from cordiality.makerbreaker import maker_breaker_value  # noqa: E402
from cordiality.solver import solve  # noqa: E402
from cordiality.trees import enumerate_trees  # noqa: E402


def agreed_value(g) -> int:
    value = maker_breaker_value(g, ZERO_STARTS, Objective.BALANCE)
    if solve(g, ZERO_STARTS, Objective.BALANCE).value != value:
        sys.exit(f"solver and Maker-Breaker disagree on {g}")
    return value


def main() -> None:
    n = workloads.VERIFY_MAX_N
    trees = {k: len(enumerate_trees(k)) for k in range(2, n + 1)}
    corpus = workloads.random_corpus(workloads.DEFAULT_SEED)
    expected = {
        "verify-all": {
            "records": {
                "small-paths": 4 * 3 * 2,
                "path-bound": 2 * (n - 2),
                "tree-bound": sum(trees.values()),
                "balance-bound": n - 1,
                "mb-equiv": 4 * ((n - 1) + sum(trees[k] for k in range(2, min(n, 6) + 1))),
            }
        },
        "random-batch": {
            "seed": workloads.DEFAULT_SEED,
            "graph6": [workloads.graph6_line(k, edges) for k, edges in corpus],
            "values": [agreed_value(from_edges(k, edges)) for k, edges in corpus],
        },
    }
    with open(workloads.EXPECTED_PATH, "w", encoding="ascii") as handle:
        json.dump(expected, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
