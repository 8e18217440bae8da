"""What a fresh process loads: importing the package loads no submodule,
and a ``solve`` loads only the modules it runs."""

import json
import os
import subprocess
import sys
from types import ModuleType

import pytest

import cordiality
from cordiality import emit_graph6, path_graph, star_graph

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# sorted(cordiality.__all__) as it stood when the package imported every
# submodule eagerly; the lazy exports keep the same names
PUBLIC_NAMES = [
    "BranchDecomposition", "CASE6_WINNING_SETS", "GameState", "Graph", "Graph6Error",
    "GraphError", "IllegalMoveError", "Move", "NonTreeError", "ONE_STARTS",
    "ONE_STARTS_WITH_PASS", "Objective", "PASS", "Player", "SetFamily", "SolveResult",
    "SolverCapError", "Strategy", "StrategyError", "StrategyMoveError", "Sweep",
    "VARIANT_CODES", "Variant", "ZERO_STARTS", "apply_move", "arm_components",
    "balance_maximizer_strategy", "branching", "brute_force_value", "centroids",
    "emit_graph6", "enumerate_trees", "export_hypergraph", "find_branch", "from_edges",
    "game", "game_number", "graph6", "graphs", "harness", "is_legal", "is_terminal",
    "legal_moves", "maker_breaker_value", "makerbreaker", "new_game", "oracle",
    "parse_edge_list", "parse_graph6", "parse_graph6_file", "path_bound", "path_graph",
    "path_strategy", "position_values", "prufer_decode", "random_connected_graph",
    "solve", "solver", "spider_graph", "star_graph", "strategies", "suffix_pair_edge",
    "terminal_value", "to_move", "tree_bound", "tree_canonical_code", "tree_strategy",
    "trees", "trees_by_order", "winning_family",
]

OFF_THE_SOLVE_PATH = {
    f"cordiality.{name}"
    for name in ("harness", "strategies", "branching", "makerbreaker", "oracle", "trees", "verify")
} | {"multiprocessing", "dataclasses", "inspect", "csv"}


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run with ``args``, the package importable from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, check=True, timeout=60)


def output_and_loaded(code: str) -> tuple[str, set[str]]:
    """What a fresh interpreter prints running ``code``, and the modules it then holds."""
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    output, _, modules = run_python("-c", script).stdout.rstrip("\n").rpartition("\n")
    return output, set(json.loads(modules))


def loaded_by(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    return output_and_loaded(code)[1]


def main_run(argv: list[str]) -> str:
    return f"import cordiality.cli\nassert cordiality.cli.main({argv!r}) == 0"


def test_package_import_loads_no_submodule():
    loaded = loaded_by("import cordiality")
    assert "cordiality" in loaded
    assert sorted(m for m in loaded if m.startswith("cordiality.")) == []


def test_solve_loads_only_the_solver_path(tmp_path):
    g6 = tmp_path / "g.g6"
    g6.write_text(emit_graph6(star_graph(6)) + "\n" + emit_graph6(path_graph(5)) + "\n")
    before = loaded_by("")
    for argv in (["solve", "--graph", "path:6"],
                 ["solve", "--file", str(g6), "--objective", "balance"]):
        loaded = loaded_by(main_run(argv))
        assert {"cordiality.solver", "cordiality.graph6"} <= loaded, argv
        assert sorted((loaded - before) & OFF_THE_SOLVE_PATH) == [], argv


def test_no_command_loads_dataclasses_and_only_csv_output_loads_csv():
    # the records are named tuples and Graph a slotted class, so no command
    # pays for ``dataclasses`` and the ``inspect``/``ast``/``dis`` it imports
    before = loaded_by("")
    for argv in (["verify", "all", "--max-n", "4"],
                 ["mb", "--graph", "path:4", "--family-k", "1"],
                 ["trees", "5"]):
        output, loaded = output_and_loaded(main_run(argv))
        assert output, argv
        assert "cordiality.graphs" in loaded, argv
        assert sorted((loaded - before) & {"dataclasses", "inspect", "csv"}) == [], argv
    output, loaded = output_and_loaded(main_run(["table", "--max-n", "4", "--format", "csv"]))
    assert "csv" in loaded
    assert "dataclasses" not in loaded - before
    assert output.splitlines()[0] == "n,cg,cg_i,cg_ip,bg,path_bound,bound_ok,parity_ok,cg_ge_bg"
    assert len(output.splitlines()) == 3  # the header and the rows for n = 3 and 4


def test_run_as_main_module_executes_cli_once():
    # under ``-m`` the file runs as ``__main__``; ``verify`` imports
    # ``cordiality.cli`` and must get that module, not a second run of the file
    result = run_python("-X", "importtime", "-m", "cordiality.cli",
                        "verify", "small-paths", "--max-n", "3")
    imported = [line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()
                if line.startswith("import time:")]
    assert "cordiality.verify" in imported
    assert "cordiality.cli" not in imported
    assert len(result.stdout.splitlines()) == 6  # a value and a sweep record per variant


def test_public_names_are_pinned_and_resolve():
    assert sorted(cordiality.__all__) == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(cordiality))
    for name in PUBLIC_NAMES:
        value = getattr(cordiality, name)
        if isinstance(value, ModuleType):
            assert value is sys.modules[f"cordiality.{name}"]
    assert cordiality.solve is cordiality.solver.solve
    star: dict = {}
    exec("from cordiality import *", star)
    assert set(PUBLIC_NAMES) <= set(star)
    with pytest.raises(AttributeError, match="no_such_name"):
        cordiality.no_such_name
