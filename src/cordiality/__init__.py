"""Exact solving, strategies, and verification for the cordiality and balance games.

Every public name is exported here, and each submodule is an attribute, but
importing the package loads no submodule: a name is imported from its
module on first access (PEP 562 module ``__getattr__``) and kept, so
``import cordiality.cli`` and ``cordiality solve`` load only the modules
they run.  ``from cordiality import X`` works for every name in ``__all__``.
"""

from importlib import import_module

# module -> the public names it exports here
_EXPORTS = {
    "game": (
        "GameState",
        "IllegalMoveError",
        "Move",
        "Objective",
        "PASS",
        "Player",
        "Variant",
        "ONE_STARTS",
        "ONE_STARTS_WITH_PASS",
        "VARIANT_CODES",
        "ZERO_STARTS",
        "apply_move",
        "is_legal",
        "is_terminal",
        "legal_moves",
        "new_game",
        "terminal_value",
        "to_move",
    ),
    "graph6": ("Graph6Error", "emit_graph6", "parse_edge_list", "parse_graph6", "parse_graph6_file"),
    "graphs": (
        "Graph",
        "GraphError",
        "from_edges",
        "path_graph",
        "random_connected_graph",
        "spider_graph",
        "star_graph",
    ),
    "branching": ("BranchDecomposition", "arm_components", "find_branch"),
    "harness": ("StrategyMoveError", "Sweep"),
    "makerbreaker": ("SetFamily", "export_hypergraph", "maker_breaker_value", "winning_family"),
    "oracle": ("brute_force_value", "position_values"),
    "solver": ("SolveResult", "SolverCapError", "game_number", "solve"),
    "strategies": (
        "CASE6_WINNING_SETS",
        "Strategy",
        "StrategyError",
        "balance_maximizer_strategy",
        "path_bound",
        "path_strategy",
        "suffix_pair_edge",
        "tree_bound",
        "tree_strategy",
    ),
    "trees": (
        "NonTreeError",
        "centroids",
        "enumerate_trees",
        "prufer_decode",
        "tree_canonical_code",
        "trees_by_order",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, *_EXPORTS])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)  # the import binds it here
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
