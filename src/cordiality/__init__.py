"""Exact solving, strategies, and verification for the cordiality and balance games."""

from .game import (
    GameState,
    IllegalMoveError,
    Move,
    Objective,
    PASS,
    Player,
    Variant,
    ONE_STARTS,
    ONE_STARTS_WITH_PASS,
    VARIANT_CODES,
    ZERO_STARTS,
    apply_move,
    is_legal,
    is_terminal,
    legal_moves,
    new_game,
    terminal_value,
    to_move,
)
from .graph6 import Graph6Error, emit_graph6, parse_edge_list, parse_graph6, parse_graph6_file
from .graphs import (
    Graph,
    GraphError,
    from_edges,
    path_graph,
    random_connected_graph,
    spider_graph,
    star_graph,
)
from .branching import BranchDecomposition, arm_components, find_branch
from .harness import StrategyMoveError, Sweep
from .makerbreaker import (
    SetFamily,
    export_hypergraph,
    maker_breaker_value,
    winning_family,
)
from .oracle import brute_force_value, position_values
from .solver import SolveResult, SolverCapError, game_number, solve
from .strategies import (
    CASE6_WINNING_SETS,
    Strategy,
    StrategyError,
    balance_maximizer_strategy,
    path_bound,
    path_strategy,
    suffix_pair_edge,
    tree_bound,
    tree_strategy,
)
from .trees import (
    NonTreeError,
    centroids,
    enumerate_trees,
    prufer_decode,
    tree_canonical_code,
    trees_by_order,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
