"""Exact graph pebbling toolkit.

Graph families (middle graphs, Cartesian products), an exact solvability
search with certified pruning, constructive strategies with replayable
move sequences, and a registry of closed-form pebbling values that can be
checked against the exact solver.
"""

from .engine import (Budget, Distribution, Move, MoveSequence, PebblingReport,
                     SolveOutcome, SweepCheckpoint, apply_move, compute_pebbling,
                     is_solvable, lower_bound, potential, replay)
from .errors import (BudgetExceeded, DisconnectedGraph, InsufficientPebbles,
                     InvalidParameter, NotAdjacent, PebbleError,
                     PreconditionNotMet, UnknownVertex)
from .graphs import (EdgeVertex, Graph, Original, Pair, VertexLabel,
                     cartesian_product, complete, cycle, cycle_u,
                     delete_vertices, middle_cycle, middle_graph,
                     parse_label, path, path_u, trimmed_middle_path)
from .strategies import (PathContext, StrategyReport, collect_on_path,
                         cor24_witness, greedy_solver, mc_pebbling_bound,
                         middle_cycle_t_strategy, middle_path_strategy,
                         path_weight, product_collection_strategy)

__version__ = "0.1.0"

__all__ = [
    "Budget", "Distribution", "Move", "MoveSequence", "PebblingReport",
    "SolveOutcome", "SweepCheckpoint", "apply_move", "compute_pebbling",
    "is_solvable", "lower_bound", "potential", "replay",
    "BudgetExceeded", "DisconnectedGraph", "InsufficientPebbles",
    "InvalidParameter", "NotAdjacent", "PebbleError", "PreconditionNotMet",
    "UnknownVertex",
    "EdgeVertex", "Graph", "Original", "Pair", "VertexLabel",
    "cartesian_product", "complete", "cycle", "cycle_u", "delete_vertices",
    "middle_cycle", "middle_graph", "parse_label", "path", "path_u",
    "trimmed_middle_path",
    "PathContext", "StrategyReport", "collect_on_path", "cor24_witness",
    "greedy_solver", "mc_pebbling_bound", "middle_cycle_t_strategy",
    "middle_path_strategy", "path_weight", "product_collection_strategy",
]
