"""Importance-weighted topological ordering of glyph decomposition networks.

Build a decomposition network and a frequency table, rank glyphs by
benefit/cost centrality, repair the ranking into a hierarchal learning
order with minimal disturbance, and score any order with learning-curve
and clustering metrics. See the README for the file formats and the
command-line interface.
"""

from .costmodel import Centrality, CentralityTable, CostParams, DEFAULT_GAMMA, centralities, cost
from .ingest import (DuplicateToken, EmptyTable, FrequencyTable, ParseError,
                     parse_decompositions, parse_frequencies, parse_order, parse_order_csv,
                     parse_target_list, serialize_order)
from .metrics import (DEFAULT_HORIZONS, ClusterRow, ClusterStats, CostMode,
                      LearningCurve, MissingCost, NonPositiveHorizon,
                      NotTopological, at_horizon, cluster_stats, curve, curve_summary_json,
                      serialize_cluster_csv, serialize_curve_csv)
from .network import (CycleDetected, DanglingReference, DecompositionNetwork, DuplicateId,
                      GlyphKind, GlyphNode, InvalidNode, NetworkError, UnknownId,
                      build_network)
from .ordering import (LearningOrder, OrderItem, Provenance, TooLarge, Violation,
                       brute_force_best_order, expand_selection, external_order, kahn_order,
                       priority_topo_sort, pure_frequency_order, serialize_order_csv,
                       validate_topological)
from .words import DEFAULT_TOP_K, WordNetworkConfig, expand_with_words

__version__ = "0.1.0"

__all__ = [
    "Centrality", "CentralityTable", "CostParams", "DEFAULT_GAMMA", "centralities", "cost",
    "DuplicateToken", "EmptyTable", "FrequencyTable", "ParseError",
    "parse_decompositions", "parse_frequencies", "parse_order", "parse_order_csv",
    "parse_target_list", "serialize_order",
    "DEFAULT_HORIZONS", "ClusterRow", "ClusterStats", "CostMode",
    "LearningCurve", "MissingCost", "NonPositiveHorizon", "NotTopological", "at_horizon",
    "cluster_stats", "curve", "curve_summary_json", "serialize_cluster_csv",
    "serialize_curve_csv",
    "CycleDetected", "DanglingReference", "DecompositionNetwork", "DuplicateId",
    "GlyphKind", "GlyphNode", "InvalidNode", "NetworkError", "UnknownId", "build_network",
    "LearningOrder", "OrderItem", "Provenance", "TooLarge", "Violation",
    "brute_force_best_order", "expand_selection", "external_order", "kahn_order",
    "priority_topo_sort", "pure_frequency_order", "serialize_order_csv",
    "validate_topological",
    "DEFAULT_TOP_K", "WordNetworkConfig", "expand_with_words",
    "__version__",
]
