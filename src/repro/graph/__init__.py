"""The multi-relational graph substrate (store, generators, io, interop)."""

from repro.graph.graph import MultiRelationalGraph
from repro.graph.compact import (
    CompactAdjacency,
    CompactDiGraph,
    DeltaAdjacency,
    adjacency_snapshot,
    digraph_snapshot,
    rpq_pairs_compact,
    rpq_pairs_on_snapshot,
    snapshot_state,
)
from repro.graph.pairs import PairBlocks
from repro.graph import generators
from repro.graph import io
from repro.graph import statistics

__all__ = [
    "MultiRelationalGraph",
    "CompactAdjacency", "CompactDiGraph", "DeltaAdjacency",
    "adjacency_snapshot", "digraph_snapshot", "rpq_pairs_compact",
    "rpq_pairs_on_snapshot", "snapshot_state", "PairBlocks",
    "generators", "io", "statistics",
]
