"""Approximate counting of small connected induced sub-hypergraphs.

The pipeline: split the hypergraph by edge size (splitter), build rooted
treelet counters bottom-up with color coding (treelets, buildup), sample
colorful connected vertex sets proportionally to spanning-tree weight
(sampler), and turn sample frequencies into per-shape count estimates
keyed by canonical form (canonlab).  canonlab.exact_counts gives exact
counts (the `exact` command); the brute-force ground truth the tests
check against lives in tests/.  hardlab holds the worst-case reductions.
"""

from .hypercore import (
    Graph,
    Hypergraph,
    Hypergraphlet,
    HypergraphError,
    gaifman,
    induced_sub,
    parse_hypergraph,
    serialize_hypergraph,
)

__all__ = [
    "Graph",
    "Hypergraph",
    "Hypergraphlet",
    "HypergraphError",
    "gaifman",
    "induced_sub",
    "parse_hypergraph",
    "serialize_hypergraph",
]

__version__ = "0.1.0"
