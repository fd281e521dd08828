"""Hypergraph data model, edge-list parsing, and induced sub-hypergraph semantics.

A hypergraph is a vertex set {0..n-1} plus a sequence of hyperedges, each a
sorted tuple of distinct vertex ids.  Two notions of "sub-hypergraph on U" are
provided: the induced one (edges truncated to U, duplicates collapsed, kept if
nonempty) and the section one (only edges fully inside U).
"""

from __future__ import annotations

import re


class HypergraphError(ValueError):
    """Invalid hypergraph data or malformed input text."""


class Hypergraph:
    """Immutable hypergraph on vertices 0..n-1.

    edges: list of sorted tuples of distinct vertex ids (may repeat as sets
    if constructed with duplicates; the parser dedupes by default).
    incidence[v]: sorted list of indices of edges containing v (the type of v).
    labels: optional list mapping vertex id -> original string token.
    """

    __slots__ = ("n", "edges", "incidence", "rank", "max_degree", "size", "labels")

    def __init__(self, n, edges, labels=None):
        if n < 0:
            raise HypergraphError("vertex count must be nonnegative")
        canon = []
        incidence = [[] for _ in range(n)]
        for j, e in enumerate(edges):
            e = tuple(sorted(e))
            if not e:
                raise HypergraphError("edge %d is empty" % j)
            prev = -1
            for v in e:
                if not (0 <= v < n):
                    raise HypergraphError("edge %d has out-of-range vertex %r" % (j, v))
                if v == prev:
                    raise HypergraphError("edge %d repeats vertex %d" % (j, v))
                prev = v
                incidence[v].append(j)
            canon.append(e)
        if labels is not None:
            labels = [str(t) for t in labels]
            if len(labels) != n:
                raise HypergraphError("labels must have one entry per vertex")
        self.n = n
        self.edges = canon
        self.incidence = incidence
        self.rank = max((len(e) for e in canon), default=0)
        self.max_degree = max((len(i) for i in incidence), default=0)
        self.size = n + sum(len(e) for e in canon)
        self.labels = labels

    @property
    def m(self):
        return len(self.edges)

    def degree(self, v):
        return len(self.incidence[v])

    def label_of(self, v):
        if self.labels is not None:
            return self.labels[v]
        return str(v)

    def stats(self):
        return {
            "vertices": self.n,
            "edges": self.m,
            "rank": self.rank,
            "max_degree": self.max_degree,
            "size": self.size,
        }

    def __eq__(self, other):
        return (
            isinstance(other, Hypergraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, tuple(self.edges)))

    def __repr__(self):
        return "Hypergraph(n=%d, m=%d, rank=%d)" % (self.n, self.m, self.rank)


class Graph:
    """Simple undirected graph: symmetric sorted adjacency lists, no loops."""

    __slots__ = ("n", "adj")

    def __init__(self, n, edge_pairs=()):
        adj = [set() for _ in range(n)]
        for u, v in edge_pairs:
            if u == v:
                continue
            if not (0 <= u < n and 0 <= v < n):
                raise HypergraphError("graph edge (%r, %r) out of range" % (u, v))
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.adj = [sorted(s) for s in adj]

    def edge_list(self):
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    @property
    def m(self):
        return sum(len(a) for a in self.adj) // 2

    def degree(self, v):
        return len(self.adj[v])

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __repr__(self):
        return "Graph(n=%d, m=%d)" % (self.n, self.m)


class Hypergraphlet:
    """Small hypergraph on local vertices 0..order-1, edges as bitmasks.

    Edge bitmasks form a set (no duplicates); vertex_map[i] is the original
    id of local vertex i, ascending.  This is the value type for both
    induced_sub and section_sub.
    """

    __slots__ = ("order", "edges", "vertex_map")

    def __init__(self, order, edges, vertex_map=None):
        edges = tuple(sorted(set(edges)))
        full = (1 << order) - 1
        for mask in edges:
            if mask <= 0 or mask > full:
                raise HypergraphError("edge bitmask %r not within %d bits" % (mask, order))
        if vertex_map is None:
            vertex_map = tuple(range(order))
        else:
            vertex_map = tuple(vertex_map)
            if len(vertex_map) != order:
                raise HypergraphError("vertex_map length must equal order")
        self.order = order
        self.edges = edges
        self.vertex_map = vertex_map

    def to_hypergraph(self):
        edges = []
        for mask in self.edges:
            e = [i for i in range(self.order) if mask >> i & 1]
            edges.append(e)
        return Hypergraph(self.order, edges)

    def __eq__(self, other):
        return (
            isinstance(other, Hypergraphlet)
            and self.order == other.order
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.order, self.edges))

    def __repr__(self):
        return "Hypergraphlet(order=%d, edges=%s)" % (self.order, list(self.edges))


_HEADER_RE = re.compile(r"#\s*vertices\s+(\d+)\s*$")


def parse_hypergraph(text, dedupe_edges=True):
    """Parse edge-list text into a Hypergraph.

    Format: optional first line '# vertices <n>'; '%' starts a comment line;
    every other nonempty line is one hyperedge of whitespace-separated vertex
    tokens.  Without a header, tokens are densified to 0-based ids in
    first-appearance order.  With a header, all-integer tokens below n are
    taken verbatim as ids (so files we serialize round-trip); otherwise
    tokens densify as usual and must not exceed n distinct values.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    header_n = None
    raw_edges = []  # (lineno, tokens)
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line == "":
            continue
        stripped = line.strip()
        if stripped.startswith("%"):
            continue
        if stripped == "":
            raise HypergraphError("line %d: empty edge" % lineno)
        if stripped.startswith("#"):
            match = _HEADER_RE.match(stripped)
            if match is None or raw_edges or header_n is not None:
                raise HypergraphError("line %d: malformed header line" % lineno)
            header_n = int(match.group(1))
            continue
        tokens = stripped.split()
        seen = set()
        for t in tokens:
            if t in seen:
                raise HypergraphError("line %d: duplicate vertex %r in edge" % (lineno, t))
            seen.add(t)
        raw_edges.append((lineno, tokens))

    all_numeric = all(t.isdigit() for _, toks in raw_edges for t in toks)
    if header_n is not None and all_numeric:
        n = header_n
        edges = []
        for lineno, toks in raw_edges:
            ids = [int(t) for t in toks]
            for v in ids:
                if v >= n:
                    raise HypergraphError(
                        "line %d: vertex id %d exceeds declared count %d" % (lineno, v, n)
                    )
            edges.append(ids)
        labels = [str(v) for v in range(n)]
    else:
        idx = {}
        labels = []
        edges = []
        for lineno, toks in raw_edges:
            ids = []
            for t in toks:
                if t not in idx:
                    idx[t] = len(idx)
                    labels.append(t)
                ids.append(idx[t])
            edges.append(ids)
        n = len(idx)
        if header_n is not None:
            if header_n < n:
                raise HypergraphError(
                    "header declares %d vertices but %d distinct tokens appear" % (header_n, n)
                )
            labels.extend(str(v) for v in range(n, header_n))
            n = header_n
    if dedupe_edges:
        seen_sets = set()
        kept = []
        for e in edges:
            key = tuple(sorted(e))
            if key not in seen_sets:
                seen_sets.add(key)
                kept.append(e)
        edges = kept
    return Hypergraph(n, edges, labels=labels)


def serialize_hypergraph(H):
    """Inverse of parse_hypergraph (up to comment lines)."""
    lines = ["# vertices %d" % H.n]
    for e in H.edges:
        lines.append(" ".join(H.label_of(v) for v in e))
    return "\n".join(lines) + "\n"


def serialize_hypergraphlet(P):
    """Text form: order on the first line, then hex edge bitmasks ascending."""
    lines = [str(P.order)]
    lines.extend("%x" % mask for mask in P.edges)
    return "\n".join(lines) + "\n"


def parse_hypergraphlet(text):
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise HypergraphError("empty hypergraphlet text")
    order = int(lines[0])
    edges = [int(tok, 16) for tok in lines[1:]]
    return Hypergraphlet(order, edges)


def gaifman(H):
    """Gaifman (primal) graph: u ~ v iff some edge of H contains both."""
    pairs = set()
    for e in H.edges:
        for i in range(len(e)):
            vi = e[i]
            for j in range(i + 1, len(e)):
                pairs.add((vi, e[j]))
    return Graph(H.n, pairs)


def _check_subset(H, U):
    U = sorted(set(U))
    if not U:
        raise HypergraphError("vertex set U must be nonempty")
    if U[0] < 0 or U[-1] >= H.n:
        raise HypergraphError("U contains out-of-range vertex id")
    return U


def _truncations(H, U):
    """{edge index: local mask of e & U} for sorted U, read off U's incidence
    lists: costs sum of deg(u) over U, whatever the edge sizes."""
    masks = {}
    for i, v in enumerate(U):
        bit = 1 << i
        for j in H.incidence[v]:
            masks[j] = masks.get(j, 0) | bit
    return masks


def induced_sub(H, U):
    """H|_U: every edge meeting U, truncated to U; duplicates collapse."""
    U = _check_subset(H, U)
    return Hypergraphlet(len(U), _truncations(H, U).values(), vertex_map=U)


def section_sub(H, U):
    """H<U>: only edges entirely inside U, localized to U."""
    U = _check_subset(H, U)
    masks = [mask for j, mask in _truncations(H, U).items()
             if mask.bit_count() == len(H.edges[j])]
    return Hypergraphlet(len(U), masks, vertex_map=U)


def is_connected_induced(H, U):
    """True iff H|_U is connected; equals connectivity of Gaif(H) on U."""
    U = _check_subset(H, U)
    masks = list(_truncations(H, U).values())
    reach = 1
    grown = True
    while grown:
        grown = False
        for mask in masks:
            if mask & reach and mask & ~reach:
                reach |= mask
                grown = True
    return reach == (1 << len(U)) - 1


def graph_is_connected(G, U=None):
    """Connectivity of G, or of its induced subgraph on U if given."""
    if U is None:
        U = range(G.n)
    U = list(U)
    if not U:
        return True
    Uset = set(U)
    seen = {U[0]}
    stack = [U[0]]
    while stack:
        v = stack.pop()
        for u in G.adj[v]:
            if u in Uset and u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(Uset)
