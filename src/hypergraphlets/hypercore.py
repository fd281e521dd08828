"""Hypergraph data model, edge-list parsing, and induced sub-hypergraph semantics.

A hypergraph is a vertex set {0..n-1} plus a sequence of hyperedges, each a
sorted tuple of distinct vertex ids.  ``induced_sub`` reads H on a vertex set
U: every edge meeting U, truncated to U, duplicates collapsed.  Whether a
vertex set is connected is asked of ``masks_connected``, the package's one
connectivity test, on edge bitmasks.  ``Graph`` is the one adjacency builder: it
takes pairs or whole hyperedges, so the Gaifman projection is
``Graph(H.n, H.edges)``.
"""

from __future__ import annotations

import re


class HypergraphError(ValueError):
    """Invalid hypergraph data or malformed input text."""


# The most vertices a `# vertices N` header may declare.  The header is the
# one count a file does not pay for: each declared vertex takes an 8-byte
# incidence slot before any edge is read, so the cap holds what a short file
# can make the parser allocate to 128 MB.  Counts met in the edges, or given
# to Hypergraph, grow with their input and are not capped.
MAX_HEADER_VERTICES = 1 << 24


class Hypergraph:
    """Immutable hypergraph on vertices 0..n-1.

    edges: list of sorted tuples of distinct vertex ids (may repeat as sets
    if constructed with duplicates; the parser dedupes by default).
    incidence[v]: sorted list of indices of edges containing v (the type of v);
    vertices in no edge share one empty tuple, so an isolated vertex costs
    one slot.
    tokens: optional list of the original string tokens of vertices
    0..len(tokens)-1; label_of gives str(v) past its end.
    """

    __slots__ = ("n", "edges", "incidence", "rank", "max_degree", "size", "tokens")

    def __init__(self, n, edges, labels=None):
        if n < 0:
            raise HypergraphError("vertex count must be nonnegative")
        canon = []
        incidence = [()] * n
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
                if incidence[v]:
                    incidence[v].append(j)
                else:
                    incidence[v] = [j]
            canon.append(e)
        if labels is not None:
            labels = [str(t) for t in labels]
            if len(labels) > n:
                raise HypergraphError("labels must have at most one entry per vertex")
        self.n = n
        self.edges = canon
        self.incidence = incidence
        self.rank = max((len(e) for e in canon), default=0)
        self.max_degree = max((len(i) for i in incidence), default=0)
        self.size = n + sum(len(e) for e in canon)
        self.tokens = labels

    @property
    def labels(self):
        """One label per vertex, listed on demand; None without tokens."""
        if self.tokens is None:
            return None
        return [self.label_of(v) for v in range(self.n)]

    @property
    def m(self):
        return len(self.edges)

    def degree(self, v):
        return len(self.incidence[v])

    def label_of(self, v):
        if self.tokens is not None and v < len(self.tokens):
            return self.tokens[v]
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
    """Simple undirected graph: symmetric sorted adjacency lists, no loops.
    The one adjacency builder: each edge, a pair or a whole hyperedge, makes
    its vertices a clique, so gaifman(H) is Graph(H.n, H.edges)."""

    __slots__ = ("n", "adj")

    def __init__(self, n, edges=()):
        adj = [set() for _ in range(n)]
        for e in edges:
            if min(e) < 0 or max(e) >= n:
                raise HypergraphError("graph edge %r out of range" % (tuple(e),))
            for v in e:
                adj[v].update(e)
        for v, s in enumerate(adj):
            s.discard(v)
        self.n = n
        self.adj = [sorted(s) for s in adj]

    def edge_list(self):
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    @property
    def m(self):
        return sum(len(a) for a in self.adj) // 2

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __repr__(self):
        return "Graph(n=%d, m=%d)" % (self.n, self.m)


class Hypergraphlet:
    """Small hypergraph on local vertices 0..order-1, edges as bitmasks.

    Edge bitmasks form a set (no duplicates); bit i stands for the i-th
    smallest vertex of the U it was read on.  This is the value type of
    induced_sub.
    """

    __slots__ = ("order", "edges")

    def __init__(self, order, edges):
        edges = tuple(sorted(set(edges)))
        full = (1 << order) - 1
        for mask in edges:
            if mask <= 0 or mask > full:
                raise HypergraphError("edge bitmask %r not within %d bits" % (mask, order))
        self.order = order
        self.edges = edges


# At most 20 digits after leading zeros: int() refuses 4300 and more.
_HEADER_RE = re.compile(r"#\s*vertices\s+0*(\d{1,20})\s*$")


def parse_hypergraph(text, dedupe_edges=True):
    """Parse edge-list text into a Hypergraph.

    Format: optional first line '# vertices <n>'; '%' starts a comment line;
    a blank line (empty, or only whitespace) is skipped; every other line is
    one hyperedge of whitespace-separated vertex tokens.  Without a header,
    tokens are densified to 0-based ids in first-appearance order.  With a
    header and every token decimal (str.isdecimal, exactly what int()
    reads), tokens are ids below n taken verbatim (so files we serialize
    round-trip); otherwise tokens densify as usual and must not exceed n
    distinct values.
    """
    header_n = None
    raw_edges = []  # (lineno, tokens)
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("%"):
            continue
        if stripped.startswith("#"):
            match = _HEADER_RE.match(stripped)
            if match is None or raw_edges or header_n is not None:
                raise HypergraphError("line %d: malformed header line" % lineno)
            header_n = int(match.group(1))
            if header_n > MAX_HEADER_VERTICES:
                raise MemoryError("header declares %d vertices, more than %d"
                                  % (header_n, MAX_HEADER_VERTICES))
            continue
        tokens = stripped.split()
        seen = set()
        for t in tokens:
            if t in seen:
                raise HypergraphError("line %d: duplicate vertex %r in edge" % (lineno, t))
            seen.add(t)
        raw_edges.append((lineno, tokens))

    all_numeric = all(t.isdecimal() for _, toks in raw_edges for t in toks)
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
        labels = None  # ids are the labels; label_of gives str(v)
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
            n = header_n  # label_of names the header's extra vertices
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
    """Inverse of parse_hypergraph (up to comment lines): the text parses
    back to H's vertex count, edges and labels.  Ids are written under a
    '# vertices n' header, labels in id order so that first appearance
    gives each its id back; all-decimal labels go without the header, which
    would read them as ids.  A line leads with its first label that cannot
    open a comment or header line (its new labels hold its largest ids).
    """
    tokens = H.tokens
    numeric = tokens is not None and all(t.isdecimal() for t in tokens)
    lines = [] if numeric else ["# vertices %d" % H.n]
    for e in H.edges:
        labels = [H.label_of(v) for v in e]
        lead = next((i for i, t in enumerate(labels) if t[0] not in "%#"), 0)
        lines.append(" ".join([labels.pop(lead)] + labels))
    return "\n".join(lines) + "\n"


def gaifman(H):
    """Gaifman (primal) graph: u ~ v iff some edge of H contains both."""
    return Graph(H.n, H.edges)


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
    return Hypergraphlet(len(U), _truncations(H, U).values())


def masks_connected(masks, full):
    """True iff the edge bitmasks, each within full, connect every bit of
    full: the closure grown from full's lowest bit through each mask that
    meets it reaches all of full.  The package's one connectivity test."""
    reach = full & -full
    grown = True
    while grown:
        grown = False
        for mask in masks:
            if mask & reach and mask & ~reach:
                reach |= mask
                grown = True
    return reach == full
