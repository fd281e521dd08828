"""Hardness reductions: clique -> k-sub-hypergraph, and OV -> neighborhood counting.

Two constructions are provided as runnable demonstrations:

* ``reduce_clique_to_ksh`` maps a graph G and clique size k to a hypergraph H
  and target order k' such that H contains a connected section on k' vertices
  iff G contains a k-clique.  H is (k^2, 0)-nice, so hardness survives
  niceness.

* ``solve_ov_via_nc`` decides Orthogonal Vectors by computing all Gaifman
  neighborhood sizes of the derived hypergraph: a pair is orthogonal iff some
  vertex has |N(v)| < n - 1.  ``blowup_with_coloring`` lifts any such instance
  to a colored hypergraph where a single rooted k-star count per vertex
  reveals |N(v)| exactly, tying neighborhood counting to the colorful build-up
  tables themselves.

Both k-sub-hypergraph deciders ask ``hypercore.masks_connected``, the
package's one connectivity test, on vertex bitmasks.
"""

from itertools import combinations
import math

from .buildup import (Coloring, NWPlan, build_counters_naive,
                      combined_neighbor_weight)
from .canonlab import check_budget
from .hypercore import Graph, Hypergraph, HypergraphError, gaifman, masks_connected
from .splitter import choose_split_refined


class ReductionError(HypergraphError):
    pass


class CliqueReductionOutput:
    """Result of the clique reduction.

    vertex ids of H: block Q_v occupies [v*C(k,2), (v+1)*C(k,2)); the
    singleton vertex of the i-th edge of G (in sorted order) is
    n*C(k,2) + i.
    """

    __slots__ = ("H", "k", "k_prime", "block_size", "block_map", "edge_map")

    def __init__(self, H, k, k_prime, block_size, block_map, edge_map):
        self.H = H
        self.k = k
        self.k_prime = k_prime
        self.block_size = block_size
        self.block_map = block_map
        self.edge_map = edge_map

    def sidecar(self):
        """JSON-ready description of the id layout."""
        return {
            "k": self.k,
            "k_prime": self.k_prime,
            "block_size": self.block_size,
            "block_map": {str(v): list(block) for v, block in enumerate(self.block_map)},
            "edge_map": {
                "%d-%d" % pair: {"singleton": info[0], "hyperedge_index": info[1]}
                for pair, info in sorted(self.edge_map.items())
            },
        }


def reduce_clique_to_ksh(G, k):
    """Map (G, k) to (H, k') so that G has a k-clique iff H has a connected
    section on k' vertices.

    Each vertex v of G becomes a block Q_v of C(k,2) fresh vertices; each edge
    {u,v} becomes one hyperedge Q_u | Q_v | {c_uv} with a private singleton
    vertex c_uv.  Every hyperedge has size k(k-1)+1 <= k^2, hence H is
    (k^2, 0)-nice.  k' = (k+1) * C(k,2).
    """
    if not isinstance(G, Graph):
        raise ReductionError("reduce_clique_to_ksh expects a Graph")
    if k < 3:
        raise ReductionError("clique reduction requires k >= 3, got %d" % k)
    block = k * (k - 1) // 2
    block_map = [range(v * block, (v + 1) * block) for v in range(G.n)]
    base = G.n * block
    pairs = G.edge_list()
    edges = []
    edge_map = {}
    for idx, (u, v) in enumerate(pairs):
        singleton = base + idx
        edges.append(list(block_map[u]) + list(block_map[v]) + [singleton])
        edge_map[(u, v)] = (singleton, idx)
    H = Hypergraph(base + len(pairs), edges)
    k_prime = (k + 1) * block
    return CliqueReductionOutput(H, k, k_prime, block, block_map, edge_map)


def decide_ksh_bruteforce(H, k):
    """Generic decider: does H contain U, |U| = k, with H<U> connected?

    H<U> is the paper's section hypergraph: U with only the edges of H that
    lie entirely inside U, the ``e & full == e`` filter below.

    Enumerates all C(n, k) subsets as vertex bitmasks; refuses up front when
    that count exceeds the enumeration budget.
    """
    total = math.comb(H.n, k) if 1 <= k <= H.n else 0
    check_budget(total, "C(%d, %d) = %d subsets" % (H.n, k, total))
    if not total:
        return False
    masks = [sum(1 << v for v in e) for e in H.edges]
    bit = [1 << v for v in range(H.n)]
    for U in combinations(bit, k):
        full = sum(U)
        if masks_connected([e for e in masks if e & full == e], full):
            return True
    return False


def decide_ksh_reduction(red):
    """Reduction-aware decider for instances produced by reduce_clique_to_ksh.

    In any U with a connected section, each block Q_v is fully inside or fully
    outside U, and a singleton c_uv can only appear alongside both Q_u and
    Q_v (anything else leaves isolated vertices).  So it suffices to try every
    block set T and every set S' of |S'| = k' - |T| * C(k,2) singletons chosen
    among the edges of G[T], and test connectivity of the graph (T, S').

    Returns (found, witness); witness lists U, T, S' and the size accounting.
    Refuses up front when the block sets to try exceed the enumeration budget.
    """
    k_prime = red.k_prime
    block = red.block_size
    n = len(red.block_map)
    passes = []
    for t in range(1, n + 1):
        s = k_prime - t * block
        if s < t - 1:  # t blocks need t - 1 singletons; s only shrinks as t grows
            break
        if s <= t * (t - 1) // 2:
            passes.append((t, s))
    total = sum(math.comb(n, t) for t, _ in passes)
    check_budget(total, "%d block sets" % total)
    for t, s in passes:
        for T in combinations(range(n), t):
            # edges of G[T] in G's edge order, in O(t^2) rather than O(|E(G)|)
            inner = [pair for pair in combinations(T, 2) if pair in red.edge_map]
            if len(inner) < s:
                continue
            full = sum(1 << v for v in T)
            for Sp in combinations(inner, s):
                if masks_connected([1 << u | 1 << v for u, v in Sp], full):
                    U = sorted(
                        [w for v in T for w in red.block_map[v]]
                        + [red.edge_map[pair][0] for pair in Sp]
                    )
                    witness = {
                        "T": list(T),
                        "S_prime": [list(pair) for pair in Sp],
                        "U": U,
                        "blocks": t,
                        "singletons": s,
                        "accounting": t * block + s,
                    }
                    assert witness["accounting"] == k_prime
                    return True, witness
    return False, None


# --- Orthogonal Vectors via neighborhood counting ---


def ov_hypergraph(vectors):
    """One vertex per vector; dimension l becomes the edge {i : vectors[i][l] = 1}
    (empty dimensions are dropped).  Two vertices are Gaifman-adjacent iff
    their vectors share a coordinate, i.e. iff they are NOT orthogonal."""
    if len(vectors) < 2:
        raise ReductionError("OV needs at least two vectors")
    dim = len(vectors[0])
    if any(len(v) != dim for v in vectors):
        raise ReductionError("all vectors must have the same dimension")
    edges = []
    for l in range(dim):
        e = [i for i, vec in enumerate(vectors) if vec[l]]
        if e:
            edges.append(e)
    return Hypergraph(len(vectors), edges)


def solve_ov_via_nc(vectors):
    """Decide OV through neighborhood counting: build the derived hypergraph,
    compute eta(v) = |N(v)| for all v with unit weights, and answer YES iff
    some eta(v) < n - 1.

    Returns (answer, H, eta).  eta is one neighbor-weight round over the
    split the cost model chooses, as in the build.
    """
    H = ov_hypergraph(vectors)
    split, _ = choose_split_refined(H)
    eta = combined_neighbor_weight(NWPlan(split), [1] * H.n)
    answer = any(x < H.n - 1 for x in eta)
    return answer, H, eta


def ov_pairwise(vectors):
    """Quadratic baseline: scan all pairs for an orthogonal one."""
    masks = [sum(1 << l for l, bit in enumerate(vec) if bit) for vec in vectors]
    return any(a & b == 0 for a, b in combinations(masks, 2))


# --- blow-up: neighborhood counting via one rooted-star count per vertex ---


def blowup_with_coloring(H, k):
    """Replace each vertex v by k copies (v, 0..k-1) colored by their index;
    each edge e becomes {(u, c) : u in e, c in range(k)}.  Copy (v, c) gets id
    v * k + c.  Every coloring class is a full transversal, so colorful counts
    on the blow-up are deterministic in H."""
    if k < 2:
        raise ReductionError("blow-up requires k >= 2")
    edges = [[u * k + c for u in e for c in range(k)] for e in H.edges]
    B = Hypergraph(H.n * k, edges)
    colors = tuple(v % k for v in range(B.n))
    return B, Coloring(k, colors, seed=None)


def star_code(k):
    """Rooted k-star: root with k - 1 leaf children."""
    return "(" + "()" * (k - 1) + ")"


def kstar_counts(H, k):
    """For each v of H, the rooted colorful k-star count at copy (v, 0) of the
    blow-up.  By construction this equals (|N(v)| + 1)^(k-1) when d(v) >= 1
    (the +1 accounts for v's own copies, mutually adjacent through any edge at
    v) and 0 when v is isolated."""
    B, coloring = blowup_with_coloring(H, k)
    cs = build_counters_naive(B, k, coloring)
    star_tid = cs.catalog.tid_of(star_code(k))
    full = (1 << k) - 1
    return [cs.tables[star_tid][full][v * k] for v in range(H.n)]


def kstar_identity_check(H, k):
    """Verify the star identity and recover |N(v)| from the counts alone.

    Returns (ok, recovered) where recovered[v] = C^(1/(k-1)) - 1 computed by
    exact integer root, or None for isolated vertices.
    """
    counts = kstar_counts(H, k)
    G = gaifman(H)
    ok = True
    recovered = []
    for v in range(H.n):
        nv = len(G.adj[v])
        if H.degree(v) == 0:
            ok = ok and counts[v] == 0
            recovered.append(None)
            continue
        expect = (nv + 1) ** (k - 1)
        ok = ok and counts[v] == expect
        root = _iroot(counts[v], k - 1)
        recovered.append(None if root is None else root - 1)
    return ok, recovered


def _iroot(x, r):
    """Exact r-th root of x, or None if x is not a perfect r-th power."""
    if x < 0:
        return None
    if x in (0, 1):
        return x
    lo, hi = 1, 1 << ((x.bit_length() + r - 1) // r + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**r < x:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**r == x else None
