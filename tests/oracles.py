"""Oracles and helpers that only tests call.

The oracles are written from the definitions, without library internals
beyond the Hypergraph container and the coloring they read, so that
agreement between them and the library is meaningful.  Three helpers drive
library code in forms only tests need: exact_colorful_counts (exact
counting restricted to colorful sets), nw_ie (inclusion-exclusion over the
whole hypergraph) and candidate_alphas (the split thresholds worth trying).
"""

from itertools import combinations, permutations

from hypergraphlets.buildup import NWPlan, combined_neighbor_weight
from hypergraphlets.canonlab import canonical_key, check_key_order, connected_ksets
from hypergraphlets.hypercore import Hypergraph, HypergraphError, induced_sub
from hypergraphlets.splitter import apply_split


def gaifman_pairs(H):
    """All co-occurring vertex pairs, computed by a direct double loop."""
    pairs = set()
    for e in H.edges:
        for u, v in combinations(e, 2):
            pairs.add((u, v) if u < v else (v, u))
    return pairs


def connected_on(H, U):
    """BFS connectivity of U in the co-occurrence graph, from scratch."""
    U = set(U)
    if not U:
        return False
    edge_sets = [set(e) & U for e in H.edges]
    start = next(iter(U))
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for es in edge_sets:
            if v in es:
                for w in es:
                    if w not in seen:
                        seen.add(w)
                        frontier.append(w)
    return seen == U


def naive_connected_ksets(H, k):
    """Filter all C(n, k) subsets by connectivity."""
    return [U for U in combinations(range(H.n), k) if connected_on(H, U)]


def truncated_edge_masks(H, U):
    """Induced sub-hypergraph semantics straight from the definition.

    Every edge is intersected with U; empty intersections vanish and
    duplicates collapse.  Returns the set of local bitmasks under the
    sorted-U relabeling.
    """
    order = sorted(U)
    pos = {v: i for i, v in enumerate(order)}
    masks = set()
    for e in H.edges:
        m = 0
        for v in e:
            if v in pos:
                m |= 1 << pos[v]
        if m:
            masks.add(m)
    return masks


def brute_canonical_key(P):
    """The canonical key by its definition: over all order! relabelings of
    P's vertices, the smallest sorted tuple of edge masks."""
    order = P.order
    members = [[v for v in range(order) if mask >> v & 1] for mask in P.edges]
    best = min(
        sorted([sum([bit[v] for v in vs]) for vs in members])
        for bit in permutations([1 << v for v in range(order)]))
    return (order, tuple(best))


def ahu_code(n, edges, root):
    """Canonical rooted-tree string by sorted-children recursion."""
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    def rec(v, parent):
        return "(" + "".join(sorted(rec(w, v) for w in adj[v] if w != parent)) + ")"

    return rec(root, None)


def spanning_trees(n, pairs):
    """Every spanning tree of vertices 0..n-1 over pairs, as the (n-1)-subset
    of pairs it uses, found by trying every such subset."""
    if n <= 1:
        yield ()
        return
    for subset in combinations(pairs, n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        merged = 0
        for u, v in subset:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                merged += 1
        if merged == n - 1:
            yield subset


def count_spanning_trees_brute(n, pairs):
    """How many spanning trees spanning_trees finds."""
    return sum(1 for _ in spanning_trees(n, pairs))


def brute_spanning_trees(A):
    """count_spanning_trees_brute on an adjacency matrix of at most 8 vertices."""
    n = len(A)
    if n > 8:
        raise HypergraphError("brute spanning-tree count limited to 8 vertices")
    return count_spanning_trees_brute(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if A[i][j]])


def brute_rooted_colorful_treelets(H, coloring, code, S, v):
    """Exhaustive C(T,S,v): rooted trees in Gaif(H), shape and colors exact.

    Enumerates h-subsets U containing v whose colors are exactly S (one
    vertex per color), then every spanning tree of Gaif(H)[U], keeping those
    whose rooted code at v matches.
    """
    if H.n > 12:
        raise HypergraphError("brute treelet counting limited to n <= 12")
    h = code.count("(")
    colors = coloring.colors
    want = {c for c in range(coloring.k) if S >> c & 1}
    if len(want) != h:
        raise HypergraphError("|S| must equal the treelet order")
    if not S >> colors[v] & 1:
        return 0
    pairs = gaifman_pairs(H)
    total = 0
    for rest in combinations([u for u in range(H.n) if u != v], h - 1):
        U = (v,) + rest
        if {colors[u] for u in U} != want:
            continue
        pos = {u: i for i, u in enumerate(U)}
        local = [(pos[a], pos[b]) for a, b in pairs if a in pos and b in pos]
        total += sum(ahu_code(h, tree, 0) == code for tree in spanning_trees(h, local))
    return total


def exact_colorful_counts(H, coloring, k):
    """canonlab.exact_counts restricted to colorful U (all k colors present)."""
    check_key_order(k)
    colors = coloring.colors
    every = set(range(k))
    counts = {}
    for U in connected_ksets(H, k):
        if {colors[v] for v in U} == every:
            key = canonical_key(induced_sub(H, U))
            counts[key] = counts.get(key, 0) + 1
    return counts


def has_k_clique(G, k):
    """Direct clique test on G."""
    if k > G.n:
        return False
    adj = [set(G.adj[v]) for v in range(G.n)]
    for T in combinations(range(G.n), k):
        if all(v in adj[u] for u, v in combinations(T, 2)):
            return True
    return False


def nw_ie(H, w):
    """eta over the full hypergraph by inclusion-exclusion (the split at
    alpha 0, whose lower part is empty); needs Delta <= NWPlan's cap."""
    return combined_neighbor_weight(NWPlan(apply_split(H, 0)), w)


def split_cost(H, alpha):
    """(lower_cost, upper_cost) of the split at alpha, from the cost model's
    definition: sum of |e|^2 over edges of size <= alpha, and sum over the
    vertices of 2 to the number of larger edges holding them."""
    lower_cost = sum(len(e) ** 2 for e in H.edges if len(e) <= alpha)
    upper_cost = sum(2 ** sum(1 for e in H.edges if len(e) > alpha and v in e)
                     for v in range(H.n))
    return lower_cost, upper_cost


def candidate_alphas(H):
    """Thresholds worth considering: 0 plus each distinct edge size."""
    return [0] + sorted({len(e) for e in H.edges})


def random_hypergraph(rng, n_max=15, m_max=12, size_max=6):
    """Small random instance for corpus-style comparisons."""
    n = rng.randint(1, n_max)
    m = rng.randint(0, m_max)
    edges = []
    for _ in range(m):
        s = rng.randint(1, min(size_max, n))
        edges.append(tuple(sorted(rng.sample(range(n), s))))
    if not edges:
        edges = [(0,)]
    return Hypergraph(n, sorted(set(edges)))


def bounded_degree_hypergraph(rng, n, m, size_max, degree_cap):
    """Random instance whose vertex degrees never exceed degree_cap.

    The upper-part neighbor weights cost two-to-the-degree per vertex, so
    corpora meant to be built at every curve point must keep degrees modest.
    """
    degrees = [0] * n
    edges = set()
    attempts = 0
    while len(edges) < m and attempts < 40 * m + 40:
        attempts += 1
        s = rng.randint(1, min(size_max, n))
        room = [v for v in range(n) if degrees[v] < degree_cap]
        if len(room) < s:
            break
        e = tuple(sorted(rng.sample(room, s)))
        if e in edges:
            continue
        edges.add(e)
        for v in e:
            degrees[v] += 1
    if not edges:
        edges = {(0,)}
    return Hypergraph(n, sorted(edges))
