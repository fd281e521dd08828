"""Independent oracles used to check the library against first principles.

Everything here is deliberately written from the definitions, without
importing any library internals beyond the Hypergraph container itself, so
that agreement between the two is meaningful.
"""

from itertools import combinations, permutations

from hypergraphlets.hypercore import Hypergraph


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


def count_spanning_trees_brute(n, pairs):
    """Spanning trees by trying every (n-1)-subset of edges."""
    if n <= 1:
        return 1
    total = 0
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
            total += 1
    return total


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
