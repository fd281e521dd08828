"""Canonical forms for small hypergraphlets and exact brute-force counting.

The canonical key of a hypergraphlet is the lexicographically smallest sorted
edge-bitmask tuple over all relabelings of its vertices; two hypergraphlets
get the same key iff they are isomorphic.  exact_counts enumerates every
connected k-set of the Gaifman graph exactly once (pivot growth) and tallies
keys; these exact tables are the ground truth all estimates are judged
against.
"""

from __future__ import annotations

import os
from itertools import combinations, permutations

from .hypercore import (
    HypergraphError,
    Hypergraphlet,
    gaifman,
    induced_sub,
)
from .treelets import canonical_code

DEFAULT_BUDGET = 10 ** 8
MAX_KEY_ORDER = 8  # canonical_key tries all k'! relabelings


def enumeration_budget(default=DEFAULT_BUDGET):
    """Brute-force cap: HM_BUDGET, a positive integer, when set; else default."""
    raw = os.environ.get("HM_BUDGET")
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise HypergraphError("HM_BUDGET must be an integer, got %r" % raw) from None
    if value <= 0:
        raise HypergraphError("HM_BUDGET must be positive")
    return value


def check_key_order(k):
    """Refuse orders canonical_key cannot handle, before any work is done."""
    if k > MAX_KEY_ORDER:
        raise HypergraphError(
            "canonical form limited to order <= %d, got %d" % (MAX_KEY_ORDER, k))


class BudgetExceeded(HypergraphError):
    pass


_KEY_CACHE = {}


def canonical_key(P):
    """Minimal (order, edge-tuple) over all vertex permutations; k' <= 8."""
    kp = P.order
    check_key_order(kp)
    raw = (kp, P.edges)
    hit = _KEY_CACHE.get(raw)
    if hit is not None:
        return hit
    if kp <= 1 or not P.edges:
        best = P.edges
    else:
        best = None
        for perm in permutations(range(kp)):
            mapped = []
            for mask in P.edges:
                m = 0
                rest = mask
                while rest:
                    low = rest & -rest
                    m |= 1 << perm[low.bit_length() - 1]
                    rest ^= low
                mapped.append(m)
            mapped = tuple(sorted(mapped))
            if best is None or mapped < best:
                best = mapped
    key = (kp, best)
    _KEY_CACHE[raw] = key
    return key


def key_to_hypergraphlet(key):
    return Hypergraphlet(key[0], key[1])


def key_to_text(key):
    """One-token, comma-free text form: order, colon, hex masks dash-joined."""
    return "%d:%s" % (key[0], "-".join("%x" % m for m in key[1]))


def key_from_text(text):
    head, _, tail = text.partition(":")
    order = int(head)
    masks = tuple(int(tok, 16) for tok in tail.split("-") if tok)
    return (order, masks)


def connected_ksets(H, k, budget=None):
    """Yield every U with |U|=k and H|_U connected, each exactly once.

    Pivot growth over the Gaifman graph: start at each vertex v, extend only
    with higher-numbered vertices reachable from the current set, keeping the
    extension candidates disjoint from the current closed neighborhood.
    """
    if k < 1:
        raise HypergraphError("k must be at least 1")
    if budget is None:
        budget = enumeration_budget()
    adj = [sum(1 << u for u in nbrs) for nbrs in gaifman(H).adj]
    produced = 0
    if k == 1:
        for v in range(H.n):
            yield (v,)
        return

    def bits(mask):
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    for v in range(H.n):
        gt = -1 << (v + 1)
        start_ext = adj[v] & gt
        stack = [(1 << v, start_ext, adj[v] | (1 << v))]
        while stack:
            sub, ext, closed = stack.pop()
            size = bin(sub).count("1")
            if size == k - 1:
                for w in bits(ext):
                    produced += 1
                    if produced > budget:
                        raise BudgetExceeded(
                            "connected-set enumeration exceeded budget %d "
                            "(set HM_BUDGET to raise)" % budget)
                    yield tuple(bits(sub | (1 << w)))
                continue
            while ext:
                low = ext & -ext
                ext ^= low
                w = low.bit_length() - 1
                new_ext = ext | (adj[w] & ~closed & gt)
                stack.append((sub | low, new_ext, closed | adj[w] | low))
        # (sets not containing any vertex < v are rooted at v exactly once)


def exact_counts(H, k, budget=None):
    """Exact per-key counts of connected induced k-vertex sub-hypergraphs."""
    check_key_order(k)
    counts = {}
    for U in connected_ksets(H, k, budget=budget):
        key = canonical_key(induced_sub(H, U))
        counts[key] = counts.get(key, 0) + 1
    return counts


def exact_colorful_counts(H, coloring, k, budget=None):
    """As exact_counts but restricted to colorful U (all k colors present)."""
    colors = coloring.colors
    counts = {}
    for U in connected_ksets(H, k, budget=budget):
        seen = 0
        for v in U:
            seen |= 1 << colors[v]
        if seen == (1 << k) - 1:
            key = canonical_key(induced_sub(H, U))
            counts[key] = counts.get(key, 0) + 1
    return counts


def brute_spanning_trees(A):
    """Count spanning trees of a (small) adjacency matrix by edge subsets."""
    n = len(A)
    if n > 8:
        raise HypergraphError("brute spanning-tree count limited to 8 vertices")
    if n <= 1:
        return 1
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if A[i][j]]
    count = 0
    for subset in combinations(edges, n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for u, v in subset:
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if ok:
            count += 1
    return count


def brute_rooted_colorful_treelets(H, coloring, code, S, v):
    """Exhaustive C(T,S,v): rooted trees in Gaif(H), shape and colors exact.

    Enumerates h-subsets U containing v whose colors are exactly S (one
    vertex per color), then every spanning tree of Gaif(H)[U], keeping those
    whose rooted canonical code at v matches.
    """
    if H.n > 12:
        raise HypergraphError("brute treelet counting limited to n <= 12")
    h = code.count("(")
    colors = coloring.colors
    S_bits = [c for c in range(coloring.k) if S >> c & 1]
    if len(S_bits) != h:
        raise HypergraphError("|S| must equal the treelet order")
    if not S >> colors[v] & 1:
        return 0
    G = gaifman(H)
    adj = [set(a) for a in G.adj]
    total = 0
    others = [u for u in range(H.n) if u != v]
    for rest in combinations(others, h - 1):
        U = (v,) + rest
        mask = 0
        for u in U:
            mask |= 1 << colors[u]
        if mask != S or bin(mask).count("1") != h:
            continue
        pairs = [(a, b) for i, a in enumerate(U) for b in U[i + 1:] if b in adj[a]]
        for subset in combinations(pairs, h - 1):
            parent = {u: u for u in U}

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            ok = True
            for a, b in subset:
                ra, rb = find(a), find(b)
                if ra == rb:
                    ok = False
                    break
                parent[ra] = rb
            if not ok:
                continue
            children = {u: [] for u in U}
            seen = {v}
            frontier = [v]
            tree_adj = {u: [] for u in U}
            for a, b in subset:
                tree_adj[a].append(b)
                tree_adj[b].append(a)
            while frontier:
                x = frontier.pop()
                for y in tree_adj[x]:
                    if y not in seen:
                        seen.add(y)
                        children[x].append(y)
                        frontier.append(y)
            if canonical_code(children, v) == code:
                total += 1
    return total
