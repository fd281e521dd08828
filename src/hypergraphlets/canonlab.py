"""Canonical forms for small hypergraphlets and exact counting.

The canonical key of a hypergraphlet is the lexicographically smallest sorted
edge-bitmask tuple over all relabelings of its vertices; two hypergraphlets
get the same key iff they are isomorphic.  The key is found by a search that
places one vertex per position and, at each node, tries one unplaced vertex
per swap class: vertices whose exchange maps the edge set onto itself.  Such
an exchange fixes every placed vertex, so the children it skips reach the
same tuples and the minimum stays exact.  Singleton edges and the full edge
sit out of the search: every minimal labeling puts the singleton vertices
first, so their masks are 1, 2, 4, ..., and the full edge is the largest mask
under every labeling.  Masks that every labeling shares never decide which of
two relabelings is smaller, so the search ranks them on the other edges only.
Keys of order 4 are read from a precomputed table of the search's answers,
one entry per edge set (order4keys).  At every other order, a labeled edge set
seen before is answered by a front cache.  Behind it, keys are cached by a
copy of each hypergraphlet with its vertices ordered by the sizes of their
edges, so most labelings of one shape share one cache entry and one search.

exact_counts enumerates every connected k-set of the Gaifman graph exactly
once (pivot growth) and tallies keys: the `exact` command's table.
"""

from __future__ import annotations

import os

from .hypercore import (
    HypergraphError,
    Hypergraphlet,
    gaifman,
    induced_sub,
)

DEFAULT_BUDGET = 10 ** 7  # sets an exhaustive search may examine
MAX_KEY_ORDER = 8  # the largest order canonical_key, -k and .hmt headers accept
KEY_CACHE_CAP = 1 << 14  # each key cache is emptied when it holds this many keys


class BudgetExceeded(HypergraphError):
    pass


def enumeration_budget():
    """Cap on the sets any exhaustive search examines: HM_BUDGET, a positive
    integer, when set; else DEFAULT_BUDGET.  The one reader of HM_BUDGET."""
    raw = os.environ.get("HM_BUDGET")
    if not raw:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise HypergraphError("HM_BUDGET must be an integer, got %r" % raw) from None
    if value <= 0:
        raise HypergraphError("HM_BUDGET must be positive")
    return value


def check_budget(count, what):
    """Refuse a search that would examine count sets, past the budget."""
    budget = enumeration_budget()
    if count > budget:
        raise BudgetExceeded(
            "%s exceeds budget %d (set HM_BUDGET to raise)" % (what, budget))


def check_key_order(k):
    """Refuse orders canonical_key cannot handle, before any work is done."""
    if k > MAX_KEY_ORDER:
        raise HypergraphError(
            "canonical form limited to order <= %d, got %d" % (MAX_KEY_ORDER, k))


_KEY_CACHE = {}
_LABELED_KEYS = {}
_ORDER4_TABLE = None  # order4keys.KEYS, bound on the first key of order 4
_ORDER4_KEYS = {}  # a table entry -> its key; at most one per shape of order 4

# Work done since import, counted where it happens; nothing on the default
# path reads these.  Every profile copy is one shape-cache lookup, so the
# shape-cache misses are copies - shape_hits.
front_hits = 0  # keys answered by _LABELED_KEYS
shape_hits = 0  # keys answered by _KEY_CACHE
copies = 0  # _profile_ordered calls
searches = 0  # _min_relabeling calls
table_reads = 0  # keys of order 4 read from the table


def canonical_key(P):
    """The key of the module docstring, as (order, sorted masks); k' <= 8.

    Order 4 reads the key's integer from the table and memoizes one tuple
    per distinct key.  At other orders, a labeled edge set seen before is
    answered from _LABELED_KEYS with no copy made.  Otherwise keys are
    cached by _profile_ordered(P), an isomorphic copy of P, so the
    labelings of one shape that the copy maps to the same masks share one
    entry and one search.  Each cache is emptied whenever it reaches
    KEY_CACHE_CAP entries.
    """
    global front_hits, shape_hits, table_reads
    kp = P.order
    if kp == 4:
        table_reads += 1
        table = _ORDER4_TABLE or _load_order4_table()
        i = 0
        for mask in P.edges:
            i |= 1 << (mask - 1)
        code = table[i]
        key = _ORDER4_KEYS.get(code)
        if key is None:
            key = _ORDER4_KEYS[code] = (
                4, tuple([m for m in range(1, 16) if code >> (m - 1) & 1]))
        return key
    labeled = (kp, P.edges)
    key = _LABELED_KEYS.get(labeled)
    if key is None:
        check_key_order(kp)
        copy = (kp, _profile_ordered(kp, P.edges))
        key = _KEY_CACHE.get(copy)
        if key is None:
            if len(_KEY_CACHE) >= KEY_CACHE_CAP:
                _KEY_CACHE.clear()
            key = _KEY_CACHE[copy] = (kp, _min_relabeling(*copy))
        else:
            shape_hits += 1
        if len(_LABELED_KEYS) >= KEY_CACHE_CAP:
            _LABELED_KEYS.clear()
        _LABELED_KEYS[labeled] = key
    else:
        front_hits += 1
    return key


def _load_order4_table():
    """Import the order-4 table, which decodes it, and keep it for later keys."""
    global _ORDER4_TABLE
    from .order4keys import KEYS
    _ORDER4_TABLE = KEYS
    return KEYS


# The local vertices of every mask of order <= MAX_KEY_ORDER.
_BITS = [tuple([v for v in range(MAX_KEY_ORDER) if mask >> v & 1])
         for mask in range(1 << MAX_KEY_ORDER)]


def _profile_ordered(kp, edges):
    """The sorted masks of edges relabeled so that vertices come in order of
    their profile, the multiset of the sizes of their edges; ties keep label
    order.  A profile is one integer, a count per edge size in 8-bit fields.
    Every relabeling of a shape has the same canonical key, so the copy keeps
    the key whatever invariant orders it; the invariant decides only how
    many labelings map to one copy.
    """
    global copies
    copies += 1
    profile = [0] * kp
    for mask in edges:
        bits = _BITS[mask]
        field = 1 << (len(bits) << 3)
        for v in bits:
            profile[v] += field
    bit = [0] * kp
    for p, v in enumerate(sorted(range(kp), key=profile.__getitem__)):
        bit[v] = 1 << p
    return tuple(sorted([sum(map(bit.__getitem__, _BITS[mask])) for mask in edges]))


def _swap_classes(kp, edges):
    """The vertices of the edge set grouped into swap classes, one mask each.

    u and v are swappable when exchanging them maps the edge set onto
    itself.  That is an equivalence: if (u v) and (v w) are automorphisms, so
    is (u w) = (u v)(v w)(u v), so each vertex is tested only against the
    first member of each class.  The test: equal degrees, and the swap of
    every edge that holds v but not u is an edge.  Equal degrees make as many
    edges hold u but not v, so the swap maps those onto each other too.
    """
    present = set(edges)
    degree = [0] * kp
    for mask in edges:
        for v in _BITS[mask]:
            degree[v] += 1
    firsts = []
    classes = []
    for v in range(kp):
        vbit = 1 << v
        for i, u in enumerate(firsts):
            if degree[u] == degree[v]:
                both = vbit | 1 << u
                if all([m ^ both in present for m in edges if m & both == vbit]):
                    classes[i] |= vbit
                    break
        else:
            firsts.append(v)
            classes.append(vbit)
    return classes


def _min_relabeling(kp, edges):
    """Smallest sorted relabeled mask tuple, placing positions 0, 1, ... in turn.

    Once positions 0..p-1 are placed, the masks of the edges inside the placed
    set are final and every other mask is at least 2**p.  So placing vertex v
    at p closes a sorted run of masks in [2**p, 2**(p+1)) that follows all
    masks closed before it.  With a sentinel 1 << kp appended, two runs
    compare as the tuples they lead to: the longer run wins when one is a
    prefix of the other.  Each level keeps only the children whose run is
    minimal over the level, so all its nodes share one prefix.  Nodes with the
    same unplaced set and open edges have the same futures and are merged.
    A node tries only the lowest unplaced vertex of each swap class
    (_swap_classes): exchanging two unplaced vertices of one class fixes every
    placed vertex and maps the edge set onto itself, so the two children
    reach the same relabeled tuples, and the minimum stays exact.
    Singleton edges and the full edge sit out of the search: a singleton at p
    opens its run with 2**p, below every other mask, so every minimal
    labeling puts the s singleton vertices at positions 0..s-1, and the full
    edge is the largest mask under every labeling.  Masks that every labeling
    shares never decide which of two tuples is smaller, so the search ranks
    runs on the other edges, takes candidates only from the singleton
    vertices while p < s, and puts the shared masks back into the key.
    """
    global searches
    searches += 1
    classes = _swap_classes(kp, edges)
    low = (1 << kp) - 1
    singles = 0
    inner = []
    for mask in edges:
        if not mask & mask - 1:
            singles |= mask
        elif mask != low:
            inner.append(mask)
    s = bin(singles).count("1")
    sentinel = [1 << kp]
    # A node: its unplaced vertices as a mask, and its open edges, each with
    # its placed positions in the low kp bits and unplaced vertex v at kp + v.
    level = [(low, [mask << kp for mask in inner])]
    key = []
    for p in range(kp):
        pbit = 1 << p
        pool = singles if p < s else low
        best = None
        for free, open_edges in level:
            for cls in classes:
                vbit = free & cls & pool
                if not vbit:
                    continue
                vbit &= -vbit
                shifted = vbit << kp
                run = []
                rest = []
                for m in open_edges:
                    if m & shifted:
                        m ^= shifted | pbit
                        if m <= low:
                            run.append(m)
                            continue
                    rest.append(m)
                run += sentinel
                run.sort()
                if best is None or run < best:
                    best = run
                    children = []
                if run == best:
                    children.append((free ^ vbit, rest))
        if p < s:
            key.append(pbit)
        key += best[:-1]
        level = {(free, frozenset(rest)): (free, rest)
                 for free, rest in children}.values()
    if len(edges) > s + len(inner):  # the full edge
        key.append(low)
    return tuple(key)


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


def connected_ksets(H, k):
    """Yield every U with |U|=k and H|_U connected, each exactly once.

    Pivot growth over the Gaifman graph: start at each vertex v, extend only
    with higher-numbered vertices reachable from the current set, keeping the
    extension candidates disjoint from the current closed neighborhood.
    The total is unknown up front, so sets are counted as they are produced.
    """
    if k < 1:
        raise HypergraphError("k must be at least 1")
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
                        check_budget(produced, "connected-set enumeration")
                    yield tuple(bits(sub | (1 << w)))
                continue
            while ext:
                low = ext & -ext
                ext ^= low
                w = low.bit_length() - 1
                new_ext = ext | (adj[w] & ~closed & gt)
                stack.append((sub | low, new_ext, closed | adj[w] | low))
        # (sets not containing any vertex < v are rooted at v exactly once)


def exact_counts(H, k):
    """Exact per-key counts of connected induced k-vertex sub-hypergraphs."""
    check_key_order(k)
    counts = {}
    for U in connected_ksets(H, k):
        key = canonical_key(induced_sub(H, U))
        counts[key] = counts.get(key, 0) + 1
    return counts
