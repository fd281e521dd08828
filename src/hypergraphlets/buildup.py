"""Random colorings and the bottom-up computation of treelet counters.

C(T,S,v) counts rooted trees in the Gaifman graph that are isomorphic to the
rooted treelet T, use exactly the color set S (one vertex per color), and are
rooted at v.  The recurrence glues T1 (rooted at v) to T2 (rooted at a
neighbor u), so each round needs eta(v) = sum of C(T2,S2,u) over neighbors u
of v.  That neighbor-weight step is solved two ways, combined across an
alpha-split: directly on the Gaifman projection of the lower part, and by
inclusion-exclusion over per-vertex types for the upper part, with an
overlap correction for pairs adjacent in both.  The naive baseline is the
split at alpha = H.rank, whose upper part is empty.  Counts are exact
arbitrary-precision integers.
"""

from __future__ import annotations

import hashlib
import random
from itertools import combinations

# gaifman is unused here but stays importable: perfbench traces buildup.gaifman.
from .hypercore import HypergraphError, gaifman  # noqa: F401
from .splitter import AlphaSplit, apply_split
from .treelets import TreeletCatalog


class BuildError(HypergraphError):
    pass


class Coloring:
    __slots__ = ("k", "colors", "seed")

    def __init__(self, k, colors, seed=None):
        if any(not 0 <= c < k for c in colors):
            raise BuildError("color value out of range")
        self.k = k
        self.colors = list(colors)
        self.seed = seed

    def __len__(self):
        return len(self.colors)


def derived_rng(seed, stream):
    """Independent deterministic stream: string seeds hash stably."""
    return random.Random("%s|%s" % (seed, stream))


def random_coloring(H, k, seed):
    if k < 1:
        raise BuildError("k must be at least 1")
    rng = derived_rng(seed, "coloring")
    return Coloring(k, [rng.randrange(k) for _ in range(H.n)], seed=seed)


def nw_naive(G, w):
    """eta(v) = sum of w(u) over Gaifman neighbors u of v."""
    out = [0] * G.n
    adj = G.adj
    for v, x in enumerate(w):
        if x:
            for u in adj[v]:
                out[u] += x
    return out


_SUBSET_CACHE = {}


def _signed_subsets(d):
    """(positions, sign) for every nonempty subset of range(d); cached for
    small d so the per-vertex loops do no re-enumeration."""
    if d in _SUBSET_CACHE:
        return _SUBSET_CACHE[d]
    out = []
    for mask in range(1, 1 << d):
        pos = tuple(p for p in range(d) if mask >> p & 1)
        out.append((pos, 1 if len(pos) % 2 else -1))
    if d <= 12:
        _SUBSET_CACHE[d] = out
    return out


def _nw_ie_types(types, w, cap):
    """Inclusion-exclusion NW over per-vertex sorted types.

    Two passes over a dictionary t: first t[X] accumulates w(v) for every
    nonempty X subseteq E(v), so t[X] = total weight of the intersection of
    the edges in X; then eta(v) = alternating sum over X subseteq E(v) minus
    w(v) itself, or 0 when E(v) is empty.
    """
    n = len(types)
    worst = max((len(t) for t in types), default=0)
    if worst > cap:
        raise BuildError(
            "degree %d exceeds the 2^degree cap %d; re-split with a smaller alpha"
            % (worst, cap))
    t = {}
    for v, ty in enumerate(types):
        x = w[v]
        if not x or not ty:
            continue
        for pos, _sign in _signed_subsets(len(ty)):
            key = tuple(ty[p] for p in pos)
            t[key] = t.get(key, 0) + x
    eta = [0] * n
    if not t:
        return eta
    get = t.get
    for v, ty in enumerate(types):
        if not ty:
            continue
        s = 0
        for pos, sign in _signed_subsets(len(ty)):
            val = get(tuple(ty[p] for p in pos))
            if val:
                s += sign * val
        eta[v] = s - w[v]
    return eta


def nw_ie(H, w, cap=20):
    """eta over the full hypergraph by inclusion-exclusion; needs Delta <= cap."""
    return _nw_ie_types([tuple(t) for t in H.incidence], w, cap)


def combined_neighbor_weight(split, w, cap=20):
    """(eta, eta_low, eta_high) across an alpha-split.

    eta(v) = eta_low(v) + eta_high(v) minus w(u) for every lower neighbor u
    that is also an upper neighbor (shares an upper edge; sorted-type
    intersection, O(beta) per check), so each true Gaifman neighbor counts
    once.
    """
    low = nw_naive(split.gaif_lower, w)
    high = _nw_ie_types(split.upper_types, w, cap)
    comb = list(low)
    types = split.upper_types
    lower_adj = split.lower_neighbors
    for u, x in enumerate(w):
        if not x or not types[u]:
            continue
        for v in lower_adj[u]:
            if types[v] and split.upper_overlap(u, v):
                comb[v] -= x
    for v in range(split.n):
        h = high[v]
        if h:
            comb[v] += h
    return comb, low, high


def masks_of_size(k, h):
    """All k-bit masks with h bits set, ascending."""
    return sorted(sum(1 << p for p in c) for c in combinations(range(k), h))


class CounterSet:
    """All counter tables for one (hypergraph, coloring, split) build.

    tables[tid][S] is the length-n list C(T_tid, S, .); eta[(t2, S2)] is the
    retained (eta_low, eta_high, eta_comb) triple for that neighbor-weight
    round, or None when C(T2,S2,.) was identically zero (round skipped).
    split is the AlphaSplit the tables were built over; the naive build's is
    the split at alpha = H.rank, whose upper part is empty.
    """

    __slots__ = ("k", "n", "H", "coloring", "catalog", "tables", "eta", "W",
                 "split")

    def __init__(self, k, n, H, coloring, catalog, tables, eta, W, split):
        self.k = k
        self.n = n
        self.H = H
        self.coloring = coloring
        self.catalog = catalog
        self.tables = tables
        self.eta = eta
        self.W = W
        self.split = split

    def eta_triple(self, t2, S2):
        return self.eta.get((t2, S2))

    def root_weights(self):
        """Per order-k treelet: the C(T,[k],.) vector."""
        full = (1 << self.k) - 1
        return [(t.tid, self.tables[t.tid][full])
                for t in self.catalog.of_order(self.k)]

    def tables_equal(self, other):
        if self.k != other.k or self.n != other.n:
            return False
        if self.W != other.W:
            return False
        for tid in range(len(self.catalog)):
            a, b = self.tables[tid], other.tables[tid]
            if set(a) != set(b):
                return False
            for S in a:
                if a[S] != b[S]:
                    return False
        return True


def build_counters(H, split, k, coloring, cap=20):
    """Bottom-up DP over the treelet catalog; each neighbor-weight round
    runs combined_neighbor_weight across the split."""
    catalog = TreeletCatalog(k)
    if coloring.k != k:
        raise BuildError("coloring has %d colors, build wants %d" % (coloring.k, k))
    if len(coloring) != H.n:
        raise BuildError("coloring length does not match vertex count")
    n = H.n
    colors = coloring.colors
    zeros = [0] * n

    tables = [None] * len(catalog)
    base = {}
    for c in range(k):
        base[1 << c] = [1 if colors[v] == c else 0 for v in range(n)]
    tables[0] = base

    eta_memo = {}
    for h in range(2, k + 1):
        for t in catalog.of_order(h):
            h2 = catalog[t.t2].order
            h1 = h - h2
            acc = {}
            for S2 in masks_of_size(k, h2):
                key = (t.t2, S2)
                if key in eta_memo:
                    trip = eta_memo[key]
                else:
                    w2 = tables[t.t2][S2]
                    trip = (combined_neighbor_weight(split, w2, cap)
                            if any(w2) else None)
                    eta_memo[key] = trip
                if trip is None:
                    continue
                comb = trip[0]
                rest = [c for c in range(k) if not S2 >> c & 1]
                for cset in combinations(rest, h1):
                    S1 = 0
                    for c in cset:
                        S1 |= 1 << c
                    w1 = tables[t.t1][S1]
                    if w1 is zeros:
                        continue
                    a = acc.get(S1 | S2)
                    if a is None:
                        a = acc[S1 | S2] = [0] * n
                    for i, x in enumerate(w1):
                        if x:
                            y = comb[i]
                            if y:
                                a[i] += x * y
            tbl = {}
            d = t.d
            for S in masks_of_size(k, h):
                a = acc.get(S)
                if a is None:
                    tbl[S] = zeros
                elif d == 1:
                    tbl[S] = a
                else:
                    out = [0] * n
                    for i, val in enumerate(a):
                        if val:
                            q, r = divmod(val, d)
                            if r:
                                raise BuildError(
                                    "counter sum for treelet %d not divisible by d=%d"
                                    % (t.tid, d))
                            out[i] = q
                    tbl[S] = out
            tables[t.tid] = tbl

    full = (1 << k) - 1
    W = 0
    for t in catalog.of_order(k):
        W += sum(tables[t.tid][full])
    eta = {key: (trip[1], trip[2], trip[0]) if trip is not None else None
           for key, trip in eta_memo.items()}
    return CounterSet(k, n, H, coloring, catalog, tables, eta, W, split)


def build_counters_naive(H, k, coloring):
    """Baseline build: the split at alpha = H.rank, so every edge is lower
    and eta is nw_naive over the full Gaifman projection."""
    return build_counters(H, apply_split(H, H.rank), k, coloring)


# --- binary table persistence -------------------------------------------

_MAGIC = b"HMTB"
_VERSION = 3
_CORRUPT = "truncated or corrupt table file"


def _varint(x):
    if x < 0:
        raise BuildError("negative value in table serialization")
    out = bytearray()
    while True:
        b = x & 0x7F
        x >>= 7
        if x:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def _read_varint(buf, pos):
    x = 0
    shift = 0
    while True:
        try:
            b = buf[pos]
        except IndexError:
            raise BuildError(_CORRUPT) from None
        pos += 1
        x |= (b & 0x7F) << shift
        if not b & 0x80:
            return x, pos
        shift += 7


def catalog_digest(catalog):
    return hashlib.sha256(catalog.dump().encode()).digest()


def host_digest(H):
    """sha256 of H's vertex count and edge list, edges and ids in order."""
    return hashlib.sha256(repr((H.n, H.edges)).encode()).digest()


def write_table(cs, path):
    """Dense binary dump of a CounterSet; byte-deterministic."""
    out = bytearray()
    out += _MAGIC
    out.append(_VERSION)
    out.append(cs.k)
    out += _varint(cs.split.alpha)
    seed = ("" if cs.coloring.seed is None else str(cs.coloring.seed)).encode()
    out += _varint(len(seed))
    out += seed
    out += _varint(cs.n)
    out += catalog_digest(cs.catalog)
    out += host_digest(cs.H)
    out += bytes(cs.coloring.colors)
    out += _varint(cs.W)
    for tid in range(len(cs.catalog)):
        order = cs.catalog[tid].order
        for S in masks_of_size(cs.k, order):
            for val in cs.tables[tid][S]:
                out += _varint(val)
    entries = sorted(key for key, trip in cs.eta.items() if trip is not None)
    out += _varint(len(entries))
    for t2, S2 in entries:
        low, high, comb = cs.eta[(t2, S2)]
        out += _varint(t2)
        out += _varint(S2)
        for arr in (low, high, comb):
            for val in arr:
                out += _varint(val)
    with open(path, "wb") as fh:
        fh.write(bytes(out))


def read_table(path):
    """Parse a table file back into its raw parts (header dict + arrays)."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != _MAGIC:
        raise BuildError("not a counter table file")
    if len(buf) < 6:
        raise BuildError(_CORRUPT)
    if buf[4] != _VERSION:
        raise BuildError("unsupported table version %d" % buf[4])
    k = buf[5]
    alpha, pos = _read_varint(buf, 6)
    slen, pos = _read_varint(buf, pos)
    try:
        seed = buf[pos:pos + slen].decode()
    except UnicodeDecodeError:
        raise BuildError(_CORRUPT) from None
    pos += slen
    n, pos = _read_varint(buf, pos)
    digest = buf[pos:pos + 32]
    host = buf[pos + 32:pos + 64]
    pos += 64
    colors = list(buf[pos:pos + n])
    pos += n
    if pos > len(buf):
        raise BuildError(_CORRUPT)
    catalog = TreeletCatalog(k)
    if digest != catalog_digest(catalog):
        raise BuildError("table was written with a different treelet catalog")
    W, pos = _read_varint(buf, pos)
    tables = [None] * len(catalog)
    for tid in range(len(catalog)):
        tbl = {}
        for S in masks_of_size(k, catalog[tid].order):
            arr = [0] * n
            for i in range(n):
                arr[i], pos = _read_varint(buf, pos)
            tbl[S] = arr
        tables[tid] = tbl
    eta = {}
    cnt, pos = _read_varint(buf, pos)
    for _ in range(cnt):
        t2, pos = _read_varint(buf, pos)
        S2, pos = _read_varint(buf, pos)
        trip = []
        for _a in range(3):
            arr = [0] * n
            for i in range(n):
                arr[i], pos = _read_varint(buf, pos)
            trip.append(arr)
        eta[(t2, S2)] = tuple(trip)
    if pos != len(buf):
        raise BuildError(_CORRUPT)
    return {
        "k": k,
        "alpha": alpha,
        "seed": seed,
        "n": n,
        "host": host,
        "colors": colors,
        "W": W,
        "tables": tables,
        "eta": eta,
        "catalog": catalog,
    }


def counterset_from_table(H, data):
    """Rebuild a usable CounterSet from read_table output plus H."""
    if H.n != data["n"]:
        raise BuildError("hypergraph has %d vertices, table says %d" % (H.n, data["n"]))
    if host_digest(H) != data["host"]:
        raise BuildError("table was built on a different hypergraph")
    coloring = Coloring(data["k"], data["colors"], seed=data["seed"] or None)
    split = AlphaSplit(H, data["alpha"])
    return CounterSet(data["k"], data["n"], H, coloring, data["catalog"],
                      data["tables"], data["eta"], data["W"], split)
