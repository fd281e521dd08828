"""Random colorings, the bottom-up computation of treelet counters, .hmt files.

C(T,S,v) counts rooted trees in the Gaifman graph that are isomorphic to the
rooted treelet T, use exactly the color set S (one vertex per color), and are
rooted at v.  The recurrence glues T1 (rooted at v) to T2 (rooted at a
neighbor u), so each T2 needs eta(v) = sum of C(T2,S2,u) over neighbors u of
v, for every color set S2.  One neighbor-weight round per order of T2
serves all its T2 and their S2, at most k - 1 rounds per build: the counts
of each vertex are packed into one integer, a fixed-width field per (T2,
S2), and the round sums those integers.  Their bytes are written in place,
each vector straight into its fields of one bytearray.  A round runs
across an alpha-split: directly on the split's lower-only graph, the lower
Gaifman pairs that no upper edge joins, then adds the upper neighbors by
inclusion-exclusion over the upper types, one sum per group of vertices
that share a type.  An NWPlan holds what no round changes, built once per
split.  The DP and the rounds walk only the nonzero entries of each table.
eta stays one flat array per round, each product reads its field as a
slice of it, and it lives only while the build runs: the tables and the
split are all the sampler and the table loader need.  The naive baseline
is the split at alpha = H.rank, whose upper part is empty.  Counts are
exact arbitrary-precision integers.

Values below 2^64 reach bytes, for a round or a .hmt array, through one
array('Q') conversion per vector into 8-byte lanes, cut to their width by
strided slices: per 1000 ints that conversion takes about 8.5 us, an
array('H') one 27 to 36 us and a max scan 17 us.  A .hmt array's width is
read off the lanes' zero bytes.

A .hmt file's three digests (catalog, host, trailer) are plain SHA-256,
computed with the interpreter's built-in implementation (_sha256, or _sha2
from CPython 3.12), and with hashlib only where there is none: hashlib
loads OpenSSL's libcrypto, about 3.6 MB of every command's peak RSS.  The
digests, and so the files, are the same either way.
"""

from __future__ import annotations

import random
import struct
import sys
from array import array
from functools import cache
from itertools import combinations, compress

try:  # the built-in SHA-256; hashlib would load OpenSSL's libcrypto
    from _sha256 import sha256  # CPython 3.10, 3.11
except ImportError:
    try:
        from _sha2 import sha256  # CPython 3.12, 3.13
    except ImportError:
        from hashlib import sha256  # a build without the built-in hashes

from .canonlab import MAX_KEY_ORDER, check_budget

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
    """eta(v) = sum of w(u) over Gaifman neighbors u of v.

    w may hold packed integers (see packed_neighbor_weights): the sum is
    linear in w."""
    out = [0] * G.n
    adj = G.adj
    for v in compress(range(G.n), w):
        x = w[v]
        for u in adj[v]:
            out[u] += x
    return out


def check_cap(split, cap):
    """Refuse a split whose upper degree beta needs more than 2^cap subsets."""
    if split.beta > cap:
        raise BuildError("degree %d exceeds the 2^degree cap %d; re-split with "
                         "a larger alpha" % (split.beta, cap))


class NWPlan:
    """What every neighbor-weight round over one alpha-split reuses.

    Built once per split.  lower is split.lower_only, the lower Gaifman
    pairs the upper part does not join.  Each nonempty subset X of an upper
    type is interned as an integer id, and members[id] lists the vertices
    whose type contains X.  upper holds one (vertices, odd, even) row per
    group of split.upper_groups: the group's vertices, which share one
    type, and the ids of the subsets of that type of odd and of even size,
    which inclusion-exclusion adds and subtracts.  The 2^degree cap, and
    the enumeration budget against the plan's size, the sum of 2^|type|
    over the vertices in an upper edge, are checked here, before any subset
    is enumerated.
    """

    __slots__ = ("lower", "members", "upper")

    def __init__(self, split, cap=20):
        check_cap(split, cap)
        total = sum(1 << len(ty) for ty in split.upper_types if ty)
        check_budget(total, "inclusion-exclusion plan of %d subsets" % total)
        index = {}
        self.lower = split.lower_only
        self.members, self.upper = [], []
        for ty, verts in split.upper_groups.items():
            sides = ([], [])
            for r in range(1, len(ty) + 1):
                for X in combinations(ty, r):
                    i = index.setdefault(X, len(index))
                    if i == len(self.members):
                        self.members.append([])
                    self.members[i] += verts
                    sides[r % 2].append(i)
            self.upper.append((verts, sides[1], sides[0]))


def combined_neighbor_weight(plan, w):
    """eta(v) = sum of w(u) over the Gaifman neighbors u of v, across
    plan's split.

    eta starts as the pass over plan.lower, the lower neighbors that share
    no upper edge with v.  Each vertex v in an upper edge then gains, over
    the nonempty subsets X of its upper type, -(-1)^|X| times the weight of
    the vertices whose type contains X.  That counts each upper neighbor
    once and v itself once, so w(v) is taken back.  The sum over X depends
    only on the type, so it is taken once per row of plan.upper and shared
    by the row's vertices.
    """
    eta = nw_naive(plan.lower, w)
    tget = [sum(map(w.__getitem__, m)) for m in plan.members].__getitem__
    for verts, odd, even in plan.upper:
        shared = sum(map(tget, odd)) - sum(map(tget, even))
        for v in verts:
            eta[v] += shared - w[v]
    return eta


def packed_neighbor_weights(plan, vectors):
    """combined_neighbor_weight of each of m nonnegative vectors in one round,
    laid out flat: vector j's result at v is flat[v * m + j], in an array if
    a typecode holds the field width, else in a list.

    Vertex v's entries go into one integer, vector j in the j-th
    little-endian field of width bytes, and the round runs once on those
    integers.  Both passes of a round are linear in w, so the packed result
    at v is exactly sum over j of eta_j(v) * 256^(width * j), however the
    inclusion-exclusion terms carry and borrow on the way.  Each eta_j(v)
    sums w_j over neighbors of v, never v itself, so it lies in
    [0, sum(w_j)]: width is _width of the largest vector sum, and no field
    then spills into the next.  A sum is never more than n * max, and is
    cheaper to take than a max (about 6 against 17 us per 1000 small ints).

    The integers' bytes are one n * m * width bytearray, written in place:
    each vector's _lanes go byte by byte into its fields by strided slices,
    and only a vector with a value from 2^64 up goes through int.to_bytes,
    its values width bytes apart.  Each stage is dropped once the next
    exists: the bytes once the integers do, the integers once the round
    has run."""
    n, m = len(vectors[0]), len(vectors)
    width = _width(max(map(sum, vectors)))
    stride = m * width
    raw = bytearray(n * stride)
    for j, vec in enumerate(vectors):
        try:
            src, lane = _lanes(vec), 8
        except OverflowError:
            src = b"".join([x.to_bytes(width, "little") for x in vec])
            lane = width
        for b in range(min(width, lane)):
            raw[j * width + b::stride] = src[b::lane]
    packed = [int.from_bytes(x, "little")
              for x, in struct.iter_unpack("%ds" % stride, raw)]
    del raw
    eta = combined_neighbor_weight(plan, packed)
    del packed
    return _from_bytes(b"".join([x.to_bytes(stride, "little") for x in eta]), width)


@cache
def masks_of_size(k, h):
    """All k-bit masks with h bits set, ascending; one shared tuple per (k, h)."""
    return tuple(sorted(sum(1 << p for p in c) for c in combinations(range(k), h)))


class CounterSet:
    """All counter tables for one (hypergraph, coloring, split) build.

    tables[tid][S] is the length-n list C(T_tid, S, .).  split is the
    AlphaSplit the tables were built over; the naive build's is the split at
    alpha = H.rank, whose upper part is empty.  cap is the 2^degree cap the
    build ran under.  W, the number of colorful treelet occurrences, is the
    sum of every C(T,[k],.) over the order-k treelets.
    """

    __slots__ = ("k", "n", "H", "coloring", "catalog", "tables", "W", "split", "cap")

    def __init__(self, k, n, H, coloring, catalog, tables, split, cap):
        self.k = k
        self.n = n
        self.H = H
        self.coloring = coloring
        self.catalog = catalog
        self.tables = tables
        self.split = split
        self.cap = cap
        self.W = sum(sum(vec) for _tid, vec in self.root_weights())

    def root_weights(self):
        """Per order-k treelet: the C(T,[k],.) vector."""
        full = (1 << self.k) - 1
        return [(t.tid, self.tables[t.tid][full])
                for t in self.catalog.of_order(self.k)]

    def tables_equal(self, other):
        return ((self.k, self.n, self.W) == (other.k, other.n, other.W)
                and self.tables == other.tables)


def build_counters(H, split, k, coloring, cap=20, plan=None):
    """Bottom-up DP over the treelet catalog.  The catalog comes in order of
    order, so when a treelet first glues a T2 of order h2, every table of
    order h2 exists: one neighbor-weight round over the split's NWPlan then
    packs C(T2,S2,.) of every T2 of order h2 that some T glues on and every
    S2 whose table is not identically zero (see packed_neighbor_weights).
    plan is NWPlan(split, cap), built here unless the caller passes it.
    The DP's products and the divisibility pass walk only nonzero entries."""
    catalog = TreeletCatalog(k)
    if coloring.k != k:
        raise BuildError("coloring has %d colors, build wants %d" % (coloring.k, k))
    if len(coloring) != H.n:
        raise BuildError("coloring length does not match vertex count")
    n = H.n
    colors = coloring.colors
    zeros = [0] * n
    # One shared int per vertex id, so the support lists below hold
    # pointers, not fresh ints.
    verts = list(range(n))

    tables = [None] * len(catalog)
    tables[0] = {1 << c: [1 if colors[v] == c else 0 for v in range(n)]
                 for c in range(k)}
    # support[tid][S]: the vertices where C(T_tid,S,.) is nonzero, for the
    # orders below k, the ones a later treelet reads.
    support = [None] * len(catalog)
    support[0] = {S: list(compress(verts, w)) for S, w in tables[0].items()}

    # k = 1 has no neighbor-weight round, so neither a plan nor a cap check.
    plan = NWPlan(split, cap) if plan is None and k > 1 else plan
    glued = catalog.treelets[1:]
    last = {catalog[t.t2].order: t.tid for t in glued}
    # fields[t2]: the (S2, j) of each live S2, j its field in its order's
    # round; eta[h2] = (flat, m), the round's m fields per vertex, lives
    # from the first treelet that glues an order-h2 T2 to the last.
    fields = {t.t2: [] for t in glued}
    eta = {}
    for t in glued:
        h, h2 = t.order, catalog[t.t2].order
        h1 = h - h2
        if h2 not in eta:
            live = [(t2, S2) for t2 in fields if catalog[t2].order == h2
                    for S2, nz in support[t2].items() if nz]
            for j, (t2, S2) in enumerate(live):
                fields[t2].append((S2, j))
            vectors = [tables[t2][S2] for t2, S2 in live]
            eta[h2] = (packed_neighbor_weights(plan, vectors) if live else None, len(live))
        flat, m = eta[h2]
        acc = {}
        sup1 = support[t.t1]
        w1s = tables[t.t1]
        for S2, j in fields[t.t2]:
            eta2 = flat[j::m]
            rest = [c for c in range(k) if not S2 >> c & 1]
            for cset in combinations(rest, h1):
                S1 = sum(1 << c for c in cset)
                nz = sup1[S1]
                if not nz:
                    continue
                w1 = w1s[S1]
                a = acc.get(S1 | S2)
                if a is None:
                    a = acc[S1 | S2] = [0] * n
                for i in nz:
                    a[i] += w1[i] * eta2[i]
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
                for i in compress(verts, a):
                    q, r = divmod(a[i], d)
                    if r:
                        raise BuildError(
                            "counter sum for treelet %d not divisible by d=%d"
                            % (t.tid, d))
                    out[i] = q
                tbl[S] = out
        tables[t.tid] = tbl
        if last[h2] == t.tid:
            del eta[h2]
        if h < k:
            support[t.tid] = {S: list(compress(verts, w)) for S, w in tbl.items()}

    return CounterSet(k, n, H, coloring, catalog, tables, split, cap)


def build_counters_naive(H, k, coloring):
    """Baseline build: the split at alpha = H.rank, so every edge is lower
    and eta is nw_naive over the full Gaifman projection."""
    return build_counters(H, apply_split(H, H.rank), k, coloring)


# --- binary table persistence -------------------------------------------

_MAGIC = b"HMTB"
_VERSION = 5
_CORRUPT = "truncated or corrupt table file"
# Every file ends with the sha256 of all the bytes before it.
_TRAILER = 32
# array typecode per item width in bytes; wider counts use int.to_bytes.
_TYPECODES = {array(tc).itemsize: tc for tc in "BHILQ"}
_WIDTHS = sorted(_TYPECODES)


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


def _width(top):
    """Bytes per value: the narrowest array width that holds top, or as
    many bytes as top needs once it reaches 2^64."""
    return next((w for w in _WIDTHS if top < 1 << 8 * w),
                (top.bit_length() + 7) // 8)


def _lanes(values):
    """Every value little-endian in an 8-byte lane; OverflowError from 2^64
    up.  One array('Q') conversion is the cheapest way from ints to bytes:
    about 8.5 us per 1000 ints, against 27 to 36 us for array('H')."""
    arr = array("Q", values)
    if sys.byteorder == "big":
        arr.byteswap()
    return arr.tobytes()


def _narrow(lanes, width):
    """The low width bytes of every 8-byte lane, zero-extended past 8."""
    out = bytearray(len(lanes) // 8 * width)
    for b in range(min(width, 8)):
        out[b::width] = lanes[b::8]
    return out


def _from_bytes(raw, width):
    """Values of width bytes each, little-endian, from raw: an array if a
    typecode holds width, else a list."""
    if width in _TYPECODES:
        arr = array(_TYPECODES[width])
        arr.frombytes(raw)
        if sys.byteorder == "big":
            arr.byteswap()
        return arr
    return [int.from_bytes(raw[i:i + width], "little")
            for i in range(0, len(raw), width)]


def _pack(values):
    """A width varint, then every value little-endian in that many bytes,
    the width _width gives for the maximum.  Below 2^64 the width is read
    off the 8-byte lanes, no max taken: the narrowest of 1, 2, 4 or 8 bytes
    above which every lane's bytes are zero."""
    try:
        lanes = _lanes(values)
    except OverflowError:
        width = _width(max(values))
        return _varint(width) + b"".join([x.to_bytes(width, "little") for x in values])
    zero = bytes(len(values))
    width = 8
    for w in (4, 2, 1):
        if any(lanes[b::8] != zero for b in range(w, width)):
            break
        width = w
    return _varint(width) + _narrow(lanes, width)


def _unpack(buf, pos, n):
    """Inverse of _pack for n values at pos: (values as a list, next position)."""
    width, pos = _read_varint(buf, pos)
    end = pos + width * n
    if not width or end > len(buf):
        raise BuildError(_CORRUPT)
    values = _from_bytes(buf[pos:end], width)
    return values if isinstance(values, list) else values.tolist(), end


def catalog_digest(catalog):
    return sha256(catalog.dump().encode()).digest()


def host_digest(H):
    """sha256 of H's vertex count and edge list, edges and ids in order."""
    return sha256(repr((H.n, H.edges)).encode()).digest()


def write_table(cs, path):
    """Binary dump of a CounterSet's DP tables; byte-deterministic."""
    out = bytearray()
    out += _MAGIC
    out.append(_VERSION)
    out.append(cs.k)
    out += _varint(cs.split.alpha)
    out += _varint(cs.cap)
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
            out += _pack(cs.tables[tid][S])
    out += sha256(out).digest()
    with open(path, "wb") as fh:
        fh.write(out)


def read_table(path):
    """Parse a table file back into its raw parts (header dict + arrays).

    Magic, version and k are checked on the first 6 bytes before any other
    byte is read; then the sha256 trailer is checked before any other byte
    is parsed."""
    with open(path, "rb") as fh:
        head = fh.read(6)
        if head[:4] != _MAGIC:
            raise BuildError("not a counter table file")
        if len(head) < 6:
            raise BuildError(_CORRUPT)
        if head[4] != _VERSION:
            raise BuildError("unsupported table version %d" % head[4])
        k = head[5]
        if not 1 <= k <= MAX_KEY_ORDER:
            raise BuildError("%s: treelet order %d outside 1..%d"
                             % (_CORRUPT, k, MAX_KEY_ORDER))
        buf = fh.read()
    # body is every byte after the head and before the trailer.
    body = memoryview(buf)[:-_TRAILER]
    check = sha256(head)
    check.update(body)
    if len(buf) < _TRAILER or check.digest() != buf[-_TRAILER:]:
        raise BuildError(_CORRUPT)
    alpha, pos = _read_varint(body, 0)
    cap, pos = _read_varint(body, pos)
    slen, pos = _read_varint(body, pos)
    try:
        seed = str(body[pos:pos + slen], "utf-8")
    except UnicodeDecodeError:
        raise BuildError(_CORRUPT) from None
    pos += slen
    n, pos = _read_varint(body, pos)
    digest = body[pos:pos + 32]
    host = bytes(body[pos + 32:pos + 64])
    pos += 64
    colors = list(body[pos:pos + n])
    pos += n
    if pos > len(body):
        raise BuildError(_CORRUPT)
    catalog = TreeletCatalog(k)
    if digest != catalog_digest(catalog):
        raise BuildError("table was written with a different treelet catalog")
    W, pos = _read_varint(body, pos)
    tables = [None] * len(catalog)
    for tid in range(len(catalog)):
        tbl = {}
        for S in masks_of_size(k, catalog[tid].order):
            tbl[S], pos = _unpack(body, pos, n)
        tables[tid] = tbl
    if pos != len(body):
        raise BuildError(_CORRUPT)
    return dict(k=k, alpha=alpha, cap=cap, seed=seed, n=n, host=host,
                colors=colors, W=W, tables=tables, catalog=catalog)


def counterset_from_table(H, data):
    """Rebuild a usable CounterSet from read_table output plus H.  No round
    runs; the split is still refused under the cap the build recorded, and
    the file's W under the W of its own tables.

    Tables whose digests check are otherwise trusted.  Sampling refuses
    neighbor partitions that sum below d*C(T,S,v), but partitions that sum
    above it are drawn from under a skewed law; checking every count here
    would cost one build per load."""
    if H.n != data["n"]:
        raise BuildError("hypergraph has %d vertices, table says %d" % (H.n, data["n"]))
    if host_digest(H) != data["host"]:
        raise BuildError("table was built on a different hypergraph")
    k, catalog = data["k"], data["catalog"]
    coloring = Coloring(k, data["colors"], seed=data["seed"] or None)
    split = AlphaSplit(H, data["alpha"])
    if k > 1:
        check_cap(split, data["cap"])
    cs = CounterSet(k, data["n"], H, coloring, catalog, data["tables"],
                    split, data["cap"])
    if cs.W != data["W"]:
        raise BuildError("table records W = %d, its tables sum to %d"
                         % (data["W"], cs.W))
    return cs
