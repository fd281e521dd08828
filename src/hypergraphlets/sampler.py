"""Sampling colorful treelets and estimating hypergraphlet counts.

A built CounterSet induces a distribution over rooted colorful treelets:
drawing (T, v) proportionally to C(T,[k],v) and then recursively drawing
neighbors proportionally to C(T2,S2,u) yields a uniform colorful treelet,
so the sampled vertex set U lands with probability proportional to the
number sigma of spanning trees of the Gaifman graph on U.  Dividing each
observation by its sigma (or rejecting with probability 1 - 1/sigma)
removes that bias.  Every draw and rejection test is exact integer
arithmetic: one uniform integer below an integer total, located in integer
prefix sums.  The draw tables are built lazily and cached; cache warm-up
consumes no randomness, so results are reproducible.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate

from .buildup import build_counters, derived_rng, masks_of_size, random_coloring
from .canonlab import canonical_key, check_key_order
from .hypercore import HypergraphError
# The extractor keeps the sampler-level name perfbench/launch.py traces.
from .hypercore import induced_sub as extract_hypergraphlet
from .splitter import apply_split, check_gamma, choose_split_refined


class SamplerError(HypergraphError):
    pass


class NoColorfulOccurrences(SamplerError):
    """The coloring produced no colorful treelet at all (W = 0)."""


# The class keeps the name and methods perfbench/launch.py traces.
class VoseAlias:
    """Exact draws from a fixed weighted support: one uniform integer below
    the total weight, located by binary search in the integer prefix sums."""

    __slots__ = ("items", "cum", "total")

    def __init__(self, items, weights):
        pairs = [(it, w) for it, w in zip(items, weights) if w > 0]
        if not pairs:
            raise SamplerError("draw table needs positive total weight")
        self.items = [it for it, _ in pairs]
        self.cum = list(accumulate(w for _, w in pairs))
        self.total = self.cum[-1]

    def draw(self, rng):
        return self.items[bisect_right(self.cum, rng.randrange(self.total))]


class Generators:
    """Exact draw tables over one CounterSet.

    The root table is eager; the per-(T2,S2,v) neighbor tables, per-(T2,S2,e)
    vertex tables, per-(T2,S2,v) upper-edge tables, and per-(T,S,v) partition
    tables are built on first use and cached (their construction is
    deterministic and consumes no randomness).
    """

    def __init__(self, cs):
        self.cs = cs
        items = []
        weights = []
        for tid, vec in cs.root_weights():
            for v, w in enumerate(vec):
                if w:
                    items.append((tid, v))
                    weights.append(w)
        if not items:
            raise NoColorfulOccurrences(
                "no colorful treelet occurrences under this coloring")
        self.root_gen = VoseAlias(items, weights)
        self._partition = {}
        self._lower = {}
        self._upper_edge = {}
        self._edge_vertex = {}
        self._edge_total = {}

    # -- lazy table builders ------------------------------------------

    def _partition_gen(self, tid, S, v):
        key = (tid, S, v)
        gen = self._partition.get(key)
        if gen is None:
            cs = self.cs
            t = cs.catalog[tid]
            h2 = cs.catalog[t.t2].order
            items = []
            weights = []
            for S2 in masks_of_size(cs.k, h2):
                trip = cs.eta.get((t.t2, S2))
                if S2 & ~S or trip is None:
                    continue
                comb = trip[2][v]
                if not comb:
                    continue
                S1 = S & ~S2
                w1 = cs.tables[t.t1][S1][v]
                if w1:
                    items.append((S1, S2))
                    weights.append(w1 * comb)
            if not items:
                raise SamplerError(
                    "sample_neigh called with C(T,S,v) = 0 (no partition weight)")
            gen = self._partition[key] = VoseAlias(items, weights)
        return gen

    def _lower_gen(self, t2, S2, v):
        key = (t2, S2, v)
        gen = self._lower.get(key)
        if gen is None:
            cs = self.cs
            vec = cs.tables[t2][S2]
            nbrs = cs.split.lower_neighbors[v]
            gen = self._lower[key] = VoseAlias(nbrs, [vec[u] for u in nbrs])
        return gen

    def _edge_totals(self, t2, S2):
        key = (t2, S2)
        totals = self._edge_total.get(key)
        if totals is None:
            totals = self._edge_total[key] = {}
        return totals

    def _upper_edge_gen(self, t2, S2, v):
        key = (t2, S2, v)
        gen = self._upper_edge.get(key)
        if gen is None:
            cs = self.cs
            vec = cs.tables[t2][S2]
            totals = self._edge_totals(t2, S2)
            edges = cs.split.upper_types[v]
            upper_edges = cs.split.upper.edges
            weights = []
            for j in edges:
                tot = totals.get(j)
                if tot is None:
                    tot = totals[j] = sum(vec[u] for u in upper_edges[j])
                weights.append(tot)
            gen = self._upper_edge[key] = VoseAlias(edges, weights)
        return gen

    def _edge_vertex_gen(self, t2, S2, j):
        key = (t2, S2, j)
        gen = self._edge_vertex.get(key)
        if gen is None:
            cs = self.cs
            vec = cs.tables[t2][S2]
            verts = cs.split.upper.edges[j]
            gen = self._edge_vertex[key] = VoseAlias(verts, [vec[u] for u in verts])
        return gen

    # -- the samplers --------------------------------------------------

    def sample_neigh(self, tid, S, v, rng):
        """Draw (T2, S1, S2, u) with u a Gaifman neighbor of v, u drawn
        with probability proportional to C(T2,S2,u) within N(v)."""
        cs = self.cs
        split = cs.split
        t2 = cs.catalog[tid].t2
        S1, S2 = self._partition_gen(tid, S, v).draw(rng)
        trip = cs.eta.get((t2, S2))
        w_low, w_high = trip[0][v], trip[1][v]
        total = w_low + w_high
        lower_nbrs = split.lower_neighbors[v]
        v_has_upper = bool(split.upper_types[v])
        while True:
            if rng.randrange(total) < w_low:
                u = self._lower_gen(t2, S2, v).draw(rng)
                in_upper = v_has_upper and split.upper_overlap(u, v) > 0
                in_lower = True
            else:
                while True:
                    j = self._upper_edge_gen(t2, S2, v).draw(rng)
                    u = self._edge_vertex_gen(t2, S2, j).draw(rng)
                    overlap = split.upper_overlap(u, v)
                    if not rng.randrange(overlap):
                        break
                in_upper = True
                i = bisect_left(lower_nbrs, u)
                in_lower = i < len(lower_nbrs) and lower_nbrs[i] == u
            if not rng.randrange(in_lower + in_upper):
                return t2, S1, S2, u

    def _sample_rec(self, tid, S, v, rng, vertices, edges):
        if self.cs.catalog[tid].order == 1:
            vertices.append(v)
            return
        t2, S1, S2, u = self.sample_neigh(tid, S, v, rng)
        edges.append((v, u))
        self._sample_rec(self.cs.catalog[tid].t1, S1, v, rng, vertices, edges)
        self._sample_rec(t2, S2, u, rng, vertices, edges)

    def sample_treelet(self, rng):
        """One uniform colorful treelet: returns (root tid, U, tree edges)."""
        tid, v = self.root_gen.draw(rng)
        vertices, edges = [], []
        self._sample_rec(tid, (1 << self.cs.k) - 1, v, rng, vertices, edges)
        return tid, tuple(sorted(vertices)), edges


def build_generators(cs):
    return Generators(cs)


# -- local topology ----------------------------------------------------


def _gaifman_matrix(P):
    """Adjacency of Gaif(P): i ~ j iff some edge mask of P holds both bits."""
    kp = P.order
    reach = [0] * kp
    for mask in P.edges:
        for i in range(kp):
            if mask >> i & 1:
                reach[i] |= mask
    return [[int(i != j and reach[i] >> j & 1) for j in range(kp)]
            for i in range(kp)]


def spanning_tree_count(A):
    """Kirchhoff: exact integer determinant of a Laplacian minor (Bareiss)."""
    n = len(A)
    if n == 0:
        raise SamplerError("empty adjacency")
    if n == 1:
        return 1
    seen = 1
    stack = [0]
    while stack:
        v = stack.pop()
        for u in range(n):
            if A[v][u] and not seen >> u & 1:
                seen |= 1 << u
                stack.append(u)
    if seen != (1 << n) - 1:
        raise SamplerError("adjacency matrix is disconnected")
    m = n - 1
    M = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            if i == j:
                M[i][j] = sum(A[i + 1])
            else:
                M[i][j] = -A[i + 1][j + 1]
    sign = 1
    prev = 1
    for col in range(m):
        if M[col][col] == 0:
            for r in range(col + 1, m):
                if M[r][col]:
                    M[col], M[r] = M[r], M[col]
                    sign = -sign
                    break
            else:
                return 0
        pivot = M[col][col]
        for r in range(col + 1, m):
            row = M[r]
            base = M[col]
            f = row[col]
            for c in range(col + 1, m):
                row[c] = (row[c] * pivot - f * base[c]) // prev
            row[col] = 0
        prev = pivot
    return sign * M[m - 1][m - 1]


class SampleOutcome:
    __slots__ = ("U", "tree_edges", "sigma", "hypergraphlet", "key")

    def __init__(self, U, tree_edges, sigma, hypergraphlet, key):
        self.U = U
        self.tree_edges = tree_edges
        self.sigma = sigma
        self.hypergraphlet = hypergraphlet
        self.key = key


def sample_outcome(gens, rng):
    """Sample one treelet and complete it with extraction, sigma, and key:
    sigma counts spanning trees of Gaif(H|_U) = Gaif(H)[U]."""
    _tid, U, tree_edges = gens.sample_treelet(rng)
    P = extract_hypergraphlet(gens.cs.H, U)
    sigma = spanning_tree_count(_gaifman_matrix(P))
    return SampleOutcome(U, tree_edges, sigma, P, canonical_key(P))


class EstimateReport:
    """Aggregated sampling results for one build.

    rows maps key -> dict(samples, inv_sigma_sum (Fraction), estimate
    (Fraction, colorful count scale), relative_frequency (float)).  W, k,
    samples record the build total and budget; log holds (key, sigma) per
    accepted sample.
    """

    __slots__ = ("k", "W", "samples", "mode", "rows", "log")

    def __init__(self, k, W, samples, mode, rows, log):
        self.k = k
        self.W = W
        self.samples = samples
        self.mode = mode
        self.rows = rows
        self.log = log

    def total_estimate(self):
        return sum((r["estimate"] for r in self.rows.values()), Fraction(0))


def _with_frequencies(rows):
    """Fill each row's relative_frequency: its share of the summed estimate."""
    denom = sum((r["estimate"] for r in rows.values()), Fraction(0))
    for row in rows.values():
        row["relative_frequency"] = float(row["estimate"] / denom)
    return rows


def estimate_counts(gens, K, rng, mode="weighted", keep_log=True):
    """Run K sampling rounds and aggregate per-key statistics.

    weighted: every sample contributes 1/sigma to its key.  uniform: a
    sample survives with probability 1/sigma, each accepted one contributing
    1.  Either way the colorful-count estimate for key i is
    W/(k*K) * (that key's accumulated contribution); the contribution is held
    exactly (a per-key histogram of sigma values, an accepted uniform sample
    counting as sigma 1) until report time.
    """
    if K < 1:
        raise SamplerError("sample budget must be at least 1")
    if mode not in ("weighted", "uniform"):
        raise SamplerError("unknown mode %r" % (mode,))
    uniform = mode == "uniform"
    cs = gens.cs
    hists = {}
    log = [] if keep_log else None
    for _ in range(K):
        out = sample_outcome(gens, rng)
        sigma = out.sigma
        if uniform:
            if rng.randrange(sigma):
                continue
            sigma = 1
        h = hists.get(out.key)
        if h is None:
            h = hists[out.key] = {}
        h[sigma] = h.get(sigma, 0) + 1
        if keep_log:
            log.append((out.key, out.sigma))
    scale = Fraction(cs.W, cs.k * K)
    rows = {}
    for key, h in hists.items():
        inv = sum(Fraction(c, s) for s, c in h.items())
        rows[key] = {"samples": sum(h.values()), "inv_sigma_sum": inv,
                     "estimate": scale * inv}
    return EstimateReport(cs.k, cs.W, K, mode, _with_frequencies(rows), log)


def sharded_estimate(gens, K, seed, run, mode="weighted", keep_log=True):
    """One run's single seeded stream; perfbench times this name, K at args[1]."""
    rng = derived_rng(seed, "run%d|sampling" % run)
    return estimate_counts(gens, K, rng, mode=mode, keep_log=keep_log)


# -- end-to-end pipeline ------------------------------------------------


def resolve_build(H, k, coloring, alpha_policy="auto", gamma=0.01, cap=20):
    """Build counters under an alpha policy: 'auto' (refined cost model),
    'naive' (the split at alpha = H.rank, i.e. the Gaifman baseline), or an
    explicit integer threshold.  gamma is checked under every policy."""
    check_key_order(k)
    check_gamma(gamma)
    if alpha_policy == "auto":
        split, _cost = choose_split_refined(H, gamma)
    elif alpha_policy == "naive":
        split = apply_split(H, H.rank)
    else:
        split = apply_split(H, int(alpha_policy))
    return build_counters(H, split, k, coloring, cap=cap)


def approx_counts(H, k, samples, seed, runs=1, alpha_policy="auto", gamma=0.01,
                  mode="weighted", cap=20, keep_log=False):
    """Full estimate: `runs` independent colorings, estimates averaged.

    Returns (rows, reports): rows maps key -> dict(samples,
    inv_sigma_sum, estimate (Fraction, colorful scale averaged over runs),
    relative_frequency); reports is the per-run EstimateReport list (entries
    are None for runs with no colorful occurrence).
    """
    if runs < 1:
        raise SamplerError("runs must be at least 1")
    if samples < 1:
        raise SamplerError("sample budget must be at least 1")
    per_run = []
    for r in range(runs):
        coloring = random_coloring(H, k, "%s|run%d" % (seed, r))
        cs = resolve_build(H, k, coloring, alpha_policy=alpha_policy,
                           gamma=gamma, cap=cap)
        try:
            gens = build_generators(cs)
        except NoColorfulOccurrences:
            per_run.append(None)
            continue
        per_run.append(sharded_estimate(gens, samples, seed, r, mode=mode,
                                        keep_log=keep_log))
    rows = {}
    for rep in per_run:
        if rep is None:
            continue
        for key, row in rep.rows.items():
            agg = rows.get(key)
            if agg is None:
                agg = rows[key] = {
                    "samples": 0,
                    "inv_sigma_sum": Fraction(0),
                    "estimate": Fraction(0),
                }
            agg["samples"] += row["samples"]
            agg["inv_sigma_sum"] += row["inv_sigma_sum"]
            agg["estimate"] += row["estimate"]
    for agg in rows.values():
        agg["estimate"] /= runs
    return _with_frequencies(rows), per_run
