"""Sampling colorful treelets and estimating hypergraphlet counts.

A built CounterSet induces a distribution over rooted colorful treelets:
drawing (T, v) proportionally to C(T,[k],v) and then recursively drawing
neighbors proportionally to C(T2,S2,u) yields a uniform colorful treelet,
so the sampled vertex set U lands with probability proportional to the
number sigma of spanning trees of the Gaifman graph on U.  Dividing each
observation by its sigma (or rejecting with probability 1 - 1/sigma)
removes that bias.  The sampler reads only the count tables and the split,
never eta: a neighbor draw proposes a partition (S1, S2) and then u through
one slot joining v and u, a lower Gaifman edge or an upper edge they share,
and keeps the pair with probability one over u's number of slots.  Every
draw and rejection test is exact integer arithmetic: one integer from
below(rng, n), uniform below an integer total, located in integer prefix
sums.  A draw whose outcome is certain (one item, one slot, a total held by
one item) spends no random bits.  The root draw reads one flat list of
prefix sums of C(T,[k],.) over every order-k treelet; the partition and
lower-neighbor draws build their prefix sums per call, since each serves
about one draw; only upper-edge draws use cached tables, one per upper edge
and one per upper type, not per vertex.  A sampled treelet is kept only as
its vertex set U.  Sigma is computed once per shape, and canonical keys come
from canonlab's cache, which is keyed by an isomorphic copy of each shape.
Cache warm-up consumes no randomness, so results are reproducible.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate, chain, compress

from .buildup import NWPlan, build_counters, derived_rng, masks_of_size, random_coloring
from .canonlab import canonical_key, check_key_order
from .hypercore import HypergraphError
# The extractor keeps the sampler-level name perfbench/launch.py traces.
from .hypercore import induced_sub as extract_hypergraphlet
from .splitter import apply_split, check_gamma, choose_split_refined


class SamplerError(HypergraphError):
    pass


class NoColorfulOccurrences(SamplerError):
    """The coloring produced no colorful treelet at all (W = 0)."""


def below(rng, n):
    """A uniform integer in [0, n), n >= 1: rng.getrandbits((n - 1).bit_length())
    until the result is below n, so fewer than two draws on average.  For
    n = 1 it returns 0 and draws nothing."""
    if n == 1:
        return 0
    bits = (n - 1).bit_length()
    r = rng.getrandbits(bits)
    while r >= n:
        r = rng.getrandbits(bits)
    return r


# The class keeps the name and methods perfbench/launch.py traces.
class VoseAlias:
    """Exact draws from a fixed weighted support: one integer from
    below(rng, total), located by binary search in the integer prefix sums.
    A support of one item is drawn without random bits."""

    __slots__ = ("items", "cum", "total")

    def __init__(self, items, weights):
        """weights: a list of nonnegative integers, one per item."""
        self.items = list(compress(items, weights))
        if not self.items:
            raise SamplerError("draw table needs positive total weight")
        self.cum = list(accumulate(compress(weights, weights)))
        self.total = self.cum[-1]

    def draw(self, rng):
        if len(self.cum) == 1:
            return self.items[0]
        return self.items[bisect_right(self.cum, below(rng, self.total))]


class Generators:
    """Exact draws over one CounterSet.

    The root draw's prefix sums are eager: one flat list of C(T,[k],v)
    prefix sums over every order-k treelet T and vertex v.  Partition and
    lower-neighbor prefix sums are built by each sample_neigh call, which
    draws from them about once.  Two kinds of upper-edge table are built on
    first use and cached (their construction is deterministic and consumes
    no randomness): per-(T2,S2) tables over each upper edge's vertices,
    weighted by C(T2,S2,.), and per-(T2,S2,upper type) tables over a type's
    upper edges, each weighted by its edge table's total.  sigmas maps each
    canonical key sampled so far to its sigma.
    """

    def __init__(self, cs):
        if not cs.W:
            raise NoColorfulOccurrences(
                "no colorful treelet occurrences under this coloring")
        self.cs = cs
        roots = cs.root_weights()
        self._root_tids = [tid for tid, _vec in roots]
        self._root_cum = list(accumulate(chain.from_iterable(
            vec for _tid, vec in roots)))
        self._edges = {}
        self._upper = {}
        self.sigmas = {}

    # -- lazy table builders ------------------------------------------

    def _edge_gen(self, t2, S2, j):
        """The vertices of upper edge j weighted by C(T2,S2,.); None if
        every weight is 0."""
        key = (t2, S2, j)
        if key not in self._edges:
            verts = self.cs.split.upper.edges[j]
            weights = list(map(self.cs.tables[t2][S2].__getitem__, verts))
            self._edges[key] = VoseAlias(verts, weights) if any(weights) else None
        return self._edges[key]

    def _upper_gen(self, t2, S2, ty):
        """Upper type ty (a vertex's upper edges), each edge weighted by its
        edge table's total under C(T2,S2,.), shared by every vertex of that
        type; None if 0."""
        key = (t2, S2, ty)
        if key not in self._upper:
            gens = [self._edge_gen(t2, S2, j) for j in ty]
            weights = [gen.total if gen else 0 for gen in gens]
            self._upper[key] = VoseAlias(ty, weights) if any(weights) else None
        return self._upper[key]

    # -- the samplers --------------------------------------------------

    def sample_neigh(self, tid, S, v, rng):
        """Draw (T2, S1, S2, u) with u a Gaifman neighbor of v, with
        probability proportional to C(T1,S1,v) * C(T2,S2,u).

        One try draws a partition (S1, S2) with weight C(T1,S1,v) times the
        slot total w_all of v, then one slot joining v to some u, with
        weight C(T2,S2,u): the pair's lower Gaifman edge, if any, or an
        upper edge holding both.  One test keeps the try with probability
        one over u's number of slots; a rejected try redraws the partition
        too, so each (S1, S2, u) ends up with weight C(T1,S1,v) * C(T2,S2,u)
        exactly (rejection sampling).  The partition list is built here and
        serves every try.  The slot test draws only when both kinds of slot
        have weight, and a lower draw only when two lower neighbors do.
        """
        cs = self.cs
        split = cs.split
        t = cs.catalog[tid]
        t2 = t.t2
        lower_nbrs = split.lower_neighbors[v]
        ty = split.upper_types[v]
        items = []
        cum = []
        total = 0
        for S2 in masks_of_size(cs.k, cs.catalog[t2].order):
            if S2 & ~S:
                continue
            S1 = S & ~S2
            w1 = cs.tables[t.t1][S1][v]
            if not w1:
                continue
            w_low = sum(map(cs.tables[t2][S2].__getitem__, lower_nbrs))
            up = self._upper_gen(t2, S2, ty) if ty else None
            w_all = w_low + (up.total if up else 0)
            if w_all:
                items.append((S1, S2, w_low, w_all, up))
                total += w1 * w_all
                cum.append(total)
        if not items:
            raise SamplerError(
                "sample_neigh called with C(T,S,v) = 0 (no partition weight)")
        while True:
            i = bisect_right(cum, below(rng, total)) if len(cum) > 1 else 0
            S1, S2, w_low, w_all, up = items[i]
            if w_low == w_all or (w_low and below(rng, w_all) < w_low):
                # The lower neighbors' prefix sums: the first positive one is
                # the only one with weight when it is already w_low.
                low = list(accumulate(map(cs.tables[t2][S2].__getitem__, lower_nbrs)))
                i = bisect_right(low, 0)
                if low[i] < w_low:
                    i = bisect_right(low, below(rng, w_low), i)
                u = lower_nbrs[i]
                slots = 1 + split.upper_overlap(u, v) if ty else 1
            else:
                u = self._edge_gen(t2, S2, up.draw(rng)).draw(rng)
                i = bisect_left(lower_nbrs, u)
                in_lower = i < len(lower_nbrs) and lower_nbrs[i] == u
                slots = in_lower + split.upper_overlap(u, v)
            if slots == 1 or not below(rng, slots):
                return t2, S1, S2, u

    def _sample_rec(self, tid, S, v, rng, vertices):
        if self.cs.catalog[tid].order == 1:
            vertices.append(v)
            return
        t2, S1, S2, u = self.sample_neigh(tid, S, v, rng)
        self._sample_rec(self.cs.catalog[tid].t1, S1, v, rng, vertices)
        self._sample_rec(t2, S2, u, rng, vertices)

    def draw_root(self, rng):
        """(T, v) with probability C(T,[k],v) / W: one integer from
        below(rng, W), located in one flat list of prefix sums over the
        cs.root_weights() vectors in order, where the i-th treelet's entry
        for v sits at position i * n + v."""
        i, v = divmod(bisect_right(self._root_cum, below(rng, self.cs.W)), self.cs.n)
        return self._root_tids[i], v

    def sample_treelet(self, rng):
        """The sorted vertex set U of one uniform colorful treelet."""
        tid, v = self.draw_root(rng)
        vertices = []
        self._sample_rec(tid, (1 << self.cs.k) - 1, v, rng, vertices)
        return tuple(sorted(vertices))


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
                # Matrix-tree theorem: the minor is singular iff A is disconnected.
                raise SamplerError("adjacency matrix is disconnected")
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
    __slots__ = ("U", "sigma", "key")

    def __init__(self, U, sigma, key):
        self.U = U
        self.sigma = sigma
        self.key = key


def sample_outcome(gens, rng):
    """Sample one treelet and complete it with extraction, key and sigma:
    sigma counts spanning trees of Gaif(H|_U) = Gaif(H)[U].  It depends only
    on the shape, so it is computed once per key and kept in gens.sigmas."""
    U = gens.sample_treelet(rng)
    P = extract_hypergraphlet(gens.cs.H, U)
    key = canonical_key(P)
    sigma = gens.sigmas.get(key)
    if sigma is None:
        sigma = gens.sigmas[key] = spanning_tree_count(_gaifman_matrix(P))
    return SampleOutcome(U, sigma, key)


class EstimateReport:
    """Aggregated sampling results for one build.

    rows maps key -> dict(samples, inv_sigma_sum (Fraction), estimate
    (Fraction, colorful count scale), relative_frequency (float)).
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = rows


def _with_frequencies(rows):
    """Fill each row's relative_frequency: its share of the summed estimate."""
    denom = sum((r["estimate"] for r in rows.values()), Fraction(0))
    for row in rows.values():
        row["relative_frequency"] = float(row["estimate"] / denom)
    return rows


def estimate_counts(gens, K, rng, mode="weighted"):
    """Run K sampling rounds and aggregate per-key statistics.

    weighted: every sample contributes 1/sigma to its key.  uniform: a
    sample survives with probability 1/sigma, each accepted one contributing
    1.  Either way the colorful-count estimate for key i is
    W/(k*K) * (that key's accumulated contribution).  Sigma is a shape
    invariant, so one count per key holds that contribution exactly: c/sigma
    in weighted mode and c in uniform mode.
    """
    if K < 1:
        raise SamplerError("sample budget must be at least 1")
    if mode not in ("weighted", "uniform"):
        raise SamplerError("unknown mode %r" % (mode,))
    uniform = mode == "uniform"
    cs = gens.cs
    counts = {}
    for _ in range(K):
        out = sample_outcome(gens, rng)
        if uniform and below(rng, out.sigma):
            continue
        counts[out.key] = counts.get(out.key, 0) + 1
    scale = Fraction(cs.W, cs.k * K)
    rows = {}
    for key, c in counts.items():
        inv = Fraction(c, 1 if uniform else gens.sigmas[key])
        rows[key] = {"samples": c, "inv_sigma_sum": inv, "estimate": scale * inv}
    return EstimateReport(_with_frequencies(rows))


def sharded_estimate(gens, K, seed, run, mode="weighted"):
    """One run's single seeded stream; perfbench times this name, K at args[1]."""
    rng = derived_rng(seed, "run%d|sampling" % run)
    return estimate_counts(gens, K, rng, mode=mode)


# -- end-to-end pipeline ------------------------------------------------


def resolve_split(H, k, alpha_policy="auto", gamma=0.01):
    """The split an alpha policy names: 'auto' (refined cost model), 'naive'
    (alpha = H.rank, i.e. the Gaifman baseline), or an explicit integer
    threshold.  k and gamma are checked first, under every policy."""
    check_key_order(k)
    check_gamma(gamma)
    if alpha_policy == "auto":
        return choose_split_refined(H, gamma)[0]
    return apply_split(H, H.rank if alpha_policy == "naive" else int(alpha_policy))


def approx_counts(H, k, samples, seed, runs=1, alpha_policy="auto", gamma=0.01,
                  mode="weighted", cap=20):
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
    split = resolve_split(H, k, alpha_policy, gamma)  # builds only read it
    # One plan serves every build, and building it checks the cap first.
    plan = NWPlan(split, cap) if k > 1 else None
    per_run = []
    for r in range(runs):
        coloring = random_coloring(H, k, "%s|run%d" % (seed, r))
        cs = build_counters(H, split, k, coloring, cap=cap, plan=plan)
        plan = plan if r < runs - 1 else None  # freed before the last run samples
        try:
            gens = build_generators(cs)
        except NoColorfulOccurrences:
            per_run.append(None)
            continue
        per_run.append(sharded_estimate(gens, samples, seed, r, mode=mode))
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
