"""Sampling colorful treelets and estimating hypergraphlet counts.

A built CounterSet induces a distribution over rooted colorful treelets:
drawing (T, v) proportionally to C(T,[k],v) and then recursively drawing
neighbors proportionally to C(T2,S2,u) yields a uniform colorful treelet,
so the sampled vertex set U lands with probability proportional to the
number sigma of spanning trees of the Gaifman graph on U.  Dividing each
observation by its sigma (or rejecting with probability 1 - 1/sigma)
removes that bias.  The sampler reads only the count tables and the split,
never eta: a neighbor draw picks a partition (S1, S2), then one of the
split's two disjoint parts of v's Gaifman neighbors, then u in it.  The
lower part is v's row of split.lower_only, the graph the build's lower
pass reads; the upper part holds the vertices of the groups of one full
upper type that v's type meets.  So every neighbor is counted once, and no
draw is retried.  Every draw is exact integer arithmetic: one integer from
below(rng, n), uniform below an integer total, located in integer prefix
sums.  A draw whose outcome is certain (one item, a total held by one
item) spends no random bits.  The root draw reads one flat list of prefix
sums of C(T,[k],.) over every order-k treelet.  The partition draw needs
no prefix sums: by the DP's recurrence its weights sum to d * C(T,S,v),
which the table holds, so it draws one integer below that and weighs the
partitions, listed once per (T,S), only up to the one the integer lands
in.  The lower-neighbor draw builds its prefix sums per call, since each
serves about one draw.  Upper draws use cached values, each keyed by what
it depends on: one member prefix pass per (T2,S2) over every group's
members, end to end, one list per type of the groups it meets, and one
table per (T2,S2,group) over those groups, not per vertex; a draw bisects
inside its group's range of the member pass.  A sampled treelet is kept
only as its vertex set U.  Sigma counts spanning trees of U's Gaifman
graph, so it depends on that labeled graph alone: it is computed once per
distinct graph and then kept per shape, and canonical keys come from
canonlab's cache, which is keyed by an isomorphic copy of each shape.
Cache warm-up consumes no randomness, so results are reproducible.  The
estimates are plain rows of exact values per key: samples, inv_sigma_sum
and estimate.  A key's share of the total is a display value, which only
the CSV writer derives.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, chain, compress
from math import lcm

from .buildup import (DEFAULT_CAP, NWPlan, build_counters, derived_rng,
                      masks_of_size, random_coloring)
from .canonlab import canonical_key, check_key_order
from .hypercore import HypergraphError
# The extractor keeps the sampler-level name perfbench/launch.py traces.
from .hypercore import induced_sub as extract_hypergraphlet
from .splitter import DEFAULT_GAMMA, apply_split, check_gamma, choose_split_refined


class SamplerError(HypergraphError):
    pass


class NoColorfulOccurrences(SamplerError):
    """The coloring produced no colorful treelet at all (W = 0)."""


def below(rng, n):
    """A uniform integer in [0, n), n >= 1: rng.getrandbits((n - 1).bit_length())
    until the result is below n, so fewer than two draws on average.  For
    n = 1 it returns 0 and draws nothing; n < 1 has no such integer and
    raises SamplerError, also without a draw."""
    if n <= 1:
        if n == 1:
            return 0
        raise SamplerError("no integer lies below %d" % n)
    bits = (n - 1).bit_length()
    r = rng.getrandbits(bits)
    while r >= n:
        r = rng.getrandbits(bits)
    return r


# The class keeps the name and methods perfbench/launch.py traces; no draw
# of the package uses it.
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
    prefix sums over every order-k treelet T and vertex v.  The rest is
    built on first use, from the counts alone, so it consumes no
    randomness, and each value is cached by what it depends on, not by
    the samples: _partitions lists, per (T,S), the partitions (S1, S2) a
    neighbor draw walks, with the vectors each reads.  Lower neighbors are
    read from split.lower_only.  Upper neighbors are drawn through
    split.upper_groups, the vertices of one full upper type each, listed
    end to end in _members, group g at _offsets[g]:_offsets[g + 1]: per
    group, _met holds the groups its type meets, derived once per type;
    per (T2,S2), _member_cums holds one prefix pass of C(T2,S2,.) over
    _members, and _upper_slots one slot per group for the table over the
    groups that group's type meets, which a vertex reaches by its group
    index, _group_of[v].  sigmas maps each canonical key sampled so far to
    its sigma, read from _graph_sigmas, which holds one sigma per labeled
    Gaifman graph, keyed by its reach masks (_reach): sigma counts
    spanning trees of the Gaifman graph alone, and shapes with the same
    graph share it.
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
        self._t1 = [t.t1 for t in cs.catalog.treelets]
        self._lower_adj = cs.split.lower_only.adj
        groups = cs.split.upper_groups
        self._types = list(groups)
        self._members = list(chain.from_iterable(groups.values()))
        self._offsets = [0, *accumulate(map(len, groups.values()))]
        # _group_of[v]: the index of v's group, None for an empty type;
        # _edge_groups[j]: the groups whose type holds upper edge j.
        self._group_of = [None] * cs.n
        self._edge_groups = [[] for _ in cs.split.upper.edges]
        for g, (ty, members) in enumerate(groups.items()):
            for v in members:
                self._group_of[v] = g
            for j in ty:
                self._edge_groups[j].append(g)
        self._met = [None] * len(groups)
        self._partitions = {}
        self._member_cums = {}
        self._upper_slots = {}
        self.sigmas = {}
        self._graph_sigmas = {}

    # -- lazy table builders ------------------------------------------

    def _partitions_of(self, tid, S):
        """(t2, d, C(T,S,.), partitions) for T = catalog[tid]: per S2 of
        T2's order inside S, ascending, the partition (S1, S2, C(T1,S1,.),
        C(T2,S2,.), the upper slots of (T2,S2)), S1 = S - S2."""
        cs = self.cs
        t = cs.catalog[tid]
        t2 = t.t2
        partitions = []
        for S2 in masks_of_size(cs.k, cs.catalog[t2].order):
            if not S2 & ~S:
                slots = self._upper_slots.setdefault(
                    (t2, S2), [None] * len(self._types))
                partitions.append((S & ~S2, S2, cs.tables[t.t1][S & ~S2],
                                   cs.tables[t2][S2], slots))
        entry = self._partitions[tid, S] = (t2, t.d, cs.tables[tid][S],
                                            partitions)
        return entry

    def _groups_met(self, ty):
        """The groups whose type shares an upper edge with type ty,
        ascending."""
        return sorted(set(chain.from_iterable(
            map(self._edge_groups.__getitem__, ty))))

    def _upper_table(self, t2, S2, g):
        """(total, groups, cum, members, single) for the vertices of the
        groups that group g's type meets, weighted by C(T2,S2,.): those
        groups ascending, cum the prefix sums of their totals, members the
        (T2,S2) pass (mcum, bounds) over _members, and single the one vertex
        that carries a positive total whole, else None.  mcum holds the
        prefix sums of C(T2,S2,.) over _members and bounds[h] the sum
        before group h, so group h weighs bounds[h + 1] - bounds[h].  The
        table is kept in the (T2,S2) slot of group g, so every vertex of a
        type reads one table.  The group list depends on the type alone and
        the member pass on (T2,S2) alone, so each is derived once per thing
        it depends on and shared by every table that reads it."""
        slots = self._upper_slots.setdefault(
            (t2, S2), [None] * len(self._types))
        table = slots[g]
        if table is None:
            members = self._member_cums.get((t2, S2))
            if members is None:
                vec = self.cs.tables[t2][S2]
                mcum = list(accumulate(map(vec.__getitem__, self._members)))
                members = self._member_cums[t2, S2] = (
                    mcum, [0] + [mcum[e - 1] for e in self._offsets[1:]])
            mcum, bounds = members
            groups = self._met[g]
            if groups is None:
                groups = self._met[g] = self._groups_met(self._types[g])
            cum = list(accumulate(bounds[h + 1] - bounds[h] for h in groups))
            total = cum[-1]
            single = None
            if total:
                # The first weighted member of the first weighted group.
                h = groups[bisect_right(cum, 0)]
                j = bisect_right(mcum, bounds[h], self._offsets[h])
                if mcum[j] - bounds[h] == total:
                    single = self._members[j]
            table = slots[g] = (total, groups, cum, members, single)
        return table

    # -- the samplers --------------------------------------------------

    def sample_neigh(self, tid, S, v, rng):
        """Draw (T2, S1, S2, u) with u a Gaifman neighbor of v, with
        probability proportional to C(T1,S1,v) * C(T2,S2,u); C(T,S,v) > 0.

        v's Gaifman neighbors fall into the split's two disjoint parts:
        split.lower_only.adj[v], and the members of the groups its upper
        type meets (v among them, with weight 0, since its color lies in
        S1).  So each neighbor u is counted once, with weight C(T2,S2,u),
        and by the DP's recurrence the partitions (S1, S2) weigh
        C(T1,S1,v) times the two parts' total, d * C(T,S,v) in all.  One
        integer below that total, read from the table, picks the
        partition: the walk weighs partitions in ascending S2 only until
        their running sum passes it, and a first positive partition that
        carries the whole total is taken without a draw.  One draw picks a
        part, and is made only when both have weight; one integer below
        that part's total locates u, in the lower part's prefix sums or, in
        the upper part, through _draw_upper.  A vertex with no upper edge
        has only the lower part.
        A part whose total one vertex carries draws nothing.  A walk that
        passes its last partition raises SamplerError: only a table whose
        counts disagree with their partitions does that.
        """
        entry = self._partitions.get((tid, S))
        if entry is None:
            entry = self._partitions_of(tid, S)
        t2, d, vec, partitions = entry
        total = d * vec[v]
        low = self._lower_adj[v]
        g = self._group_of[v]
        r = None
        run = 0
        for S1, S2, vec1, vec2, slots in partitions:
            w1 = vec1[v]
            if not w1:
                continue
            w_low = sum(map(vec2.__getitem__, low))
            if g is None:
                w_all = w_low
            else:
                up = slots[g] or self._upper_table(t2, S2, g)
                w_all = w_low + up[0]
            if not w_all:
                continue
            run += w1 * w_all
            if r is None:
                if run == total:
                    break
                r = below(rng, total)
            if r < run:
                break
        else:
            raise SamplerError("counter table inconsistent: the neighbor "
                               "partitions of C(T,S,v) sum below d*C(T,S,v)")
        if w_low == w_all or (w_low and below(rng, w_all) < w_low):
            # The lower neighbors' prefix sums: the first positive one is
            # the only one with weight when it is already w_low.
            low_cum = list(accumulate(map(vec2.__getitem__, low)))
            i = bisect_right(low_cum, 0)
            if low_cum[i] < w_low:
                i = bisect_right(low_cum, below(rng, w_low), i)
            return t2, S1, S2, low[i]
        return t2, S1, S2, self._draw_upper(up, rng)

    def _draw_upper(self, table, rng):
        """A vertex of an _upper_table, with probability C(T2,S2,u) over the
        table's total: one integer below that total picks a group in the
        prefix sums of the group totals and then u by bisection inside that
        group's range of the member pass.  A table whose total one vertex
        carries draws nothing."""
        total, groups, cum, (mcum, bounds), u = table
        if u is None:
            r = below(rng, total)
            i = bisect_right(cum, r)
            g = groups[i]
            r += bounds[g] - (cum[i - 1] if i else 0)
            u = self._members[bisect_right(mcum, r, self._offsets[g],
                                           self._offsets[g + 1])]
        return u

    def draw_root(self, rng):
        """(T, v) with probability C(T,[k],v) / W: one integer from
        below(rng, W), located in one flat list of prefix sums over the
        cs.root_weights() vectors in order, where the i-th treelet's entry
        for v sits at position i * n + v."""
        i, v = divmod(bisect_right(self._root_cum, below(rng, self.cs.W)), self.cs.n)
        return self._root_tids[i], v

    def sample_treelet(self, rng):
        """The sorted vertex set U of one uniform colorful treelet: the root
        draw, then one neighbor draw per edge of the treelet, depth first
        with the T1 branch before the T2 branch, from an explicit stack.
        Treelet 0 is the only one of order 1: its vertex joins U."""
        t1 = self._t1
        tid, v = self.draw_root(rng)
        vertices = []
        stack = [(tid, (1 << self.cs.k) - 1, v)]
        while stack:
            tid, S, v = stack.pop()
            if not tid:
                vertices.append(v)
                continue
            t2, S1, S2, u = self.sample_neigh(tid, S, v, rng)
            stack.append((t2, S2, u))
            stack.append((t1[tid], S1, v))
        return tuple(sorted(vertices))


def build_generators(cs):
    return Generators(cs)


# -- local topology ----------------------------------------------------


def _reach(P):
    """Gaif(P) as one mask per vertex: bit j of entry i is set iff some edge
    mask of P holds both i and j (so bit i, since P has no isolated
    vertex).  The tuple is the labeled graph, and a dict key."""
    kp = P.order
    reach = [0] * kp
    for mask in P.edges:
        for i in range(kp):
            if mask >> i & 1:
                reach[i] |= mask
    return tuple(reach)


def _gaifman_matrix(reach):
    """Adjacency of the graph whose reach masks are reach, without loops."""
    kp = len(reach)
    return [[int(i != j and reach[i] >> j & 1) for j in range(kp)]
            for i in range(kp)]


def spanning_tree_count(A):
    """Kirchhoff: exact integer determinant of a Laplacian minor (Bareiss)."""
    n = len(A)
    if n == 0:
        raise SamplerError("empty adjacency")
    if n == 1:
        return 1
    degree = [sum(row) for row in A]
    m = n - 1
    M = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            if i == j:
                M[i][j] = degree[i + 1]
            else:
                M[i][j] = -A[i + 1][j + 1]
    prev = 1
    for col in range(m):
        pivot = M[col][col]
        if not pivot:
            # PSD minor: a zero pivot has zeros below it, so A is disconnected.
            raise SamplerError("adjacency matrix is disconnected")
        for r in range(col + 1, m):
            row = M[r]
            base = M[col]
            f = row[col]
            for c in range(col + 1, m):
                row[c] = (row[c] * pivot - f * base[c]) // prev
            row[col] = 0
        prev = pivot
    return M[m - 1][m - 1]


class SampleOutcome:
    __slots__ = ("U", "sigma", "key")

    def __init__(self, U, sigma, key):
        self.U = U
        self.sigma = sigma
        self.key = key


def sample_outcome(gens, rng):
    """Sample one treelet and complete it with extraction, key and sigma:
    sigma counts spanning trees of Gaif(H|_U) = Gaif(H)[U].  It depends only
    on that graph, so gens.sigmas keeps it per key, and a key not seen yet
    reads it from gens._graph_sigmas, keyed by the labeled graph's reach
    masks: shapes that share a Gaifman graph share one elimination."""
    U = gens.sample_treelet(rng)
    P = extract_hypergraphlet(gens.cs.H, U)
    key = canonical_key(P)
    sigma = gens.sigmas.get(key)
    if sigma is None:
        reach = _reach(P)
        sigma = gens._graph_sigmas.get(reach)
        if sigma is None:
            sigma = gens._graph_sigmas[reach] = spanning_tree_count(
                _gaifman_matrix(reach))
        gens.sigmas[key] = sigma
    return SampleOutcome(U, sigma, key)


def estimate_weights(rows):
    """key -> its estimate times L, the lcm of the estimates' denominators:
    integers in the estimates' ratios and order, from which the CSV takes
    its row order and shares."""
    L = lcm(*[row["estimate"].denominator for row in rows.values()])
    return {key: row["estimate"].numerator * (L // row["estimate"].denominator)
            for key, row in rows.items()}


def estimate_counts(gens, K, rng, uniform=False):
    """Run K sampling rounds; the rows, key -> dict(samples, inv_sigma_sum,
    estimate), hold exact values only (Fractions but for samples).

    By default every sample contributes 1/sigma to its key.  uniform: a
    sample survives with probability 1/sigma, each accepted one contributing
    1.  Either way the colorful-count estimate for key i is
    W/(k*K) * (that key's accumulated contribution).  Sigma is a shape
    invariant, so one count per key holds that contribution exactly: c/sigma
    by default and c under uniform.
    """
    if K < 1:
        raise SamplerError("sample budget must be at least 1")
    cs = gens.cs
    counts = {}
    for _ in range(K):
        out = sample_outcome(gens, rng)
        if uniform and below(rng, out.sigma):
            continue
        counts[out.key] = counts.get(out.key, 0) + 1
    kK = cs.k * K
    rows = {}
    for key, c in counts.items():
        sigma = 1 if uniform else gens.sigmas[key]
        rows[key] = {"samples": c, "inv_sigma_sum": Fraction(c, sigma),
                     "estimate": Fraction(cs.W * c, kK * sigma)}
    return rows


def sharded_estimate(gens, K, seed, run, uniform=False):
    """One run's rows from its single seeded stream; perfbench times this
    name, K at args[1]."""
    rng = derived_rng(seed, "run%d|sampling" % run)
    return estimate_counts(gens, K, rng, uniform)


# -- end-to-end pipeline ------------------------------------------------


def resolve_split(H, k, alpha_policy="auto", gamma=DEFAULT_GAMMA):
    """The split an alpha policy names: 'auto' (refined cost model), 'naive'
    (alpha = H.rank, i.e. the Gaifman baseline), or an explicit integer
    threshold.  k and gamma are checked first, under every policy."""
    check_key_order(k)
    check_gamma(gamma)
    if alpha_policy == "auto":
        return choose_split_refined(H, gamma)[0]
    return apply_split(H, H.rank if alpha_policy == "naive" else int(alpha_policy))


def approx_counts(H, k, samples, seed, runs=1, alpha_policy="auto",
                  gamma=DEFAULT_GAMMA, uniform=False, cap=DEFAULT_CAP):
    """Full estimate: `runs` independent colorings, estimates averaged.

    Returns (rows, per_run): rows maps key -> dict(samples, inv_sigma_sum,
    estimate), exact values: samples and inv_sigma_sum summed over the
    runs, estimate their average; per_run holds each run's rows, or None
    for a run with no colorful occurrence.
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
        per_run.append(sharded_estimate(gens, samples, seed, r, uniform))
    rows = {}
    for run_rows in per_run:
        if run_rows is None:
            continue
        for key, row in run_rows.items():
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
    return rows, per_run
