import math
import random
from fractions import Fraction
from itertools import accumulate

import pytest

import hypergraphlets.sampler as sampler
from hypergraphlets import buildup, cli
from hypergraphlets.buildup import (
    Coloring,
    build_counters,
    build_counters_naive,
    masks_of_size,
    random_coloring,
)
from hypergraphlets.canonlab import canonical_key, connected_ksets
from hypergraphlets.hypercore import Hypergraph, gaifman, induced_sub, parse_hypergraph
from hypergraphlets.sampler import (
    NoColorfulOccurrences,
    SamplerError,
    VoseAlias,
    approx_counts,
    build_generators,
    estimate_counts,
    extract_hypergraphlet,
    resolve_split,
    sample_outcome,
    sharded_estimate,
    spanning_tree_count,
)
from hypergraphlets.splitter import DEFAULT_GAMMA, apply_split, choose_split_refined
from hypergraphlets.synth import nice_hypergraph

from oracles import (
    candidate_alphas,
    connected_on,
    count_spanning_trees_brute,
    gaifman_pairs,
    random_hypergraph,
    truncated_edge_masks,
)

TOY_TEXT = "# vertices 8\n0 1\n1 4\n3 5 6\n0 1 2 4 6\n"

# Three colorful connected triples under colors (0,1,2,1,2):
# {0,1,2} with 3 spanning trees, {0,2,3} and {0,3,4} with 1 each; W = 15.
CRAFTED = Hypergraph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4)])
CRAFTED_COLORING = Coloring(3, (0, 1, 2, 1, 2))
CRAFTED_LAW = {(0, 1, 2): Fraction(3, 5), (0, 2, 3): Fraction(1, 5), (0, 3, 4): Fraction(1, 5)}


def four_sigma_ok(hits, n, p):
    # Binomial tail bound: empirical rate within four standard errors.
    se = math.sqrt(p * (1 - p) / n)
    return abs(hits / n - p) <= 4 * se + 1e-12


# --- alias sampling -------------------------------------------------------

def test_vose_alias_law():
    alias = VoseAlias(["a", "b", "c"], [1, 2, 7])
    rng = random.Random(79)
    n = 50000
    tally = {"a": 0, "b": 0, "c": 0}
    for _ in range(n):
        tally[alias.draw(rng)] += 1
    assert four_sigma_ok(tally["a"], n, 0.1)
    assert four_sigma_ok(tally["b"], n, 0.2)
    assert four_sigma_ok(tally["c"], n, 0.7)


def test_vose_alias_zero_weights_excluded():
    alias = VoseAlias(["a", "b", "c"], [0, 5, 0])
    rng = CountingRng(83)
    assert {alias.draw(rng) for _ in range(50)} == {"b"}
    assert rng.widths == []  # one item left: a certain draw spends no bits
    with pytest.raises(SamplerError):
        VoseAlias(["a"], [0])
    with pytest.raises(SamplerError):
        VoseAlias([], [])


def test_vose_alias_big_integer_weights():
    alias = VoseAlias([0, 1], [10 ** 40, 3 * 10 ** 40])
    rng = random.Random(89)
    n = 20000
    ones = sum(alias.draw(rng) for _ in range(n))
    assert four_sigma_ok(ones, n, 0.75)


class ScriptedBelow:
    """Stands in for sampler.below: returns the scripted values in order and
    records each bound it was called with."""

    def __init__(self, values):
        self.values = iter(values)
        self.bounds = []

    def __call__(self, _rng, n):
        value = next(self.values)
        assert 0 <= value < n
        self.bounds.append(n)
        return value


def test_vose_alias_draw_is_exact(monkeypatch):
    # Every integer below the total, once: item i comes back exactly w_i times.
    alias = VoseAlias("abcdef", [3, 0, 1, 5, 0, 2])
    script = ScriptedBelow(range(11))
    monkeypatch.setattr(sampler, "below", script)
    tally = {}
    for _ in range(11):
        item = alias.draw(None)
        tally[item] = tally.get(item, 0) + 1
    assert tally == {"a": 3, "c": 1, "d": 5, "f": 2}
    assert script.bounds == [11] * 11
    # Weights past 64 bits: the last value below each prefix-sum boundary
    # and the boundary itself land on the two neighboring items.
    weights = [2 ** 64 - 1, 2 ** 64, 2 ** 100 + 7]
    alias = VoseAlias(["x", "y", "z"], weights)
    first, second, total = list(accumulate(weights))
    values = [0, first - 1, first, second - 1, second, total - 1]
    script = ScriptedBelow(values)
    monkeypatch.setattr(sampler, "below", script)
    assert [alias.draw(None) for _ in values] == ["x", "x", "y", "y", "z", "z"]
    assert script.bounds == [total] * len(values)


class CountingRng(random.Random):
    """A seeded random.Random that records the width of every getrandbits
    call, and refuses randrange, so every draw must go through below."""

    def __init__(self, seed=0):
        super().__init__(seed)
        self.widths = []

    def getrandbits(self, k):
        self.widths.append(k)
        return super().getrandbits(k)

    def randrange(self, *args):
        raise AssertionError("draws go through sampler.below")


class BitsScript:
    """getrandbits returns the scripted values in order."""

    def __init__(self, values):
        self.values = iter(values)
        self.widths = []

    def getrandbits(self, k):
        value = next(self.values)
        assert 0 <= value < 1 << k
        self.widths.append(k)
        return value


def test_below_draws_nothing_for_one():
    rng = CountingRng()
    assert [sampler.below(rng, 1) for _ in range(5)] == [0] * 5
    assert rng.widths == []


def test_below_refuses_an_empty_range():
    # No integer lies below 0: getrandbits(1) would never return one.
    rng = CountingRng()
    for n in (0, -1, -(2 ** 70)):
        with pytest.raises(SamplerError):
            sampler.below(rng, n)
    assert rng.widths == []


def test_below_power_of_two_takes_one_draw():
    for e in (1, 2, 3, 10, 64, 100):
        rng = CountingRng(e)
        for _ in range(20):
            assert 0 <= sampler.below(rng, 2 ** e) < 2 ** e
        assert rng.widths == [e] * 20


def test_below_redraws_out_of_range_values():
    # n = 5 takes 3 bits: 7, 5 and 6 are refused, 3 is kept.
    rng = BitsScript([7, 5, 6, 3, 0])
    assert sampler.below(rng, 5) == 3
    assert rng.widths == [3] * 4
    assert sampler.below(rng, 5) == 0
    # Past 64 bits: the largest value below n is kept, n itself is not.
    n = 2 ** 100 + 7
    rng = BitsScript([n, n - 1])
    assert sampler.below(rng, n) == n - 1
    assert rng.widths == [101, 101]


def test_below_reaches_every_value():
    for n in range(2, 40):
        # Each in-range word maps to itself; each word past n is redrawn.
        kept = [sampler.below(BitsScript([r]), n) for r in range(n)]
        assert kept == list(range(n))
        rng = random.Random(n)
        seen = {sampler.below(rng, n) for _ in range(40 * n)}
        assert seen == set(range(n))


def test_one_edge_treelet_spends_one_draw():
    # One 2-vertex edge at k = 2, lower or upper: W = 2, and the root draw
    # below(2) is the only uncertain choice (one partition, one slot, one
    # neighbor, one edge).
    H = Hypergraph(2, [(0, 1)])
    coloring = Coloring(2, (0, 1))
    for alpha in candidate_alphas(H):
        gens = build_generators(build_counters(H, apply_split(H, alpha), 2, coloring))
        assert gens.cs.W == 2
        for seed in range(8):
            rng = CountingRng(seed)
            assert gens.sample_treelet(rng) == (0, 1)
            assert rng.widths == [1]


# --- spanning-tree counts -------------------------------------------------

def test_spanning_tree_count_frozen():
    tri = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    assert spanning_tree_count(tri) == 3
    k4 = [[int(i != j) for j in range(4)] for i in range(4)]
    assert spanning_tree_count(k4) == 16
    k5 = [[int(i != j) for j in range(5)] for i in range(5)]
    assert spanning_tree_count(k5) == 125
    c4 = [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]
    assert spanning_tree_count(c4) == 4
    assert spanning_tree_count([[0]]) == 1
    with pytest.raises(SamplerError, match="disconnected"):
        spanning_tree_count([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    # Every disconnected graph on 2..5 vertices: the Laplacian minor is
    # singular, so elimination finds no pivot in some column.
    for n in range(2, 6):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for bits in range(1 << len(pairs)):
            chosen = [pairs[b] for b in range(len(pairs)) if bits >> b & 1]
            if connected_on(Hypergraph(n, chosen), range(n)):
                continue
            A = [[0] * n for _ in range(n)]
            for i, j in chosen:
                A[i][j] = A[j][i] = 1
            with pytest.raises(SamplerError, match="disconnected"):
                spanning_tree_count(A)


def test_spanning_tree_count_random_agreement():
    rng = random.Random(97)
    done = 0
    while done < 120:
        n = rng.randint(2, 6)
        pairs = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.6
        ]
        A = [[0] * n for _ in range(n)]
        for i, j in pairs:
            A[i][j] = A[j][i] = 1
        expect = count_spanning_trees_brute(n, pairs)
        if expect == 0:
            continue
        assert spanning_tree_count(A) == expect
        done += 1


def test_spanning_tree_count_is_integer_exact():
    # Complete graphs: n^(n-2) spanning trees (Cayley), exact to the last digit.
    for n in range(1, 10):
        A = [[int(i != j) for j in range(n)] for i in range(n)]
        assert spanning_tree_count(A) == n ** (n - 2)
    # K_n minus one edge: (n-2) * n^(n-3) spanning trees.
    for n in range(3, 9):
        A = [[int(i != j) for j in range(n)] for i in range(n)]
        A[0][1] = A[1][0] = 0
        assert spanning_tree_count(A) == (n - 2) * n ** (n - 3)


# --- treelet sampling law -------------------------------------------------

def crafted_generators(alpha=None):
    if alpha is None:
        cs = build_counters_naive(CRAFTED, 3, CRAFTED_COLORING)
    else:
        cs = build_counters(CRAFTED, apply_split(CRAFTED, alpha), 3, CRAFTED_COLORING)
    return build_generators(cs)


def test_crafted_build_total():
    gens = crafted_generators()
    assert gens.cs.W == 15


def test_sample_law_weighted():
    gens = crafted_generators()
    rng = random.Random(101)
    n = 20000
    tally = {}
    for _ in range(n):
        out = sample_outcome(gens, rng)
        tally[out.U] = tally.get(out.U, 0) + 1
        assert out.sigma == (3 if out.U == (0, 1, 2) else 1)
    assert set(tally) == set(CRAFTED_LAW)
    for U, p in CRAFTED_LAW.items():
        assert four_sigma_ok(tally[U], n, float(p))


def test_sample_law_through_split_generators():
    # Same law when lower/upper generators drive the walk.
    for alpha in (0, 2):
        gens = crafted_generators(alpha=alpha)
        assert gens.cs.W == 15
        rng = random.Random(103)
        n = 20000
        tally = {}
        for _ in range(n):
            out = sample_outcome(gens, rng)
            tally[out.U] = tally.get(out.U, 0) + 1
        for U, p in CRAFTED_LAW.items():
            assert four_sigma_ok(tally[U], n, float(p))


# Edges {0,1,2} and {0,1,3} both hold the pair {0,1}, and at alpha 2 the
# edge {0,1} puts that pair in the lower part as well: both parts of the
# split join it, and the split's lower-only graph drops it.
SHARED = Hypergraph(5, [(0, 1), (0, 1, 2), (0, 1, 3), (2, 3, 4)])
SHARED_COLORING = Coloring(3, (0, 1, 2, 2, 1))


def colorful_sigma_law(H, coloring):
    """sigma(U) over the sum of sigma, on the colorful connected k-sets U."""
    k = coloring.k
    sigma = {}
    for U in connected_ksets(H, k):
        if len({coloring.colors[v] for v in U}) < k:
            continue
        index = {v: i for i, v in enumerate(U)}
        pairs = [(index[u], index[v]) for u, v in gaifman_pairs(H)
                 if u in index and v in index]
        sigma[tuple(sorted(U))] = count_spanning_trees_brute(k, pairs)
    total = sum(sigma.values())
    return {U: Fraction(s, total) for U, s in sigma.items()}


def test_sample_law_with_a_pair_both_parts_join():
    split = apply_split(SHARED, 2)
    assert len(set(split.upper_types[0]) & set(split.upper_types[1])) == 2
    assert 1 not in split.lower_only.adj[0]
    law = colorful_sigma_law(SHARED, SHARED_COLORING)
    assert law == {(0, 1, 2): Fraction(3, 8), (0, 1, 3): Fraction(3, 8),
                   (0, 2, 4): Fraction(1, 8), (0, 3, 4): Fraction(1, 8)}
    for alpha in candidate_alphas(SHARED):
        cs = build_counters(SHARED, apply_split(SHARED, alpha), 3, SHARED_COLORING)
        gens = build_generators(cs)
        rng = random.Random(137 + alpha)
        n = 20000
        tally = {}
        for _ in range(n):
            U = gens.sample_treelet(rng)
            tally[U] = tally.get(U, 0) + 1
        assert set(tally) == set(law)
        for U, p in law.items():
            assert four_sigma_ok(tally[U], n, float(p))


def test_sample_neigh_accepts_once_per_proposal(monkeypatch):
    # Every proposal is kept: a partition draw, a part draw only when both
    # parts have weight, and one draw locating u in its part, each skipped
    # when its outcome is certain.
    cs = build_counters(SHARED, apply_split(SHARED, 2), 3, SHARED_COLORING)
    gens = build_generators(cs)
    # At alpha 2, vertex 1 is vertex 0's one lower neighbor but shares its
    # upper edges, so it sits in the upper part only, and the lower part is
    # empty.  Along an edge from v = 0 over colors {0, 1}, vertex 1 carries
    # the whole upper total: the draw spends nothing.
    edge = cs.catalog.of_order(2)[0]
    script = ScriptedBelow([])
    monkeypatch.setattr(sampler, "below", script)
    assert gens.sample_neigh(edge.tid, 0b011, 0, None) == (edge.t2, 0b001, 0b010, 1)
    assert script.bounds == []
    # Treelet (()()) at v = 0 over all three colors: the partitions weigh
    # 2 * 1 (S2 = {1}, u = 1 alone) and 1 * 2 (S2 = {2}, u = 2 or 3).  The
    # groups that 0's type meets are {0, 1}, {2} and {3}, in that order.
    tid = cs.catalog.tid_of("(()())")
    t2 = cs.catalog[tid].t2
    for values, bounds, drawn in [([1], [4], (0b101, 0b010, 1)),
                                  ([2, 0], [4, 2], (0b011, 0b100, 2)),
                                  ([3, 1], [4, 2], (0b011, 0b100, 3))]:
        script = ScriptedBelow(values)
        monkeypatch.setattr(sampler, "below", script)
        assert gens.sample_neigh(tid, 0b111, 0, None) == (t2,) + drawn
        assert script.bounds == bounds
    # toy.hg at alpha 3: vertex 6's lower neighbors 3 and 5 share no upper
    # edge with it, and its upper type meets the group of edge {0,1,2,4,6}.
    # Over colors {0, 2} the lower part holds weight 1 at 5 and the upper
    # part weight 1 at 2: one below(2) picks the part, and nothing else is
    # uncertain.
    toy = parse_hypergraph(TOY_TEXT)
    cs = build_counters(toy, apply_split(toy, 3), 3, Coloring(3, (0, 1, 2, 0, 1, 2, 0, 1)))
    gens = build_generators(cs)
    edge = cs.catalog.of_order(2)[0]
    for value, u in [(0, 5), (1, 2)]:
        script = ScriptedBelow([value])
        monkeypatch.setattr(sampler, "below", script)
        assert gens.sample_neigh(edge.tid, 0b101, 6, None) == (edge.t2, 0b001, 0b100, u)
        assert script.bounds == [2]


def test_sample_neigh_counts_a_pair_both_parts_join_once():
    # Treelet (()()) at v = 0 over all three colors: C(T1,S1,0) is 2 for
    # S2 = {1} (u = 1 only) and 1 for S2 = {2} (u = 2 or 3), so (S2, u)
    # must land with probability 1/2, 1/4, 1/4.  Counting u = 1 once per
    # part that joins it, lower edge and two upper edges, would weigh the
    # partitions 2*3 and 1*2 and give S2 = {1} probability 3/4.
    cs = build_counters(SHARED, apply_split(SHARED, 2), 3, SHARED_COLORING)
    gens = build_generators(cs)
    tid = cs.catalog.tid_of("(()())")
    law = {(0b010, 1): 0.5, (0b100, 2): 0.25, (0b100, 3): 0.25}
    rng = random.Random(139)
    n = 20000
    tally = dict.fromkeys(law, 0)
    for _ in range(n):
        _t2, _S1, S2, u = gens.sample_neigh(tid, 0b111, 0, rng)
        tally[S2, u] += 1
    for key, p in law.items():
        assert four_sigma_ok(tally[key], n, p)


def test_sampled_neighbors_are_gaifman_neighbors():
    # Every neighbor draw with positive weight, under every split: u is a
    # Gaifman neighbor of v, and (S1, S2) splits S with both sides counted.
    for H, coloring in [(CRAFTED, CRAFTED_COLORING), (SHARED, SHARED_COLORING)]:
        adj = gaifman(H).adj
        for alpha in candidate_alphas(H):
            cs = build_counters(H, apply_split(H, alpha), 3, coloring)
            gens = build_generators(cs)
            rng = random.Random(107 + alpha)
            drawn = 0
            for t in cs.catalog.treelets:
                if t.order < 2:
                    continue
                for S in masks_of_size(3, t.order):
                    for v in range(H.n):
                        if not cs.tables[t.tid][S][v]:
                            continue
                        for _ in range(20):
                            t2, S1, S2, u = gens.sample_neigh(t.tid, S, v, rng)
                            assert u in adj[v]
                            assert S1 | S2 == S and not S1 & S2
                            assert cs.tables[t.t1][S1][v] and cs.tables[t2][S2][u]
                            drawn += 1
            assert drawn


def neighbor_draw_law(gens, tid, S, v, monkeypatch):
    """The exact law of sample_neigh(tid, S, v): sampler.below is scripted
    through every sequence of values, each with probability the product of
    one over its bounds.  Also checks that a draw makes at most three below
    calls, which bounds the enumeration, and that every call has at least
    two outcomes beneath it, so no certain draw spends bits."""
    law = {}
    outcomes = {}  # the values before a call -> the (S1, S2, u) below it
    pending = [[]]
    while pending:
        values = pending.pop()
        fixed = len(values)
        bounds = []

        def scripted(_rng, n):
            assert len(bounds) < 3, "a neighbor draw makes more than 3 below calls"
            if len(bounds) == len(values):
                values.append(0)
            bounds.append(n)
            return values[len(bounds) - 1]

        monkeypatch.setattr(sampler, "below", scripted)
        _t2, S1, S2, u = gens.sample_neigh(tid, S, v, None)
        for i in range(fixed, len(bounds)):
            pending.extend(values[:i] + [x] for x in range(1, bounds[i]))
        for i in range(len(bounds)):
            outcomes.setdefault(tuple(values[:i]), set()).add((S1, S2, u))
        law[S1, S2, u] = law.get((S1, S2, u), 0) + Fraction(1, math.prod(bounds))
    assert all(len(seen) > 1 for seen in outcomes.values())
    return law


def test_neighbor_draw_law_is_exact_by_enumeration(monkeypatch):
    # Every (T, S, v) with C(T,S,v) > 0 under every split: (S1, S2, u) lands
    # with probability C(T1,S1,v) * C(T2,S2,u) over the sum of that weight
    # across the partitions of S and v's Gaifman neighbors u.
    toy = parse_hypergraph(TOY_TEXT)
    nice = nice_hypergraph(14, 9, 3, 2, 5, 0.67, "law")
    cases = [(SHARED, SHARED_COLORING),
             (toy, Coloring(3, (0, 1, 2, 0, 1, 2, 0, 1))),
             (toy, Coloring(4, (0, 1, 2, 3, 0, 1, 2, 3))),
             (nice, random_coloring(nice, 4, "law"))]
    draws = upper = 0
    for H, coloring in cases:
        adj = gaifman(H).adj
        k = coloring.k
        for alpha in candidate_alphas(H):
            split = apply_split(H, alpha)
            cs = build_counters(H, split, k, coloring)
            gens = build_generators(cs)
            for t in cs.catalog.treelets:
                if t.order < 2:
                    continue
                for S in masks_of_size(k, t.order):
                    for v in range(H.n):
                        if not cs.tables[t.tid][S][v]:
                            continue
                        weights = {}
                        for S2 in masks_of_size(k, cs.catalog[t.t2].order):
                            S1 = S & ~S2
                            if S2 & ~S or not cs.tables[t.t1][S1][v]:
                                continue
                            for u in adj[v]:
                                w = cs.tables[t.t1][S1][v] * cs.tables[t.t2][S2][u]
                                if w:
                                    weights[S1, S2, u] = w
                        total = sum(weights.values())
                        assert neighbor_draw_law(gens, t.tid, S, v, monkeypatch) == {
                            key: Fraction(w, total) for key, w in weights.items()}
                        draws += 1
                        upper += bool(split.upper_types[v])
    assert draws > 700 and upper > 400


def test_neighbor_partitions_sum_to_d_times_the_count(tmp_path):
    # The walk in sample_neigh draws below d * C(T,S,v) and stops in the
    # partition the integer lands in, so for every (T, S, v) with
    # C(T,S,v) > 0 the partitions must sum to exactly that: over S2 inside
    # S, C(T1,S1,v) times C(T2,S2,.) summed over v's lower-only neighbors
    # and over the members of the upper groups v's type meets.  Checked on
    # the cases of test_neighbor_draw_law_is_exact_by_enumeration, built and
    # read back.
    toy = parse_hypergraph(TOY_TEXT)
    nice = nice_hypergraph(14, 9, 3, 2, 5, 0.67, "law")
    cases = [(SHARED, SHARED_COLORING),
             (toy, Coloring(3, (0, 1, 2, 0, 1, 2, 0, 1))),
             (toy, Coloring(4, (0, 1, 2, 3, 0, 1, 2, 3))),
             (nice, random_coloring(nice, 4, "law"))]
    path = tmp_path / "t.hmt"
    checked = 0
    for H, coloring in cases:
        k = coloring.k
        for alpha in candidate_alphas(H):
            built = build_counters(H, apply_split(H, alpha), k, coloring)
            buildup.write_table(built, path)
            loaded = buildup.counterset_from_table(H, buildup.read_table(path))
            for cs in (built, loaded):
                split = cs.split
                meets = [[u for u in range(H.n)
                          if set(split.upper_types[u]) & set(split.upper_types[v])]
                         for v in range(H.n)]
                for t in cs.catalog.treelets[1:]:
                    for S in masks_of_size(k, t.order):
                        for v in range(H.n):
                            count = cs.tables[t.tid][S][v]
                            if not count:
                                continue
                            weight = 0
                            for S2 in masks_of_size(k, cs.catalog[t.t2].order):
                                if S2 & ~S:
                                    continue
                                vec2 = cs.tables[t.t2][S2]
                                lower = sum(vec2[u] for u in split.lower_only.adj[v])
                                upper = sum(vec2[u] for u in meets[v])
                                weight += cs.tables[t.t1][S & ~S2][v] * (lower + upper)
                            assert weight == t.d * count
                            checked += 1
    assert checked > 1400


def test_root_draw_matches_one_flat_table(monkeypatch):
    # Every integer below W, once: draw_root gives the same (T, v) as one
    # alias table over the cs.root_weights() items in order.
    toy = parse_hypergraph(TOY_TEXT)
    for cs in [build_counters(toy, resolve_split(toy, 3), 3,
                              random_coloring(toy, 3, "t2|run0")),
               build_counters(SHARED, apply_split(SHARED, 2), 3, SHARED_COLORING)]:
        roots = cs.root_weights()
        flat = VoseAlias([(tid, v) for tid, vec in roots for v in range(len(vec))],
                         [w for _tid, vec in roots for w in vec])
        assert len(roots) > 1 and flat.total == cs.W
        gens = build_generators(cs)
        ours, theirs = ScriptedBelow(range(cs.W)), ScriptedBelow(range(cs.W))
        monkeypatch.setattr(sampler, "below", ours)
        drawn = [gens.draw_root(None) for _ in range(cs.W)]
        monkeypatch.setattr(sampler, "below", theirs)
        assert drawn == [flat.draw(None) for _ in range(cs.W)]
        assert ours.bounds == theirs.bounds == [cs.W] * cs.W


def test_no_colorful_occurrences():
    H = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
    cs = build_counters_naive(H, 3, Coloring(3, [0, 0, 1]))
    with pytest.raises(NoColorfulOccurrences):
        build_generators(cs)


# --- extraction -----------------------------------------------------------

def test_extraction_agreement():
    rng = random.Random(109)
    toy = parse_hypergraph(TOY_TEXT)
    for H in [toy] + [random_hypergraph(rng, n_max=10, m_max=8, size_max=5) for _ in range(20)]:
        k = rng.randint(2, 3)
        col = random_coloring(H, k, rng.random())
        for alpha in candidate_alphas(H):
            split = apply_split(H, alpha)
            cs = build_counters(H, split, k, col)
            try:
                gens = build_generators(cs)
            except NoColorfulOccurrences:
                continue
            for _ in range(10):
                out = sample_outcome(gens, rng)
                U = out.U
                P = extract_hypergraphlet(H, U)
                assert set(P.edges) == truncated_edge_masks(H, U)
                assert out.key == canonical_key(P)
                pos = {v: i for i, v in enumerate(U)}
                pairs = [(pos[a], pos[b]) for a, b in gaifman_pairs(H)
                         if a in pos and b in pos]
                assert out.sigma == count_spanning_trees_brute(len(U), pairs)


def test_vertices_of_one_upper_type_share_one_upper_table():
    # toy.hg at alpha 0: vertices 3 and 5 lie only in edge {3,5,6}.  SHARED
    # at alpha 2: vertices 0 and 1 lie in {0,1,2} and {0,1,3}.
    for H, alpha, coloring, (a, b) in [
        (parse_hypergraph(TOY_TEXT), 0, Coloring(3, (0, 1, 2, 0, 1, 2, 0, 1)), (3, 5)),
        (SHARED, 2, SHARED_COLORING, (0, 1)),
    ]:
        split = apply_split(H, alpha)
        ty = split.upper_types[a]
        assert ty and split.upper_types[b] == ty
        assert split.upper_groups[ty] == [v for v in range(H.n)
                                          if split.upper_types[v] == ty]
        members = list(split.upper_groups.values())
        flat = [u for m in members for u in m]
        meets = [g for g, gty in enumerate(split.upper_groups) if set(gty) & set(ty)]
        cs = build_counters(H, split, 3, coloring)
        gens = build_generators(cs)
        g = gens._group_of[a]
        assert gens._group_of[b] == g and members[g] == split.upper_groups[ty]
        assert gens._members == flat
        positive = 0
        for t in cs.catalog.treelets:
            if t.order < 2:
                continue
            for S2 in masks_of_size(3, cs.catalog[t.t2].order):
                table = gens._upper_table(t.t2, S2, g)
                total, groups, cum, (mcum, bounds), single = table
                vec = cs.tables[t.t2][S2]
                # One prefix pass per (T2, S2) over every group's members,
                # end to end, and every type's table reads that one pass.
                assert table[3] is gens._member_cums[t.t2, S2]
                for h in range(len(members)):
                    assert gens._upper_table(t.t2, S2, h)[3] is table[3]
                assert mcum == list(accumulate(vec[u] for u in flat))
                assert bounds == list(accumulate(
                    [0] + [sum(vec[u] for u in m) for m in members]))
                # One table per type, reached through the slot of the
                # vertices' one group.
                slots = gens._upper_slots[t.t2, S2]
                assert len(slots) == len(members)
                assert slots[gens._group_of[a]] is slots[gens._group_of[b]] is table
                assert groups == meets and gens._met[g] is groups
                assert cum == list(accumulate(sum(vec[u] for u in members[h])
                                              for h in groups))
                weighted = [u for h in groups for u in members[h] if vec[u]]
                assert total == sum(vec[u] for u in weighted)
                assert single == (weighted[0] if len(weighted) == 1 else None)
                positive += bool(total)
        assert positive


def test_upper_draws_land_where_a_linear_scan_does(monkeypatch):
    # Every upper table a seeded sampling run on a nice instance builds:
    # r at the first and at the last unit of each weighted group's range
    # must give the vertex a linear scan over the table's groups' members,
    # in ascending group order, reaches at r.
    H = nice_hypergraph(60, 34, 5, 3, 30, 30 / 34, "scan")
    split = apply_split(H, 4)
    cs = build_counters(H, split, 4, random_coloring(H, 4, "scan"))
    gens = build_generators(cs)
    estimate_counts(gens, 300, random.Random(151))
    members = list(split.upper_groups.values())
    checked = 0
    for (t2, S2), slots in gens._upper_slots.items():
        vec = cs.tables[t2][S2]
        for table in filter(None, slots):
            total, groups, _cum, _members, single = table
            scan = [u for h in groups for u in members[h]]
            start = 0
            for h in groups:
                end = start + sum(vec[u] for u in members[h])
                for r in {start, end - 1} if end > start else ():
                    running = 0
                    for expected in scan:
                        running += vec[expected]
                        if r < running:
                            break
                    script = ScriptedBelow([r])
                    monkeypatch.setattr(sampler, "below", script)
                    assert gens._draw_upper(table, None) == expected
                    assert script.bounds == ([] if single is not None else [total])
                    checked += 1
                start = end
            assert start == total
    assert checked > 100


def record_sigma_work(monkeypatch):
    """Counts spanning_tree_count calls and lists, per extracted P, its
    labeled Gaifman graph as a set of pairs, read from its edge masks."""
    calls, graphs = [], []

    def counted(A):
        calls.append(frozenset((i, j) for i, row in enumerate(A)
                               for j, x in enumerate(row) if x and i < j))
        return spanning_tree_count(A)

    def extracted(H, U):
        P = extract_hypergraphlet(H, U)
        graphs.append(frozenset(
            (i, j) for e in P.edges for i in range(P.order)
            for j in range(i + 1, P.order) if e >> i & 1 and e >> j & 1))
        return P

    monkeypatch.setattr(sampler, "spanning_tree_count", counted)
    monkeypatch.setattr(sampler, "extract_hypergraphlet", extracted)
    return calls, graphs


def test_sigma_is_computed_once_per_key(monkeypatch):
    # sigma depends on the labeled Gaifman graph alone: one
    # spanning_tree_count call per distinct graph, however many shapes
    # share it.  On TWO_K3 the edge {0,1,2} and the pairs of {3,4,5} are two
    # shapes with the one graph K3.
    two_k3 = Hypergraph(6, [(0, 1, 2), (3, 4), (4, 5), (3, 5)])
    toy = parse_hypergraph(TOY_TEXT)
    cases = [build_generators(build_counters_naive(two_k3, 3, Coloring(3, (0, 1, 2) * 2))),
             crafted_generators(alpha=2),
             build_generators(build_counters(toy, resolve_split(toy, 3, 0), 3,
                                             random_coloring(toy, 3, "t2|run0")))]
    for seed, gens in enumerate(cases):
        calls, graphs = record_sigma_work(monkeypatch)
        rep = estimate_counts(gens, 500, random.Random(seed))
        assert len(rep) > 1 and len(gens.sigmas) == len(rep)
        assert len(set(calls)) == len(calls) == len(gens._graph_sigmas)
        assert set(calls) <= set(graphs)
        for key, row in rep.items():
            assert row["inv_sigma_sum"] == Fraction(row["samples"], gens.sigmas[key])
        for reach, sigma in gens._graph_sigmas.items():
            pairs = [(i, j) for i in range(len(reach)) for j in range(i + 1, len(reach))
                     if reach[i] >> j & 1]
            assert sigma == count_spanning_trees_brute(len(reach), pairs)
        if seed == 0:
            assert len(calls) == 1 and set(gens.sigmas.values()) == {3}


@pytest.mark.parametrize("n", [200, 400, 800])
def test_sampling_warm_up_is_bounded_by_types_and_graphs(monkeypatch, n):
    # bench's family: four upper edges of n/2 vertices.  Whatever n is, one
    # sampling run derives exactly one group list per upper type and at
    # most one sigma per distinct Gaifman graph: no warm-up work grows with
    # the tables it serves or with the edges' size.  Counted, not timed.
    H = nice_hypergraph(n, n // 2 + 4, 5, 3, n // 2, (n // 2) / (n // 2 + 4),
                        "guard|%d" % n)
    split = apply_split(H, 5)
    cs = build_counters(H, split, 4, random_coloring(H, 4, "guard|%d" % n))
    derived = []
    groups_met = sampler.Generators._groups_met

    def counted(self, ty):
        derived.append(ty)
        return groups_met(self, ty)

    monkeypatch.setattr(sampler.Generators, "_groups_met", counted)
    calls, graphs = record_sigma_work(monkeypatch)
    gens = build_generators(cs)
    estimate_counts(gens, 500, random.Random(n))
    assert sorted(derived) == sorted(split.upper_groups)
    assert len(set(calls)) == len(calls) <= len(set(graphs))
    assert len(calls) < len(gens.sigmas)


def test_sample_outcome_key_consistency():
    gens = crafted_generators(alpha=2)
    rng = random.Random(113)
    for _ in range(50):
        out = sample_outcome(gens, rng)
        assert out.key == canonical_key(induced_sub(CRAFTED, out.U))


# --- estimation -----------------------------------------------------------

def test_estimator_exact_on_unique_occurrence():
    H = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
    cs = build_counters_naive(H, 3, Coloring(3, [0, 1, 2]))
    gens = build_generators(cs)
    rng = random.Random(127)
    report = estimate_counts(gens, 500, rng)
    key = canonical_key(induced_sub(H, (0, 1, 2)))
    assert set(report) == {key}
    row = report[key]
    assert row["samples"] == 500
    assert row["inv_sigma_sum"] == Fraction(500, 3)
    assert row["estimate"] == Fraction(1)
    _header, line = cli._rows_csv(report).splitlines()
    assert line.endswith(",1.0")


def test_estimator_uniform_mode():
    H = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
    cs = build_counters_naive(H, 3, Coloring(3, [0, 1, 2]))
    gens = build_generators(cs)
    rng = random.Random(131)
    report = estimate_counts(gens, 3000, rng, uniform=True)
    key = canonical_key(induced_sub(H, (0, 1, 2)))
    row = report[key]
    # Acceptance probability 1/sigma = 1/3; the estimate recovers ~1.
    assert four_sigma_ok(row["samples"], 3000, 1 / 3)
    assert row["estimate"] == Fraction(cs.W, 3 * 3000) * row["samples"]


def test_estimate_counts_validation():
    gens = crafted_generators()
    rng = random.Random(1)
    with pytest.raises(SamplerError):
        estimate_counts(gens, 0, rng)


def test_estimator_unbiased_on_crafted():
    # Mean of independent runs approaches the exact colorful counts.  The
    # three colorful triples all land on distinct keys (edge truncations
    # leave different singleton patterns), each with exact count 1.
    gens = crafted_generators()
    runs, K = 120, 60
    acc = {}
    for r in range(runs):
        rng = random.Random("law|%d" % r)
        rep = estimate_counts(gens, K, rng)
        for key, row in rep.items():
            acc.setdefault(key, []).append(row["estimate"])
    expected_keys = {
        canonical_key(induced_sub(CRAFTED, U)) for U in CRAFTED_LAW
    }
    assert set(acc) == expected_keys
    assert len(expected_keys) == 3
    for key, vals in acc.items():
        assert abs(float(sum(vals) / runs) - 1.0) < 0.15


def test_sharded_estimate_single_thread_matches_plain():
    from hypergraphlets.buildup import derived_rng

    gens = crafted_generators()
    direct = estimate_counts(gens, 400, derived_rng("s9", "run0|sampling"))
    sharded = sharded_estimate(gens, 400, "s9", 0)
    assert sharded == direct


def test_resolve_split_policies():
    toy = parse_hypergraph(TOY_TEXT)
    col = random_coloring(toy, 3, "p")
    naive, auto, fixed = [build_counters(toy, resolve_split(toy, 3, policy), 3, col)
                          for policy in ("naive", "auto", 3)]
    assert naive.split.alpha == toy.rank and naive.split.upper.m == 0
    assert auto.split.alpha == 5
    assert fixed.split.alpha == 3
    assert naive.tables_equal(auto) and auto.tables_equal(fixed)


def test_count_chooses_the_split_once_per_call(monkeypatch, capsys, tmp_path):
    calls = []

    def counted(H, gamma=DEFAULT_GAMMA):
        calls.append(gamma)
        return choose_split_refined(H, gamma)

    monkeypatch.setattr(sampler, "choose_split_refined", counted)
    hg = tmp_path / "toy.hg"
    hg.write_text(TOY_TEXT)
    assert cli.main(["count", str(hg), "-k", "3", "--samples", "50",
                     "--seed", "4", "--runs", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) > 1
    assert calls == [DEFAULT_GAMMA]


def test_count_builds_one_plan_per_call(monkeypatch, capsys, tmp_path):
    plans, rounds = [], []
    nw = buildup.combined_neighbor_weight

    class Counted(buildup.NWPlan):
        def __init__(self, split, cap=20):
            plans.append(cap)
            super().__init__(split, cap)

    def counted(plan, w):
        rounds.append(plan)
        return nw(plan, w)

    monkeypatch.setattr(buildup, "NWPlan", Counted)
    monkeypatch.setattr(sampler, "NWPlan", Counted)
    monkeypatch.setattr(buildup, "combined_neighbor_weight", counted)
    hg = tmp_path / "toy.hg"
    hg.write_text(TOY_TEXT)
    args = ["count", str(hg), "-k", "3", "--samples", "50", "--seed", "4",
            "--alpha", "0", "--runs", "3"]
    assert cli.main(args) == 0
    assert len(capsys.readouterr().out.splitlines()) > 1
    assert plans == [20] and rounds and all(p is rounds[0] for p in rounds)
    # The cap still refuses before any round: toy's degree at alpha 0 is 3.
    plans.clear()
    rounds.clear()
    assert cli.main(args + ["--cap", "2"]) == 1
    assert "degree 3 exceeds the 2^degree cap 2" in capsys.readouterr().err
    assert plans == [2] and rounds == []


def test_approx_counts_runs_average():
    toy = parse_hypergraph(TOY_TEXT)
    rows, reports = approx_counts(toy, 3, 300, "avg2", runs=3)
    assert len(reports) == 3
    per_key = {}
    for rep in reports:
        assert rep is not None
        for key, row in rep.items():
            per_key.setdefault(key, Fraction(0))
            per_key[key] += row["estimate"]
    for key, row in rows.items():
        assert row["estimate"] == per_key[key] / 3
    total = sum(float(line.rsplit(",", 1)[1])
                for line in cli._rows_csv(rows).splitlines()[1:])
    assert total == pytest.approx(1.0)


def test_approx_counts_counts_empty_runs_in_average():
    # A 2-vertex graph colored with 3 colors never sees all colors; with
    # more vertices some runs are colorful and some are not, and the dead
    # runs still divide the average.
    H = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
    rows, reports = approx_counts(H, 3, 50, "dead-runs", runs=8)
    dead = sum(1 for rep in reports if rep is None)
    live = 8 - dead
    assert 0 < live < 8  # seed chosen so both kinds occur
    per_key = {}
    for rep in reports:
        if rep is None:
            continue
        for key, row in rep.items():
            per_key.setdefault(key, Fraction(0))
            per_key[key] += row["estimate"]
    for key, row in rows.items():
        assert row["estimate"] == per_key[key] / 8
    with pytest.raises(SamplerError):
        approx_counts(H, 3, 50, "x", runs=0)


def test_approx_counts_refuses_empty_budget_before_building():
    # Seed s1 colors the toy instance without a colorful occurrence, so the
    # budget must be checked before any run, not by the sampling loop.
    toy = parse_hypergraph(TOY_TEXT)
    with pytest.raises(SamplerError, match="sample budget"):
        approx_counts(toy, 3, 0, "s1")
