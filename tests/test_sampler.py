import math
import random
from fractions import Fraction
from itertools import accumulate

import pytest

from hypergraphlets.buildup import Coloring, build_counters, build_counters_naive, random_coloring
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
    resolve_build,
    sample_outcome,
    sharded_estimate,
    spanning_tree_count,
)
from hypergraphlets.splitter import apply_split, candidate_alphas

from oracles import (
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
    rng = random.Random(83)
    assert {alias.draw(rng) for _ in range(50)} == {"b"}
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


class ScriptedRng:
    """Stands in for random.Random: randrange returns the scripted values
    in order and records each bound it was called with."""

    def __init__(self, values):
        self.values = iter(values)
        self.bounds = []

    def randrange(self, n):
        value = next(self.values)
        assert 0 <= value < n
        self.bounds.append(n)
        return value


def test_vose_alias_draw_is_exact():
    # Every integer below the total, once: item i comes back exactly w_i times.
    alias = VoseAlias("abcdef", [3, 0, 1, 5, 0, 2])
    rng = ScriptedRng(range(11))
    tally = {}
    for _ in range(11):
        item = alias.draw(rng)
        tally[item] = tally.get(item, 0) + 1
    assert tally == {"a": 3, "c": 1, "d": 5, "f": 2}
    assert rng.bounds == [11] * 11
    # Weights past 64 bits: the last value below each prefix-sum boundary
    # and the boundary itself land on the two neighboring items.
    weights = [2 ** 64 - 1, 2 ** 64, 2 ** 100 + 7]
    alias = VoseAlias(["x", "y", "z"], weights)
    first, second, total = list(accumulate(weights))
    values = [0, first - 1, first, second - 1, second, total - 1]
    rng = ScriptedRng(values)
    assert [alias.draw(rng) for _ in values] == ["x", "x", "y", "y", "z", "z"]
    assert rng.bounds == [total] * len(values)


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
    # A big complete graph: n^(n-2) spanning trees, exact to the last digit.
    n = 9
    A = [[int(i != j) for j in range(n)] for i in range(n)]
    assert spanning_tree_count(A) == n ** (n - 2)


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
# edge {0,1} puts that pair in the lower part as well, so sample_neigh's
# overlap rejection and its lower-and-upper rejection both fire on it.
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


def test_sample_law_through_split_rejection_branches():
    split = apply_split(SHARED, 2)
    assert split.upper_overlap(0, 1) == 2
    assert 1 in split.lower_neighbors[0]
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
            U = gens.sample_treelet(rng)[1]
            tally[U] = tally.get(U, 0) + 1
        assert set(tally) == set(law)
        for U, p in law.items():
            assert four_sigma_ok(tally[U], n, float(p))


def test_sampled_trees_are_spanning_trees():
    gens = crafted_generators()
    rng = random.Random(107)
    for _ in range(300):
        tid, U, edges = gens.sample_treelet(rng)
        assert len(U) == 3
        assert len(edges) == 2
        verts = set()
        for u, v in edges:
            verts.update((u, v))
        assert verts == set(U)
        # Every tree edge joins co-occurring vertices.
        G = gaifman(CRAFTED)
        for u, v in edges:
            assert v in G.adj[u]


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
                assert out.hypergraphlet == P
                pos = {v: i for i, v in enumerate(U)}
                pairs = [(pos[a], pos[b]) for a, b in gaifman_pairs(H)
                         if a in pos and b in pos]
                assert out.sigma == count_spanning_trees_brute(len(U), pairs)


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
    assert set(report.rows) == {key}
    row = report.rows[key]
    assert row["samples"] == 500
    assert row["inv_sigma_sum"] == Fraction(500, 3)
    assert row["estimate"] == Fraction(1)
    assert row["relative_frequency"] == 1.0
    assert report.total_estimate() == 1


def test_estimator_uniform_mode():
    H = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
    cs = build_counters_naive(H, 3, Coloring(3, [0, 1, 2]))
    gens = build_generators(cs)
    rng = random.Random(131)
    report = estimate_counts(gens, 3000, rng, mode="uniform")
    key = canonical_key(induced_sub(H, (0, 1, 2)))
    row = report.rows[key]
    # Acceptance probability 1/sigma = 1/3; the estimate recovers ~1.
    assert four_sigma_ok(row["samples"], 3000, 1 / 3)
    assert row["estimate"] == Fraction(cs.W, 3 * 3000) * row["samples"]
    assert report.mode == "uniform"


def test_estimate_counts_validation():
    gens = crafted_generators()
    rng = random.Random(1)
    with pytest.raises(SamplerError):
        estimate_counts(gens, 0, rng)
    with pytest.raises(SamplerError):
        estimate_counts(gens, 10, rng, mode="nonsense")


def test_estimator_unbiased_on_crafted():
    # Mean of independent runs approaches the exact colorful counts.  The
    # three colorful triples all land on distinct keys (edge truncations
    # leave different singleton patterns), each with exact count 1.
    gens = crafted_generators()
    runs, K = 120, 60
    acc = {}
    for r in range(runs):
        rng = random.Random("law|%d" % r)
        rep = estimate_counts(gens, K, rng, keep_log=False)
        for key, row in rep.rows.items():
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
    assert sharded.rows == direct.rows
    assert sharded.log == direct.log


def test_resolve_build_policies():
    toy = parse_hypergraph(TOY_TEXT)
    col = random_coloring(toy, 3, "p")
    naive = resolve_build(toy, 3, col, alpha_policy="naive")
    assert naive.split.alpha == toy.rank and naive.split.upper.m == 0
    auto = resolve_build(toy, 3, col, alpha_policy="auto")
    assert auto.split is not None and auto.split.alpha == 5
    fixed = resolve_build(toy, 3, col, alpha_policy=3)
    assert fixed.split.alpha == 3
    assert naive.tables_equal(auto) and auto.tables_equal(fixed)


def test_approx_counts_runs_average():
    toy = parse_hypergraph(TOY_TEXT)
    rows, reports = approx_counts(toy, 3, 300, "avg2", runs=3)
    assert len(reports) == 3
    per_key = {}
    for rep in reports:
        assert rep is not None
        for key, row in rep.rows.items():
            per_key.setdefault(key, Fraction(0))
            per_key[key] += row["estimate"]
    for key, row in rows.items():
        assert row["estimate"] == per_key[key] / 3
    total = sum(r["relative_frequency"] for r in rows.values())
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
        for key, row in rep.rows.items():
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
