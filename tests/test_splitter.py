import math
import random

import pytest

from hypergraphlets.hypercore import Hypergraph, HypergraphError, gaifman, parse_hypergraph
from hypergraphlets.splitter import apply_split, choose_split_refined, curve_with_costs

from oracles import candidate_alphas, random_hypergraph, split_cost
from test_sampler import SHARED

TOY_TEXT = "# vertices 8\n0 1\n1 4\n3 5 6\n0 1 2 4 6\n"


@pytest.fixture
def toy():
    return parse_hypergraph(TOY_TEXT)


def test_candidate_alphas(toy):
    assert candidate_alphas(toy) == [0, 2, 3, 5]


def test_curve_frozen(toy):
    assert [row[:2] for row in curve_with_costs(toy)] == [(0, 3), (2, 2), (3, 1), (5, 0)]


def test_curve_with_costs_frozen(toy):
    rows = curve_with_costs(toy, gamma=0.01)
    assert [(a, b, lo, up) for a, b, lo, up, _ in rows] == [
        (0, 3, 0, 27),
        (2, 2, 8, 17),
        (3, 1, 17, 13),
        (5, 0, 42, 8),
    ]
    for a, b, lo, up, w in rows:
        assert w == pytest.approx(0.01 * lo + 0.99 * up)


def test_choose_refined_frozen(toy):
    split, cost = choose_split_refined(toy, gamma=0.01)
    assert split.alpha == 5
    assert split.beta == 0
    assert cost.weighted == pytest.approx(8.34)
    # A lower-heavy gamma flips the choice to a real split.
    split2, cost2 = choose_split_refined(toy, gamma=0.5)
    assert split2.alpha == 2
    assert cost2.weighted == pytest.approx(12.5)


def test_choose_refined_gamma_validation(toy):
    with pytest.raises(HypergraphError):
        choose_split_refined(toy, gamma=1.5)


@pytest.mark.parametrize("gamma", [-0.5, 1.5, 5.0, math.nan])
def test_weighted_costs_refuse_gamma_out_of_range(toy, gamma):
    with pytest.raises(HypergraphError, match=r"gamma must lie in \[0, 1\]"):
        curve_with_costs(toy, gamma=gamma)
    with pytest.raises(HypergraphError, match=r"gamma must lie in \[0, 1\]"):
        choose_split_refined(toy, gamma)


def test_apply_split_frozen(toy):
    split = apply_split(toy, 4)
    assert split.alpha == 4
    assert split.beta == 1
    assert split.lower.edges == [(0, 1), (1, 4), (3, 5, 6)]
    assert split.upper.edges == [(0, 1, 2, 4, 6)]
    # 1's lower neighbors 0 and 4 share the upper edge with it; 3's do not.
    assert split.lower_only.adj[1] == []
    assert split.lower_only.adj[3] == [5, 6]
    assert split.upper_types[0] == (0,)
    assert split.upper_types[3] == ()
    types = split.upper_types
    assert len(set(types[0]) & set(types[2])) == 1
    assert len(set(types[0]) & set(types[3])) == 0
    assert len(set(types[3]) & set(types[5])) == 0
    assert split.upper_groups == {(0,): [0, 1, 2, 4, 6]}
    with pytest.raises(HypergraphError):
        apply_split(toy, -1)


def test_split_partitions_edges():
    rng = random.Random(23)
    for _ in range(60):
        H = random_hypergraph(rng)
        for alpha in candidate_alphas(H):
            split = apply_split(H, alpha)
            assert sorted(split.lower.edges + split.upper.edges) == sorted(H.edges)
            assert all(len(e) <= alpha for e in split.lower.edges)
            assert all(len(e) > alpha for e in split.upper.edges)
            assert split.beta == max(
                (len(t) for t in split.upper.incidence), default=0
            )


def test_curve_matches_direct_recompute():
    rng = random.Random(29)
    for _ in range(60):
        H = random_hypergraph(rng)
        rows = curve_with_costs(H, gamma=0.3)
        assert [a for a, *_ in rows] == candidate_alphas(H)
        # Every alpha, candidate or not, has the costs of the row that
        # `split --alpha` reports: the largest candidate <= alpha.
        for alpha in range(H.rank + 2):
            row = [r for r in rows if r.alpha <= alpha][-1]
            lo, up = split_cost(H, alpha)
            assert row.beta == apply_split(H, alpha).beta
            assert (row.lower_cost, row.upper_cost) == (lo, up)
            assert row.weighted == pytest.approx(0.3 * lo + 0.7 * up)
        # Betas never increase along rising alpha.
        betas = [b for _, b, *_ in rows]
        assert betas == sorted(betas, reverse=True)


def test_curve_endpoint_is_all_lower():
    rng = random.Random(31)
    for _ in range(20):
        H = random_hypergraph(rng)
        alpha, beta = curve_with_costs(H)[-1][:2]
        assert alpha == H.rank
        assert beta == 0


def test_weighted_cost_saturates_to_inf():
    H = Hypergraph(2, [(0, 1)] * 1100)
    rows = curve_with_costs(H, gamma=0.01)
    assert rows[0][:2] == (0, 1100)
    assert rows[0][3] == 2 * 2 ** 1100  # exact big integer, no clipping
    assert math.isinf(rows[0][4])
    split, cost = choose_split_refined(H, gamma=0.01)
    assert split.alpha == 2
    assert math.isfinite(cost.weighted)


def test_upper_adjacency_matches_gaifman():
    rng = random.Random(37)
    for _ in range(40):
        H = random_hypergraph(rng)
        alpha = rng.choice(candidate_alphas(H))
        split = apply_split(H, alpha)
        G = gaifman(split.upper)
        for _ in range(20):
            u = rng.randrange(H.n)
            v = rng.randrange(H.n)
            if u == v:
                continue
            types = split.upper_types
            overlap = len(set(types[u]) & set(types[v]))
            assert bool(overlap) == (v in G.adj[u])


def _check_lower_only(H, split):
    full = gaifman(H).adj
    types = split.upper_types
    for v, low in enumerate(split.lower_only.adj):
        assert low == sorted(set(low))
        assert all(v in split.lower_only.adj[u] for u in low)
        upper = {u for u in range(H.n) if u != v and set(types[u]) & set(types[v])}
        assert upper.isdisjoint(low)
        assert sorted(upper | set(low)) == full[v]


def test_lower_only_partitions_gaifman_neighbors():
    # At every threshold, each Gaifman neighbor of v lies in lower_only.adj[v]
    # or shares an upper edge with v, never both.
    rng = random.Random(41)
    for _ in range(60):
        H = random_hypergraph(rng)
        for alpha in candidate_alphas(H):
            _check_lower_only(H, apply_split(H, alpha))
    # At alpha 2 the pair {0,1} lies in a lower edge and in two upper ones.
    for alpha in candidate_alphas(SHARED):
        _check_lower_only(SHARED, apply_split(SHARED, alpha))
