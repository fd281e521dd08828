import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergraphlets import hardlab
from hypergraphlets.buildup import build_counters
from hypergraphlets.canonlab import BudgetExceeded
from hypergraphlets.hardlab import (
    ReductionError,
    _iroot,
    blowup_with_coloring,
    decide_ksh_bruteforce,
    decide_ksh_reduction,
    kstar_counts,
    kstar_identity_check,
    ov_hypergraph,
    ov_pairwise,
    reduce_clique_to_ksh,
    solve_ov_via_nc,
    star_code,
)
from hypergraphlets.hypercore import Graph, Hypergraph, gaifman, parse_hypergraph
from hypergraphlets.splitter import apply_split, choose_split_refined

from oracles import connected_on, has_k_clique, random_hypergraph


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def random_graph(rng, n, p):
    return Graph(
        n,
        [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        ],
    )


# --- clique reduction -------------------------------------------------------

def test_reduction_layout_k4():
    red = reduce_clique_to_ksh(complete_graph(4), 4)
    assert red.block_size == 6
    assert red.k_prime == 30
    assert red.H.n == 4 * 6 + 6
    assert red.H.m == 6
    assert red.H.rank == 4 * 3 + 1 == 13
    assert red.H.rank <= 4 * 4
    assert list(red.block_map[1]) == [6, 7, 8, 9, 10, 11]
    # One singleton per graph edge, appended after the blocks.
    singles = [info[0] for info in red.edge_map.values()]
    assert sorted(singles) == list(range(24, 30))
    for e in red.H.edges:
        assert len(e) == 13


def test_reduction_requires_k3():
    with pytest.raises(ReductionError):
        reduce_clique_to_ksh(complete_graph(3), 2)
    with pytest.raises(ReductionError):
        reduce_clique_to_ksh(Hypergraph(2, [(0, 1)]), 3)


def test_reduction_is_all_lower_at_alpha_k_squared():
    red = reduce_clique_to_ksh(complete_graph(4), 4)
    split = apply_split(red.H, 16)
    assert split.beta == 0
    assert split.upper.m == 0


def test_sidecar_json_ready():
    red = reduce_clique_to_ksh(complete_graph(3), 3)
    side = red.sidecar()
    text = json.dumps(side)
    back = json.loads(text)
    assert back["k"] == 3
    assert back["k_prime"] == 12
    assert back["block_size"] == 3
    assert back["block_map"]["0"] == [0, 1, 2]
    assert back["edge_map"]["0-1"]["singleton"] == 9


def test_decide_k4_on_complete_graph():
    red = reduce_clique_to_ksh(complete_graph(4), 4)
    found, witness = decide_ksh_reduction(red)
    assert found
    assert witness["accounting"] == 30
    assert witness["blocks"] == 4
    assert witness["singletons"] == 6
    assert len(witness["U"]) == 30
    # The witness names an actual k-clique of G.
    assert sorted(witness["T"]) == [0, 1, 2, 3]


def test_decide_no_clique():
    red = reduce_clique_to_ksh(cycle_graph(5), 3)
    found, witness = decide_ksh_reduction(red)
    assert not found and witness is None
    assert not has_k_clique(cycle_graph(5), 3)
    assert not decide_ksh_bruteforce(red.H, red.k_prime)


def test_deciders_agree_on_small_graphs():
    # Every labeled graph on 4 vertices, k = 3: reduction decider, generic
    # brute force on H, and the direct clique check all coincide.
    pairs = list(combinations(range(4), 2))
    for mask in range(1 << 6):
        G = Graph(4, [pairs[i] for i in range(6) if mask >> i & 1])
        red = reduce_clique_to_ksh(G, 3)
        fast, _ = decide_ksh_reduction(red)
        direct = has_k_clique(G, 3)
        assert fast == direct
        assert decide_ksh_bruteforce(red.H, red.k_prime) == direct


def test_bruteforce_budget(monkeypatch):
    # C(4, 3) = 4 subsets: a budget of 4 allows them, 3 refuses them.
    k4 = Hypergraph(4, complete_graph(4).edge_list())
    monkeypatch.setenv("HM_BUDGET", "4")
    assert decide_ksh_bruteforce(k4, 3)
    monkeypatch.setenv("HM_BUDGET", "3")
    with pytest.raises(BudgetExceeded, match=r"= 4 subsets exceeds budget 3 "):
        decide_ksh_bruteforce(k4, 3)


def test_bruteforce_budget_env(monkeypatch):
    red = reduce_clique_to_ksh(complete_graph(5), 3)
    monkeypatch.setenv("HM_BUDGET", "10")
    with pytest.raises(BudgetExceeded, match="exceeds budget 10"):
        decide_ksh_bruteforce(red.H, red.k_prime)


def test_reduction_budget_refuses_before_any_block_set(monkeypatch):
    # A 301-vertex path at k = 3 has C(301, 3) = 4499950 block sets to try.
    red = reduce_clique_to_ksh(Graph(301, [(v, v + 1) for v in range(300)]), 3)

    def no_enumeration(*_args):
        raise AssertionError("block sets enumerated past the budget")

    monkeypatch.setattr(hardlab, "combinations", no_enumeration)
    monkeypatch.setenv("HM_BUDGET", "4499949")
    with pytest.raises(BudgetExceeded, match="^4499950 block sets exceeds budget 4499949 "):
        decide_ksh_reduction(red)


def ksh_from_definition(H, k):
    """Some k-set U whose section (the edges lying inside U) connects U."""
    for U in combinations(range(H.n), k):
        inside = [e for e in H.edges if set(e) <= set(U)]
        if connected_on(Hypergraph(H.n, inside), U):
            return True
    return False


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_property_bruteforce_matches_definition(rng):
    H = random_hypergraph(rng, n_max=10, m_max=10, size_max=4)
    for k in range(1, H.n + 1):
        assert decide_ksh_bruteforce(H, k) == ksh_from_definition(H, k)


def test_has_k_clique_basics():
    assert has_k_clique(complete_graph(5), 5)
    assert not has_k_clique(complete_graph(5), 6)
    assert has_k_clique(cycle_graph(5), 2)
    rng = random.Random(137)
    for _ in range(40):
        G = random_graph(rng, rng.randint(3, 7), rng.random())
        for k in (3, 4):
            expect = any(
                all((u, v) in set(G.edge_list()) for u, v in combinations(T, 2))
                for T in combinations(range(G.n), k)
            )
            assert has_k_clique(G, k) == expect


# --- orthogonal vectors -----------------------------------------------------

def test_ov_hypergraph_layout():
    H = ov_hypergraph([[1, 1], [1, 0], [0, 1]])
    assert H.n == 3
    assert sorted(H.edges) == [(0, 1), (0, 2)]
    # All-zero coordinates produce no edge.
    H2 = ov_hypergraph([[0, 1], [0, 1]])
    assert H2.m == 1


def test_ov_frozen_cases():
    yes_vectors = [[1, 1], [1, 0], [0, 1]]
    answer, H, eta = solve_ov_via_nc(yes_vectors)
    assert answer is True
    assert eta == [2, 1, 1]
    assert ov_pairwise(yes_vectors) is True

    no_vectors = [[1, 1], [1, 1], [1, 1]]
    answer, _, eta = solve_ov_via_nc(no_vectors)
    assert answer is False
    assert eta == [2, 2, 2]
    assert ov_pairwise(no_vectors) is False


def test_ov_zero_vector_is_orthogonal_to_all():
    vectors = [[0, 0], [1, 1]]
    answer, _, eta = solve_ov_via_nc(vectors)
    assert answer is True
    assert eta[0] == 0
    assert ov_pairwise(vectors) is True


def test_ov_validation():
    with pytest.raises(ReductionError):
        solve_ov_via_nc([])
    with pytest.raises(ReductionError):
        solve_ov_via_nc([[1, 0], [1]])


def test_ov_random_agreement():
    rng = random.Random(139)
    for _ in range(150):
        n = rng.randint(2, 20)
        d = rng.randint(1, 10)
        vectors = [[rng.randint(0, 1) for _ in range(d)] for _ in range(n)]
        answer, _, _ = solve_ov_via_nc(vectors)
        assert answer == ov_pairwise(vectors)


# --- k-star identity ---------------------------------------------------------

def test_star_code():
    assert star_code(2) == "(())"
    assert star_code(3) == "(()())"
    assert star_code(4) == "(()()())"


def test_blowup_layout():
    H = Hypergraph(2, [(0, 1)])
    B, coloring = blowup_with_coloring(H, 3)
    assert B.n == 6
    assert B.edges == [(0, 1, 2, 3, 4, 5)]
    assert coloring.colors == [0, 1, 2, 0, 1, 2]
    with pytest.raises(ReductionError):
        blowup_with_coloring(H, 1)


def test_kstar_counts_single_edge():
    H = Hypergraph(3, [(0, 1)])
    assert kstar_counts(H, 3) == [4, 4, 0]
    assert kstar_counts(H, 4) == [8, 8, 0]


def test_kstar_counts_singleton_edge():
    # A vertex with an edge but no neighbors: its own copies form the star.
    H = Hypergraph(2, [(0,), (0, 1)])
    assert kstar_counts(H, 3) == [4, 4]
    H2 = Hypergraph(2, [(0,)])
    assert kstar_counts(H2, 3) == [1, 0]


def test_kstar_identity_and_recovery():
    rng = random.Random(149)
    toy = parse_hypergraph("# vertices 8\n0 1\n1 4\n3 5 6\n0 1 2 4 6\n")
    instances = [toy] + [
        random_hypergraph(rng, n_max=7, m_max=5, size_max=4) for _ in range(12)
    ]
    for H in instances:
        G = gaifman(H)
        for k in (3, 4):
            ok, recovered = kstar_identity_check(H, k)
            assert ok
            for v in range(H.n):
                if H.degree(v) == 0:
                    assert recovered[v] is None
                else:
                    assert recovered[v] == len(G.adj[v])


def test_kstar_identity_under_split_build():
    # The blow-up's star column is the same under the naive split, the one
    # the cost model picks (naive here too) and the all-upper split at 0;
    # kstar_counts reads that column.
    H = Hypergraph(4, [(0, 1, 2), (2, 3)])
    for k in (3, 4):
        B, coloring = blowup_with_coloring(H, k)
        columns = []
        for split in (apply_split(B, B.rank), choose_split_refined(B)[0],
                      apply_split(B, 0)):
            cs = build_counters(B, split, k, coloring)
            star = cs.tables[cs.catalog.tid_of(star_code(k))][(1 << k) - 1]
            columns.append([star[v * k] for v in range(H.n)])
        assert columns[0] == columns[1] == columns[2] == kstar_counts(H, k)


def test_iroot():
    assert _iroot(27, 3) == 3
    assert _iroot(28, 3) is None
    assert _iroot(0, 2) == 0
    assert _iroot(1, 7) == 1
    assert _iroot(10 ** 24, 6) == 10 ** 4
    assert _iroot(10 ** 24 + 1, 6) is None
    assert _iroot(-8, 3) is None
