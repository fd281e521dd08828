import random

import pytest

from hypergraphlets.buildup import (
    BuildError,
    Coloring,
    build_counters,
    build_counters_naive,
    combined_neighbor_weight,
    counterset_from_table,
    derived_rng,
    masks_of_size,
    nw_ie,
    nw_naive,
    random_coloring,
    read_table,
    write_table,
)
from hypergraphlets.canonlab import brute_rooted_colorful_treelets, connected_ksets
from hypergraphlets.hypercore import Hypergraph, gaifman, parse_hypergraph
from hypergraphlets.splitter import apply_split, candidate_alphas
from hypergraphlets.treelets import TreeletCatalog

from oracles import bounded_degree_hypergraph, count_spanning_trees_brute, random_hypergraph

TOY_TEXT = "# vertices 8\n0 1\n1 4\n3 5 6\n0 1 2 4 6\n"


@pytest.fixture
def toy():
    return parse_hypergraph(TOY_TEXT)


def rainbow(H, k):
    return Coloring(k, [v % k for v in range(H.n)])


# --- colorings and derived randomness ------------------------------------

def test_coloring_validation():
    with pytest.raises(BuildError):
        Coloring(2, [0, 2])
    with pytest.raises(BuildError):
        Coloring(3, [-1])
    assert len(Coloring(3, [0, 1, 2, 0])) == 4


def test_random_coloring_deterministic(toy):
    a = random_coloring(toy, 4, "seed-x")
    b = random_coloring(toy, 4, "seed-x")
    c = random_coloring(toy, 4, "seed-y")
    assert a.colors == b.colors
    assert a.colors != c.colors
    assert all(0 <= col < 4 for col in a.colors)
    assert a.seed == "seed-x"
    with pytest.raises(BuildError):
        random_coloring(toy, 0, "s")


def test_derived_rng_streams_are_stable_and_distinct():
    a = derived_rng("s", "one")
    b = derived_rng("s", "one")
    c = derived_rng("s", "two")
    seq_a = [a.random() for _ in range(5)]
    assert seq_a == [b.random() for _ in range(5)]
    assert seq_a != [c.random() for _ in range(5)]


# --- neighbor weights -----------------------------------------------------

def test_nw_naive_triangle():
    G = gaifman(Hypergraph(3, [(0, 1), (1, 2), (0, 2)]))
    assert nw_naive(G, [5, 7, 11]) == [18, 16, 12]


def test_nw_ie_matches_naive_on_gaifman(toy):
    w = [1, 2, 3, 4, 5, 6, 7, 8]
    assert nw_ie(toy, w) == nw_naive(gaifman(toy), w)


def test_nw_ie_random_agreement():
    rng = random.Random(47)
    for _ in range(150):
        H = random_hypergraph(rng, n_max=12, m_max=10, size_max=5)
        w = [rng.randrange(-3, 7) for _ in range(H.n)]
        assert nw_ie(H, w) == nw_naive(gaifman(H), w)


def test_nw_ie_isolated_and_zero_weights():
    H = Hypergraph(3, [(0, 1)])
    # Vertex 2 sits in no edge: the empty type contributes nothing even
    # though its own weight is nonzero.
    assert nw_ie(H, [5, 7, 11]) == [7, 5, 0]
    assert nw_ie(H, [0, 0, 0]) == [0, 0, 0]


def test_nw_ie_degree_cap():
    edges = [(0, i) for i in range(1, 22)]
    H = Hypergraph(22, edges)
    with pytest.raises(BuildError, match="degree 21 exceeds"):
        nw_ie(H, [1] * 22, cap=20)
    assert nw_ie(H, [1] * 22, cap=21)[0] == 21


def test_combined_neighbor_weight_toy(toy):
    split = apply_split(toy, 4)
    comb, low, high = combined_neighbor_weight(split, [1] * 8)
    assert comb == nw_naive(gaifman(toy), [1] * 8)
    assert comb[0] == 4 and comb[7] == 0
    assert low[0] == 1 and high[0] == 4  # overlap with vertex 1 subtracted


def test_combined_neighbor_weight_random():
    rng = random.Random(53)
    for _ in range(120):
        H = random_hypergraph(rng, n_max=12, m_max=10, size_max=6)
        alpha = rng.choice(candidate_alphas(H))
        split = apply_split(H, alpha)
        w = [rng.randrange(-2, 6) for _ in range(H.n)]
        comb, low, high = combined_neighbor_weight(split, w)
        assert comb == nw_naive(gaifman(H), w)
        assert low == nw_naive(split.gaif_lower, w)
        assert high == nw_ie(split.upper, w)


# --- counter builds -------------------------------------------------------

def test_single_edge_k2():
    H = Hypergraph(2, [(0, 1)])
    cs = build_counters_naive(H, 2, rainbow(H, 2))
    cat = cs.catalog
    assert cs.tables[cat.tid_of("(())")][3] == [1, 1]
    assert cs.W == 2


def test_triangle_k3_frozen():
    H = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
    cs = build_counters_naive(H, 3, rainbow(H, 3))
    cat = cs.catalog
    full = 7
    assert cs.tables[cat.tid_of("((()))")][full] == [2, 2, 2]
    assert cs.tables[cat.tid_of("(()())")][full] == [1, 1, 1]
    assert cs.W == 9


def test_order1_tables_are_color_indicators(toy):
    col = rainbow(toy, 3)
    cs = build_counters_naive(toy, 3, col)
    leaf = cs.catalog.tid_of("()")
    for c in range(3):
        assert cs.tables[leaf][1 << c] == [
            1 if col.colors[v] == c else 0 for v in range(toy.n)
        ]


def test_k1_build(toy):
    cs = build_counters_naive(toy, 1, rainbow(toy, 1))
    assert cs.W == toy.n


def test_table_mask_domains(toy):
    cs = build_counters_naive(toy, 3, rainbow(toy, 3))
    for t in cs.catalog.treelets:
        assert sorted(cs.tables[t.tid]) == masks_of_size(3, t.order)


def test_masks_of_size():
    assert masks_of_size(4, 1) == [1, 2, 4, 8]
    assert masks_of_size(4, 4) == [15]
    assert masks_of_size(3, 2) == [3, 5, 6]
    assert sum(len(masks_of_size(5, h)) for h in range(6)) == 32


def test_tables_match_bruteforce_rooted_counts():
    rng = random.Random(59)
    for _ in range(25):
        H = random_hypergraph(rng, n_max=7, m_max=6, size_max=5)
        k = rng.randint(2, 3)
        col = random_coloring(H, k, rng.random())
        cs = build_counters_naive(H, k, col)
        full = (1 << k) - 1
        for t in cs.catalog.of_order(k):
            for v in range(H.n):
                expect = brute_rooted_colorful_treelets(H, col, t.code, full, v)
                assert cs.tables[t.tid][full][v] == expect


def test_split_build_equals_naive_build():
    rng = random.Random(61)
    for _ in range(40):
        H = bounded_degree_hypergraph(
            rng, rng.randint(2, 14), rng.randint(1, 10), 6, 8
        )
        k = rng.randint(2, 4)
        col = random_coloring(H, k, rng.random())
        ref = build_counters_naive(H, k, col)
        for alpha in candidate_alphas(H):
            cs = build_counters(H, apply_split(H, alpha), k, col)
            assert cs.tables_equal(ref)
            assert cs.W == ref.W


def test_total_weight_counts_rooted_spanning_trees():
    # W = k * sum over colorful connected k-sets of their spanning-tree
    # count in the co-occurrence projection.
    rng = random.Random(67)
    for _ in range(20):
        H = random_hypergraph(rng, n_max=8, m_max=7, size_max=4)
        k = rng.randint(2, 3)
        col = random_coloring(H, k, rng.random())
        cs = build_counters_naive(H, k, col)
        G = gaifman(H)
        full = (1 << k) - 1
        total = 0
        for U in connected_ksets(H, k):
            mask = 0
            for v in U:
                mask |= 1 << col.colors[v]
            if mask != full:
                continue
            pos = {v: i for i, v in enumerate(U)}
            pairs = [
                (pos[u], pos[v])
                for u in U
                for v in G.adj[u]
                if v in pos and pos[u] < pos[v]
            ]
            total += count_spanning_trees_brute(len(U), pairs)
        assert cs.W == k * total


def test_noncolorful_coloring_gives_zero_weight():
    H = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
    cs = build_counters_naive(H, 3, Coloring(3, [0, 0, 1]))
    assert cs.W == 0


def test_eta_rounds_are_retained(toy):
    col = rainbow(toy, 3)
    split = apply_split(toy, 3)
    cs = build_counters(toy, split, 3, col)
    held = [key for key, trip in cs.eta.items() if trip is not None]
    assert held
    for key in held:
        low, high, comb = cs.eta[key]
        assert len(low) == len(high) == len(comb) == toy.n
    # Skipped rounds are recorded as None, never silently dropped.
    assert all(trip is None for key, trip in cs.eta.items() if key not in held)


def test_counterset_accessors(toy):
    col = rainbow(toy, 3)
    split = apply_split(toy, 3)
    cs = build_counters(toy, split, 3, col)
    assert cs.split is split
    assert cs.split.lower_neighbors[1] == [0, 4]
    assert cs.split.upper_types[0] == (0,)
    assert cs.split.upper.edges[0] == (0, 1, 2, 4, 6)
    assert cs.split.upper_overlap(0, 2) == 1
    assert cs.split.upper_overlap(0, 3) == 0
    naive = build_counters_naive(toy, 3, col)
    assert naive.split.alpha == toy.rank
    assert naive.split.upper.m == 0
    assert naive.split.lower_neighbors[0] == [1, 2, 4, 6]
    assert naive.split.upper_types[0] == ()
    assert naive.split.upper_overlap(0, 2) == 0
    assert naive.tables_equal(cs) and cs.tables_equal(naive)


def test_tables_equal_detects_difference(toy):
    a = build_counters_naive(toy, 3, rainbow(toy, 3))
    b = build_counters_naive(toy, 3, Coloring(3, [(v + 1) % 3 for v in range(8)]))
    assert not a.tables_equal(b)


# --- table files ----------------------------------------------------------

def test_table_round_trip(tmp_path, toy):
    col = random_coloring(toy, 3, "file-seed")
    split = apply_split(toy, 3)
    cs = build_counters(toy, split, 3, col)
    path = tmp_path / "toy.hmt"
    write_table(cs, str(path))
    data = read_table(str(path))
    assert data["k"] == 3
    assert data["alpha"] == 3
    assert data["seed"] == "file-seed"
    assert data["colors"] == col.colors
    assert data["W"] == cs.W
    back = counterset_from_table(toy, data)
    assert back.tables_equal(cs)
    # Only held rounds are persisted; skipped (None) ones are implicit.
    kept = {key: trip for key, trip in cs.eta.items() if trip is not None}
    assert back.eta == kept
    assert back.split.alpha == 3


def test_naive_table_round_trip(tmp_path, toy):
    cs = build_counters_naive(toy, 3, random_coloring(toy, 3, "naive-file"))
    path = tmp_path / "naive.hmt"
    write_table(cs, str(path))
    data = read_table(str(path))
    assert data["alpha"] == toy.rank
    back = counterset_from_table(toy, data)
    assert back.tables_equal(cs)
    assert back.split.alpha == toy.rank and back.split.upper.m == 0
    assert back.eta == {key: trip for key, trip in cs.eta.items() if trip is not None}


def test_table_bytes_deterministic(tmp_path, toy):
    col = random_coloring(toy, 3, "det")
    cs = build_counters_naive(toy, 3, col)
    p1, p2 = tmp_path / "a.hmt", tmp_path / "b.hmt"
    write_table(cs, str(p1))
    write_table(cs, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_table_bad_files(tmp_path, toy):
    cs = build_counters_naive(toy, 3, random_coloring(toy, 3, "x"))
    path = tmp_path / "t.hmt"
    write_table(cs, str(path))
    raw = bytearray(path.read_bytes())

    bad_magic = tmp_path / "m.hmt"
    bad_magic.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(BuildError, match="not a counter table"):
        read_table(str(bad_magic))

    bad_version = bytearray(raw)
    bad_version[4] = 99
    bv = tmp_path / "v.hmt"
    bv.write_bytes(bytes(bad_version))
    with pytest.raises(BuildError, match="unsupported table version"):
        read_table(str(bv))

    # Naive table, seed "x": the alpha (= rank 5) and seed-length varints
    # sit at 6..7, the seed at 8 and n at 9, so the catalog digest occupies
    # bytes 10..41.
    bad_digest = bytearray(raw)
    bad_digest[15] ^= 0xFF
    bd = tmp_path / "d.hmt"
    bd.write_bytes(bytes(bad_digest))
    with pytest.raises(BuildError, match="different treelet catalog"):
        read_table(str(bd))

    # Cut inside the arrays, inside the header, and trailing garbage.
    for i, damaged in enumerate((raw[:-20], raw[:5], raw[:12], raw + b"\x00")):
        bt = tmp_path / ("t%d.hmt" % i)
        bt.write_bytes(bytes(damaged))
        with pytest.raises(BuildError, match="truncated or corrupt table file"):
            read_table(str(bt))


def test_table_wrong_host(tmp_path, toy):
    cs = build_counters_naive(toy, 3, random_coloring(toy, 3, "x"))
    path = tmp_path / "t.hmt"
    write_table(cs, str(path))
    other = Hypergraph(3, [(0, 1, 2)])
    with pytest.raises(BuildError, match="vertices"):
        counterset_from_table(other, read_table(str(path)))
