import hashlib
import random
import sys
import tracemalloc
from array import array

import pytest

from hypergraphlets import buildup
from hypergraphlets.buildup import (
    BuildError,
    Coloring,
    NWPlan,
    build_counters,
    build_counters_naive,
    combined_neighbor_weight,
    counterset_from_table,
    derived_rng,
    masks_of_size,
    nw_naive,
    packed_neighbor_weights,
    random_coloring,
    read_table,
    write_table,
)
from hypergraphlets.canonlab import connected_ksets
from hypergraphlets.hypercore import Hypergraph, gaifman, parse_hypergraph
from hypergraphlets.sampler import build_generators, sharded_estimate
from hypergraphlets.splitter import apply_split, curve_with_costs
from hypergraphlets.treelets import TreeletCatalog

from oracles import (
    bounded_degree_hypergraph,
    brute_rooted_colorful_treelets,
    candidate_alphas,
    count_spanning_trees_brute,
    nw_ie,
    random_hypergraph,
)

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


def test_build_refuses_a_coloring_that_does_not_fit(toy):
    split = apply_split(toy, 2)
    with pytest.raises(BuildError, match="coloring has 4 colors, build wants 3"):
        build_counters(toy, split, 3, rainbow(toy, 4))
    with pytest.raises(BuildError, match="coloring length does not match"):
        build_counters(toy, split, 3, Coloring(3, [0, 1, 2]))


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
        NWPlan(apply_split(H, 0), 20)
    plan = NWPlan(apply_split(H, 0), 21)
    assert combined_neighbor_weight(plan, [1] * 22)[0] == 21


def test_combined_neighbor_weight_toy(toy):
    split = apply_split(toy, 4)
    eta = combined_neighbor_weight(NWPlan(split), [1] * 8)
    assert eta == nw_naive(gaifman(toy), [1] * 8)
    # Vertex 1 is a lower and an upper neighbor of 0; it counts once.
    assert eta[0] == 4 and eta[7] == 0


def test_combined_neighbor_weight_random():
    rng = random.Random(53)
    for _ in range(120):
        H = random_hypergraph(rng, n_max=12, m_max=10, size_max=6)
        alpha = rng.choice(candidate_alphas(H))
        split = apply_split(H, alpha)
        w = [rng.randrange(-2, 6) for _ in range(H.n)]
        assert combined_neighbor_weight(NWPlan(split), w) == nw_naive(gaifman(H), w)
    # A few large edges over up to 40 vertices, split off as the upper part:
    # their types cut the vertices into a few groups of many members each,
    # and every member of a group takes the group's one shared sum.
    largest = 0
    for _ in range(40):
        n = rng.randint(12, 40)
        edges = {tuple(sorted(rng.sample(range(n), rng.randint(1, 3))))
                 for _ in range(rng.randint(0, 2 * n))}
        edges |= {tuple(sorted(rng.sample(range(n), rng.randint(n // 3, n))))
                  for _ in range(rng.randint(1, 4))}
        H = Hypergraph(n, sorted(edges))
        split = apply_split(H, 3)
        largest = max(largest, *map(len, split.upper_groups.values()))
        w = [rng.randrange(-2, 6) for _ in range(H.n)]
        assert combined_neighbor_weight(NWPlan(split), w) == nw_naive(gaifman(H), w)
    assert largest >= 10


def fields(flat, m):
    """Vector j's result is flat[j::m]: packed_neighbor_weights lays the
    round out as flat[v * m + j]."""
    assert len(flat) % m == 0
    return [list(flat[j::m]) for j in range(m)]


@pytest.mark.parametrize("alpha", [0, 2, 3, "naive"])
def test_packed_round_matches_per_s2_rounds(toy, alpha):
    # Alpha 0, 2 and 3 leave upper edges, whose inclusion-exclusion
    # subtracts inside the packed integers; naive has no upper part.
    split = apply_split(toy, toy.rank if alpha == "naive" else alpha)
    plan = NWPlan(split)
    cs = build_counters(toy, split, 4, random_coloring(toy, 4, "packed"))
    for t in cs.catalog.treelets:
        if t.order < 4:
            vectors = list(cs.tables[t.tid].values())
            assert fields(packed_neighbor_weights(plan, vectors), len(vectors)) == [
                combined_neighbor_weight(plan, w) for w in vectors]
    # One round over every T2 of one order, the way a build runs it.
    order3 = cs.catalog.of_order(3)
    assert len(order3) > 1
    vectors = [w for t in order3 for w in cs.tables[t.tid].values()]
    assert fields(packed_neighbor_weights(plan, vectors), len(vectors)) == [
        combined_neighbor_weight(plan, w) for w in vectors]


@pytest.mark.parametrize("top", [255, 2 ** 64 - 1, 2 ** 70])
def test_packed_round_at_field_widths(toy, top):
    # Fields are sized for the largest vector sum, not max: an eta of
    # 2 * 255 needs two bytes.  Past 2^64 the fields take the int.to_bytes
    # path.
    split = apply_split(toy, 2)
    assert split.upper.m
    plan = NWPlan(split)
    cs = build_counters(toy, split, 3, rainbow(toy, 3))
    leaf = cs.catalog.tid_of("()")
    vectors = [[x * (top - j) for x in w]
               for j, w in enumerate(cs.tables[leaf].values())]
    expect = [combined_neighbor_weight(plan, w) for w in vectors]
    assert max(map(max, expect)) > top
    assert fields(packed_neighbor_weights(plan, vectors), len(vectors)) == expect


@pytest.mark.parametrize("total, itemsize", [(255, 1), (65535, 2)])
@pytest.mark.parametrize("alpha", [0, 2, "naive"])
def test_packed_round_with_tight_fields(total, itemsize, alpha):
    # Vector 0's whole mass sits on the neighbors of vertex 0, so eta(0) is
    # its sum, and the field its sum sizes is exactly full.  At alpha 0 and
    # 2 vertex 0 lies in an upper edge, and inclusion-exclusion carries and
    # borrows through the full field on the way.
    H = Hypergraph(6, [(0, 1), (0, 2), (0, 3, 4), (3, 5)])
    split = apply_split(H, H.rank if alpha == "naive" else alpha)
    plan = NWPlan(split)
    third = total // 3
    vectors = [[0, third, third, total - 2 * third, 0, 0],
               [0, 0, 0, total, 0, 0],
               [1, 0, 1, 0, 1, 0]]
    expect = [combined_neighbor_weight(plan, w) for w in vectors]
    assert expect[0][0] == expect[1][0] == total == max(map(sum, vectors))
    flat = packed_neighbor_weights(plan, vectors)
    assert flat.itemsize == itemsize
    assert fields(flat, len(vectors)) == expect


def test_packed_round_allocates_no_list_per_field():
    # n = 2000 vertices, m = 100 one-byte fields.  The round's own
    # allocations, its output included, stay below 6 bytes per field: a
    # list with one 8-byte slot per field would break the bound by itself.
    n, m, per_field = 2000, 100, 6
    rng = random.Random(83)
    edges = [(v, v + 1) for v in range(n - 1)]
    edges += [tuple(range(v, v + 5)) for v in range(0, n - 5, 50)]
    plan = NWPlan(apply_split(Hypergraph(n, edges), 2))
    vectors = []
    for _ in range(m):
        w = [0] * n
        for v in rng.sample(range(n), 120):
            w[v] = rng.randint(1, 2)
        vectors.append(w)
    assert max(map(sum, vectors)) < 256
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        flat = packed_neighbor_weights(plan, vectors)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert flat.itemsize == 1
    assert peak < per_field * n * m
    for j in (0, 37, m - 1):
        assert list(flat[j::m]) == combined_neighbor_weight(plan, vectors[j])


@pytest.mark.parametrize("alpha", [0, 2, "naive"])
def test_packed_round_mixes_lanes_and_wide_values(toy, alpha, monkeypatch):
    # One vector holds a value from 2^64 up and goes through int.to_bytes;
    # the small vectors around it still go through their 8-byte lanes, into
    # fields as wide as the big vector's sum needs.
    split = apply_split(toy, toy.rank if alpha == "naive" else alpha)
    plan = NWPlan(split)
    vectors = [[v % 3 for v in range(8)],
               [0, 2 ** 70, 0, 5, 2 ** 64, 0, 1, 0],
               [1] * 8,
               [0, 0, 255, 0, 0, 0, 0, 65535]]
    lanes, refused = buildup._lanes, []

    def spy(values):
        try:
            return lanes(values)
        except OverflowError:
            refused.append(values)
            raise

    monkeypatch.setattr(buildup, "_lanes", spy)
    flat = packed_neighbor_weights(plan, vectors)
    assert refused == [vectors[1]]
    assert type(flat) is list
    assert fields(flat, len(vectors)) == [
        combined_neighbor_weight(plan, w) for w in vectors]


def test_one_neighbor_weight_round_per_t2_order(toy, monkeypatch):
    calls = []
    per_s2 = buildup.combined_neighbor_weight

    def counted(plan, w):
        calls.append(w)
        return per_s2(plan, w)

    monkeypatch.setattr(buildup, "combined_neighbor_weight", counted)
    cs = build_counters(toy, apply_split(toy, 2), 4, rainbow(toy, 4))
    glued = {t.t2 for t in cs.catalog.treelets if t.order > 1}
    live = {cs.catalog[t2].order for t2 in glued
            if any(map(any, cs.tables[t2].values()))}
    assert len(live) == 3 and len(calls) == len(live)


def test_wide_fields_through_the_whole_build(tmp_path, toy, monkeypatch):
    # No real build needs fields past 8 bytes.  With no array typecodes and
    # 8-byte lanes refused, as for values from 2^64 up, eta and the .hmt
    # arrays take the int.to_bytes path and its list form.
    rng = random.Random(71)
    cases = [(toy, apply_split(toy, toy.rank if alpha == "naive" else alpha), 4,
              random_coloring(toy, 4, "wide")) for alpha in (0, 2, "naive")]
    for _ in range(6):
        H = random_hypergraph(rng, n_max=12, m_max=10, size_max=6)
        k = rng.randint(2, 4)
        cases.append((H, apply_split(H, rng.choice(candidate_alphas(H))), k,
                      random_coloring(H, k, rng.random())))
    refs = [build_counters(*case) for case in cases]
    write_table(refs[0], tmp_path / "narrow.hmt")
    rounds = []
    packed = buildup.packed_neighbor_weights

    def spy(plan, vectors):
        rounds.append(packed(plan, vectors))
        return rounds[-1]

    monkeypatch.setattr(buildup, "packed_neighbor_weights", spy)
    refused = []

    def refuse(values):
        refused.append(len(values))
        raise OverflowError

    monkeypatch.setattr(buildup, "_TYPECODES", {})
    monkeypatch.setattr(buildup, "_lanes", refuse)
    for case, ref in zip(cases, refs):
        assert build_counters(*case).tables_equal(ref)
    assert rounds and all(type(flat) is list for flat in rounds)
    assert len(refused) >= len(rounds)
    del refused[:]
    write_table(refs[0], tmp_path / "wide.hmt")
    assert len(refused) >= sum(map(len, refs[0].tables))
    assert (tmp_path / "wide.hmt").read_bytes() == (tmp_path / "narrow.hmt").read_bytes()
    assert read_table(tmp_path / "wide.hmt")["tables"] == refs[0].tables


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
        assert tuple(sorted(cs.tables[t.tid])) == masks_of_size(3, t.order)


def test_masks_of_size():
    assert masks_of_size(4, 1) == (1, 2, 4, 8)
    assert masks_of_size(4, 4) == (15,)
    assert masks_of_size(3, 2) == (3, 5, 6)
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


def test_counterset_accessors(toy):
    col = rainbow(toy, 3)
    split = apply_split(toy, 3)
    cs = build_counters(toy, split, 3, col)
    assert cs.split is split
    naive = build_counters_naive(toy, 3, col)
    assert naive.split.alpha == toy.rank
    assert naive.split.upper.m == 0
    assert naive.split.lower_only.adj[0] == [1, 2, 4, 6]
    assert naive.split.upper_types[0] == ()
    assert naive.split.upper_groups == {}
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
    assert data["cap"] == 20
    back = counterset_from_table(toy, data)
    assert back.tables_equal(cs)
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


def test_table_round_trip_recomputes_eta_on_the_curve(tmp_path):
    # The file holds the tables and the cap, not eta, at every alpha.
    rng = random.Random(71)
    path = tmp_path / "c.hmt"
    for i in range(12):
        H = bounded_degree_hypergraph(rng, rng.randint(4, 14), rng.randint(2, 10), 6, 5)
        k = rng.randint(2, 4)
        col = random_coloring(H, k, "corpus-%d" % i)
        for alpha, beta, *_ in curve_with_costs(H):
            cap = beta + rng.randrange(3)
            cs = build_counters(H, apply_split(H, alpha), k, col, cap=cap)
            write_table(cs, str(path))
            data = read_table(str(path))
            assert "eta" not in data and data["cap"] == cap
            back = counterset_from_table(H, data)
            assert back.tables_equal(cs)
            assert back.split.alpha == alpha and back.cap == cap


def test_loading_a_table_runs_no_neighbor_weight_round(tmp_path, toy, monkeypatch):
    # Sampling reads only the tables and the split, so a loaded table
    # samples exactly as its in-memory build without computing any eta.
    built = []
    for alpha in (0, 2):
        cs = build_counters(toy, apply_split(toy, alpha), 3, rainbow(toy, 3))
        path = tmp_path / ("a%d.hmt" % alpha)
        write_table(cs, str(path))
        built.append((path, sharded_estimate(build_generators(cs), 400, "s", 0)))

    def no_round(*_args):
        raise AssertionError("loading ran a neighbor-weight round")

    monkeypatch.setattr(buildup, "combined_neighbor_weight", no_round)
    monkeypatch.setattr(buildup, "NWPlan", no_round)
    for path, rows in built:
        back = counterset_from_table(toy, read_table(str(path)))
        assert rows and sharded_estimate(build_generators(back), 400, "s", 0) == rows


def test_table_values_past_64_bits(tmp_path, toy):
    cs = build_counters_naive(toy, 3, random_coloring(toy, 3, "wide"))
    small, wide = tmp_path / "s.hmt", tmp_path / "w.hmt"
    write_table(cs, str(small))
    tid = cs.catalog.tid_of("((()))")
    big = [2 ** 64 - 1, 2 ** 64, 2 ** 100 + 7, 0, 1, 3, 5, 2 ** 63]
    assert max(cs.tables[tid][7]) < 256
    cs.tables[tid][7] = big
    write_table(cs, str(wide))
    # That one array goes from 1 to 13 bytes per value (2^100 needs 101
    # bits); every other array keeps its width.
    assert wide.stat().st_size - small.stat().st_size == 12 * toy.n
    data = read_table(str(wide))
    assert data["tables"][tid][7] == big
    assert data["tables"] == cs.tables


# Each boundary value with the width the old rule gave it: the narrowest
# array width that holds the maximum, or its byte count from 2^64 up.
PACK_BOUNDARIES = [(0, 1), (255, 1), (256, 2), (65535, 2), (65536, 4),
                   (2 ** 32 - 1, 4), (2 ** 32, 8), (2 ** 64 - 1, 8), (2 ** 64, 9)]


def old_pack(values):
    """The .hmt array encoding as it was first written: the width from a
    max, the bytes from the array typecode of that width."""
    width = buildup._width(max(values, default=0))
    if width in buildup._TYPECODES:
        arr = array(buildup._TYPECODES[width], values)
        if sys.byteorder == "big":
            arr.byteswap()
        body = arr.tobytes()
    else:
        body = b"".join(x.to_bytes(width, "little") for x in values)
    return width, buildup._varint(width) + body


@pytest.mark.parametrize("top, width", PACK_BOUNDARIES + [(None, 1)])
def test_pack_at_width_boundaries(top, width):
    below = [x for x, _w in PACK_BOUNDARIES if top is not None and x < top]
    cases = [[]] if top is None else [[top], [top, 0], below + [top], [top] + below[::-1]]
    for values in cases:
        packed = buildup._pack(values)
        assert old_pack(values) == (width, packed)
        # _unpack reads n values and stops where the next array starts.
        assert buildup._unpack(packed + b"next", 0, len(values)) == (values, len(packed))


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

    # Naive table, seed "x": the alpha (= rank 5), cap (20) and seed-length
    # varints sit at 6..8, the seed at 9 and n at 10, so the catalog digest
    # occupies bytes 11..42 and the host digest bytes 43..74.
    # The trailer is recomputed: a file written under another catalog would
    # carry a valid one, and the digest check is what must refuse it.
    bad_digest = bytearray(raw)
    bad_digest[15] ^= 0xFF
    bad_digest[-32:] = hashlib.sha256(bad_digest[:-32]).digest()
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


def test_sha256_is_the_standard_digest():
    # buildup hashes with the interpreter's built-in SHA-256 where there is
    # one; it must agree with hashlib on every input kind read_table passes.
    data = bytes(range(256)) * 40
    for value in (data, bytearray(data), memoryview(data)[7:-32], b""):
        assert buildup.sha256(value).digest() == hashlib.sha256(value).digest()
    split = buildup.sha256(data[:6])
    split.update(memoryview(data)[6:])
    assert split.digest() == hashlib.sha256(data).digest()


class ReadSizes:
    """open() whose files record the size of every read() they are asked for."""

    def __init__(self):
        self.sizes = []

    def __call__(self, path, mode):
        fh = open(path, mode)
        real_read = fh.read

        def read(size=-1):
            self.sizes.append(size)
            return real_read(size)

        fh.read = read
        return fh


def test_read_table_reads_only_the_head_of_a_bad_file(tmp_path, toy, monkeypatch):
    # Magic, version and k are refused on the first 6 bytes: a bad file
    # is never read to its end, however long (or endless) it is.
    cs = build_counters_naive(toy, 3, random_coloring(toy, 3, "x"))
    path = tmp_path / "t.hmt"
    write_table(cs, str(path))
    raw = path.read_bytes()
    opener = ReadSizes()
    monkeypatch.setattr(buildup, "open", opener, raising=False)
    assert read_table(str(path))["n"] == toy.n
    assert opener.sizes == [6, -1]
    for head, message in [(b"\0" * 6, "not a counter table"),
                          (raw[:4] + b"\x63" + raw[5:6], "unsupported table version"),
                          (raw[:5] + b"\x09", "treelet order 9"),
                          (raw[:5] + b"\x00", "treelet order 0"),
                          (raw[:5], "truncated or corrupt")]:
        path.write_bytes(head + raw[6:] if len(head) == 6 else head)
        opener.sizes.clear()
        with pytest.raises(BuildError, match=message):
            read_table(str(path))
        assert opener.sizes == [6]


def test_every_damaged_byte_is_refused(tmp_path, toy):
    # The table of `build toy.hg -k 3 --seed s3 --alpha 2`.  Flipping the low
    # bit of any one byte, header, arrays or trailer, must not load.
    cs = build_counters(toy, apply_split(toy, 2), 3, random_coloring(toy, 3, "s3|run0"))
    path = tmp_path / "t.hmt"
    write_table(cs, str(path))
    raw = path.read_bytes()
    loaded = []
    for i in range(len(raw)):
        damaged = bytearray(raw)
        damaged[i] ^= 1
        path.write_bytes(bytes(damaged))
        try:
            counterset_from_table(toy, read_table(str(path)))
        except BuildError:
            continue
        loaded.append(i)
    assert loaded == []


def test_table_wrong_host(tmp_path, toy):
    cs = build_counters_naive(toy, 3, random_coloring(toy, 3, "x"))
    path = tmp_path / "t.hmt"
    write_table(cs, str(path))
    other = Hypergraph(3, [(0, 1, 2)])
    with pytest.raises(BuildError, match="vertices"):
        counterset_from_table(other, read_table(str(path)))
    # Same vertex count, two more edges: the host digest tells them apart.
    grown = Hypergraph(toy.n, list(toy.edges) + [(2, 3), (5, 7)])
    with pytest.raises(BuildError, match="different hypergraph"):
        counterset_from_table(grown, read_table(str(path)))
