import os
import random
import subprocess
import sys
import zlib
from array import array
from base64 import b64decode, b64encode
from itertools import combinations, permutations
from pathlib import Path

import pytest

from hypergraphlets import canonlab, cli, order4keys
from hypergraphlets.buildup import Coloring
from hypergraphlets.canonlab import (
    BudgetExceeded,
    canonical_key,
    connected_ksets,
    enumeration_budget,
    exact_counts,
    key_from_text,
    key_to_hypergraphlet,
    key_to_text,
)
from hypergraphlets.hypercore import (
    Hypergraph,
    HypergraphError,
    Hypergraphlet,
    induced_sub,
    parse_hypergraph,
)

from oracles import (
    brute_canonical_key,
    brute_rooted_colorful_treelets,
    brute_spanning_trees,
    exact_colorful_counts,
    naive_connected_ksets,
    random_hypergraph,
)

TOY_TEXT = "# vertices 8\n0 1\n1 4\n3 5 6\n0 1 2 4 6\n"


@pytest.fixture
def toy():
    return parse_hypergraph(TOY_TEXT)


def test_connected_ksets_toy(toy):
    pairs = list(connected_ksets(toy, 2))
    assert len(pairs) == 13
    assert len(set(pairs)) == 13
    assert all(u < v for u, v in pairs)
    assert len(list(connected_ksets(toy, 3))) == 19
    assert list(connected_ksets(toy, 1)) == [(v,) for v in range(8)]
    with pytest.raises(HypergraphError):
        list(connected_ksets(toy, 0))


def test_connected_ksets_matches_naive_filter():
    rng = random.Random(71)
    for _ in range(60):
        H = random_hypergraph(rng, n_max=10, m_max=8, size_max=5)
        for k in range(1, 5):
            mine = sorted(connected_ksets(H, k))
            assert mine == sorted(naive_connected_ksets(H, k))
            assert len(set(mine)) == len(mine)


def test_budget(monkeypatch, toy):
    monkeypatch.setenv("HM_BUDGET", "3")
    with pytest.raises(BudgetExceeded):
        list(connected_ksets(toy, 2))


def test_budget_env_override(monkeypatch, toy):
    monkeypatch.setenv("HM_BUDGET", "3")
    assert enumeration_budget() == 3
    with pytest.raises(BudgetExceeded):
        exact_counts(toy, 2)
    monkeypatch.delenv("HM_BUDGET")
    assert enumeration_budget() == 10 ** 7


def test_exact_counts_toy_frozen(toy):
    assert exact_counts(toy, 2) == {
        (2, (1, 3)): 8,
        (2, (1, 2, 3)): 4,
        (2, (3,)): 1,
    }
    k3 = exact_counts(toy, 3)
    assert sum(k3.values()) == 19
    assert k3[(3, (1, 3, 6))] == 6
    assert k3[(3, (1, 2, 4, 7))] == 1
    assert k3[(3, (3, 5, 7))] == 1
    assert len(k3) == 8


def test_exact_colorful_counts_restricts(toy):
    col = Coloring(2, [v % 2 for v in range(8)])
    full = exact_counts(toy, 2)
    colorful = exact_colorful_counts(toy, col, 2)
    assert sum(colorful.values()) <= sum(full.values())
    assert all(key in full for key in colorful)
    # A one-color coloring admits no colorful pair.
    assert exact_colorful_counts(toy, Coloring(2, [0] * 8), 2) == {}


def test_exact_colorful_counts_refuses_large_k_up_front(toy):
    # toy has 8 vertices, so no 9-set would ever reach canonical_key.
    with pytest.raises(HypergraphError, match="order <= 8"):
        exact_colorful_counts(toy, Coloring(9, range(8)), 9)


def _relabeled(P, perm):
    """P with local vertex i renamed perm[i]."""
    return Hypergraphlet(P.order, [
        sum(1 << perm[i] for i in range(P.order) if mask >> i & 1)
        for mask in P.edges
    ])


def _every_edge_set(order):
    masks = range(1, 1 << order)
    for chosen in range(1 << len(masks)):
        yield Hypergraphlet(order, [m for i, m in enumerate(masks) if chosen >> i & 1])


def _from_vertex_sets(order, sets):
    return Hypergraphlet(order, [sum(1 << v for v in e) for e in sets])


def test_canonical_key_relabel_invariance():
    rng = random.Random(73)
    for _ in range(80):
        H = random_hypergraph(rng, n_max=9, m_max=7, size_max=5)
        k = rng.randint(1, min(5, H.n))
        U = sorted(rng.sample(range(H.n), k))
        P = induced_sub(H, U)
        key = canonical_key(P)
        perm = list(range(P.order))
        rng.shuffle(perm)
        assert canonical_key(_relabeled(P, perm)) == key


def test_canonical_key_is_minimum_over_permutations():
    P = Hypergraphlet(3, [3, 6, 5])
    key = canonical_key(P)
    all_images = []
    for perm in permutations(range(3)):
        imgs = tuple(
            sorted(
                sum(1 << perm[i] for i in range(3) if mask >> i & 1)
                for mask in P.edges
            )
        )
        all_images.append(imgs)
    assert key == (3, min(all_images))


def test_canonical_key_matches_brute_on_every_edge_set_up_to_order_3():
    for order in range(1, 4):
        for P in _every_edge_set(order):
            assert canonical_key(P) == brute_canonical_key(P)


def test_canonical_key_matches_brute_on_every_order_4_edge_set():
    # Relabelings share one brute-force key, so the oracle runs once per
    # isomorphism class and canonical_key still sees all 2**15 edge sets.
    checked = set()
    for P in _every_edge_set(4):
        if P.edges in checked:
            continue
        key = brute_canonical_key(P)
        for perm in permutations(range(4)):
            Q = _relabeled(P, perm)
            checked.add(Q.edges)
            assert canonical_key(Q) == key
    assert len(checked) == 1 << 15


def test_order_4_table_is_the_search_answer_on_every_edge_set():
    # Rebuilds the table from the search.  On a mismatch the fresh literal
    # is printed: paste it into order4keys._DATA to regenerate the table.
    fresh = array("H", bytes(2 << 15))
    for i in range(1 << 15):
        edges = tuple([m for m in range(1, 16) if i >> (m - 1) & 1])
        for mask in canonlab._min_relabeling(4, edges):
            fresh[i] |= 1 << (mask - 1)
    if sys.byteorder == "big":
        fresh.byteswap()
    data = fresh.tobytes()
    if zlib.decompress(b64decode(order4keys._DATA)) != data:
        print(b64encode(zlib.compress(data, 9)).decode())
        pytest.fail("order4keys._DATA differs from the search; fresh literal printed")


def _counts():
    return {name: getattr(canonlab, name) for name in
            ("front_hits", "shape_hits", "copies", "searches", "table_reads")}


def _deltas(before):
    return {name: value - before[name] for name, value in _counts().items()}


def test_key_counters_match_the_work_done(monkeypatch):
    monkeypatch.setattr(canonlab, "_KEY_CACHE", {})
    monkeypatch.setattr(canonlab, "_LABELED_KEYS", {})
    rng = random.Random(83)
    shapes = [P for P, _perm in _random_cases()] + list(_every_edge_set(3))
    shapes += rng.sample(list(_every_edge_set(4)), 200)
    before = _counts()
    calls = 0
    for _ in range(2):
        for P in shapes:
            perm = list(range(P.order))
            rng.shuffle(perm)
            for Q in (P, _relabeled(P, perm)):
                canonical_key(Q)
                calls += 1
    done = _deltas(before)
    # Every key is a front-cache hit, a profile copy or a table read, and
    # every copy that misses the shape cache makes one search.
    assert done["front_hits"] + done["copies"] + done["table_reads"] == calls
    assert done["searches"] == done["copies"] - done["shape_hits"]
    assert done["table_reads"] == 2 * 2 * 200
    assert done["front_hits"] and done["shape_hits"] and done["searches"]


def test_order_4_keys_make_no_search_and_no_copy():
    before = _counts()
    for P in _every_edge_set(4):
        canonical_key(P)
    assert _deltas(before) == {"front_hits": 0, "shape_hits": 0, "copies": 0,
                               "searches": 0, "table_reads": 1 << 15}


RING_TEXT = ("# vertices 10\n0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 8\n8 9\n9 0\n"
             "0 2 4\n1 5 7 9\n3 6 8\n")


def test_seeded_count_k4_reads_the_table_once_per_sample(tmp_path, capsys):
    path = tmp_path / "ring.hg"
    path.write_text(RING_TEXT)
    before = canonlab.table_reads
    assert cli.main(["count", str(path), "-k", "4", "--samples", "300", "--seed", "t4"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert sum(int(row.split(",")[1]) for row in rows) == 300
    assert canonlab.table_reads - before == 300


def test_order_4_table_is_imported_on_the_first_order_4_key_only():
    code = ("import sys; import hypergraphlets.cli; "
            "from hypergraphlets.canonlab import canonical_key; "
            "from hypergraphlets.hypercore import Hypergraphlet; "
            "canonical_key(Hypergraphlet(6, [3, 12, 48, 63])); "
            "assert 'hypergraphlets.order4keys' not in sys.modules; "
            "assert canonical_key(Hypergraphlet(4, [12])) == (4, (3,)); "
            "assert 'hypergraphlets.order4keys' in sys.modules")
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr


# An order-6 copy that seeded powerlaw-k6 runs search, among the slowest: six
# singletons, so every vertex is a singleton vertex.
SLOW_ORDER_6 = (1, 2, 4, 8, 10, 16, 20, 32, 33, 56)


def _random_cases():
    """Seeded edge sets of order 5 to 8, each with a random relabeling.

    The second batch puts singletons on a random subset of the vertices,
    and every other set of it holds the full edge: the key search sets both
    aside, and the singleton vertices must take the first positions.
    """
    rng = random.Random(79)
    for order, cases in ((5, 60), (6, 30), (7, 8), (8, 2)):
        for _ in range(cases):
            sets = [
                rng.sample(range(order), rng.choice((2, 2, 3, rng.randint(1, order))))
                for _ in range(rng.randint(1, 2 * order))
            ]
            perm = list(range(order))
            rng.shuffle(perm)
            yield _from_vertex_sets(order, sets), perm
    for order, cases in ((5, 40), (6, 20), (7, 6), (8, 2)):
        for i in range(cases):
            sets = [
                rng.sample(range(order), rng.choice((2, 2, 3, rng.randint(2, order))))
                for _ in range(rng.randint(1, order))
            ]
            sets += [(v,) for v in range(order) if rng.random() < 0.5]
            if i % 2:
                sets.append(range(order))
            perm = list(range(order))
            rng.shuffle(perm)
            yield _from_vertex_sets(order, sets), perm
    perm = list(range(6))
    rng.shuffle(perm)
    yield Hypergraphlet(6, SLOW_ORDER_6), perm


def test_canonical_key_matches_brute_on_random_orders_5_to_8():
    for P, perm in _random_cases():
        key = brute_canonical_key(P)
        assert canonical_key(P) == key
        assert canonical_key(_relabeled(P, perm)) == key


@pytest.mark.parametrize("sets", [
    list(combinations(range(8), 2)),  # K8
    list(combinations(range(8), 3)),  # complete 3-uniform on 8 vertices
    [(i, (i + 1) % 8) for i in range(8)],  # C8
    [(a, a | 1 << b) for a in range(8) for b in range(3) if not a >> b & 1],  # cube
    [(a, b) for a in range(4) for b in range(4, 8)],  # K4,4
], ids=["K8", "K3-8", "C8", "cube", "K4-4"])
def test_canonical_key_matches_brute_on_symmetric_order_8(sets):
    P = _from_vertex_sets(8, sets)
    assert canonical_key(P) == brute_canonical_key(P)


def test_key_cache_is_emptied_at_its_cap(monkeypatch):
    monkeypatch.setattr(canonlab, "_KEY_CACHE", {})
    monkeypatch.setattr(canonlab, "_LABELED_KEYS", {})
    monkeypatch.setattr(canonlab, "KEY_CACHE_CAP", 5)
    reached = emptied = 0
    for P in _every_edge_set(3):
        before = len(canonlab._KEY_CACHE)
        assert canonical_key(P) == brute_canonical_key(P)
        after = len(canonlab._KEY_CACHE)
        assert after <= 5
        reached += after == 5
        emptied += after < before
    assert reached and emptied


def test_profile_ordered_copy_keeps_the_key():
    for order in range(1, 5):
        # The brute-force key of every edge set, one search per class.
        brute = {}
        for P in _every_edge_set(order):
            if P.edges not in brute:
                key = brute_canonical_key(P)
                for perm in permutations(range(order)):
                    brute[_relabeled(P, perm).edges] = key
        for edges, key in brute.items():
            assert brute[canonlab._profile_ordered(order, edges)] == key
    for P, _perm in _random_cases():
        copy = Hypergraphlet(P.order, canonlab._profile_ordered(P.order, P.edges))
        assert brute_canonical_key(copy) == brute_canonical_key(P)


def test_relabelings_of_one_shape_share_one_cache_entry(monkeypatch):
    # Edges {0..4}, {0..3}, {0,1,2}, {0,1} and {0}: the five vertices lie in
    # edges of different size multisets, so every relabeling maps to one copy.
    monkeypatch.setattr(canonlab, "_KEY_CACHE", {})
    monkeypatch.setattr(canonlab, "_LABELED_KEYS", {})
    P = _from_vertex_sets(5, [(0, 1, 2, 3, 4), (0, 1, 2, 3), (0, 1, 2), (0, 1), (0,)])
    key = brute_canonical_key(P)
    for perm in permutations(range(5)):
        assert canonical_key(_relabeled(P, perm)) == key
    assert len(canonlab._KEY_CACHE) == 1


def test_repeated_labeled_edge_set_skips_the_copy_and_both_caches_stay_capped(monkeypatch):
    monkeypatch.setattr(canonlab, "_KEY_CACHE", {})
    monkeypatch.setattr(canonlab, "_LABELED_KEYS", {})
    monkeypatch.setattr(canonlab, "KEY_CACHE_CAP", 5)
    profile_ordered = canonlab._profile_ordered
    key = canonical_key(Hypergraphlet(3, [3, 6]))

    def no_copy(kp, edges):
        raise AssertionError("a labeled repeat made a profile-ordered copy")

    monkeypatch.setattr(canonlab, "_profile_ordered", no_copy)
    assert canonical_key(Hypergraphlet(3, [3, 6])) == key
    assert len(canonlab._KEY_CACHE) == 1
    monkeypatch.setattr(canonlab, "_profile_ordered", profile_ordered)
    for _ in range(2):
        for P in _every_edge_set(3):
            assert canonical_key(P) == brute_canonical_key(P)
            assert len(canonlab._KEY_CACHE) <= 5
            assert len(canonlab._LABELED_KEYS) <= 5


def _swaps_onto_itself(P, u, v):
    both = 1 << u | 1 << v
    swapped = {m ^ both if bin(m & both).count("1") == 1 else m for m in P.edges}
    return swapped == set(P.edges)


def test_swap_classes_are_the_swaps_that_keep_the_edge_set():
    for order in range(1, 5):
        for P in _every_edge_set(order):
            classes = canonlab._swap_classes(order, P.edges)
            # The classes partition the vertices.
            assert sorted(v for cls in classes for v in range(order) if cls >> v & 1) \
                == list(range(order))
            of = {v: cls for cls in classes for v in range(order) if cls >> v & 1}
            for u, v in combinations(range(order), 2):
                assert (of[u] == of[v]) == _swaps_onto_itself(P, u, v)


def test_swap_classes_of_singletons_plus_full_edge_and_of_a_path():
    star = _from_vertex_sets(6, [(v,) for v in range(6)] + [tuple(range(6))])
    assert canonlab._swap_classes(6, star.edges) == [0b111111]
    path = _from_vertex_sets(3, [(0, 1), (1, 2)])
    assert canonlab._swap_classes(3, path.edges) == [0b101, 0b010]


def test_canonical_key_separates_shapes():
    path = Hypergraphlet(3, [3, 6])
    star_plus = Hypergraphlet(3, [3, 6, 5])
    assert canonical_key(path) != canonical_key(star_plus)
    assert canonical_key(Hypergraphlet(1, [1])) == (1, (1,))


def test_canonical_key_order_cap():
    with pytest.raises(HypergraphError, match="order <= 8"):
        canonical_key(Hypergraphlet(9, [1]))


def test_key_text_round_trip(toy):
    for key in exact_counts(toy, 3):
        text = key_to_text(key)
        assert "," not in text
        assert key_from_text(text) == key
        Q = key_to_hypergraphlet(key)
        assert canonical_key(Q) == key
    assert key_to_text((2, (1, 3))) == "2:1-3"
    assert key_from_text("2:1-3") == (2, (1, 3))
    assert key_from_text("1:") == (1, ())
    assert key_to_text((3, (10, 15))) == "3:a-f"


def test_brute_spanning_trees_frozen():
    tri = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    assert brute_spanning_trees(tri) == 3
    k4 = [[int(i != j) for j in range(4)] for i in range(4)]
    assert brute_spanning_trees(k4) == 16
    path = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    assert brute_spanning_trees(path) == 1
    disconnected = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
    assert brute_spanning_trees(disconnected) == 0
    assert brute_spanning_trees([[0]]) == 1
    with pytest.raises(HypergraphError):
        brute_spanning_trees([[0] * 9 for _ in range(9)])


def test_brute_rooted_treelets_triangle():
    H = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
    col = Coloring(3, [0, 1, 2])
    assert brute_rooted_colorful_treelets(H, col, "((()))", 7, 0) == 2
    assert brute_rooted_colorful_treelets(H, col, "(()())", 7, 0) == 1
    # Root color outside S contributes nothing.
    assert brute_rooted_colorful_treelets(H, col, "(())", 6, 0) == 0
    assert brute_rooted_colorful_treelets(H, col, "(())", 3, 0) == 1
    with pytest.raises(HypergraphError, match=r"\|S\|"):
        brute_rooted_colorful_treelets(H, col, "(())", 7, 0)


def test_brute_rooted_treelets_size_cap():
    H = Hypergraph(13, [(0, 1)])
    col = Coloring(2, [v % 2 for v in range(13)])
    with pytest.raises(HypergraphError, match="n <= 12"):
        brute_rooted_colorful_treelets(H, col, "(())", 3, 0)
