import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergraphlets import hypercore
from hypergraphlets.hypercore import (
    MAX_HEADER_VERTICES,
    Graph,
    Hypergraph,
    HypergraphError,
    Hypergraphlet,
    gaifman,
    induced_sub,
    masks_connected,
    parse_hypergraph,
    serialize_hypergraph,
)
from hypergraphlets.hardlab import reduce_clique_to_ksh
from hypergraphlets.synth import nice_hypergraph, power_law_hypergraph

from oracles import connected_on, gaifman_pairs, random_hypergraph, truncated_edge_masks

TOY_TEXT = "# vertices 8\n0 1\n1 4\n3 5 6\n0 1 2 4 6\n"


@pytest.fixture
def toy():
    return parse_hypergraph(TOY_TEXT)


def test_toy_stats(toy):
    assert toy.stats() == {
        "vertices": 8,
        "edges": 4,
        "rank": 5,
        "max_degree": 3,
        "size": 20,
    }
    assert toy.degree(1) == 3
    assert toy.degree(7) == 0
    assert toy.edges == [(0, 1), (1, 4), (3, 5, 6), (0, 1, 2, 4, 6)]


def test_hypergraph_validation():
    with pytest.raises(HypergraphError):
        Hypergraph(3, [()])
    with pytest.raises(HypergraphError):
        Hypergraph(3, [(0, 3)])
    with pytest.raises(HypergraphError):
        Hypergraph(-1, [])
    with pytest.raises(HypergraphError):
        Hypergraph(3, [(0, 0, 1)])


def test_gaifman_toy(toy):
    G = gaifman(toy)
    assert G.m == 13
    assert G.adj[0] == [1, 2, 4, 6]
    assert G.adj[7] == []
    assert {frozenset(p) for p in G.edge_list()} == {
        frozenset(p) for p in gaifman_pairs(toy)
    }


def test_gaifman_matches_pair_oracle():
    # Singleton edges, repeated edges (as --no-dedupe-edges keeps them) and
    # n = 0 all project to the pairs the double loop finds.
    rng = random.Random(21)
    cases = [Hypergraph(0, []), Hypergraph(3, [(1,), (0, 2), (2, 0), (1,)])]
    for _ in range(200):
        H = random_hypergraph(rng)
        cases.append(Hypergraph(H.n, H.edges + H.edges[::2]))
    for H in cases:
        G = gaifman(H)
        assert set(G.edge_list()) == gaifman_pairs(H)
        assert all(G.adj[v] == sorted(set(G.adj[v])) and v not in G.adj[v]
                   for v in range(H.n))


def test_graph_takes_hyperedges():
    G = Graph(5, [(0, 1, 2), (2, 3)])
    assert G.adj == [[1, 2], [0, 2], [0, 1, 3], [2], []]
    assert G == Graph(5, [(0, 1), (1, 2), (0, 2), (3, 2), (2, 2)])
    with pytest.raises(HypergraphError, match=r"graph edge \(-1, 2\) out of range"):
        Graph(5, [(-1, 2)])
    # Every tuple is range-checked, loops included.
    with pytest.raises(HypergraphError, match=r"graph edge \(5, 5\) out of range"):
        Graph(2, [(5, 5)])


def test_parse_header_verbatim_ids():
    # Numeric tokens under a header keep their ids; vertex 7 stays isolated.
    H = parse_hypergraph(TOY_TEXT)
    assert H.n == 8
    assert H.labels is None  # no string per vertex is built
    assert H.label_of(7) == "7"


def test_parse_labels_densify():
    H = parse_hypergraph("a b\nb c\n")
    assert H.n == 3
    assert H.edges == [(0, 1), (1, 2)]
    assert H.labels == ["a", "b", "c"]


def test_parse_header_with_labels():
    # Non-numeric tokens densify even under a header; extra slots are isolated.
    H = parse_hypergraph("# vertices 4\nx y\n")
    assert H.n == 4
    assert H.edges == [(0, 1)]
    assert H.labels == ["x", "y", "2", "3"]
    with pytest.raises(HypergraphError):
        parse_hypergraph("# vertices 1\nx y\n")


def test_parse_header_ids_are_what_int_accepts():
    # '²' is a digit but not a decimal, and int() refuses it: it is a
    # label, so the file's tokens densify.  '٣' is a decimal (Arabic-Indic
    # three), so it stays id 3 as int() reads it.
    H = parse_hypergraph("# vertices 3\n0 \u00b2\n")
    assert H.n == 3
    assert H.edges == [(0, 1)]
    assert H.labels == ["0", "\u00b2", "2"]
    H = parse_hypergraph("# vertices 4\n0 \u0663\n")
    assert H.labels is None
    assert H.edges == [(0, 3)]


def test_parse_comments_and_blank_lines():
    H = parse_hypergraph("% a comment\n\n0 1\n% another\n1 2\n", )
    assert H.n == 3
    assert H.m == 2


@pytest.mark.parametrize("blank", ["   ", "\t", " \t "])
def test_parse_skips_whitespace_only_lines(blank):
    # A line of spaces or tabs is skipped like an empty one.
    text = "# vertices 3\n0 1\n%s\n1 2\n" % blank
    assert parse_hypergraph(text) == parse_hypergraph("# vertices 3\n0 1\n\n1 2\n")
    assert parse_hypergraph(text).m == 2


def test_parse_error_line_numbers():
    # Skipped blank lines still count toward the line number.
    with pytest.raises(HypergraphError, match="line 3: duplicate vertex"):
        parse_hypergraph("0 1\n   \n1 2 1\n")
    with pytest.raises(HypergraphError, match="line 3"):
        parse_hypergraph("% c\n0 1\n0 1 0\n")
    with pytest.raises(HypergraphError, match="line 2: malformed header"):
        parse_hypergraph("0 1\n# vertices 5\n")
    with pytest.raises(HypergraphError, match="line 2: vertex id 9"):
        parse_hypergraph("# vertices 3\n9 1\n")


def _parse_peak(text):
    tracemalloc.start()
    try:
        H = parse_hypergraph(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return H, peak


@pytest.mark.parametrize("edge", ["0 1", "a b"], ids=["ids", "labels"])
def test_header_vertex_costs_one_slot(edge):
    # Untouched vertices share one empty incidence tuple and get no label
    # string, so 2 * 10^6 of them cost one 8-byte slot each (16 MB).
    n = 2 * 10 ** 6
    H, peak = _parse_peak("# vertices %d\n%s\n" % (n, edge))
    assert peak < 8 * n + (1 << 20)
    assert H.n == n and H.m == 1 and H.size == n + 2
    assert H.degree(1) == 1 and H.degree(n - 1) == 0
    assert H.label_of(0) == edge[0] and H.label_of(n - 1) == str(n - 1)


def test_header_above_the_cap_is_refused_before_any_allocation():
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError, match="more than %d" % MAX_HEADER_VERTICES):
            parse_hypergraph("# vertices %d\na b\n" % (MAX_HEADER_VERTICES + 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_vertex_cap_is_on_the_header_only(monkeypatch):
    # Counts that grow with their input load whatever the cap.
    monkeypatch.setattr(hypercore, "MAX_HEADER_VERTICES", 4)
    assert parse_hypergraph("# vertices 4\na b\n").labels == ["a", "b", "2", "3"]
    with pytest.raises(MemoryError):
        parse_hypergraph("# vertices 5\n0 1\n")
    assert parse_hypergraph("0 1\n2 3 4\n").n == 5
    assert Hypergraph(5, []).n == 5
    assert power_law_hypergraph(5, 1, "s").n == 5
    assert nice_hypergraph(5, 1, 3, 1, 4, 0.0, "s").n == 5
    assert reduce_clique_to_ksh(Graph(3, [(0, 1), (1, 2), (0, 2)]), 3).H.n == 12


def test_header_count_of_many_digits_is_malformed():
    # int() refuses 4300 digits and more; the header takes at most 20
    # after leading zeros.
    assert parse_hypergraph("# vertices %s5\n0 1\n" % ("0" * 5000)).n == 5
    with pytest.raises(HypergraphError, match="line 1: malformed header"):
        parse_hypergraph("# vertices %s\n0 1\n" % ("1" * 21))
    with pytest.raises(HypergraphError, match="line 1: malformed header"):
        parse_hypergraph("# vertices %s\n0 1\n" % ("9" * 5000))


def test_parse_dedupe_default_and_off():
    text = "0 1\n1 0\n1 2\n"
    assert parse_hypergraph(text).m == 2
    assert parse_hypergraph(text, dedupe_edges=False).m == 3


def test_serialize_round_trip(toy):
    again = parse_hypergraph(serialize_hypergraph(toy))
    assert again == toy
    assert serialize_hypergraph(again) == serialize_hypergraph(toy)


@pytest.mark.parametrize("text", [
    "5 9\n9 7 11\n",
    "3 1\n1 2\n0 4\n",
    "a b c\nc d\nd e f g\n",
    "# vertices 9\nb a\nc a\n",
    "# vertices 3\n0 \u00b2\n",
    "x %p\ny %p z\nq #r\nw #r %p\n",
    "",
], ids=["decimal", "decimal-zero", "labeled", "labeled-header", "superscript",
        "comment-marks", "empty"])
def test_serialize_round_trips_parsed_text(text):
    # Headerless all-decimal tokens are labels, not ids; labels that start
    # with '%' or '#' never lead a line.
    H = parse_hypergraph(text)
    again = parse_hypergraph(serialize_hypergraph(H))
    assert again == H and again.labels == H.labels


TOKENS = ["0", "1", "2", "7", "10", "\u0663", "a", "b", "%p", "#q"]


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.none(), st.integers(min_value=0, max_value=12)),
       st.lists(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=4, unique=True),
                max_size=6),
       st.booleans())
def test_property_parsed_text_round_trips(header, lines, dedupe):
    text = "".join(" ".join(line) + "\n" for line in lines)
    if header is not None:
        text = "# vertices %d\n" % header + text
    try:
        H = parse_hypergraph(text, dedupe_edges=dedupe)
    except HypergraphError:
        return
    again = parse_hypergraph(serialize_hypergraph(H), dedupe_edges=dedupe)
    assert again == H and again.labels == H.labels


def test_graph_basics():
    G = Graph(4, [(0, 1), (1, 2), (2, 0)])
    assert G.m == 3
    assert G.degree(1) == 2
    assert G.degree(3) == 0
    # Self-loops are dropped, out-of-range endpoints rejected.
    assert Graph(2, [(0, 0)]).m == 0
    with pytest.raises(HypergraphError):
        Graph(2, [(0, 5)])


def test_induced_sub_truncates_and_dedupes(toy):
    # U = {0,1,4}: edges 01, 14 survive whole; 01246 truncates to {0,1,4}.
    P = induced_sub(toy, [0, 1, 4])
    assert P.order == 3
    assert P.edges == (3, 6, 7)
    # 0-1 and the truncation of 0 1 2 4 6 to {0,1} collapse to one edge.
    Q = induced_sub(toy, [0, 1])
    assert Q.edges == (2, 3)


def test_induced_keeps_singletons(toy):
    P = induced_sub(toy, [2, 3])
    assert P.edges == (1, 2)


def test_subset_validation(toy):
    with pytest.raises(HypergraphError):
        induced_sub(toy, [])
    with pytest.raises(HypergraphError):
        induced_sub(toy, [0, 99])
    with pytest.raises(HypergraphError):
        induced_sub(toy, [-1])


def test_masks_connected_on_induced(toy):
    def connected(U):
        return masks_connected(induced_sub(toy, U).edges, (1 << len(U)) - 1)

    assert connected([0, 1, 4])
    assert connected([3, 5])
    assert not connected([0, 3])
    assert connected([7])
    # Two singleton truncations touch no other vertex.
    assert not connected([2, 3])


def test_hypergraphlet_validation():
    with pytest.raises(HypergraphError):
        Hypergraphlet(2, [4])
    with pytest.raises(HypergraphError):
        Hypergraphlet(2, [0])


def test_random_round_trips():
    rng = random.Random(7)
    for _ in range(50):
        H = random_hypergraph(rng)
        assert parse_hypergraph(serialize_hypergraph(H)) == H


def test_induced_matches_oracle_semantics():
    rng = random.Random(11)
    for _ in range(120):
        H = random_hypergraph(rng)
        k = rng.randint(1, min(4, H.n))
        U = sorted(rng.sample(range(H.n), k))
        P = induced_sub(H, U)
        assert set(P.edges) == truncated_edge_masks(H, U)


def test_gaifman_commutes_with_induced():
    # Gaif(H|U) equals the induced subgraph of Gaif(H) on U.
    rng = random.Random(13)
    for _ in range(80):
        H = random_hypergraph(rng)
        k = rng.randint(1, min(5, H.n))
        U = sorted(rng.sample(range(H.n), k))
        P = induced_sub(H, U)
        GP = gaifman(Hypergraph(P.order, [
            [i for i in range(P.order) if mask >> i & 1] for mask in P.edges]))
        G = gaifman(H)
        pos = {v: i for i, v in enumerate(U)}
        expected = set()
        for i, v in enumerate(U):
            for w in G.adj[v]:
                if w in pos and pos[w] > i:
                    expected.add((i, pos[w]))
        assert set(GP.edge_list()) == expected


@st.composite
def small_hypergraphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    m = draw(st.integers(min_value=0, max_value=6))
    edges = []
    for _ in range(m):
        size = draw(st.integers(min_value=1, max_value=n))
        edge = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        edges.append(tuple(sorted(edge)))
    if not edges:
        edges = [(0,)]
    return Hypergraph(n, sorted(set(edges)))


@settings(max_examples=60, deadline=None)
@given(small_hypergraphs())
def test_property_serialize_round_trip(H):
    assert parse_hypergraph(serialize_hypergraph(H)) == H


@settings(max_examples=60, deadline=None)
@given(small_hypergraphs(), st.randoms(use_true_random=False))
def test_property_connectivity_matches_gaifman(H, rng):
    k = rng.randint(1, H.n)
    U = sorted(rng.sample(range(H.n), k))
    full = (1 << len(U)) - 1
    assert masks_connected(induced_sub(H, U).edges, full) == connected_on(H, U)
