import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergraphlets.hypercore import (
    Graph,
    Hypergraph,
    HypergraphError,
    Hypergraphlet,
    gaifman,
    graph_is_connected,
    induced_sub,
    is_connected_induced,
    parse_hypergraph,
    parse_hypergraphlet,
    section_sub,
    serialize_hypergraph,
    serialize_hypergraphlet,
)

from oracles import gaifman_pairs, random_hypergraph, truncated_edge_masks

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


def test_parse_header_verbatim_ids():
    # Numeric tokens under a header keep their ids; vertex 7 stays isolated.
    H = parse_hypergraph(TOY_TEXT)
    assert H.n == 8
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


def test_parse_comments_and_blank_lines():
    H = parse_hypergraph("% a comment\n\n0 1\n% another\n1 2\n", )
    assert H.n == 3
    assert H.m == 2


def test_parse_error_line_numbers():
    with pytest.raises(HypergraphError, match="line 2"):
        parse_hypergraph("0 1\n   \n1 2\n")
    with pytest.raises(HypergraphError, match="line 3"):
        parse_hypergraph("% c\n0 1\n0 1 0\n")
    with pytest.raises(HypergraphError, match="line 2: malformed header"):
        parse_hypergraph("0 1\n# vertices 5\n")
    with pytest.raises(HypergraphError, match="line 2: vertex id 9"):
        parse_hypergraph("# vertices 3\n9 1\n")


def test_parse_dedupe_default_and_off():
    text = "0 1\n1 0\n1 2\n"
    assert parse_hypergraph(text).m == 2
    assert parse_hypergraph(text, dedupe_edges=False).m == 3


def test_serialize_round_trip(toy):
    again = parse_hypergraph(serialize_hypergraph(toy))
    assert again == toy
    assert serialize_hypergraph(again) == serialize_hypergraph(toy)


def test_graph_basics():
    G = Graph(4, [(0, 1), (1, 2), (2, 0)])
    assert G.m == 3
    assert G.degree(1) == 2
    assert G.degree(3) == 0
    assert graph_is_connected(G, [0, 1, 2])
    assert not graph_is_connected(G)
    # Self-loops are dropped, out-of-range endpoints rejected.
    assert Graph(2, [(0, 0)]).m == 0
    with pytest.raises(HypergraphError):
        Graph(2, [(0, 5)])


def test_induced_sub_truncates_and_dedupes(toy):
    # U = {0,1,4}: edges 01, 14 survive whole; 01246 truncates to {0,1,4}.
    P = induced_sub(toy, [0, 1, 4])
    assert P.order == 3
    assert P.vertex_map == (0, 1, 4)
    assert P.edges == (3, 6, 7)
    # 0-1 and the truncation of 0 1 2 4 6 to {0,1} collapse to one edge.
    Q = induced_sub(toy, [0, 1])
    assert Q.edges == (2, 3)


def test_induced_keeps_singletons(toy):
    P = induced_sub(toy, [2, 3])
    assert P.edges == (1, 2)
    assert not is_connected_induced(toy, [2, 3])


def test_section_sub_drops_partial_edges(toy):
    P = section_sub(toy, [0, 1, 2, 4, 6])
    assert P.order == 5
    assert P.edges == (3, 10, 31)
    assert section_sub(toy, [2, 3]).edges == ()


def test_subset_validation(toy):
    with pytest.raises(HypergraphError):
        induced_sub(toy, [])
    with pytest.raises(HypergraphError):
        induced_sub(toy, [0, 99])
    with pytest.raises(HypergraphError):
        section_sub(toy, [-1])


def test_is_connected_induced(toy):
    assert is_connected_induced(toy, [0, 1, 4])
    assert is_connected_induced(toy, [3, 5])
    assert not is_connected_induced(toy, [0, 3])
    assert is_connected_induced(toy, [7])


def test_hypergraphlet_validation_and_round_trip():
    P = Hypergraphlet(3, [3, 6])
    assert parse_hypergraphlet(serialize_hypergraphlet(P)) == P
    with pytest.raises(HypergraphError):
        Hypergraphlet(2, [4])
    with pytest.raises(HypergraphError):
        Hypergraphlet(2, [0])
    with pytest.raises(HypergraphError):
        Hypergraphlet(2, [1], vertex_map=(5,))


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
        pos = {v: i for i, v in enumerate(U)}
        inside = {sum(1 << pos[v] for v in e) for e in H.edges
                  if all(v in pos for v in e)}
        assert set(section_sub(H, U).edges) == inside


def test_gaifman_commutes_with_induced():
    # Gaif(H|U) equals the induced subgraph of Gaif(H) on U.
    rng = random.Random(13)
    for _ in range(80):
        H = random_hypergraph(rng)
        k = rng.randint(1, min(5, H.n))
        U = sorted(rng.sample(range(H.n), k))
        P = induced_sub(H, U)
        GP = gaifman(P.to_hypergraph())
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
    G = gaifman(H)
    assert is_connected_induced(H, U) == graph_is_connected(G, U)
