import pytest

from hypergraphlets.hypercore import HypergraphError
from hypergraphlets.splitter import apply_split
from hypergraphlets.synth import nice_hypergraph, power_law_hypergraph


def test_power_law_deterministic():
    a = power_law_hypergraph(40, 30, "s1")
    b = power_law_hypergraph(40, 30, "s1")
    c = power_law_hypergraph(40, 30, "s2")
    assert a == b
    assert a != c


def test_power_law_shape():
    H = power_law_hypergraph(50, 60, "shape", max_size=10)
    assert H.n == 50
    assert H.m == 60
    assert len(set(H.edges)) == 60
    assert all(2 <= len(e) <= 10 for e in H.edges)


def test_power_law_sizes_skew_small():
    H = power_law_hypergraph(200, 150, "skew", max_size=20)
    by_size = {}
    for e in H.edges:
        by_size[len(e)] = by_size.get(len(e), 0) + 1
    assert by_size.get(2, 0) > by_size.get(5, 0) > by_size.get(20, 0)
    # Pr[2]:Pr[3] = 27:8 under the cubic law; expect a strong majority of 2s.
    assert by_size.get(2, 0) > 0.5 * H.m


def test_power_law_min_size_one_allows_singletons():
    H = power_law_hypergraph(30, 25, "ones", min_size=1, max_size=4)
    assert any(len(e) == 1 for e in H.edges)


def test_power_law_validation_and_saturation():
    with pytest.raises(HypergraphError):
        power_law_hypergraph(5, 3, "x", min_size=0)
    with pytest.raises(HypergraphError):
        power_law_hypergraph(5, 3, "x", max_size=9)
    # Only C(4,2)=6 distinct pairs exist; asking for 10 must fail cleanly.
    with pytest.raises(HypergraphError, match="edge space too small"):
        power_law_hypergraph(4, 10, "x", min_size=2, max_size=2)
    # Zero edges is a valid request.
    assert power_law_hypergraph(20, 0, "x").m == 0


def test_nice_deterministic_and_partition():
    H = nice_hypergraph(60, 20, 5, 3, 12, 0.5, "n1")
    assert H == nice_hypergraph(60, 20, 5, 3, 12, 0.5, "n1")
    assert H.n == 60 and H.m == 20
    small = [e for e in H.edges if len(e) < 5]
    large = [e for e in H.edges if len(e) == 12]
    assert len(small) == 10 and len(large) == 10
    assert all(2 <= len(e) <= 4 for e in small)
    assert not any(4 < len(e) < 12 for e in H.edges)


def test_nice_respects_beta():
    # 11 large edges of size 10 against capacity beta*n = 120: tight cap.
    H = nice_hypergraph(60, 18, 4, 2, 10, 0.4, "caps")
    split = apply_split(H, 4)
    assert split.beta <= 2
    assert split.upper.m == 18 - round(0.4 * 18)


def test_nice_rho_extremes():
    all_small = nice_hypergraph(30, 8, 5, 1, 10, 1.0, "alls")
    assert all(len(e) <= 4 for e in all_small.edges)
    all_large = nice_hypergraph(100, 8, 5, 1, 10, 0.0, "alll")
    assert all(len(e) == 10 for e in all_large.edges)
    assert apply_split(all_large, 5).beta <= 1


def test_nice_validation():
    with pytest.raises(HypergraphError, match="alpha must be >= 3"):
        nice_hypergraph(30, 6, 2, 2, 10, 0.5, "v")
    with pytest.raises(HypergraphError, match="big_size"):
        nice_hypergraph(30, 6, 5, 2, 5, 0.5, "v")
    with pytest.raises(HypergraphError, match="beta"):
        nice_hypergraph(30, 6, 5, 0, 10, 0.5, "v")
    with pytest.raises(HypergraphError, match="infeasible"):
        nice_hypergraph(20, 10, 5, 1, 10, 0.0, "v")
