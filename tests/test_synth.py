import hashlib
import itertools
import time

import pytest

from hypergraphlets import synth
from hypergraphlets.hypercore import HypergraphError, serialize_hypergraph
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


@pytest.mark.parametrize("make", [
    lambda: nice_hypergraph(6, 7, 3, 6, 5, 0.0, "0"),
    lambda: power_law_hypergraph(10, 200000, "0"),
    lambda: power_law_hypergraph(10, 2000000, "0"),
], ids=["nice-large-part", "powerlaw-2e5", "powerlaw-2e6"])
def test_edge_count_above_the_edge_space_is_refused_up_front(make):
    # C(6,5) = 6 edges of size 5; 1013 edges of sizes 2..10 on 10 vertices.
    t0 = time.perf_counter()
    with pytest.raises(HypergraphError, match="edge space too small"):
        make()
    assert time.perf_counter() - t0 < 1.0


def test_nice_large_loop_gives_up(monkeypatch):
    # A stream that keeps drawing the same large edge used to spin forever.
    class SameEdge:
        def __init__(self):
            self.draws = itertools.cycle(range(4))

        def randrange(self, n):
            return next(self.draws)

    monkeypatch.setattr(synth, "derived_rng", lambda seed, label: SameEdge())
    with pytest.raises(HypergraphError, match="large part"):
        nice_hypergraph(10, 2, 3, 5, 4, 0.0, "0")


def test_edge_space_checks_spend_no_draws():
    # The refusals sum binomials only, so the files that generate keep
    # their bytes (`gen-synthetic -n 50 -m 80` and a nice instance).
    def digest(H):
        return hashlib.sha256(serialize_hypergraph(H).encode()).hexdigest()[:16]

    assert digest(power_law_hypergraph(50, 80, "0")) == "c7c26141489cfef6"
    assert digest(nice_hypergraph(60, 30, 5, 3, 12, 0.9, "0")) == "df24281d6c9710c2"


def test_edge_space_check_builds_no_huge_binomial():
    # C(10^6, 5 * 10^5) takes seconds to compute; the check stops each
    # binomial once it reaches m.
    t0 = time.perf_counter()
    synth._check_edge_space(10 ** 6, 500000, 500000, 10 ** 9)
    with pytest.raises(HypergraphError, match="edge space too small"):
        synth._check_edge_space(3, 3, 3, 2)
    assert time.perf_counter() - t0 < 1.0
