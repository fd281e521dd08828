"""Synthetic hypergraph generators.

Two models:

* ``power_law_hypergraph``: edge sizes follow Pr[s] proportional to s^(-gamma)
  (default gamma 3), vertices chosen uniformly.  Used by the accuracy
  experiments, where exact counts are still computable.

* ``nice_hypergraph``: a controlled (alpha, beta)-nice family: a rho fraction
  of edges is small (size uniform in {2..alpha-1}), the rest have a fixed
  large size L > alpha, resampling any vertex whose degree among large edges
  would exceed beta.  Used by the scaling demo; not a model of real data.
"""

import math
from bisect import bisect_right

from .buildup import derived_rng
from .hypercore import Hypergraph, HypergraphError
from .splitter import apply_split


def _size_sampler(lo, hi, exponent):
    """Inverse-CDF sampler for Pr[s] ~ s^-exponent on {lo..hi}."""
    sizes = list(range(lo, hi + 1))
    cum = []
    total = 0.0
    try:
        for s in sizes:
            total += s ** (-exponent)
            cum.append(total)
    except OverflowError:
        total = math.inf
    if not 0 < total < math.inf:
        raise HypergraphError(
            "power-law size weights with exponent %s on sizes %d..%d have "
            "no finite positive total" % (exponent, lo, hi))

    def draw(rng):
        return sizes[bisect_right(cum, rng.random() * total)]

    return draw


def _check_edge_space(n, lo, hi, m, what="edges"):
    """Refuse m distinct edges of sizes lo..hi on n vertices when the sum of
    C(n, s) falls short of m; sum and terms stop growing once they reach m."""
    room = 0
    for s in range(lo, hi + 1):
        c = 1
        for i in range(min(s, n - s)):
            if c >= m:
                break
            c = c * (n - i) // (i + 1)
        room += c
        if room >= m:
            return
    raise HypergraphError(
        "edge space too small for %d %s: %d vertices hold %d distinct "
        "edges of sizes %d..%d" % (m, what, n, room, lo, hi))


def power_law_hypergraph(n, m, seed, exponent=3.0, min_size=2, max_size=None):
    """m distinct edges on n vertices with power-law sizes; duplicates are
    resampled so the edge multiset is a set."""
    if m < 0:
        raise HypergraphError("edge count m must be >= 0, got %d" % m)
    if max_size is None:
        max_size = n
    if not 1 <= min_size <= max_size <= n:
        raise HypergraphError("need 1 <= min_size <= max_size <= n")
    draw = _size_sampler(min_size, max_size, exponent)
    _check_edge_space(n, min_size, max_size, m)
    rng = derived_rng(seed, "powerlaw")
    edges = set()
    attempts = 0
    while len(edges) < m:
        attempts += 1
        if attempts > 50 * m + 100:
            raise HypergraphError("ran out of attempts: %d draws gave %d of %d "
                                  "distinct edges" % (attempts - 1, len(edges), m))
        s = draw(rng)
        edges.add(tuple(sorted(rng.sample(range(n), s))))
    return Hypergraph(n, sorted(edges))


def nice_hypergraph(n, m, alpha, beta, big_size, rho, seed):
    """(alpha, beta)-nice family: round(rho*m) small edges with size uniform
    in {2..alpha-1}, the rest of size big_size > alpha under a per-vertex
    large-degree cap of beta."""
    if alpha < 3:
        raise HypergraphError("alpha must be >= 3 so that {2..alpha-1} is nonempty")
    if not alpha < big_size <= n:
        raise HypergraphError("need alpha < big_size <= n")
    if beta < 1:
        raise HypergraphError("beta must be >= 1")
    if m < 0:
        raise HypergraphError("edge count m must be >= 0, got %d" % m)
    if not 0 <= rho <= 1:
        raise HypergraphError("rho must lie in [0, 1], got %s" % rho)
    n_small = round(rho * m)
    n_large = m - n_small
    if n_large * big_size > beta * n:
        raise HypergraphError(
            "infeasible: %d large edges of size %d exceed capacity beta*n = %d"
            % (n_large, big_size, beta * n)
        )
    _check_edge_space(n, 2, alpha - 1, n_small, "small edges")
    _check_edge_space(n, big_size, big_size, n_large, "large edges")
    rng = derived_rng(seed, "nice")
    edges = set()
    attempts = 0
    while len(edges) < n_small:
        attempts += 1
        if attempts > 50 * m + 100:
            raise HypergraphError("ran out of attempts for the small part: %d draws "
                                  "gave %d of %d distinct edges"
                                  % (attempts - 1, len(edges), n_small))
        s = rng.randint(2, alpha - 1)
        edges.add(tuple(sorted(rng.sample(range(n), s))))
    up_degree = [0] * n
    large = set()
    attempts = 0
    while len(large) < n_large:
        attempts += 1
        if attempts > 50 * m + 100:
            raise HypergraphError("ran out of attempts for the large part: %d draws "
                                  "gave %d of %d distinct edges"
                                  % (attempts - 1, len(large), n_large))
        room = sum(1 for v in range(n) if up_degree[v] < beta)
        if room < big_size:
            raise HypergraphError("degree cap leaves too few eligible vertices")
        chosen = set()
        while len(chosen) < big_size:
            v = rng.randrange(n)
            if v in chosen or up_degree[v] >= beta:
                continue
            chosen.add(v)
        e = tuple(sorted(chosen))
        if e in large:
            continue
        large.add(e)
        for v in chosen:
            up_degree[v] += 1
    H = Hypergraph(n, sorted(edges) + sorted(large))
    assert apply_split(H, alpha).beta <= beta
    return H
