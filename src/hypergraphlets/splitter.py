"""Edge-size splits: the niceness curve and cost-model-driven threshold choice.

An alpha-split partitions edges into a lower part (size <= alpha, handled via
its Gaifman projection) and an upper part (size > alpha, handled by
inclusion-exclusion over per-vertex types).  beta is the max degree of the
upper part; the curve maps each candidate alpha (0 and each edge size) to
its beta.

The cost model prices a split by two terms:

    lower_cost = sum of |e|^2 over the lower edges
    upper_cost = sum over all vertices v of 2^(upper degree of v)
    weighted   = gamma*lower_cost + (1 - gamma)*upper_cost

with gamma in [0, 1], DEFAULT_GAMMA unless given.  curve_with_costs is its
one implementation; choose_split_refined takes the smallest weighted cost,
ties going to the smallest alpha.  Any alpha splits the edges as the largest
candidate <= alpha does, so `split --alpha N` reports that candidate's row.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import attrgetter

from .hypercore import Hypergraph, HypergraphError, gaifman

DEFAULT_GAMMA = 0.01

CurveRow = namedtuple("CurveRow", "alpha beta lower_cost upper_cost weighted")


def check_gamma(gamma):
    """Refuse gamma outside [0, 1] (or NaN): it would weight a cost negatively."""
    if not 0.0 <= gamma <= 1.0:
        raise HypergraphError("gamma must lie in [0, 1]")


class AlphaSplit:
    """An alpha-split of H with the pieces the build-up and sampler need.

    lower/upper are hypergraphs on H's full vertex set.  upper_types[v] is
    the sorted tuple of upper-edge indices containing v, and upper_groups
    maps each nonempty type to its vertices, ascending, in order of first
    appearance.  u and v are upper-adjacent iff their types meet, so the
    upper Gaifman projection is never materialized: the build and the
    sampler both reach upper neighbors through the groups, and the others
    through lower_only, the lower part's Gaifman graph without the pairs
    the upper part also joins.  So each Gaifman neighbor of v lies in one
    part only.  At alpha = H.rank the upper part is empty and lower_only
    is the plain Gaifman graph.
    """

    __slots__ = ("alpha", "beta", "lower", "upper", "lower_only",
                 "upper_types", "upper_groups")

    def __init__(self, H, alpha):
        lower_edges = [e for e in H.edges if len(e) <= alpha]
        upper_edges = [e for e in H.edges if len(e) > alpha]
        self.alpha = alpha
        self.lower = Hypergraph(H.n, lower_edges)
        self.upper = Hypergraph(H.n, upper_edges)
        self.beta = self.upper.max_degree
        self.upper_types = types = [tuple(t) for t in self.upper.incidence]
        self.upper_groups = {}
        # Dropping u from v's list iff their types meet is symmetric and
        # keeps each list sorted, so lower_only stays a Graph.
        self.lower_only = gaifman(self.lower)
        adj = self.lower_only.adj
        for v, ty in enumerate(types):
            if ty:
                self.upper_groups.setdefault(ty, []).append(v)
                apart = set(ty).isdisjoint
                adj[v] = [u for u in adj[v] if apart(types[u])]

    def __repr__(self):
        return "AlphaSplit(alpha=%d, beta=%d, lower_m=%d, upper_m=%d)" % (
            self.alpha, self.beta, self.lower.m, self.upper.m)


def apply_split(H, alpha):
    if alpha < 0:
        raise HypergraphError("alpha must be nonnegative")
    return AlphaSplit(H, alpha)


def curve_with_costs(H, gamma=DEFAULT_GAMMA):
    """CurveRow(alpha, beta, lower_cost, upper_cost, weighted) at every
    candidate threshold, in ascending alpha.

    One descending pass: upper degrees grow as alpha drops past each edge
    size, and the 2^d sum is maintained by a subtract-old/add-new update per
    incidence, so the whole curve costs O(size of H).  The 2^d terms are
    exact big integers; a weighted cost too large for a float is infinite,
    which is what it is for selection purposes anyway.
    """
    check_gamma(gamma)
    by_size = {}
    for e in H.edges:
        by_size.setdefault(len(e), []).append(e)

    d = [0] * H.n
    pow_sum = H.n  # sum of 2^0 over all vertices
    beta = 0
    costs = []  # descending alpha
    lower_sq = sum(len(e) ** 2 for e in H.edges)
    for s in sorted(by_size, reverse=True):
        # threshold alpha = s: upper holds sizes > s, already accumulated
        costs.append((s, beta, lower_sq, pow_sum))
        for e in by_size[s]:
            for v in e:
                pow_sum -= 1 << d[v]
                d[v] += 1
                pow_sum += 1 << d[v]
                if d[v] > beta:
                    beta = d[v]
        lower_sq -= s * s * len(by_size[s])
    costs.append((0, beta, 0, pow_sum))
    rows = []
    for alpha, beta, lo, up in reversed(costs):
        try:
            weighted = gamma * float(lo) + (1.0 - gamma) * float(up)
        except OverflowError:
            weighted = math.inf
        rows.append(CurveRow(alpha, beta, lo, up, weighted))
    return rows


def choose_split_refined(H, gamma=DEFAULT_GAMMA):
    """(split, row) at the first row of least weighted cost on the curve."""
    row = min(curve_with_costs(H, gamma), key=attrgetter("weighted"))
    return apply_split(H, row.alpha), row
