"""Edge-size splits: the niceness curve and cost-model-driven threshold choice.

An alpha-split partitions edges into a lower part (size <= alpha, handled via
its Gaifman projection) and an upper part (size > alpha, handled by
inclusion-exclusion over per-vertex types).  beta is the max degree of the
upper part; the curve maps each candidate alpha to its beta.
"""

from __future__ import annotations

import math

from .hypercore import Hypergraph, HypergraphError, gaifman


def check_gamma(gamma):
    """Refuse gamma outside [0, 1] (or NaN): it would weight a cost negatively."""
    if not 0.0 <= gamma <= 1.0:
        raise HypergraphError("gamma must lie in [0, 1]")


def _weighted(gamma, lower_cost, upper_cost):
    """gamma*lower + (1-gamma)*upper as a float, infinity on overflow.

    The 2^d terms are exact big integers; a cost too large for a float is
    effectively infinite for selection purposes anyway.
    """
    check_gamma(gamma)
    try:
        return gamma * float(lower_cost) + (1.0 - gamma) * float(upper_cost)
    except OverflowError:
        return math.inf


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


class SplitCost:
    """Cost-model value of one split.

    lower_cost = sum of |e|^2 over lower edges; upper_cost = sum over all
    vertices of 2^(upper degree); weighted = gamma*lower + (1-gamma)*upper,
    the quantity choose_split_refined minimizes.  Powers of two are exact
    big integers, so no saturation cap is needed.
    """

    __slots__ = ("lower_cost", "upper_cost", "weighted")

    def __init__(self, lower_cost, upper_cost, gamma):
        self.lower_cost = lower_cost
        self.upper_cost = upper_cost
        self.weighted = _weighted(gamma, lower_cost, upper_cost)

    def __repr__(self):
        return "SplitCost(lower=%d, upper=%d, weighted=%.6g)" % (
            self.lower_cost, self.upper_cost, self.weighted)


def apply_split(H, alpha):
    if alpha < 0:
        raise HypergraphError("alpha must be nonnegative")
    return AlphaSplit(H, alpha)


def split_cost(H, split, gamma):
    lower_cost = sum(len(e) ** 2 for e in split.lower.edges)
    upper_cost = sum(1 << len(t) for t in split.upper.incidence)
    return SplitCost(lower_cost, upper_cost, gamma)


def _cost_table(H):
    """(alpha, beta, lower_cost, upper_cost) at every candidate threshold.

    One descending pass: upper degrees grow as alpha drops past each edge
    size, and the 2^d sum is maintained by a subtract-old/add-new update per
    incidence, so the whole table costs O(size of H).
    """
    sizes = sorted({len(e) for e in H.edges})
    by_size = {}
    sq_by_size = {}
    for e in H.edges:
        by_size.setdefault(len(e), []).append(e)
        sq_by_size[len(e)] = sq_by_size.get(len(e), 0) + len(e) ** 2

    total_sq = sum(sq_by_size.values())
    d = [0] * H.n
    pow_sum = H.n  # sum of 2^0 over all vertices
    beta = 0
    rows = []  # descending alpha
    lower_sq = total_sq
    for s in reversed(sizes):
        # threshold alpha = s: upper holds sizes > s, already accumulated
        rows.append((s, beta, lower_sq, pow_sum))
        for e in by_size[s]:
            for v in e:
                pow_sum -= 1 << d[v]
                d[v] += 1
                pow_sum += 1 << d[v]
                if d[v] > beta:
                    beta = d[v]
        lower_sq -= sq_by_size[s]
    rows.append((0, beta, 0, pow_sum))
    rows.reverse()
    return rows


def curve_with_costs(H, gamma=0.01):
    """Rows (alpha, beta, lower_cost, upper_cost, weighted) along the curve."""
    out = []
    for alpha, beta, lo, up in _cost_table(H):
        out.append((alpha, beta, lo, up, _weighted(gamma, lo, up)))
    return out


def choose_split_refined(H, gamma=0.01):
    """Minimize gamma*sum|e|^2 + (1-gamma)*sum 2^d over all thresholds."""
    best = None
    for alpha, _beta, lo, up in _cost_table(H):
        cost = SplitCost(lo, up, gamma)
        if best is None or cost.weighted < best[1].weighted:
            best = (alpha, cost)
    return apply_split(H, best[0]), best[1]
