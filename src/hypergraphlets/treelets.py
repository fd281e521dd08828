"""Canonical rooted treelets up to order k, with decompositions.

A rooted treelet's code is the usual sorted-parenthesization: a leaf is
"()", an internal vertex wraps the concatenation of its children's codes
sorted as strings.  Isomorphic rooted trees share a code.  Every treelet of
order >= 2 decomposes into (T1, T2): T2 is the root-child subtree with the
smallest code, T1 is the rest (same root), and d is how many root children
carry a subtree isomorphic to T2; d is the normalizing factor of the
counter recurrence.

The catalog is built the way the recurrence reads it, one order at a time:
every T2 of order h2 is hung under the root of every T1 of order h - h2.
A pair is kept only when T1's root has no child or T2's code is at most
T1's smallest child code, so that T2 is the smallest child of the result.
Each treelet of order h then comes from exactly one pair, which is its
decomposition.
"""

from __future__ import annotations

from .hypercore import HypergraphError


class Treelet:
    __slots__ = ("tid", "order", "code", "children", "t1", "t2", "d")

    def __init__(self, tid, order, code, children, t1=None, t2=None, d=None):
        self.tid = tid
        self.order = order
        self.code = code
        self.children = children  # sorted tuple of child-subtree codes
        self.t1 = t1  # tid of T1, None for order 1
        self.t2 = t2  # tid of T2, None for order 1
        self.d = d

    def __repr__(self):
        return "Treelet(id=%d, order=%d, code=%s)" % (self.tid, self.order, self.code)


def code_from_children(children):
    return "(" + "".join(sorted(children)) + ")"


class TreeletCatalog:
    """All rooted treelets of order 1..k, deterministically ordered and
    indexed, each with its canonical (T1, T2, d) decomposition."""

    def __init__(self, k):
        if not 1 <= k <= 16:
            raise HypergraphError("k must lie in 1..16")
        self.k = k
        self.treelets = [Treelet(0, 1, "()", ())]
        self._orders = [(), tuple(self.treelets)]
        for h in range(2, k + 1):
            glued = []
            for h2 in range(1, h):
                for t2 in self._orders[h2]:
                    for t1 in self._orders[h - h2]:
                        if t1.children and t2.code > t1.children[0]:
                            continue
                        children = tuple(sorted(t1.children + (t2.code,)))
                        glued.append((code_from_children(children), children, t1.tid,
                                      t2.tid, 1 + t1.children.count(t2.code)))
            base = len(self.treelets)
            self._orders.append(tuple(Treelet(base + i, h, *g)
                                      for i, g in enumerate(sorted(glued))))
            self.treelets.extend(self._orders[h])
        self.by_code = {t.code: t.tid for t in self.treelets}

    def __len__(self):
        return len(self.treelets)

    def __getitem__(self, tid):
        return self.treelets[tid]

    def of_order(self, h):
        return self._orders[h]

    def tid_of(self, code):
        return self.by_code[code]

    def dump(self):
        """One canonical code per line; versioning text for table files."""
        return "\n".join(t.code for t in self.treelets) + "\n"

