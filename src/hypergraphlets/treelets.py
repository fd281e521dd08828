"""Canonical rooted treelets up to order k, with decompositions.

A rooted treelet's code is the usual sorted-parenthesization: a leaf is
"()", an internal vertex wraps the concatenation of its children's codes
sorted as strings.  Isomorphic rooted trees share a code.  Every treelet of
order >= 2 decomposes into (T1, T2): T2 is the root-child subtree with the
smallest code, T1 is the rest (same root), and d is how many root children
carry a subtree isomorphic to T2; d is the normalizing factor of the
counter recurrence.
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


def canonical_code(children_of, root):
    """Code for a rooted tree given a child-list map (adjacency from root)."""
    def rec(v):
        return code_from_children([rec(u) for u in children_of[v]])
    return rec(root)


def _children_codes(code):
    """Split a code into its root-child codes (unsorted order of appearance)."""
    inner = code[1:-1]
    out = []
    depth = 0
    start = 0
    for i, ch in enumerate(inner):
        depth += 1 if ch == "(" else -1
        if depth == 0:
            out.append(inner[start:i + 1])
            start = i + 1
    return out


class TreeletCatalog:
    """All rooted treelets of order 1..k, deterministically ordered and
    indexed, each with its canonical (T1, T2, d) decomposition."""

    def __init__(self, k):
        if not 1 <= k <= 16:
            raise HypergraphError("k must lie in 1..16")
        self.k = k
        codes_by_order = [None, ["()"]]
        for h in range(2, k + 1):
            seen = set()
            for code in codes_by_order[h - 1]:
                for ext in _extend_by_leaf(code):
                    seen.add(ext)
            codes_by_order.append(sorted(seen))

        self.treelets = []
        self.by_code = {}
        for h in range(1, k + 1):
            for code in codes_by_order[h]:
                t = Treelet(len(self.treelets), h, code,
                            tuple(sorted(_children_codes(code))))
                self.treelets.append(t)
                self.by_code[code] = t.tid

        for t in self.treelets:
            if t.order == 1:
                continue
            t2_code = min(t.children)
            rest = list(t.children)
            rest.remove(t2_code)
            t1_code = code_from_children(rest)
            t.t2 = self.by_code[t2_code]
            t.t1 = self.by_code[t1_code]
            t.d = sum(1 for c in t.children if c == t2_code)

    def __len__(self):
        return len(self.treelets)

    def __getitem__(self, tid):
        return self.treelets[tid]

    def of_order(self, h):
        return [t for t in self.treelets if t.order == h]

    def tid_of(self, code):
        return self.by_code[code]

    def dump(self):
        """One canonical code per line; versioning text for table files."""
        return "\n".join(t.code for t in self.treelets) + "\n"


def _extend_by_leaf(code):
    """All codes reachable by hanging one new leaf somewhere in the tree."""
    results = set()

    def rec(c):
        # c with a leaf added at its root, plus c with a leaf added inside
        # any one child subtree.
        kids = _children_codes(c)
        out = {code_from_children(kids + ["()"])}
        for i, kid in enumerate(kids):
            for ext in rec(kid):
                out.add(code_from_children(kids[:i] + [ext] + kids[i + 1:]))
        return out

    return rec(code)

