import random
from itertools import product

import pytest

from hypergraphlets.hypercore import HypergraphError
from hypergraphlets.treelets import TreeletCatalog, canonical_code, code_from_children

from oracles import ahu_code


def test_counts_per_order():
    cat = TreeletCatalog(6)
    assert [len(cat.of_order(h)) for h in range(1, 7)] == [1, 1, 2, 4, 9, 20]
    assert len(cat) == 37
    assert len(TreeletCatalog(7).of_order(7)) == 48


def test_catalog_bounds():
    with pytest.raises(HypergraphError):
        TreeletCatalog(0)
    with pytest.raises(HypergraphError):
        TreeletCatalog(17)


def test_counts_match_bruteforce_enumeration():
    # Every rooted tree on h ordered vertices is a parent array with
    # parent[i] < i; distinct canonical strings count unlabeled shapes.
    for h in range(1, 7):
        seen = set()
        for parents in product(*[range(i) for i in range(1, h)]):
            edges = [(i + 1, p) for i, p in enumerate(parents)]
            seen.add(ahu_code(h, edges, 0))
        cat = TreeletCatalog(h)
        assert {t.code for t in cat.of_order(h)} == seen


def test_code_order_and_shapes():
    # A code has one "(" per vertex.
    for t in TreeletCatalog(6).treelets:
        assert t.order == t.code.count("(")
    # Lexicographic child sort puts "(())" before "()".
    assert code_from_children(["()", "(())"]) == "((())())"


def test_frozen_decompositions():
    cat = TreeletCatalog(3)
    star = cat[cat.tid_of("(()())")]
    assert (cat[star.t1].code, cat[star.t2].code, star.d) == ("(())", "()", 2)
    path_end = cat[cat.tid_of("((()))")]
    assert (cat[path_end.t1].code, cat[path_end.t2].code, path_end.d) == ("()", "(())", 1)
    leaf = cat[cat.tid_of("()")]
    assert (leaf.t1, leaf.t2, leaf.d) == (None, None, None)


def test_decomposition_reassembles():
    cat = TreeletCatalog(6)
    for t in cat.treelets:
        if t.order == 1:
            assert t.t1 is None and t.t2 is None
            continue
        t1, t2 = cat[t.t1], cat[t.t2]
        assert t1.order + t2.order == t.order
        # Hanging T2 under T1's root gives T back.
        assert cat.tid_of(code_from_children(list(t1.children) + [t2.code])) == t.tid
        # T2 is the smallest child subtree, d its multiplicity.
        assert t2.code == min(t.children)
        assert t.d == sum(1 for c in t.children if c == t2.code)
        assert tuple(sorted(list(t1.children) + [t2.code])) == t.children


def test_catalog_order_is_by_order_then_code():
    cat = TreeletCatalog(6)
    keys = [(t.order, t.code) for t in cat.treelets]
    assert keys == sorted(keys)
    assert [t.tid for t in cat.treelets] == list(range(len(cat)))
    for t in cat.treelets:
        assert cat.tid_of(t.code) == t.tid


def test_canonical_code_matches_oracle_on_random_trees():
    rng = random.Random(41)
    for _ in range(200):
        h = rng.randint(1, 9)
        parents = [rng.randrange(i) for i in range(1, h)]
        edges = [(i + 1, p) for i, p in enumerate(parents)]
        children = [[] for _ in range(h)]
        for i, p in edges:
            children[p].append(i)
        assert canonical_code(children, 0) == ahu_code(h, edges, 0)


def test_canonical_code_invariant_under_child_order():
    rng = random.Random(43)
    for _ in range(100):
        h = rng.randint(2, 8)
        parents = [rng.randrange(i) for i in range(1, h)]
        children = {v: [] for v in range(h)}
        for i, p in enumerate(parents):
            children[p].append(i + 1)
        base = canonical_code(children, 0)
        for v in children:
            rng.shuffle(children[v])
        assert canonical_code(children, 0) == base


def test_dump_versioning_text():
    cat = TreeletCatalog(6)
    lines = cat.dump().splitlines()
    assert lines[0] == "()"
    assert lines[1] == "(())"
    assert len(lines) == 37
    assert [t.code for t in cat.treelets] == lines
