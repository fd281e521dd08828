import hashlib
from itertools import product

import pytest

from hypergraphlets.buildup import catalog_digest
from hypergraphlets.hypercore import HypergraphError
from hypergraphlets.treelets import TreeletCatalog, code_from_children

from oracles import ahu_code


def test_counts_per_order():
    cat = TreeletCatalog(6)
    assert [len(cat.of_order(h)) for h in range(1, 7)] == [1, 1, 2, 4, 9, 20]
    assert len(cat) == 37
    assert len(TreeletCatalog(7).of_order(7)) == 48
    cat = TreeletCatalog(8)
    assert [len(cat.of_order(h)) for h in range(1, 9)] == [1, 1, 2, 4, 9, 20, 48, 115]


def test_catalog_bounds():
    with pytest.raises(HypergraphError):
        TreeletCatalog(0)
    with pytest.raises(HypergraphError):
        TreeletCatalog(17)


def test_counts_match_bruteforce_enumeration():
    # Every rooted tree on h ordered vertices is a parent array with
    # parent[i] < i; distinct canonical strings count unlabeled shapes.
    for h in range(1, 9):
        seen = set()
        for parents in product(*[range(i) for i in range(1, h)]):
            edges = [(i + 1, p) for i, p in enumerate(parents)]
            seen.add(ahu_code(h, edges, 0))
        cat = TreeletCatalog(h)
        assert {t.code for t in cat.of_order(h)} == seen


# Every .hmt file stores catalog_digest(TreeletCatalog(k)), so a table
# written before any change to the catalog loads after it only while these
# hold.  The second value is a sha256 of every (t1, t2, d) in tid order.
PINNED_CATALOGS = {
    1: ("71d200d8ffab1b98ab940769da680c27d48873242f3f141a4910e6e10766e84b",
        "6ba771ca3f34f02ac9d699e14230d9e1f876a0d0451b69fd0a6304fd60c4f865"),
    2: ("e180e30061358a17c4fd34d21815ad0996c9e4709e8ad1d0fe6bf4d29cc356aa",
        "e3c1a31ee974c14053d297edeb68b181f7c55c1e9770232c0bc1f9566878a808"),
    3: ("2cb449f51fd6b84babe05b8ed9eb4c8feaf7702c6103a08c07248c63ba621090",
        "8f05dfdbef8f67ec8a1771f5f8869059abceade81bdd5dd3a79ac991ad78c816"),
    4: ("9e1e7c9677accc56d62197fc231397791d7c392a6ba7b33d2c217c3d8df60d92",
        "32716528c32e3856be4a0f07750476063294593fec82a362356ae0ba7f7661cb"),
    5: ("d50c2afbf677210e62165adfeeaf4739372b3256ab4c6f8372158f0376e8378a",
        "c5d5104878411da8bfe68684af4d66bdb71b47e1463bfea97e7e29cec510bae1"),
    6: ("06c6c3ae5e0a637a2996ea2c24229a90579c0d7e57195aa9a9b76437bfbe488a",
        "2899d54bc67f6b66b5d87f500dd4ff6f5df9d3fc3f315d9818efd83031193998"),
    7: ("e0d68262b497055e23f749f32f210f4ecfa5bf2a7186176314cf3a91ee740bf4",
        "69cfb9e751e241616191bdfd40500ba0ebc13e119ede6c76907fa8eca4ad7d57"),
    8: ("d37239539f3a17f92131d3fe4893b5f58834f6f7d5ed9edac2938b736fbf4652",
        "f00e5124869e6a5ddae6905d38c1ab5b8f0be0ac9203325435fd844520cd57f4"),
}


@pytest.mark.parametrize("k", sorted(PINNED_CATALOGS))
def test_catalog_digests_are_pinned(k):
    cat = TreeletCatalog(k)
    decomps = repr([(t.t1, t.t2, t.d) for t in cat.treelets]).encode()
    assert (catalog_digest(cat).hex(),
            hashlib.sha256(decomps).hexdigest()) == PINNED_CATALOGS[k]


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


def test_dump_versioning_text():
    cat = TreeletCatalog(6)
    lines = cat.dump().splitlines()
    assert lines[0] == "()"
    assert lines[1] == "(())"
    assert len(lines) == 37
    assert [t.code for t in cat.treelets] == lines
