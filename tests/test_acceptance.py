"""Acceptance gate: one test per advertised guarantee.

Each test prints a single PASS line (visible under pytest -s); a failure
carries the offending numbers in its assertion message.  Criterion 7 is
advisory and warns instead of failing on noisy timing.
"""

import json
import math
import random
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from hypergraphlets.buildup import (
    Coloring,
    build_counters,
    build_counters_naive,
    derived_rng,
    nw_naive,
    random_coloring,
)
from hypergraphlets.canonlab import exact_counts
from hypergraphlets.hardlab import (
    decide_ksh_reduction,
    kstar_identity_check,
    ov_pairwise,
    reduce_clique_to_ksh,
    solve_ov_via_nc,
)
from hypergraphlets.hypercore import Graph, Hypergraph, gaifman
from hypergraphlets.sampler import (
    approx_counts,
    build_generators,
    estimate_counts,
    sample_outcome,
    spanning_tree_count,
)
from hypergraphlets.splitter import apply_split
from hypergraphlets.synth import power_law_hypergraph
from hypergraphlets.treelets import TreeletCatalog

from oracles import (
    brute_rooted_colorful_treelets,
    brute_spanning_trees,
    candidate_alphas,
    exact_colorful_counts,
    has_k_clique,
    nw_ie,
)

DATA = Path(__file__).resolve().parent.parent / "examples" / "data"
TOY = str(DATA / "toy.hg")


def run_cli(*args, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "hypergraphlets.cli", *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == expect, (
        "exit %d != %d\nstdout:\n%s\nstderr:\n%s"
        % (proc.returncode, expect, proc.stdout, proc.stderr)
    )
    return proc


def corpus_hypergraph(rng):
    """Random instance within the advertised bounds (n <= 60, m <= 80,
    sizes <= 12), mass concentrated on small cases.

    Vertex degrees are capped at 9: the upper-part neighbor-weight rounds
    cost 2^degree per vertex at alpha = 0, so unbounded-degree instances
    are exactly the ones the split is not meant for.
    """
    roll = rng.random()
    if roll < 0.70:
        n = rng.randint(2, 15)
    elif roll < 0.92:
        n = rng.randint(16, 35)
    else:
        n = rng.randint(36, 60)
    roll = rng.random()
    if roll < 0.70:
        m = rng.randint(1, 12)
    elif roll < 0.92:
        m = rng.randint(13, 30)
    else:
        m = rng.randint(31, 80)
    degrees = [0] * n
    edges = set()
    attempts = 0
    while len(edges) < m and attempts < 40 * m + 40:
        attempts += 1
        roll = rng.random()
        if roll < 0.80:
            s = rng.randint(1, 4)
        elif roll < 0.97:
            s = rng.randint(5, 8)
        else:
            s = rng.randint(9, 12)
        s = min(s, n)
        room = [v for v in range(n) if degrees[v] < 9]
        if len(room) < s:
            break
        e = tuple(sorted(rng.sample(room, s)))
        if e in edges:
            continue
        edges.add(e)
        for v in e:
            degrees[v] += 1
    if not edges:
        edges = {(0,)}
    return Hypergraph(n, sorted(edges))


def test_criterion_01_split_equivalence():
    started = time.monotonic()
    rng = random.Random(101)
    builds = 0
    for i in range(200):
        H = corpus_hypergraph(rng)
        for k in (2, 3, 4, 5):
            col = random_coloring(H, k, "acc1|%d|%d" % (i, k))
            ref = build_counters_naive(H, k, col)
            for alpha in candidate_alphas(H):
                cs = build_counters(H, apply_split(H, alpha), k, col)
                assert cs.tables_equal(ref), (
                    "tables diverge: instance %d, k=%d, alpha=%d" % (i, k, alpha)
                )
                builds += 1
    elapsed = time.monotonic() - started
    assert elapsed < 300, "split-equivalence suite took %.1fs" % elapsed
    print(
        "ACCEPTANCE 1 PASS: 200 instances, %d split builds == naive, %.1fs"
        % (builds, elapsed)
    )


def test_criterion_02_oracle_counters():
    rng = random.Random(55)
    compared = 0
    for i in range(500):
        n = rng.randint(1, 8)
        m = rng.randint(0, 7)
        edges = set()
        for _ in range(m):
            s = rng.randint(1, n)
            edges.add(tuple(sorted(rng.sample(range(n), s))))
        H = Hypergraph(n, sorted(edges) if edges else [(0,)])
        for k in (2, 3, 4):
            col = random_coloring(H, k, "acc2|%d|%d" % (i, k))
            cs = build_counters_naive(H, k, col)
            full = (1 << k) - 1
            for t in cs.catalog.of_order(k):
                for v in range(H.n):
                    expect = brute_rooted_colorful_treelets(H, col, t.code, full, v)
                    got = cs.tables[t.tid][full][v]
                    assert got == expect, (
                        "C mismatch: instance %d, k=%d, T=%s, v=%d: %d != %d"
                        % (i, k, t.code, v, got, expect)
                    )
                    compared += 1
    print("ACCEPTANCE 2 PASS: %d rooted counters == brute force" % compared)


def test_criterion_03_neighbor_weights():
    rng = random.Random(303)
    for i in range(500):
        n = rng.randint(1, 30)
        degrees = [0] * n
        edges = []
        for _ in range(rng.randint(0, 25)):
            s = rng.randint(1, min(6, n))
            room = [v for v in range(n) if degrees[v] < 12]
            if len(room) < s:
                break
            e = tuple(sorted(rng.sample(room, s)))
            edges.append(e)
            for v in e:
                degrees[v] += 1
        H = Hypergraph(n, edges if edges else [(0,)])
        assert H.max_degree <= 12
        w = [rng.randrange(-5, 12) for _ in range(n)]
        assert nw_ie(H, w) == nw_naive(gaifman(H), w), "NW mismatch on instance %d" % i
    print("ACCEPTANCE 3 PASS: nw_ie == nw_naive on 500 weighted instances")


def test_criterion_04_sampling_law():
    # Crafted instance: colorful triples {0,1,2} (3 spanning trees),
    # {0,2,3} and {0,3,4} (1 each); W = 15, law 3:1:1.
    H = Hypergraph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4)])
    col = Coloring(3, (0, 1, 2, 1, 2))
    law = {(0, 1, 2): 0.6, (0, 2, 3): 0.2, (0, 3, 4): 0.2}
    cs = build_counters_naive(H, 3, col)
    assert cs.W == 15
    gens = build_generators(cs)

    n_samples = 100_000
    rng = derived_rng("acc4", "weighted")
    tally = {}
    for _ in range(n_samples):
        out = sample_outcome(gens, rng)
        tally[out.U] = tally.get(out.U, 0) + 1
    assert set(tally) == set(law)
    worst = 0.0
    for U, p in law.items():
        z = abs(tally[U] / n_samples - p) / math.sqrt(p * (1 - p) / n_samples)
        worst = max(worst, z)
        assert z <= 4, "sigma law violated at %s: z=%.2f" % (U, z)

    # Uniform mode: survivors of the estimator's 1/sigma thinning are
    # uniform over the colorful sets.  The three sets here have three
    # distinct canonical keys, so per-key acceptance counts are per-set.
    rep = estimate_counts(
        gens, n_samples, derived_rng("acc4", "uniform"),
        uniform=True,
    )
    assert len(rep) == 3
    total_kept = sum(row["samples"] for row in rep.values())
    worst_u = 0.0
    p = 1 / 3
    for key, row in rep.items():
        z = abs(row["samples"] / total_kept - p) / math.sqrt(
            p * (1 - p) / total_kept
        )
        worst_u = max(worst_u, z)
        assert z <= 4, "uniform law violated at %s: z=%.2f" % (key, z)
    print(
        "ACCEPTANCE 4 PASS: sigma law worst z=%.2f, uniform worst z=%.2f "
        "over %d samples" % (worst, worst_u, n_samples)
    )


def test_criterion_05_estimator_unbiasedness():
    RUNS, K = 200, 200
    types_checked = 0
    worst_z = 0.0
    for i in range(10):
        H = power_law_hypergraph(30, 18 + i, seed="c5|%d" % i, max_size=8)
        for k in (3, 4):
            col = random_coloring(H, k, "c5|%d|%d" % (i, k))
            exact = exact_colorful_counts(H, col, k)
            cs = build_counters_naive(H, k, col)
            if cs.W == 0:
                assert not exact
                continue
            gens = build_generators(cs)
            per_key = {key: [] for key in exact}
            for r in range(RUNS):
                rng = derived_rng("c5|%d|%d" % (i, k), "unb|run%d" % r)
                rep = estimate_counts(gens, K, rng)
                for key in per_key:
                    row = rep.get(key)
                    per_key[key].append(
                        float(row["estimate"]) if row is not None else 0.0
                    )
                for key in rep:
                    assert key in exact, "sampled a type with no exact count"
            for key, vals in per_key.items():
                mean = sum(vals) / RUNS
                var = sum((x - mean) ** 2 for x in vals) / (RUNS - 1)
                se = math.sqrt(var / RUNS)
                c = exact[key]
                if se == 0:
                    assert mean == c, (
                        "degenerate estimator off target: %s %s vs %d" % (key, mean, c)
                    )
                else:
                    z = abs(mean - c) / se
                    worst_z = max(worst_z, z)
                    assert z <= 3, (
                        "bias at instance %d k=%d type %s: mean %.4f vs exact %d "
                        "(z=%.2f)" % (i, k, key, mean, c, z)
                    )
                types_checked += 1
    assert types_checked > 100
    print(
        "ACCEPTANCE 5 PASS: %d types, mean within 3 SE of exact "
        "(worst z=%.2f, %d runs each)" % (types_checked, worst_z, RUNS)
    )


def _accuracy_pass(H, k, budget, runs, seed):
    exact = exact_counts(H, k)
    total = sum(exact.values())
    qualifying = {
        key: c for key, c in exact.items() if c / total >= 0.01
    }
    p_k = Fraction(math.factorial(k), k ** k)
    rows, _reports = approx_counts(
        H, k, budget // runs, seed, runs=runs, alpha_policy="auto"
    )
    good = 0
    worst = 0.0
    for key, c in qualifying.items():
        row = rows.get(key)
        est = float(row["estimate"] / p_k) if row is not None else 0.0
        err = (est - c) / c
        worst = max(worst, abs(err))
        if abs(err) <= 0.25:
            good += 1
    return good, len(qualifying), worst


def test_criterion_06_accuracy_replication():
    started = time.monotonic()
    H = power_law_hypergraph(1000, 500, seed="acc6")
    H5 = power_law_hypergraph(200, 100, seed="acc6k5")
    plans = [
        (H, 3, 2),    # 2 runs x 50k samples
        (H, 4, 5),    # 5 runs x 20k samples
        (H5, 5, 20),  # 20 runs x 5k samples
    ]
    summary = []
    for host, k, runs in plans:
        good, total, worst = _accuracy_pass(host, k, 100_000, runs, "acc6")
        assert total > 0
        assert good >= math.ceil(0.9 * total), (
            "k=%d: only %d of %d frequent types within 0.25 (worst %.3f)"
            % (k, good, total, worst)
        )
        summary.append("k=%d: %d/%d within 0.25 (worst %.3f)" % (k, good, total, worst))
    elapsed = time.monotonic() - started
    assert elapsed < 900, "accuracy suite took %.1fs" % elapsed
    print("ACCEPTANCE 6 PASS: %s, %.1fs" % ("; ".join(summary), elapsed))


def test_criterion_07_scaling_advisory():
    sizes = [125, 250, 500, 1000, 2000, 4000]
    out = run_cli(
        "bench",
        "--sizes", ",".join(str(s) for s in sizes),
        "-k", "3",
        "--repeats", "3",
        "--seed", "acc7",
    ).stdout.strip().splitlines()
    assert out[0] == "n,size,m,k,run,naive_seconds,split_seconds,alpha,beta"
    naive_by_n = {}
    split_by_n = {}
    size_by_n = {}
    for line in out[1:]:
        cells = line.split(",")
        n = int(cells[0])
        size_by_n[n] = int(cells[1])
        naive_by_n.setdefault(n, []).append(float(cells[5]))
        split_by_n.setdefault(n, []).append(float(cells[6]))

    def slope(times_by_n):
        xs = [math.log(size_by_n[n]) for n in sizes]
        ys = [math.log(sum(times_by_n[n]) / len(times_by_n[n])) for n in sizes]
        mx = sum(xs) / len(xs)
        my = sum(ys) / len(ys)
        return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
            (x - mx) ** 2 for x in xs
        )

    naive_slope = slope(naive_by_n)
    split_slope = slope(split_by_n)
    line = "naive slope %.2f (want >= 1.6), split slope %.2f (want <= 1.3)" % (
        naive_slope, split_slope,
    )
    if naive_slope >= 1.6 and split_slope <= 1.3:
        print("ACCEPTANCE 7 PASS: " + line)
    else:
        warnings.warn("scaling demo outside advisory bounds: " + line)
        print("ACCEPTANCE 7 WARN (advisory, not failing): " + line)


def test_criterion_08_clique_reduction():
    rng = random.Random(808)
    k = 3
    yes = 0
    for i in range(10_000):
        n = rng.randint(1, 7)
        p = rng.choice((0.15, 0.3, 0.5, 0.7, 0.85))
        pairs = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        G = Graph(n, pairs)
        if G.m == 0:
            continue
        red = reduce_clique_to_ksh(G, k)
        assert red.k_prime == (k + 1) * k * (k - 1) // 2
        assert red.H.rank <= k * k
        found, witness = decide_ksh_reduction(red)
        expect = has_k_clique(G, k)
        assert found == expect, "instance %d: reduction decider disagrees" % i
        if found:
            yes += 1
            assert witness["accounting"] == red.k_prime
    # Spot the all-lower property on a few instances rather than all 10^4.
    rng2 = random.Random(809)
    for _ in range(50):
        n = rng2.randint(2, 7)
        G = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng2.random() < 0.5])
        if G.m == 0:
            continue
        red = reduce_clique_to_ksh(G, k)
        assert apply_split(red.H, k * k).beta == 0
    assert 0 < yes < 10_000
    print(
        "ACCEPTANCE 8 PASS: 10^4 graphs, clique <=> connected-section "
        "agreement exact (%d YES instances)" % yes
    )


def test_criterion_09_kirchhoff():
    checked = 0
    for n in range(1, 7):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            A = [[0] * n for _ in range(n)]
            for i, (u, v) in enumerate(pairs):
                if mask >> i & 1:
                    A[u][v] = A[v][u] = 1
            expect = brute_spanning_trees(A)
            if expect == 0 and n > 1:
                continue  # disconnected: determinant path refuses by contract
            assert spanning_tree_count(A) == expect
            checked += 1
    assert checked == 27476  # connected labeled graphs on 1..6 vertices
    print("ACCEPTANCE 9 PASS: %d connected graphs, exact agreement" % checked)


def test_criterion_10_ov_and_kstar():
    rng = random.Random(1010)
    yes = 0
    for i in range(1000):
        n = rng.randint(2, 64)
        d = rng.randint(1, 16)
        q = rng.choice((0.1, 0.25, 0.5, 0.75))
        vectors = [
            [1 if rng.random() < q else 0 for _ in range(d)] for _ in range(n)
        ]
        answer, _, _ = solve_ov_via_nc(vectors)
        assert answer == ov_pairwise(vectors), "OV mismatch on instance %d" % i
        yes += answer
    assert 0 < yes < 1000

    checked = 0
    rng = random.Random(1011)
    for i in range(100):
        n = rng.randint(2, 8)
        m = rng.randint(1, 6)
        edges = set()
        for _ in range(m):
            s = rng.randint(1, min(4, n))
            edges.add(tuple(sorted(rng.sample(range(n), s))))
        H = Hypergraph(n, sorted(edges))
        ok, recovered = kstar_identity_check(H, 3)
        assert ok, "star identity failed on instance %d" % i
        G = gaifman(H)
        for v in range(H.n):
            if H.degree(v) > 0:
                assert recovered[v] == len(G.adj[v])
                checked += 1
    print(
        "ACCEPTANCE 10 PASS: OV agreement on 1000 instances (%d YES); "
        "star identity exact, %d degrees recovered" % (yes, checked)
    )


def test_criterion_11_determinism(tmp_path):
    # Identical invocations, fixed seed, --threads 1: byte-identical output.
    args = ("count", TOY, "-k", "3", "--samples", "500", "--seed", "acc11",
            "--runs", "2", "--threads", "1")
    first = run_cli(*args).stdout
    second = run_cli(*args).stdout
    assert first == second
    assert len(first.splitlines()) > 1

    exact1 = run_cli("exact", TOY, "-k", "3").stdout
    exact2 = run_cli("exact", TOY, "-k", "3").stdout
    assert exact1 == exact2

    # Tables are byte-identical for any thread count.
    digests = set()
    for threads in (1, 2, 5):
        path = tmp_path / ("t%d.hmt" % threads)
        run_cli(
            "build", TOY, "-k", "3", "--seed", "acc11",
            "--threads", str(threads), "-o", str(path),
        )
        digests.add(path.read_bytes())
    assert len(digests) == 1
    print(
        "ACCEPTANCE 11 PASS: CLI output byte-stable under fixed seed; "
        "tables identical across thread counts"
    )
