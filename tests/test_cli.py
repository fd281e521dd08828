import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hypergraphlets import buildup, cli
from hypergraphlets.buildup import _width, read_table
from hypergraphlets.canonlab import key_from_text
from hypergraphlets.hypercore import parse_hypergraph
from hypergraphlets.sampler import estimate_weights

from test_buildup import TOY_TEXT

DATA = Path(__file__).resolve().parent.parent / "examples" / "data"
TOY = str(DATA / "toy.hg")
K4 = str(DATA / "k4.el")
OV_YES = str(DATA / "ov_yes.txt")

CSV_HEADER = "key,samples,inv_sigma_sum,colorful_estimate,relative_frequency"


def run_cli(*args, expect=0, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "hypergraphlets.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == expect, (
        "exit %d != %d\nstdout:\n%s\nstderr:\n%s"
        % (proc.returncode, expect, proc.stdout, proc.stderr)
    )
    return proc


def parse_rows(stdout):
    lines = stdout.strip().splitlines()
    assert lines[0] == CSV_HEADER
    rows = []
    for line in lines[1:]:
        key_text, samples, inv, est, rel = line.split(",")
        rows.append(
            {
                "key": key_from_text(key_text),
                "samples": int(samples),
                "inv": Fraction(inv) if inv else None,
                "estimate": Fraction(est),
                "rel": float(rel),
            }
        )
    return rows


# --- fixtures ------------------------------------------------------------------

def test_toy_fixture_matches_buildup_toy():
    assert parse_hypergraph(Path(TOY).read_text()) == parse_hypergraph(TOY_TEXT)


# --- stats / curve / split --------------------------------------------------

def test_stats():
    out = json.loads(run_cli("stats", TOY).stdout)
    assert out == {
        "vertices": 8,
        "edges": 4,
        "rank": 5,
        "max_degree": 3,
        "size": 20,
    }


def test_stats_no_dedupe(tmp_path):
    path = tmp_path / "dup.hg"
    path.write_text("0 1\n1 0\n1 2\n")
    assert json.loads(run_cli("stats", str(path)).stdout)["edges"] == 2
    out = run_cli("stats", str(path), "--no-dedupe-edges").stdout
    assert json.loads(out)["edges"] == 3


def test_curve_csv():
    out = run_cli("curve", TOY).stdout.strip().splitlines()
    assert out[0] == "alpha,beta,lower_cost,upper_cost,weighted"
    parsed = [line.split(",") for line in out[1:]]
    assert [(int(a), int(b), int(lo), int(up)) for a, b, lo, up, _ in parsed] == [
        (0, 3, 0, 27),
        (2, 2, 8, 17),
        (3, 1, 17, 13),
        (5, 0, 42, 8),
    ]
    assert float(parsed[3][4]) == pytest.approx(8.34)


def test_curve_to_file(tmp_path):
    target = tmp_path / "curve.csv"
    run_cli("curve", TOY, "-o", str(target))
    assert target.read_text().startswith("alpha,beta,lower_cost,upper_cost")


def test_split_fixed_alpha():
    # toy's candidates are 0, 2, 3 and 5: alpha 4 splits the edges like 3
    # and 9 like 5, so each reports that candidate's costs.
    for alpha, beta, lower_edges, costs in [(3, 1, 3, (17, 13, 13.04)),
                                            (4, 1, 3, (17, 13, 13.04)),
                                            (9, 0, 4, (42, 8, 8.34))]:
        out = json.loads(run_cli("split", TOY, "--alpha", str(alpha)).stdout)
        assert out == {
            "alpha": alpha,
            "beta": beta,
            "lower_cost": costs[0],
            "upper_cost": costs[1],
            "lower_edges": lower_edges,
            "upper_edges": 4 - lower_edges,
            "weighted": costs[2],
        }


def test_split_auto_and_outputs(tmp_path):
    prefix = tmp_path / "toy"
    out = json.loads(
        run_cli("split", TOY, "--alpha", "auto", "-o", str(prefix)).stdout
    )
    assert out["alpha"] == 5 and out["beta"] == 0
    lower = (tmp_path / "toy.lower.hg").read_text()
    upper = (tmp_path / "toy.upper.hg").read_text()
    assert lower.startswith("# vertices 8")
    assert upper.startswith("# vertices 8")
    assert "0 1 2 4 6" in lower and upper.strip() == "# vertices 8"


@pytest.mark.parametrize("text, lower, upper", [
    ("5 9\n9 7 11\n", "5 9\n", "9 7 11\n"),
    ("a b c\nc d\nd e f g\n", "# vertices 7\nc d\n",
     "# vertices 7\na b c\nd e f g\n"),
], ids=["decimal", "labeled"])
def test_split_parts_keep_input_labels(tmp_path, text, lower, upper):
    src = tmp_path / "in.hg"
    src.write_text(text)
    run_cli("split", str(src), "--alpha", "2", "-o", str(tmp_path / "sn"))
    assert (tmp_path / "sn.lower.hg").read_text() == lower
    assert (tmp_path / "sn.upper.hg").read_text() == upper


def test_split_rejects_naive():
    proc = run_cli("split", TOY, "--alpha", "naive", expect=1)
    assert "naive" in proc.stderr


def test_bad_alpha_is_usage_error():
    run_cli("split", TOY, "--alpha", "wat", expect=2)


# --- build / sample / count / exact ------------------------------------------

def test_build_writes_table(tmp_path):
    table = tmp_path / "toy.hmt"
    out = json.loads(
        run_cli("build", TOY, "-k", "3", "--seed", "s9", "-o", str(table)).stdout
    )
    assert out["k"] == 3
    assert out["mode"] == "split"
    assert out["alpha"] == 5
    assert out["n"] == 8
    assert out["W"] == "36"
    assert table.exists() and table.stat().st_size > 0


def test_build_naive_mode(tmp_path):
    table = tmp_path / "naive.hmt"
    out = json.loads(
        run_cli(
            "build", TOY, "-k", "3", "--seed", "s9",
            "--alpha", "naive", "-o", str(table),
        ).stdout
    )
    assert out["mode"] == "naive"
    assert out["alpha"] is None
    assert out["W"] == "36"


def test_build_tables_thread_invariant(tmp_path):
    t1 = tmp_path / "t1.hmt"
    t4 = tmp_path / "t4.hmt"
    run_cli("build", TOY, "-k", "3", "--seed", "s9", "--threads", "1", "-o", str(t1))
    run_cli("build", TOY, "-k", "3", "--seed", "s9", "--threads", "4", "-o", str(t4))
    assert t1.read_bytes() == t4.read_bytes()


# sha256 of .hmt files as build writes them.  The synthetic instance is a
# dense 24-vertex power-law file at k = 6, whose arrays take widths 1, 2
# and 4; at alpha 6 its split keeps six upper edges.
TABLE_DIGESTS = {
    "toy-k3-a2": "035dc4c3de1f94ce287321dacb7ae36564b2ad4bf6a02303e1e212cc63a44ecb",
    "toy-k4-aauto": "ada5a348a88847b51a037193b217163a4d175086219aca70e65990f4e1c73726",
    "powerlaw-k6-a6": "5ebed0d262278242458c454cf6db567109d7e272b26976a0b576f562bf68cf9f",
}


# Runs the CLI in a child whose interpreter has no built-in SHA-256, so
# buildup falls back to hashlib's.
NO_BUILTIN_SHA256 = (
    "import sys; sys.modules['_sha256'] = sys.modules['_sha2'] = None; "
    "import hashlib; from hypergraphlets import buildup, cli; "
    "assert buildup.sha256 is hashlib.sha256; sys.exit(cli.main(sys.argv[1:]))")


def test_table_bytes_are_pinned(tmp_path):
    hg = tmp_path / "powerlaw.hg"
    run_cli("gen-synthetic", "-n", "24", "-m", "30", "--max-size", "12",
            "--exponent", "1.5", "--seed", "5", "-o", str(hg))
    for name, hg_path, k, seed, alpha in [("toy-k3-a2", TOY, "3", "4", "2"),
                                          ("toy-k4-aauto", TOY, "4", "4", "auto"),
                                          ("powerlaw-k6-a6", str(hg), "6", "5", "6")]:
        args = [hg_path, "-k", k, "--seed", seed, "--alpha", alpha]
        table = tmp_path / (name + ".hmt")
        run_cli("build", *args, "-o", str(table))
        assert hashlib.sha256(table.read_bytes()).hexdigest() == TABLE_DIGESTS[name]
        fallback = tmp_path / (name + ".fallback.hmt")
        proc = subprocess.run([sys.executable, "-c", NO_BUILTIN_SHA256, "build",
                               *args, "-o", str(fallback)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(fallback.read_bytes()).hexdigest() == TABLE_DIGESTS[name]
    tables = read_table(str(table))["tables"]
    assert {_width(max(vec)) for tbl in tables for vec in tbl.values()} == {1, 2, 4}


def has_builtin_sha256():
    for name in ("_sha256", "_sha2"):
        try:
            __import__(name)
        except ImportError:
            continue
        return True
    return False


@pytest.mark.skipif(not has_builtin_sha256(),
                    reason="this interpreter has no built-in SHA-256")
def test_no_command_loads_openssl(tmp_path):
    # hashlib loads _hashlib, and with it OpenSSL's libcrypto (about 3.6 MB
    # of peak RSS); build, sample and count hash with the built-in SHA-256.
    table = str(tmp_path / "toy.hmt")
    code = ("import sys; from hypergraphlets.cli import main; "
            "assert main(['build', %r, '-k', '3', '-o', %r]) == 0; "
            "assert main(['sample', %r, '--table', %r, '--samples', '20']) == 0; "
            "assert main(['count', %r, '-k', '3', '--samples', '20']) == 0; "
            "print(sorted(m for m in ('_hashlib', 'hashlib') if m in sys.modules), "
            "file=sys.stderr)" % (TOY, table, TOY, table, TOY))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[]\n"


@pytest.mark.parametrize("alpha", ["auto", "naive"])
def test_sample_equals_count_pipeline(tmp_path, alpha):
    table = tmp_path / "toy.hmt"
    run_cli("build", TOY, "-k", "3", "--seed", "s9", "--alpha", alpha,
            "-o", str(table))
    sampled = run_cli(
        "sample", TOY, "--table", str(table), "--samples", "400", "--seed", "s9"
    ).stdout
    counted = run_cli(
        "count", TOY, "-k", "3", "--samples", "400", "--seed", "s9",
        "--alpha", alpha,
    ).stdout
    assert sampled == counted
    rows = parse_rows(sampled)
    assert sum(r["samples"] for r in rows) == 400
    assert sum(r["rel"] for r in rows) == pytest.approx(1.0)


def test_count_deterministic_and_seed_sensitive():
    a = run_cli("count", TOY, "-k", "3", "--samples", "300", "--seed", "t2").stdout
    b = run_cli("count", TOY, "-k", "3", "--samples", "300", "--seed", "t2").stdout
    c = run_cli("count", TOY, "-k", "3", "--samples", "300", "--seed", "d4").stdout
    assert a == b
    assert a != c
    assert len(parse_rows(a)) > 1


def test_count_dead_coloring_yields_empty_table():
    # Seed d1's run-0 coloring misses a color on the toy instance; the
    # estimate is an empty table, not an error.
    out = run_cli("count", TOY, "-k", "3", "--samples", "50", "--seed", "d1").stdout
    assert out.strip() == CSV_HEADER


def test_count_threads_partition_budget():
    out = run_cli(
        "count", TOY, "-k", "3", "--samples", "301",
        "--seed", "t2", "--threads", "3",
    ).stdout
    rows = parse_rows(out)
    assert sum(r["samples"] for r in rows) == 301


def test_count_uniform_mode():
    out = run_cli(
        "count", TOY, "-k", "3", "--samples", "300", "--seed", "u", "--uniform"
    ).stdout
    rows = parse_rows(out)
    # Rejection keeps at most the budget.
    assert 0 < sum(r["samples"] for r in rows) <= 300
    for r in rows:
        assert r["inv"] == r["samples"]


def test_count_naive_is_the_split_at_the_rank():
    # toy.hg has rank 5: the naive baseline is the split at alpha = 5.
    naive = run_cli(
        "count", TOY, "-k", "3", "--samples", "400", "--seed", "s9",
        "--alpha", "naive",
    ).stdout
    at_rank = run_cli(
        "count", TOY, "-k", "3", "--samples", "400", "--seed", "s9",
        "--alpha", "5",
    ).stdout
    assert naive == at_rank
    assert len(parse_rows(naive)) > 1


def test_exact_frozen():
    out = run_cli("exact", TOY, "-k", "2").stdout.strip().splitlines()
    assert out == [
        CSV_HEADER,
        "2:1-3,8,,4,0.6153846153846154",
        "2:1-2-3,4,,2,0.3076923076923077",
        "2:3,1,,1/2,0.07692307692307693",
    ]


def test_exact_k3_totals():
    rows = parse_rows(run_cli("exact", TOY, "-k", "3").stdout)
    assert sum(r["samples"] for r in rows) == 19
    # colorful_estimate = (k!/k^k) * count keeps the column comparable
    # with sampling output.
    p3 = Fraction(6, 27)
    for r in rows:
        assert r["estimate"] == p3 * r["samples"]
        assert r["inv"] is None
    assert len(rows) == 8


def test_exact_agrees_with_count_estimates():
    # 2000 samples, 3 runs: every exact type should be near its estimate.
    exact_rows = {
        r["key"]: r for r in parse_rows(run_cli("exact", TOY, "-k", "2").stdout)
    }
    approx_rows = {
        r["key"]: r
        for r in parse_rows(
            run_cli(
                "count", TOY, "-k", "2", "--samples", "2000",
                "--seed", "agree", "--runs", "3",
            ).stdout
        )
    }
    for key, row in exact_rows.items():
        est = approx_rows[key]["estimate"] / Fraction(1, 2)  # undo p_k scale
        assert abs(float(est) - row["samples"]) <= 0.35 * row["samples"] + 0.5


@pytest.mark.parametrize("args", [
    ("count", TOY, "-k", "3", "--samples", "300", "--runs", "3", "--seed", "w1"),
    ("exact", TOY, "-k", "4"),
])
def test_csv_order_and_shares_follow_the_fraction_estimates(args, capsys):
    # The estimates have unequal denominators, and exact at k = 4 has
    # ties, which go to the key.  Rows come sorted by estimate, then key,
    # and each share prints as float(estimate / total), both taken on the
    # Fractions themselves.
    assert cli.main(list(args)) == 0
    rows = parse_rows(capsys.readouterr().out)
    estimates = [r["estimate"] for r in rows]
    assert len({e.denominator for e in estimates}) > 1
    order = sorted(rows, key=lambda r: (-r["estimate"], r["key"]))
    assert [r["key"] for r in rows] == [r["key"] for r in order]
    total = sum(estimates, Fraction(0))
    assert [r["rel"] for r in rows] == [float(e / total) for e in estimates]
    weights = estimate_weights({r["key"]: r for r in rows})
    assert all(type(x) is int for x in weights.values())
    first = rows[0]
    for r in rows:
        assert weights[r["key"]] * first["estimate"] == weights[first["key"]] * r["estimate"]


# --- sampling corner cases ----------------------------------------------------

def test_sample_empty_when_no_colorful(tmp_path):
    # A 2-vertex edge cannot be colorful with k=3 colors on 2 vertices when
    # the coloring misses a color; the sampler reports an empty table.
    path = tmp_path / "pair.hg"
    path.write_text("0 1\n")
    table = tmp_path / "pair.hmt"
    run_cli("build", str(path), "-k", "3", "--seed", "s", "-o", str(table))
    out = run_cli(
        "sample", str(path), "--table", str(table), "--samples", "10", "--seed", "s"
    ).stdout
    assert out.strip() == CSV_HEADER


def test_zero_vertex_host_prints_only_the_header(tmp_path):
    path = tmp_path / "zero.hg"
    path.write_text("# vertices 0\n")
    table = tmp_path / "zero.hmt"
    run_cli("build", str(path), "-k", "2", "--seed", "s", "-o", str(table))
    for args in (["count", str(path), "-k", "2"],
                 ["sample", str(path), "--table", str(table)]):
        out = run_cli(*args, "--samples", "5", "--seed", "s").stdout
        assert out == CSV_HEADER + "\n"


def test_sample_wrong_host_is_module_error(tmp_path):
    table = tmp_path / "toy.hmt"
    run_cli("build", TOY, "-k", "3", "--seed", "s", "-o", str(table))
    other = tmp_path / "other.hg"
    other.write_text("0 1\n")
    proc = run_cli(
        "sample", str(other), "--table", str(table), "--samples", "10",
        "--seed", "s", expect=1,
    )
    assert "vertices" in proc.stderr


# --- hardness demos -----------------------------------------------------------

def test_reduce_clique_outputs(tmp_path):
    prefix = tmp_path / "k4red"
    out = json.loads(run_cli("reduce-clique", K4, "-k", "4", "-o", str(prefix)).stdout)
    assert out["k_prime"] == 30
    assert out["vertices"] == 30
    assert out["edges"] == 6
    side = json.loads((tmp_path / "k4red.json").read_text())
    assert side["block_size"] == 6
    assert side["edge_map"]["0-1"]["singleton"] == 24
    text = (tmp_path / "k4red.hg").read_text()
    assert text.startswith("# vertices 30")
    assert all(len(line.split()) == 13 for line in text.splitlines()[1:])


def test_ksh_yes_and_witness():
    out = json.loads(run_cli("ksh", K4, "-k", "3", "--reduce").stdout)
    assert out["answer"] is True
    assert out["k_prime"] == 12
    assert out["mode"] == "clique-reduction"
    assert out["witness"]["accounting"] == 12
    assert out["witness"]["blocks"] == 3
    assert out["witness"]["singletons"] == 3


def test_ksh_no_exit_code(tmp_path):
    c5 = tmp_path / "c5.el"
    c5.write_text("# vertices 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
    out = json.loads(run_cli("ksh", str(c5), "-k", "3", "--reduce", expect=1).stdout)
    assert out["answer"] is False
    assert out["witness"] is None


@pytest.mark.parametrize("k", ["0", "-1"])
@pytest.mark.parametrize("reduce", [[], ["--reduce"]], ids=["generic", "reduce"])
def test_ksh_nonpositive_k_is_usage_error(k, reduce):
    proc = run_cli("ksh", K4 if reduce else TOY, "-k", k, *reduce, expect=2)
    assert "-k" in usage_error_line(proc)


def test_ksh_k_above_n_is_a_no():
    out = json.loads(run_cli("ksh", TOY, "-k", "9", expect=1).stdout)
    assert out["answer"] is False


def test_ksh_generic_on_hypergraph():
    out = json.loads(run_cli("ksh", TOY, "-k", "3").stdout)
    assert out["answer"] is True
    assert out["mode"] == "generic"


def test_ov_yes():
    out = json.loads(run_cli("ov", OV_YES).stdout)
    assert out == {
        "answer": True,
        "problem": "ov",
        "n": 3,
        "dimension": 2,
        "min_eta": 1,
        "threshold": 2,
        "pairwise_agrees": True,
    }


def test_ov_no(tmp_path):
    path = tmp_path / "no.txt"
    path.write_text("% all pairwise intersecting\n111\n110\n011\n")
    out = json.loads(run_cli("ov", str(path), expect=1).stdout)
    assert out["answer"] is False
    assert out["min_eta"] == 2
    assert out["pairwise_agrees"] is True


def test_ov_skip_check(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("10\n01\n")
    out = json.loads(run_cli("ov", str(path), "--skip-check").stdout)
    assert out["answer"] is True
    assert "pairwise_agrees" not in out


def test_ov_bad_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("10\n0x\n")
    run_cli("ov", str(path), expect=1)


# --- generation and bench -------------------------------------------------------

def test_gen_synthetic_powerlaw_round_trip(tmp_path):
    target = tmp_path / "pl.hg"
    run_cli(
        "gen-synthetic", "--model", "powerlaw", "-n", "40", "-m", "25",
        "--seed", "g1", "--max-size", "8", "-o", str(target),
    )
    stats = json.loads(run_cli("stats", str(target)).stdout)
    assert stats["vertices"] == 40
    assert stats["edges"] == 25
    assert stats["rank"] <= 8


def test_gen_synthetic_nice(tmp_path):
    target = tmp_path / "nice.hg"
    run_cli(
        "gen-synthetic", "--model", "nice", "-n", "80", "-m", "12",
        "--seed", "g2", "--alpha", "5", "--beta", "2", "--big-size", "16",
        "--rho", "0.5", "-o", str(target),
    )
    out = json.loads(run_cli("split", str(target), "--alpha", "5").stdout)
    assert out["beta"] <= 2
    assert out["upper_edges"] == 6


@pytest.mark.parametrize("args", [
    ["--exponent", "nan"], ["--exponent", "inf"], ["--exponent", "2000"],
    ["--exponent", "-2000"], ["-m", "-1"],
    ["--model", "nice", "--rho", "nan"], ["--model", "nice", "--rho", "3"],
    ["--model", "nice", "-m", "-1"],
], ids=["exp-nan", "exp-inf", "exp-2000", "exp-overflow", "powerlaw-m",
        "rho-nan", "rho-3", "nice-m"])
def test_gen_synthetic_bad_parameters_are_module_errors(tmp_path, args):
    target = tmp_path / "g.hg"
    proc = run_cli("gen-synthetic", "-n", "100", "-m", "10", "--big-size", "20",
                   *args, "-o", str(target), expect=1)
    one_line_error(proc)
    assert not target.exists()


@pytest.mark.parametrize("args", [
    ["--model", "nice", "-n", "6", "-m", "7", "--alpha", "3", "--big-size", "5",
     "--beta", "6", "--rho", "0"],
    ["-n", "10", "-m", "200000"],
    ["-n", "10", "-m", "2000000"],
], ids=["nice-large-part", "powerlaw-2e5", "powerlaw-2e6"])
def test_gen_synthetic_too_many_edges_is_refused_up_front(tmp_path, args):
    target = tmp_path / "g.hg"
    proc = run_cli("gen-synthetic", *args, "-o", str(target), expect=1)
    assert "edge space too small" in one_line_error(proc)
    assert not target.exists()


def test_gen_synthetic_out_of_attempts_says_so(tmp_path):
    # 10 vertices hold exactly 1013 edges of sizes 2..10, so the up-front
    # check passes, but the size law rarely draws the sizes still missing.
    target = tmp_path / "g.hg"
    proc = run_cli("gen-synthetic", "-n", "10", "-m", "1013", "-o", str(target),
                   expect=1)
    assert one_line_error(proc) == (
        "error: ran out of attempts: 50750 draws gave 1012 of 1013 distinct edges")
    assert not target.exists()


def test_gen_synthetic_requires_out():
    run_cli("gen-synthetic", "--model", "powerlaw", "-n", "10", "-m", "5", expect=2)


def test_build_requires_out():
    # Refused before the input is read: a missing file does not matter.
    proc = run_cli("build", "/nonexistent/nope.hg", "-k", "3", expect=2)
    assert "build requires -o/--out" in proc.stderr


@pytest.mark.parametrize("command", [["build", "-k", "3"],
                                     ["count", "-k", "3", "--samples", "5"]])
def test_unwritable_out_fails_before_the_work(tmp_path, command):
    # A missing directory or a directory as -o is refused with the message
    # and exit code a failed write gives, before the input is even read:
    # the input here does not exist, and the -o error is the one reported.
    for out, message in [(tmp_path / "missing" / "x.out", "error: no such file: "),
                         (tmp_path, "error: not a file: ")]:
        proc = run_cli(command[0], str(tmp_path / "absent.hg"), *command[1:],
                       "-o", str(out), expect=2)
        assert one_line_error(proc) == message + str(out)


def test_prefix_out_may_name_a_directory(tmp_path):
    # split's -o is a prefix: a directory of that name is no obstacle.
    (tmp_path / "p").mkdir()
    info = json.loads(run_cli("split", TOY, "--alpha", "2", "-o",
                              str(tmp_path / "p")).stdout)
    assert Path(info["lower_file"]).is_file()
    run_cli("split", TOY, "-o", str(tmp_path / "missing" / "p"), expect=2)


def test_bench_csv(tmp_path):
    out = run_cli(
        "bench", "--sizes", "60,120", "-k", "3", "--repeats", "1",
        "--large-edges", "2", "--seed", "b",
    ).stdout.strip().splitlines()
    assert out[0] == "n,size,m,k,run,naive_seconds,split_seconds,alpha,beta"
    assert len(out) == 3
    for line in out[1:]:
        cells = line.split(",")
        assert int(cells[0]) in (60, 120)
        assert float(cells[5]) > 0 and float(cells[6]) > 0
        assert int(cells[7]) == 5


# --- exit codes ----------------------------------------------------------------

def test_missing_file_exit_2():
    run_cli("stats", "/nonexistent/nope.hg", expect=2)


def test_unknown_command_exit_2():
    run_cli("frobnicate", TOY, expect=2)


def one_line_error(proc):
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    return lines[0]


@pytest.mark.parametrize("command", ["count", "build", "exact"])
def test_k_above_key_limit_is_refused(tmp_path, command):
    proc = run_cli(command, TOY, "-k", "9", "-o", str(tmp_path / "out"), expect=1)
    assert "order <= 8" in one_line_error(proc)
    assert not (tmp_path / "out").exists()


def test_bad_hm_budget_is_module_error():
    env = dict(os.environ, HM_BUDGET="abc")
    proc = run_cli("exact", TOY, "-k", "3", expect=1, env=env)
    assert one_line_error(proc).startswith("error: HM_BUDGET ")


@pytest.mark.parametrize("args", [
    pytest.param([TOY, "-k", "3"], id="3"),
    pytest.param([TOY, "-k", "9"], id="9"),
    pytest.param([K4, "-k", "3", "--reduce"], id="reduce"),
])
def test_ksh_bad_hm_budget_is_module_error(args):
    # Read before the k > n shortcut, so -k 9 on 8 vertices fails like exact.
    env = dict(os.environ, HM_BUDGET="abc")
    proc = run_cli("ksh", *args, expect=1, env=env)
    assert one_line_error(proc).startswith("error: HM_BUDGET ")


@pytest.mark.parametrize("args, what", [
    (["exact", TOY, "-k", "3"], "connected-set enumeration"),
    (["ksh", TOY, "-k", "3"], "C(8, 3) = 56 subsets"),
    (["ksh", K4, "-k", "3", "--reduce"], "4 block sets"),
], ids=["exact", "ksh", "ksh-reduce"])
def test_small_hm_budget_is_module_error(args, what):
    env = dict(os.environ, HM_BUDGET="3")
    proc = run_cli(*args, expect=1, env=env)
    assert one_line_error(proc) == (
        "error: %s exceeds budget 3 (set HM_BUDGET to raise)" % what)


def test_plan_over_budget_is_refused_before_any_subset(tmp_path, monkeypatch, capsys):
    # Each of 16 vertices lies in 10 of 12 random edges.  At --alpha 2 every
    # edge is upper and beta = 10 passes --cap, but the inclusion-exclusion
    # plan would hold 16 * 2^10 subsets.
    rng = random.Random(21)
    edges = [[] for _ in range(12)]
    for v in range(16):
        for j in rng.sample(range(12), 10):
            edges[j].append(v)
    hg = tmp_path / "dense.hg"
    hg.write_text("".join(" ".join(map(str, e)) + "\n" for e in edges))
    out = tmp_path / "t.hmt"

    def enumerate_nothing(*args):
        raise AssertionError("a subset was enumerated")

    monkeypatch.setattr(buildup, "combinations", enumerate_nothing)
    monkeypatch.setenv("HM_BUDGET", "10000")
    assert cli.main(["build", str(hg), "-k", "3", "--alpha", "2", "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: inclusion-exclusion plan of 16384 subsets "
                            "exceeds budget 10000 (set HM_BUDGET to raise)\n")
    assert not out.exists()


def test_superscript_digit_under_a_header_is_a_label(tmp_path):
    path = tmp_path / "sup.hg"
    path.write_text("# vertices 3\n0 \u00b2\n", encoding="utf-8")
    out = json.loads(run_cli("stats", str(path)).stdout)
    assert out["vertices"] == 3 and out["edges"] == 1


@pytest.mark.parametrize("n", ["20000000", "99999999999"])
def test_huge_vertex_header_is_module_error(tmp_path, n):
    # The child caps its own address space, so the test never asks for more.
    path = tmp_path / "huge.hg"
    path.write_text("# vertices %s\n0 1\n" % n)
    limit = 512 << 20
    code = ("import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (%d, %d)); "
            "from hypergraphlets.cli import main; sys.exit(main(sys.argv[1:]))"
            % (limit, limit))
    proc = subprocess.run([sys.executable, "-c", code, "stats", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert one_line_error(proc) == "error: out of memory"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("command", [["stats"], ["build", "-k", "3"],
                                     ["count", "-k", "3", "--samples", "5"]],
                         ids=["stats", "build", "count"])
def test_failed_write_is_module_error(command):
    # /dev/full accepts the open and refuses the write (ENOSPC).
    proc = run_cli(command[0], TOY, *command[1:], "-o", "/dev/full", expect=1)
    assert one_line_error(proc) == "error: /dev/full: No space left on device"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_endless_table_is_refused_on_its_head():
    # /dev/full reads zeros without end.  The child caps its address space
    # and runs under a timeout, so a table read to its end would fail there
    # with "out of memory", never in this process.
    limit = 256 << 20
    code = ("import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (%d, %d)); "
            "from hypergraphlets.cli import main; sys.exit(main(sys.argv[1:]))"
            % (limit, limit))
    proc = subprocess.run([sys.executable, "-c", code, "sample", TOY, "--table",
                           "/dev/full", "--samples", "5"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert one_line_error(proc) == "error: not a counter table file"


def test_inconsistent_table_is_module_error(tmp_path):
    # Scaling the order-2 counts keeps the trailer valid and W unchanged,
    # since W sums order k only.  A neighbor draw below d * C(T,S,v) at an
    # order-2 treelet then passes every partition without landing: one error
    # line, not a CSV.
    table = tmp_path / "toy.hmt"
    run_cli("build", TOY, "-k", "3", "--seed", "s9", "-o", str(table))
    H = parse_hypergraph(Path(TOY).read_text())
    cs = buildup.counterset_from_table(H, read_table(table))
    for t in cs.catalog.of_order(2):
        cs.tables[t.tid] = {S: [1000 * x for x in vec]
                            for S, vec in cs.tables[t.tid].items()}
    buildup.write_table(cs, table)
    assert read_table(table)["W"] == cs.W
    proc = subprocess.run([sys.executable, "-m", "hypergraphlets.cli", "sample",
                           TOY, "--table", str(table), "--samples", "200"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert one_line_error(proc) == (
        "error: counter table inconsistent: the neighbor partitions of C(T,S,v) "
        "sum below d*C(T,S,v)")


@pytest.mark.parametrize("damage", ["truncated", "version1", "trailing", "host",
                                    "k9", "k16"])
def test_damaged_table_is_module_error(tmp_path, damage):
    table = tmp_path / "toy.hmt"
    run_cli("build", TOY, "-k", "3", "--seed", "s9", "-o", str(table))
    raw = table.read_bytes()
    host = TOY
    if damage == "truncated":
        raw = raw[:-20]
    elif damage == "version1":
        raw = raw[:4] + bytes([1]) + raw[5:]
    elif damage == "trailing":
        raw += b"\x00"
    elif damage in ("k9", "k16"):
        raw = raw[:5] + bytes([int(damage[1:])]) + raw[6:]
    else:
        # Same vertex count as toy.hg, two more edges.
        host = tmp_path / "grown.hg"
        host.write_text(Path(TOY).read_text() + "2 3\n5 7\n")
    table.write_bytes(raw)
    proc = run_cli(
        "sample", str(host), "--table", str(table), "--samples", "10",
        "--seed", "s", expect=1,
    )
    line = one_line_error(proc)
    if damage == "version1":
        assert "unsupported table version 1" in line
    elif damage in ("k9", "k16"):
        assert "treelet order %s outside 1..8" % damage[1:] in line
    elif damage == "host":
        assert "table was built on a different hypergraph" in line
    else:
        assert "truncated or corrupt table file" in line


def test_damaged_alpha_is_refused_by_the_recorded_cap(tmp_path):
    # Vertex 0 lies in 40 pairs; the one triple is the whole upper part at
    # alpha 2, so --cap 1 builds.  With the alpha byte damaged to 0 the
    # loader would need 2^40 subsets of vertex 0's type: the cap the build
    # recorded refuses that before any round.
    hg = tmp_path / "star.hg"
    hg.write_text("".join("0 %d\n" % i for i in range(1, 41)) + "41 42 43\n")
    table = tmp_path / "star.hmt"
    run_cli("build", str(hg), "-k", "3", "--alpha", "2", "--cap", "1",
            "--seed", "s1", "-o", str(table))
    raw = table.read_bytes()
    assert raw[6] == 2
    # The trailer is recomputed: a file written under another alpha would
    # carry a valid one, and the recorded cap is what must refuse it.
    damaged = raw[:6] + b"\x00" + raw[7:-32]
    table.write_bytes(damaged + hashlib.sha256(damaged).digest())
    proc = run_cli("sample", str(hg), "--table", str(table), "--samples", "10",
                   expect=1)
    assert "degree 40 exceeds the 2^degree cap 1" in one_line_error(proc)
    # A larger alpha is what lowers beta: on toy.hg, alpha 0 has beta 3.
    proc = run_cli("build", TOY, "-k", "3", "--alpha", "0", "--cap", "2",
                   "-o", str(tmp_path / "toy.hmt"), expect=1)
    assert one_line_error(proc).endswith(
        "degree 3 exceeds the 2^degree cap 2; re-split with a larger alpha")


def test_damaged_w_is_refused_by_the_tables(tmp_path):
    # W scales every estimate, so a stored W that is not the sum of the
    # file's own C(T,[k],.) tables must not be used.
    table = tmp_path / "w.hmt"
    out = run_cli("build", TOY, "-k", "3", "--seed", "s2", "-o", str(table)).stdout
    assert json.loads(out)["W"] == "24"
    raw = table.read_bytes()
    # magic, version, k, then alpha 5, cap 20, the coloring seed, n = 8,
    # two digests and eight colors: W is the one-byte varint after them.
    assert raw[6:17] == b"\x05\x14\x07s2|run0\x08"
    pos = 17 + 64 + 8
    assert raw[pos] == 24
    damaged = raw[:pos] + bytes([25]) + raw[pos + 1:-32]
    table.write_bytes(damaged + hashlib.sha256(damaged).digest())
    proc = run_cli("sample", TOY, "--table", str(table), "--samples", "50",
                   "--seed", "1", expect=1)
    assert one_line_error(proc) == (
        "error: table records W = 25, its tables sum to 24")


def usage_error_line(proc):
    assert proc.stdout == ""
    lines = [ln for ln in proc.stderr.splitlines() if "error:" in ln]
    assert len(lines) == 1, proc.stderr
    return lines[0]


@pytest.mark.parametrize("command", [["build"], ["count", "--samples", "5"]],
                         ids=["build", "count"])
def test_negative_cap_is_usage_error(tmp_path, command):
    out = tmp_path / "out"
    args = [command[0], TOY, "-k", "3", *command[1:], "-o", str(out)]
    proc = run_cli(*args, "--cap", "-1", expect=2)
    assert "--cap" in usage_error_line(proc)
    assert not out.exists()
    # Cap 0 stays valid: the naive split has no upper part.
    run_cli(*args, "--alpha", "naive", "--cap", "0")
    assert out.exists()


@pytest.mark.parametrize("k", ["0", "-1"])
@pytest.mark.parametrize("command", [
    ["build", TOY],
    ["count", TOY, "--samples", "5"],
    ["exact", TOY],
    ["reduce-clique", K4],
    ["bench", "--sizes", "16"],
], ids=["build", "count", "exact", "reduce-clique", "bench"])
def test_nonpositive_k_is_usage_error(tmp_path, command, k):
    # Refused by the parser, before any input is read or generated.
    proc = run_cli(*command, "-k", k, "-o", str(tmp_path / "out"), expect=2)
    assert "-k" in usage_error_line(proc)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("repeats", ["0", "-1"])
def test_bench_repeats_must_be_positive(repeats):
    proc = run_cli("bench", "--sizes", "16", "--repeats", repeats, expect=2)
    assert "--repeats" in usage_error_line(proc)


def test_bench_negative_large_edges_is_usage_error():
    for large in ("-8", "-1"):
        proc = run_cli("bench", "--sizes", "16", "--large-edges", large, expect=2)
        assert "--large-edges" in usage_error_line(proc)
    # Zero large edges stays valid.
    out = run_cli("bench", "--sizes", "16", "--repeats", "1", "--large-edges", "0")
    assert len(out.stdout.splitlines()) == 2


def test_bad_bench_sizes_is_module_error():
    proc = run_cli("bench", "--sizes", "abc", expect=1)
    assert "bench sizes must be integers" in one_line_error(proc)


@pytest.mark.parametrize("gamma", ["5", "-1", "nan", "1.5"])
@pytest.mark.parametrize("command", [
    ["curve"],
    ["split", "--alpha", "3"],
    ["count", "-k", "3", "--samples", "5", "--alpha", "naive"],
    ["count", "-k", "3", "--samples", "5", "--alpha", "3"],
], ids=["curve", "split", "count-naive", "count-alpha3"])
def test_gamma_out_of_range_is_module_error(command, gamma):
    proc = run_cli(command[0], TOY, *command[1:], "--gamma", gamma, expect=1)
    assert "gamma must lie in [0, 1]" in one_line_error(proc)


def test_threads_never_change_count_output(tmp_path):
    hg = tmp_path / "pl.hg"
    run_cli("gen-synthetic", "--model", "powerlaw", "-n", "120", "-m", "80",
            "--seed", "g1", "-o", str(hg))
    outs = [
        run_cli("count", str(hg), "-k", "3", "--samples", "300", "--seed", "s1",
                "--threads", str(t)).stdout
        for t in (1, 2, 3)
    ]
    assert outs[0] == outs[1] == outs[2]
    assert len(parse_rows(outs[0])) > 1


@pytest.mark.parametrize("command", [
    ["build", "-k", "3"],
    ["sample", "--table", "unused.hmt"],
    ["count", "-k", "3"],
], ids=["build", "sample", "count"])
def test_threads_zero_is_usage_error(command):
    proc = run_cli(command[0], TOY, *command[1:], "--threads", "0", expect=2)
    assert "--threads" in proc.stderr


def test_module_error_exit_1(tmp_path):
    bad = tmp_path / "bad.hg"
    bad.write_text("0 1\n0 0 1\n")
    proc = run_cli("stats", str(bad), expect=1)
    assert "line 2" in proc.stderr


@pytest.mark.parametrize("seed", ["t2", "s1"], ids=["live", "dead"])
@pytest.mark.parametrize("command", [
    ["count", "-k", "3", "--samples", "0"],
    ["count", "-k", "3", "--runs", "0"],
    ["sample", "--table", "unused.hmt", "--samples", "0"],
], ids=["count-samples", "count-runs", "sample-samples"])
def test_empty_sample_budget_is_usage_error(command, seed):
    proc = run_cli(command[0], TOY, *command[1:], "--seed", seed, expect=2)
    assert "expected a positive integer" in proc.stderr


@pytest.mark.parametrize("command", [
    ["stats"],
    ["count", "-k", "3", "--samples", "5"],
    ["ov"],
])
def test_non_utf8_input_is_module_error(tmp_path, command):
    bad = tmp_path / "utf16.hg"
    bad.write_bytes("0 1\n1 2\n".encode("utf-16"))
    proc = run_cli(command[0], str(bad), *command[1:], expect=1)
    assert "not UTF-8 text" in one_line_error(proc)


def test_byte_order_mark_is_not_part_of_the_input(tmp_path):
    bom = b"\xef\xbb\xbf"
    toy = tmp_path / "toy.hg"
    toy.write_bytes(bom + Path(TOY).read_bytes())
    for args in (["stats"], ["count", "-k", "3", "--samples", "300", "--seed", "s9"]):
        assert (run_cli(args[0], str(toy), *args[1:]).stdout
                == run_cli(args[0], TOY, *args[1:]).stdout)
    ov = tmp_path / "ov.txt"
    ov.write_bytes(bom + Path(OV_YES).read_bytes())
    assert run_cli("ov", str(ov)).stdout == run_cli("ov", OV_YES).stdout


# sha256 of seeded stdout on toy.hg, all at --samples 300 --seed 4.  At
# alpha 0 and 2 the split has upper edges, so these pin the neighbor draws
# through upper edges as well as the lower ones.  A change to any draw, or
# to the order in which the stream is consumed, changes them.
STREAM_MODES = {"plain": [], "uniform": ["--uniform"], "runs": ["--runs", "2"]}
STREAM_DIGESTS = {
    "count-k3-a0-plain": "525f7fa810a0678e09f8995abc7152b91cfb2b14a0b9051623f527dfbc562989",
    "count-k3-a0-uniform": "19699a2777195488c7a6d50ed9463a7a1c55722f509f02070d0cc01ea7f59eae",
    "count-k3-a0-runs": "b2ba0d9862403bb9addfbc8f95ee0599d6f3025ae1c79bde10d9c23d90e3781c",
    "count-k3-a2-plain": "22469ee8a8a4493a8e36458bbca41a579c4e5a7276fd6b3e75fc292f861d02da",
    "count-k3-a2-uniform": "714b8e23d6da36875d2b5f6b31088c3c6f13bc962e37f5fef55bca3773308c3b",
    "count-k3-a2-runs": "53d7044036059573c93c2ca64c6b6c4c15356a5fddb8cba0bbb96ea7c1b177dd",
    "count-k4-a0-plain": "e36646e5464585f5c1e5f00f1f2710703bbf1b60f24dea76013700dcf46d6984",
    "count-k4-a0-uniform": "6203ae59a4e28497c26cd3b48069a55047c9621b3939d135c9bb81c58fa7c52d",
    "count-k4-a0-runs": "0c2e655c0b427a87de3aac48a921e5603af2a248f70c8a23fc08bd85fdc5ef99",
    "count-k4-a2-plain": "0fa9dade3cd884aa641d5562d6c7ad666b36198e26b8c356884a6fc2fdc18fc1",
    "count-k4-a2-uniform": "869147818eca3815f4158edd1b2c760b61938acb68b16a602cb1a487964c9661",
    "count-k4-a2-runs": "1b21452ddfc2e3c8f5c5a21ed50879d2dbfab500e8770d6524a4d039ba1fb36b",
    # sample reads the build's table, so it prints count's bytes.
    "sample-k3-a2-plain": "22469ee8a8a4493a8e36458bbca41a579c4e5a7276fd6b3e75fc292f861d02da",
    "sample-k3-a2-uniform": "714b8e23d6da36875d2b5f6b31088c3c6f13bc962e37f5fef55bca3773308c3b",
    # A (4,3)-nice file with six 12-vertex upper edges at alpha 4.
    "count-nice-k4-a4-plain": "9fc70537e381fad0609d44365c9bbabda4938473da5efc6fe8e8fcce07154891",
}


def _digest(stdout):
    assert len(parse_rows(stdout)) > 1
    return hashlib.sha256(stdout.encode()).hexdigest()


@pytest.mark.parametrize("mode", sorted(STREAM_MODES))
@pytest.mark.parametrize("alpha", ["0", "2"])
@pytest.mark.parametrize("k", ["3", "4"])
def test_seeded_count_bytes_are_pinned(k, alpha, mode):
    out = run_cli("count", TOY, "-k", k, "--samples", "300", "--seed", "4",
                  "--alpha", alpha, *STREAM_MODES[mode]).stdout
    assert _digest(out) == STREAM_DIGESTS["count-k%s-a%s-%s" % (k, alpha, mode)]


def test_seeded_sample_bytes_are_pinned(tmp_path):
    table = tmp_path / "toy.hmt"
    run_cli("build", TOY, "-k", "3", "--seed", "4", "--alpha", "2", "-o", str(table))
    for mode in ("plain", "uniform"):
        out = run_cli("sample", TOY, "--table", str(table), "--samples", "300",
                      "--seed", "4", *STREAM_MODES[mode]).stdout
        assert _digest(out) == STREAM_DIGESTS["sample-k3-a2-%s" % mode]


def test_seeded_count_bytes_on_large_upper_edges_are_pinned(tmp_path):
    # toy.hg's upper edges hold at most five vertices.  Here six upper edges
    # hold twelve each, so a drift in the draws through large edges fails
    # this test, not only the benchmark.
    hg = tmp_path / "nice.hg"
    run_cli("gen-synthetic", "--model", "nice", "-n", "60", "-m", "30",
            "--alpha", "4", "--beta", "3", "--big-size", "12", "--rho", "0.8",
            "--seed", "4", "-o", str(hg))
    split = json.loads(run_cli("split", str(hg), "--alpha", "4").stdout)
    assert split["upper_edges"] >= 5
    out = run_cli("count", str(hg), "-k", "4", "--samples", "300", "--seed", "4",
                  "--alpha", "4").stdout
    assert _digest(out) == STREAM_DIGESTS["count-nice-k4-a4-plain"]
