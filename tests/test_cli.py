import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hypergraphlets.canonlab import key_from_text
from hypergraphlets.hypercore import parse_hypergraph

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
    out = json.loads(run_cli("split", TOY, "--alpha", "3").stdout)
    assert out == {
        "alpha": 3,
        "beta": 1,
        "lower_cost": 17,
        "upper_cost": 13,
        "lower_edges": 3,
        "upper_edges": 1,
        "weighted": 13.04,
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


def test_gen_synthetic_requires_out():
    run_cli("gen-synthetic", "--model", "powerlaw", "-n", "10", "-m", "5", expect=2)


def test_build_requires_out():
    # Refused before the input is read: a missing file does not matter.
    proc = run_cli("build", "/nonexistent/nope.hg", "-k", "3", expect=2)
    assert "build requires -o/--out" in proc.stderr


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
    table.write_bytes(raw[:6] + b"\x00" + raw[7:])
    proc = run_cli("sample", str(hg), "--table", str(table), "--samples", "10",
                   expect=1)
    assert "degree 40 exceeds the 2^degree cap 1" in one_line_error(proc)


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


@pytest.mark.parametrize("repeats", ["0", "-1"])
def test_bench_repeats_must_be_positive(repeats):
    proc = run_cli("bench", "--sizes", "16", "--repeats", repeats, expect=2)
    assert "--repeats" in usage_error_line(proc)


def test_bad_bench_sizes_is_module_error():
    proc = run_cli("bench", "--sizes", "abc", expect=1)
    assert "bench sizes must be integers" in one_line_error(proc)


@pytest.mark.parametrize("gamma", ["5", "-1", "nan"])
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
