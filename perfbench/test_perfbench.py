"""Self-tests for the benchmark's own code.

    python3 -m pytest perfbench

They need the package source in ``src/`` next to this directory, as the
benchmark does.
"""

import contextlib
import io
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import launch  # noqa: E402
from checks import check_csv  # noqa: E402
from run import (  # noqa: E402
    WORKLOADS, Op, end_to_end, make_input, reference_times, tail)
from tracer import (  # noqa: E402
    Tracer, TraceError, resolve, root_coverage, self_times, totals_by_name)

from hypergraphlets import cli  # noqa: E402
from hypergraphlets.hypercore import (  # noqa: E402
    parse_hypergraph, serialize_hypergraph)
from hypergraphlets.synth import nice_hypergraph  # noqa: E402


# -- span arithmetic ------------------------------------------------------


def test_self_time_subtracts_children_once():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3];
    # a second root d [12, 13] has no children.
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["d", 12.0, 13.0, -1],
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.0])
    totals = totals_by_name(spans + [["c", 6.0, 7.0, 3]])
    assert totals["c"] == {"calls": 2, "total_s": pytest.approx(2.0),
                           "self_s": pytest.approx(2.0)}
    assert totals["b"]["self_s"] == pytest.approx(3.0)
    assert root_coverage(spans) == pytest.approx(11.0)


def test_self_time_clips_overlapping_children():
    spans = [["p", 0.0, 4.0, -1], ["x", 1.0, 3.0, 0], ["y", 2.0, 6.0, 0]]
    # children cover [1, 4] once, even though they overlap and y outlives p
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_tail_percentile_keeps_ten_values_above():
    assert tail(list(range(1, 21))) == (10.5, (50.0, 10))
    assert tail(list(range(10)))[1] is None
    _, (p, value) = tail(list(range(100)))
    assert (p, value) == (90.0, 89)


def _op(kind, wall_s):
    op = Op(kind, 0, False, "1-0")
    op.wall_s = wall_s
    if kind in ("build", "sample", "count"):
        spans = [] if kind == "build" else [["sampler.estimate", 0.0, wall_s / 2, -1]]
        op.record = {"spans": spans, "counts": {"samples": 100},
                     "notes": {"peak_rss_kb": 2048}}
    return op


def test_command_times_are_relative_to_the_reference_runs_around_them():
    failed_ref = _op("reference", 9.0)
    failed_ref.problems.append("exit code 1")
    runner = SimpleNamespace(ops=[
        _op("stats", 0.1),
        _op("reference", 0.5), _op("build", 0.25),
        _op("reference", 0.4), _op("sample", 0.8),
        _op("reference", 1.0), _op("count", 3.0),
        failed_ref, _op("reference", 0.6),
    ])
    reference_times(runner.ops)
    # build: median(0.5 | 0.4); sample: median(0.5, 0.4 | 1.0);
    # count: median(0.4, 1.0 | 0.6), the failed run skipped
    assert [op.ref_s for op in runner.ops[2:7:2]] == pytest.approx([0.45, 0.5, 0.6])
    value = {r["name"]: r["value"] for r in end_to_end(runner)}
    assert value["build_rel"] == pytest.approx(0.25 / 0.45)
    assert value["sample_rel"] == pytest.approx(1.6)
    assert value["count_rel"] == pytest.approx(5.0)
    # 100 samples in 0.4 s against 0.5 s, and in 1.5 s against 0.6 s
    assert value["samples_per_ref"] == pytest.approx((125.0 + 40.0) / 2)
    assert value["samples_per_s"] == pytest.approx((250.0 + 100 / 1.5) / 2)
    assert value["setup_s"] == pytest.approx(0.1)
    assert value["reference_s"] == pytest.approx(0.55)
    assert value["peak_rss_mb"] == pytest.approx(2.0)


def test_seeds_relabel_one_fixed_instance(tmp_path):
    w = WORKLOADS["nice-k4"]
    a = make_input(w, 1, tmp_path / "a.hg")
    assert make_input(w, 1, tmp_path / "again.hg") == a
    b = make_input(w, 2, tmp_path / "b.hg")
    assert a["sha256"] != b["sha256"]
    Ha = parse_hypergraph((tmp_path / "a.hg").read_text())
    Hb = parse_hypergraph((tmp_path / "b.hg").read_text())
    assert sorted(map(len, Ha.edges)) == sorted(map(len, Hb.edges))
    assert sorted(map(len, Ha.incidence)) == sorted(map(len, Hb.incidence))


# -- wrapping --------------------------------------------------------------


def _targets(spec):
    out = []
    for module_name, attr, _span, _after in spec:
        owner, leaf = resolve(module_name, attr)
        out.append((owner, leaf, vars(owner)[leaf]))
    return out


@pytest.fixture
def nice_input(tmp_path):
    H = nice_hypergraph(120, 64, 4, 3, 30, 60 / 64, "perfbench-test")
    path = tmp_path / "in.hg"
    path.write_text(serialize_hypergraph(H))
    return str(path)


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def test_traced_run_removes_every_wrapper_and_keeps_output(nice_input, tmp_path):
    before = _targets(launch.SPEC)
    argv = ["count", nice_input, "-k", "4", "--samples", "60", "--seed", "3"]
    plain = _run_cli(argv)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = launch.run(str(tmp_path / "rec.json"), argv, trace=True)
    assert code == 0
    assert buf.getvalue() == plain
    for owner, leaf, original in before:
        assert vars(owner)[leaf] is original, (owner, leaf)
    rec = (tmp_path / "rec.json").read_text()
    for name in ("hypercore.parse", "sampler.extract", "canonlab.key",
                 "buildup.nw", "splitter.alpha_split"):
        assert '"%s"' % name in rec


def test_missing_function_fails_loudly_and_installs_nothing():
    before = _targets(launch.SPEC)
    tracer = Tracer()
    spec = launch.SPEC[:3] + [("hypergraphlets.sampler", "no_such_function",
                               "sampler.nothing", None)]
    with pytest.raises(TraceError, match="no_such_function"):
        tracer.install(spec)
    assert not tracer.installed
    for owner, leaf, original in before:
        assert vars(owner)[leaf] is original


# -- output checks ---------------------------------------------------------


@pytest.fixture
def good_csv(nice_input):
    text = _run_cli(["count", nice_input, "-k", "4", "--samples", "80",
                     "--seed", "5"])
    assert check_csv(text, 4, 80) == []
    return text


def test_checker_rejects_a_dropped_row(good_csv):
    lines = good_csv.splitlines(keepends=True)
    assert len(lines) > 3
    for drop in range(1, len(lines)):
        assert check_csv("".join(lines[:drop] + lines[drop + 1:]), 4, 80)


def test_checker_rejects_any_changed_number_digit(good_csv):
    changed = 0
    for line_start in _row_starts(good_csv):
        i = good_csv.index(",", line_start)  # numeric cells follow the key
        end = good_csv.index("\n", i)
        for j in range(i, end):
            if good_csv[j].isdigit():
                other = str((int(good_csv[j]) + 1) % 10)
                bad = good_csv[:j] + other + good_csv[j + 1:]
                assert check_csv(bad, 4, 80), "changed %r accepted" % bad[i:end]
                changed += 1
    assert changed > 50


def test_checker_rejects_a_key_out_of_canonical_form(good_csv):
    start = next(_row_starts(good_csv))
    key = good_csv[start:good_csv.index(",", start)]
    order, masks = key.split(":")
    bad_key = "%s:%s" % (order, "-".join(reversed(masks.split("-"))))
    bad = good_csv[:start] + bad_key + good_csv[start + len(key):]
    assert check_csv(bad, 4, 80)
    loose = good_csv[:start] + "4:1-2" + good_csv[start + len(key):]
    assert check_csv(loose, 4, 80)


def _row_starts(text):
    pos = text.index("\n") + 1
    while pos < len(text):
        yield pos
        pos = text.index("\n", pos) + 1


def test_checker_rejects_wrong_header_and_order(good_csv):
    assert check_csv(good_csv.replace("key,", "shape,", 1), 4, 80)
    assert check_csv(good_csv, 5, 80)
    assert check_csv(good_csv, 4, 81)
