#!/usr/bin/env python3
"""End-to-end benchmark of the hypergraphlets CLI, with an optional traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout: the package is imported from
``src/`` and is not installed.  Each workload takes one fixed instance from
``synth``, relabels its vertices and reorders its edges from the seed, writes
it to a ``.hg`` file, and then drives the real CLI as one closed-loop client,
in cycles of commands, each in a fresh process (every CLI user pays for
imports and cold caches):

    stats   ref  build -k K -o T.hmt   ref  sample --table T.hmt   ref  count

``stats`` stands for set-up: interpreter start, imports and parsing the
input.  Spreading it over the run, rather than timing it back to back at
the start, keeps one slow stretch of the host from setting its median.
``ref`` is ``reference.py``, a fixed workload outside the package; the time
of each of build, sample and count is reported as a multiple of the median
of the reference runs around it, which cancels the host's drift.

The CLI seed of a cycle rotates through ``SUBSEEDS`` values derived from
the seed, so one run averages over several colorings.  ``sample`` from the
table must print the same bytes as ``count`` with the same CLI seed, and
every cycle must print the same bytes as the first cycle with its CLI seed.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.  With
``--trace 1`` cycles alternate between untraced and traced; the traced ones
wrap the layer boundaries listed in ``launch.SPEC`` and the last line holds
per-layer metrics, tracing overhead and span coverage.  Details (every
metric with its op count and tail percentile, raw seconds, the input
fingerprint, the output digests, and the spans) go to ``.perfbench_work/``
in the checkout.

Exit status: 0 when every command succeeded and passed its checks, 1 when
any did not (the result line still prints, with ``"correct": false``), 2
when the checkout has no source tree to run.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

OP_TIMEOUT_S = 30  # keeps a hung command inside the 180 s a run may take

# CLI seeds per run.  The coloring a CLI seed draws moves the cost of a
# powerlaw-k6 command by several percent; rotating averages that out, and a
# run of a dozen cycles still repeats most of them, which checks that their
# output does not change.
SUBSEEDS = 7


class Workload:
    """One input family and the CLI parameters every cycle uses on it.
    BENCHMARK.json says why each workload is in the benchmark."""

    def __init__(self, name, family, params, k, samples, threads=1):
        self.name = name
        self.family = family
        self.params = params
        self.k = k
        self.samples = samples
        self.threads = threads


# A (4,3)-nice two-scale instance: 500 small edges of size 2..3 and four
# 500-vertex edges, each vertex in at most three of them.  The cost model
# keeps the four large edges in the upper part.
NICE = dict(n=1000, m=504, alpha=4, beta=3, big_size=500, rho=500 / 504)

# Power-law edge sizes are capped at 30.  The fixed instance has rank 21, and
# the cost model picks alpha = 21, beta = 0 on it.
WORKLOADS = {w.name: w for w in [
    Workload("powerlaw-k6", "powerlaw", dict(n=1000, m=800, max_size=30), k=6,
             samples=200, threads=min(2, os.cpu_count() or 1)),
    Workload("nice-k4", "nice", NICE, k=4, samples=1000),
]}


# -- inputs --------------------------------------------------------------


def make_input(w, seed, path):
    """One fixed instance per workload, relabelled and reordered by seed.

    Seeded instances of the same family differ in rank and shape, which
    moved a command's cost across seeds by more than the host does; a
    relabelling keeps the work and still gives every seed its own file.
    """
    from hypergraphlets.hypercore import Hypergraph, serialize_hypergraph
    from hypergraphlets.synth import nice_hypergraph, power_law_hypergraph

    synth_seed = "perfbench|%s" % w.family
    p = w.params
    if w.family == "powerlaw":
        H = power_law_hypergraph(p["n"], p["m"], synth_seed,
                                 max_size=p["max_size"])
    else:
        H = nice_hypergraph(p["n"], p["m"], p["alpha"], p["beta"],
                            p["big_size"], p["rho"], synth_seed)
    rng = random.Random("perfbench|relabel|%d" % seed)
    perm = list(range(H.n))
    rng.shuffle(perm)
    edges = [tuple(perm[v] for v in e) for e in H.edges]
    rng.shuffle(edges)
    H = Hypergraph(H.n, edges)
    data = serialize_hypergraph(H).encode()
    path.write_bytes(data)
    return {"n": H.n, "m": H.m, "rank": H.rank,
            "sha256": hashlib.sha256(data).hexdigest()}


# -- running one command -------------------------------------------------


class Op:
    """One command.  seed is its CLI seed; for build, sample and count,
    ref_s is set by ``reference_times`` once the run is over."""

    __slots__ = ("kind", "cycle", "traced", "seed", "ref_s", "wall_s", "code",
                 "timed_out", "stdout", "stderr", "record", "problems")

    def __init__(self, kind, cycle, traced, seed=None):
        self.kind = kind
        self.cycle = cycle
        self.traced = traced
        self.seed = seed
        self.ref_s = None
        self.problems = []
        self.record = None

    @property
    def failed(self):
        return bool(self.problems)


def run_process(cmd, env, out_path, err_path):
    """Run cmd to completion; return (wall seconds, exit code, timed out).

    A blocking waitpid, with a timer thread to kill a hung child, times the
    exit exactly; Popen.wait(timeout) would poll in steps of up to 50 ms.
    """
    killed = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(OP_TIMEOUT_S, kill)
        timer.start()
        try:
            _pid, status = os.waitpid(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, killed.is_set()


class Runner:
    def __init__(self, w, seed, work, inst, trace):
        self.w = w
        self.seed = seed
        self.trace = trace
        self.work = work
        self.inst = inst
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        # Cached bytecode, as an installed package has; the warm-up writes it.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.hg = str(work / "input.hg")
        self.hmt = str(work / "table.hmt")
        self.ops = []
        self.csv = {}  # CLI seed -> (sha256, bytes) of its first CSV
        self.next_id = 0

    def cli_seed(self, cycle):
        """The CLI seed of a cycle.  In a traced run the untraced cycle 2j
        and the traced cycle 2j+1 share one, so trace.overhead compares
        like with like."""
        turn = cycle // 2 if self.trace else cycle
        return "%d-%d" % (self.seed, turn % SUBSEEDS)

    def cli_args(self, kind, s):
        w = self.w
        if kind == "build":
            return ["build", self.hg, "-k", str(w.k), "--seed", s,
                    "-o", self.hmt]
        if kind == "sample":
            return ["sample", self.hg, "--table", self.hmt,
                    "--samples", str(w.samples), "--seed", s,
                    "--threads", str(w.threads)]
        return ["count", self.hg, "-k", str(w.k), "--samples", str(w.samples),
                "--seed", s, "--threads", str(w.threads)]

    def _run(self, cmd, op):
        out_path = self.work / "op.out"
        err_path = self.work / "op.err"
        op.wall_s, op.code, op.timed_out = run_process(
            cmd, self.env, out_path, err_path)
        op.stdout = out_path.read_bytes()
        op.stderr = err_path.read_bytes()
        if op.timed_out:
            op.problems.append("timed out after %d s" % OP_TIMEOUT_S)
        elif op.code != 0:
            op.problems.append("exit code %d" % op.code)
        if op.stderr:
            op.problems.append("stderr: %s" % op.stderr[:300].decode(errors="replace"))

    def run_stats(self, cycle, traced):
        """The plain CLI, no launcher: `stats` parses the input and exits.
        traced only marks the cycle it belongs to; nothing is wrapped."""
        from checks import check_stats

        op = Op("stats", cycle, traced)
        self._run([sys.executable, "-m", "hypergraphlets.cli", "stats", self.hg], op)
        if not op.failed:
            op.problems += check_stats(op.stdout.decode(), self.inst["n"], self.inst["m"])
        self.ops.append(op)
        return op

    def run_reference(self, cycle, traced):
        """reference.py, timed like a command; its output must not change."""
        from reference import EXPECTED

        op = Op("reference", cycle, traced)
        self._run([sys.executable, str(HERE / "reference.py")], op)
        if not op.failed and op.stdout.decode().strip() != EXPECTED:
            op.problems.append("reference printed %r, not %r"
                               % (op.stdout[:80].decode(errors="replace"), EXPECTED))
        self.ops.append(op)
        return op

    def run_op(self, kind, cycle, traced):
        """A reference run, then the command."""
        ref = self.run_reference(cycle, traced)
        if ref.failed:
            return ref
        op = Op(kind, cycle, traced, self.cli_seed(cycle))
        record = self.work / "op.json"
        if record.exists():
            record.unlink()
        cmd = [sys.executable, str(HERE / "launch.py"), str(record)]
        if traced:
            cmd += ["--trace", "--op-id", str(self.next_id)]
        self.next_id += 1
        self._run(cmd + ["--"] + self.cli_args(kind, op.seed), op)
        if not op.failed:
            try:
                op.record = json.loads(record.read_text())
            except (OSError, ValueError) as exc:
                op.problems.append("no launcher record: %s" % exc)
        self.ops.append(op)
        return op

    def run_cycle(self, cycle, traced):
        """stats, then build, sample and count, each after a reference run;
        stop the cycle at the first failure."""
        from checks import check_build

        if self.run_stats(cycle, traced).failed:
            return
        build = self.run_op("build", cycle, traced)
        if build.failed:
            return
        build.problems += check_build(build.stdout.decode(), self.w.k,
                                      self.inst["n"], self.hmt)
        if build.failed:
            return
        for kind in ("sample", "count"):
            op = self.run_op(kind, cycle, traced)
            if op.failed:
                return
            digest = hashlib.sha256(op.stdout).hexdigest()
            first = self.csv.setdefault(op.seed, (digest, op.stdout))
            if digest != first[0]:
                op.problems.append(
                    "%s output digest %s differs from the first CSV %s of "
                    "seed %s" % (kind, digest[:12], first[0][:12], op.seed))

    def check_first_csvs(self):
        """Full CSV check, once per CLI seed: every other CSV of that seed
        has the same digest."""
        from checks import check_csv

        for seed, (_digest, data) in self.csv.items():
            problems = check_csv(data.decode(), self.w.k, self.w.samples)
            for op in self.ops:
                if (op.kind in ("sample", "count") and op.seed == seed
                        and not op.failed):
                    op.problems += problems


# -- statistics ------------------------------------------------------------


def reference_times(ops):
    """Set each build, sample and count op's ref_s to the median wall time
    of the three reference runs around it: the two before it and the one
    after.  The host's slow and fast states last seconds or longer, so all
    three see the command's state, and their median is steadier than the
    one run just before it."""
    refs = [(i, op.wall_s) for i, op in enumerate(ops)
            if op.kind == "reference" and not op.failed]
    for i, op in enumerate(ops):
        if op.kind in ("build", "sample", "count"):
            before = [w for j, w in refs if j < i][-2:]
            after = [w for j, w in refs if j > i][:1]
            op.ref_s = statistics.median(before + after)


def tail(values):
    """(median, (percentile, value) or None).

    The percentile is the nearest-rank one with exactly ten values above
    it, the highest that still has ten; below eleven values there is none.
    """
    vals = sorted(values)
    n = len(vals)
    med = statistics.median(vals)
    if n < 11:
        return med, None
    return med, (100.0 * (n - 10) / n, vals[n - 11])


def describe(name, values, unit):
    """A metric over one run: its median goes on the result line; the
    tail percentile, minimum and maximum are printed and saved with it."""
    row = {"name": name, "unit": unit, "value": None, "min": None, "max": None,
           "percentile": None, "percentile_value": None, "ops": len(values)}
    if not values:  # every command of this kind failed
        return row
    med, pct = tail(values)
    row.update(value=med, min=min(values), max=max(values))
    if pct is not None:
        row.update(percentile=pct[0], percentile_value=pct[1])
    return row


def end_to_end(runner):
    """Rows for every end-to-end figure, raw seconds included.

    Build, sample and count times are ratios to each command's ref_s (unit
    ``ref``); the samples-per-second rate becomes samples per reference run
    (``1/ref``).  ``RESULT_METRICS`` names the rows
    that go on the result line; the raw seconds are printed and saved.
    """
    ok = [op for op in runner.ops if not op.failed and not op.traced]
    timed = {kind: [op for op in ok if op.kind == kind]
             for kind in ("stats", "reference", "build", "sample", "count")}
    estimates = []  # (samples, seconds inside sharded_estimate, reference s)
    for op in timed["sample"] + timed["count"]:
        est = sum(e - s for name, s, e, _p in op.record["spans"]
                  if name == "sampler.estimate")
        estimates.append((op.record["counts"]["samples"], est, op.ref_s))
    by_cycle = {}
    for op in ok:
        if op.record is not None:
            rss = op.record["notes"]["peak_rss_kb"] / 1024.0
            by_cycle[op.cycle] = max(by_cycle.get(op.cycle, 0.0), rss)

    def rel(kind):
        return [op.wall_s / op.ref_s for op in timed[kind]]

    def raw(kind):
        return [op.wall_s for op in timed[kind]]

    return [
        describe("setup_s", raw("stats"), "s"),
        describe("count_rel", rel("count"), "ref"),
        describe("build_rel", rel("build"), "ref"),
        describe("sample_rel", rel("sample"), "ref"),
        describe("samples_per_ref", [n * r / e for n, e, r in estimates], "1/ref"),
        describe("peak_rss_mb", list(by_cycle.values()), "MB"),
        describe("count_s", raw("count"), "s"),
        describe("build_s", raw("build"), "s"),
        describe("sample_s", raw("sample"), "s"),
        describe("samples_per_s", [n / e for n, e, _r in estimates], "1/s"),
        describe("reference_s", raw("reference"), "s"),
    ]


RESULT_METRICS = ("setup_s", "count_rel", "build_rel", "sample_rel",
                  "samples_per_ref", "peak_rss_mb")


# -- traced run -------------------------------------------------------------


def per_layer(runner):
    """name -> (value, unit) over the traced cycles, and their number.

    Values are medians over traced cycles of per-cycle sums; a cycle's
    build, sample and count share its spans.  Overhead pairs each traced
    cycle with the untraced cycle just before it, which has the same CLI
    seed, and compares their count times over their reference runs.
    """
    from tracer import root_coverage, totals_by_name

    done = [op for op in runner.ops if op.record is not None and not op.failed]
    count_rel = {(op.cycle, op.traced): op.wall_s / op.ref_s for op in done
                 if op.kind == "count"}
    traced = [op for op in done if op.traced]
    per_cycle = []
    overhead = []
    for c in sorted({op.cycle for op in traced}):
        ops = [op for op in traced if op.cycle == c]
        if len(ops) != 3:
            continue
        spans = []
        counts = {}
        for op in ops:
            base = len(spans)
            spans += [[n, s, e, p + base if p >= 0 else -1]
                      for n, s, e, p in op.record["spans"]]
            for key, val in op.record["counts"].items():
                counts[key] = counts.get(key, 0) + val
        notes = ops[-1].record["notes"]
        per_cycle.append(layer_metrics(totals_by_name(spans), counts, notes))
        if (c - 1, False) in count_rel:
            overhead.append(count_rel[(c, True)] / count_rel[(c - 1, False)])
    metrics = {}
    for name in (per_cycle[0] if per_cycle else {}):
        metrics[name] = (statistics.median(m[name][0] for m in per_cycle),
                         per_cycle[0][name][1])
    if overhead:
        metrics["trace.overhead"] = statistics.median(overhead), "ratio"
    coverage = [root_coverage(op.record["spans"]) / op.wall_s for op in traced]
    if coverage:
        metrics["trace.coverage"] = statistics.median(coverage), "share"
    return metrics, len(per_cycle)


def layer_metrics(totals, counts, notes):
    """One traced cycle's per-layer numbers: name -> (value, unit)."""
    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    key_calls = calls("canonlab.key")
    growth = counts.get("key_cache_growth", 0)
    neigh = counts.get("sampler.Generators.sample_neigh", 0)
    return {
        "hypercore.parse_s": (self_s("hypercore.parse"), "s"),
        "hypercore.gaifman_s": (self_s("hypercore.gaifman"), "s"),
        "hypercore.gaifman_pairs": (counts.get("gaifman_pairs", 0), "count"),
        "splitter.choose_split_s": (self_s("splitter.choose_split"), "s"),
        "splitter.alpha_split_s": (self_s("splitter.alpha_split"), "s"),
        "splitter.alpha": (notes.get("alpha", 0), "count"),
        "splitter.beta": (notes.get("beta", 0), "count"),
        "buildup.build_s": (totals.get("buildup.build", {}).get("total_s", 0.0), "s"),
        "buildup.dp_self_s": (self_s("buildup.build"), "s"),
        "buildup.nw_s": (self_s("buildup.nw"), "s"),
        "buildup.nw_rounds": (calls("buildup.nw"), "count"),
        "buildup.write_table_s": (self_s("buildup.write_table"), "s"),
        "buildup.read_table_s": (self_s("buildup.read_table"), "s"),
        "buildup.load_table_s": (self_s("buildup.load_table"), "s"),
        "buildup.table_bytes": (counts.get("table_bytes", 0), "bytes"),
        "sampler.generators_s": (self_s("sampler.generators"), "s"),
        "sampler.alias_tables": (calls("sampler.alias_build"), "count"),
        "sampler.alias_build_s": (self_s("sampler.alias_build"), "s"),
        "sampler.treelet_self_s": (self_s("sampler.treelet"), "s"),
        "sampler.draws_per_neigh": (
            counts.get("sampler.VoseAlias.draw", 0) / neigh if neigh else 0.0,
            "ratio"),
        "sampler.sigma_s": (self_s("sampler.sigma"), "s"),
        "sampler.outcome_self_s": (self_s("sampler.outcome"), "s"),
        "sampler.extract_s": (self_s("sampler.extract"), "s"),
        "sampler.aggregate_self_s": (self_s("sampler.estimate"), "s"),
        "canonlab.key_s": (self_s("canonlab.key"), "s"),
        "canonlab.key_calls": (key_calls, "count"),
        "canonlab.key_cache_hit_ratio": (
            (key_calls - growth) / key_calls if key_calls else 0.0, "ratio"),
        "canonlab.key_cache_entries": (notes.get("key_cache_entries", 0), "count"),
        "canonlab.shapes": (notes.get("shapes", 0), "count"),
    }


# -- main -------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "hypergraphlets" / "cli.py").is_file():
        print("error: no source tree at %s; run from a full checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    w = WORKLOADS[args.workload]
    label = "%s-seed%d-trace%d" % (w.name, args.seed, args.trace)
    work = WORK / label
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    fingerprint = make_input(w, args.seed, work / "input.hg")
    runner = Runner(w, args.seed, work, fingerprint, bool(args.trace))
    # Untimed: the first import in a fresh checkout compiles bytecode.
    warm = runner.run_stats(-1, False)
    runner.ops.remove(warm)

    start = time.perf_counter()
    cycle = 0
    while (time.perf_counter() - start < args.seconds
           or cycle < (2 if args.trace else 1)):
        runner.run_cycle(cycle, traced=bool(args.trace) and cycle % 2 == 1)
        cycle += 1
    measured_s = time.perf_counter() - start
    runner.check_first_csvs()
    reference_times(runner.ops)

    attempted = ([warm] if warm.failed else []) + runner.ops
    failed = [op for op in attempted if op.failed]
    for op in failed:
        print("FAILED %s (cycle %d): %s" % (op.kind, op.cycle,
                                            "; ".join(op.problems)))
    count_notes = next((op.record["notes"] for op in runner.ops
                        if op.kind == "count" and op.record), {})
    fingerprint.update(
        alpha=count_notes.get("alpha"),
        beta=count_notes.get("beta"),
        k=w.k, samples=w.samples, threads=w.threads, nproc=os.cpu_count(),
        cli_seeds=sorted(runner.csv),
        python=platform.python_version())
    rows = end_to_end(runner)
    share = len(failed) / len(attempted)
    rows.append(dict(describe("failed_ops", [share], "ratio"),
                     ops=len(attempted)))
    results = {
        "workload": w.name, "seed": args.seed,
        "trace": args.trace, "seconds": args.seconds,
        "measured_s": measured_s, "cycles": cycle,
        "input": fingerprint,
        "csv_sha256": {seed: d for seed, (d, _b) in sorted(runner.csv.items())},
        "end_to_end": rows,
        "ops": [{"kind": op.kind, "cycle": op.cycle, "traced": op.traced,
                 "seed": op.seed, "wall_s": op.wall_s, "ref_s": op.ref_s,
                 "peak_rss_kb": op.record["notes"]["peak_rss_kb"]
                 if op.record else None,
                 "problems": op.problems} for op in attempted],
    }
    print("input %s" % json.dumps(fingerprint, sort_keys=True))
    for seed, digest in results["csv_sha256"].items():
        print("csv sha256 %s (seed %s)" % (digest, seed))
    for r in rows:
        if r["value"] is None:
            print("%-15s %12s %-6s" % (r["name"], "-", r["unit"]))
            continue
        tail_text = ("p%.4g %.6g" % (r["percentile"], r["percentile_value"])
                     if r["percentile"] is not None else "no tail (<11 ops)")
        print("%-15s %12.6g %-6s median, %s, min %.6g, max %.6g, %d ops"
              % (r["name"], r["value"], r["unit"], tail_text, r["min"],
                 r["max"], r["ops"]))

    if args.trace:
        metrics, traced_cycles = per_layer(runner)
        results["per_layer"] = {k: {"value": v, "unit": u}
                                for k, (v, u) in metrics.items()}
        results["traced_cycles"] = traced_cycles
        spans = [op.record for op in runner.ops if op.traced and op.record]
        (work / "spans.json").write_text(json.dumps(spans))
        for name, (value, unit) in metrics.items():
            print("%-30s %14.6g %s" % (name, value, unit))
        out_metrics = results["per_layer"]
    else:
        out_metrics = {r["name"]: {"value": r["value"], "unit": r["unit"]}
                       for r in rows if r["name"] in RESULT_METRICS}
    (WORK / ("%s.json" % label)).write_text(json.dumps(results, indent=1))
    correct = not failed
    print(json.dumps({"correct": correct, "attempted": len(attempted),
                      "failed": len(failed), "metrics": out_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
