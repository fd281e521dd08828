"""Command line interface: one subcommand per pipeline stage.

Exit codes: 0 success (for ksh/ov: YES verdict), 1 module error (for ksh/ov:
NO verdict, distinguishable by the JSON verdict on stdout), 2 usage error or
missing input.  All randomized subcommands are deterministic given --seed.
build, sample and count accept --threads for compatibility; no output
depends on it.
"""

import argparse
import errno
import json
import os
import sys
import time
from fractions import Fraction
from math import factorial

from .buildup import (
    build_counters,
    build_counters_naive,
    counterset_from_table,
    random_coloring,
    read_table,
    write_table,
)
from .canonlab import exact_counts, key_to_text
from .hardlab import (
    decide_ksh_bruteforce,
    decide_ksh_reduction,
    ov_pairwise,
    reduce_clique_to_ksh,
    solve_ov_via_nc,
)
from .hypercore import (
    Graph,
    Hypergraph,
    HypergraphError,
    parse_hypergraph,
    serialize_hypergraph,
)
from .sampler import (
    NoColorfulOccurrences,
    approx_counts,
    build_generators,
    estimate_weights,
    resolve_split,
    sharded_estimate,
)
from .splitter import DEFAULT_GAMMA, apply_split, choose_split_refined, curve_with_costs
from .synth import nice_hypergraph, power_law_hypergraph

CSV_HEADER = "key,samples,inv_sigma_sum,colorful_estimate,relative_frequency"
THREADS_HELP = "accepted for compatibility; output never depends on it"
CAP_HELP = "refuse splits whose upper part has a vertex of degree above this"
# Commands whose -o names a prefix for several files, not a file.
PREFIX_OUT = ("split", "reduce-clique")


def _load(args):
    with open(args.input, "r", encoding="utf-8-sig") as fh:
        return parse_hypergraph(fh.read(), dedupe_edges=not args.no_dedupe_edges)


def _load_graph(args):
    H = _load(args)
    for j, e in enumerate(H.edges):
        if len(e) != 2:
            raise HypergraphError(
                "graph input required: edge %d has %d vertices" % (j, len(e))
            )
    return Graph(H.n, H.edges)


def _check_out(args):
    """Refuse an -o path before any work: its directory must exist, and
    unless it is a prefix it must not name a directory."""
    if not os.path.isdir(os.path.dirname(args.out) or "."):
        raise FileNotFoundError(errno.ENOENT, "no such directory", args.out)
    if args.command not in PREFIX_OUT and os.path.isdir(args.out):
        raise IsADirectoryError(errno.EISDIR, "is a directory", args.out)


def _emit(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_json(obj, path=None):
    _emit(json.dumps(obj, sort_keys=True, indent=2) + "\n", path)


def _rows_csv(rows):
    """rows: key -> dict with samples/inv_sigma_sum/estimate/relative_frequency."""
    lines = [CSV_HEADER]
    weights = estimate_weights(rows)
    order = sorted(rows.items(), key=lambda kv: (-weights[kv[0]], kv[0]))
    for key, row in order:
        inv = row["inv_sigma_sum"]
        lines.append(
            "%s,%d,%s,%s,%r"
            % (
                key_to_text(key),
                row["samples"],
                "" if inv is None else inv,
                row["estimate"],
                row["relative_frequency"],
            )
        )
    return "\n".join(lines) + "\n"


def _parse_alpha(value):
    if value in ("auto", "naive"):
        return value
    try:
        alpha = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "alpha must be 'auto', 'naive', or a nonnegative integer"
        )
    if alpha < 0:
        raise argparse.ArgumentTypeError("fixed alpha must be nonnegative")
    return alpha


def _int_at_least(least, what):
    def parse(value):
        try:
            n = int(value)
        except ValueError:
            n = least - 1
        if n < least:
            raise argparse.ArgumentTypeError(
                "expected a %s integer, got %r" % (what, value))
        return n
    return parse


_positive_int = _int_at_least(1, "positive")
_nonnegative_int = _int_at_least(0, "nonnegative")


def _cmd_stats(args):
    H = _load(args)
    _emit_json(H.stats(), args.out)
    return 0


def _cmd_curve(args):
    H = _load(args)
    lines = ["alpha,beta,lower_cost,upper_cost,weighted"]
    for alpha, beta, lo, up, w in curve_with_costs(H, gamma=args.gamma):
        lines.append("%d,%d,%d,%d,%r" % (alpha, beta, lo, up, w))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_split(args):
    H = _load(args)
    if args.alpha == "auto":
        split, cost = choose_split_refined(H, gamma=args.gamma)
    elif args.alpha == "naive":
        raise HypergraphError("split has no naive mode; use 'auto' or an integer")
    else:
        split = apply_split(H, args.alpha)
        # The largest candidate <= alpha splits the edges alike.
        cost = [row for row in curve_with_costs(H, gamma=args.gamma)
                if row.alpha <= split.alpha][-1]
    info = {
        "alpha": split.alpha,
        "beta": split.beta,
        "lower_edges": split.lower.m,
        "upper_edges": split.upper.m,
        "lower_cost": cost.lower_cost,
        "upper_cost": cost.upper_cost,
        "weighted": cost.weighted,
    }
    if args.out:
        for name, part in (("lower", split.lower), ("upper", split.upper)):
            path = info[name + "_file"] = "%s.%s.hg" % (args.out, name)
            _emit(serialize_hypergraph(Hypergraph(H.n, part.edges, H.tokens)), path)
    _emit_json(info)
    return 0


def _cmd_build(args):
    H = _load(args)
    coloring = random_coloring(H, args.k, "%s|run0" % args.seed)
    split = resolve_split(H, args.k, args.alpha, args.gamma)
    cs = build_counters(H, split, args.k, coloring, cap=args.cap)
    write_table(cs, args.out)
    naive = args.alpha == "naive"
    _emit_json({
        "k": cs.k,
        "n": cs.n,
        "mode": "naive" if naive else "split",
        "alpha": None if naive else cs.split.alpha,
        "W": str(cs.W),
        "table": args.out,
    })
    return 0


def _cmd_sample(args):
    H = _load(args)
    cs = counterset_from_table(H, read_table(args.table))
    mode = "uniform" if args.uniform else "weighted"
    try:
        gens = build_generators(cs)
    except NoColorfulOccurrences:
        _emit(CSV_HEADER + "\n", args.out)
        return 0
    rep = sharded_estimate(gens, args.samples, args.seed, 0, mode=mode)
    _emit(_rows_csv(rep.rows), args.out)
    return 0


def _cmd_count(args):
    H = _load(args)
    mode = "uniform" if args.uniform else "weighted"
    rows, _ = approx_counts(
        H, args.k, args.samples, args.seed, runs=args.runs,
        alpha_policy=args.alpha, gamma=args.gamma, mode=mode, cap=args.cap)
    _emit(_rows_csv(rows), args.out)
    return 0


def _cmd_exact(args):
    H = _load(args)
    counts = exact_counts(H, args.k)
    total = sum(counts.values())
    p_k = Fraction(factorial(args.k), args.k ** args.k)
    rows = {
        key: {
            "samples": cnt,
            "inv_sigma_sum": None,
            "estimate": p_k * cnt,
            "relative_frequency": cnt / total,
        }
        for key, cnt in counts.items()
    }
    _emit(_rows_csv(rows), args.out)
    return 0


def _cmd_reduce_clique(args):
    G = _load_graph(args)
    red = reduce_clique_to_ksh(G, args.k)
    prefix = args.out
    if prefix is None:
        stem = args.input
        for suffix in (".el", ".hg", ".txt"):
            if stem.endswith(suffix):
                stem = stem[: -len(suffix)]
                break
        prefix = stem + ".reduced"
    hg_path = prefix + ".hg"
    sidecar_path = prefix + ".json"
    _emit(serialize_hypergraph(red.H), hg_path)
    _emit_json(red.sidecar(), sidecar_path)
    _emit_json({
        "vertices": red.H.n,
        "edges": red.H.m,
        "k": red.k,
        "k_prime": red.k_prime,
        "hypergraph": hg_path,
        "sidecar": sidecar_path,
    })
    return 0


def _cmd_ksh(args):
    if args.reduce:
        G = _load_graph(args)
        red = reduce_clique_to_ksh(G, args.k)
        answer, witness = decide_ksh_reduction(red)
        _emit_json({
            "problem": "k-sh",
            "mode": "clique-reduction",
            "k": args.k,
            "k_prime": red.k_prime,
            "answer": answer,
            "witness": witness,
        })
    else:
        H = _load(args)
        answer = decide_ksh_bruteforce(H, args.k)
        _emit_json({
            "problem": "k-sh",
            "mode": "generic",
            "n": H.n,
            "k": args.k,
            "answer": answer,
        })
    return 0 if answer else 1


def _read_ov(path):
    vectors = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            toks = line.split() if " " in line or "\t" in line else list(line)
            try:
                vec = tuple(int(t) for t in toks)
            except ValueError:
                raise HypergraphError("line %d: not a 0/1 vector" % ln)
            if any(b not in (0, 1) for b in vec):
                raise HypergraphError("line %d: entries must be 0 or 1" % ln)
            vectors.append(vec)
    return vectors


def _cmd_ov(args):
    vectors = _read_ov(args.input)
    answer, H, eta = solve_ov_via_nc(vectors)
    verdict = {
        "problem": "ov",
        "n": len(vectors),
        "dimension": len(vectors[0]),
        "answer": answer,
        "min_eta": min(eta),
        "threshold": len(vectors) - 1,
    }
    if not args.skip_check:
        baseline = ov_pairwise(vectors)
        verdict["pairwise_agrees"] = baseline == answer
        if baseline != answer:
            _emit_json(verdict)
            raise HypergraphError("neighborhood-count verdict disagrees with baseline")
    _emit_json(verdict)
    return 0 if answer else 1


def _cmd_gen_synthetic(args):
    if args.model == "powerlaw":
        H = power_law_hypergraph(
            args.n, args.m, args.seed, exponent=args.exponent,
            min_size=args.min_size,
            max_size=args.max_size if args.max_size else None)
    else:
        H = nice_hypergraph(
            args.n, args.m, args.alpha_param, args.beta, args.big_size,
            args.rho, args.seed)
    _emit(serialize_hypergraph(H), args.out)
    info = dict(H.stats())
    info["model"] = args.model
    info["file"] = args.out
    _emit_json(info)
    return 0


def _cmd_bench(args):
    try:
        sizes = [int(tok) for tok in args.sizes.split(",") if tok]
    except ValueError:
        raise HypergraphError("bench sizes must be integers, got %r"
                              % args.sizes) from None
    if not sizes:
        raise HypergraphError("bench needs at least one size")
    if args.alpha == "naive":
        raise HypergraphError("bench always times the naive path; "
                              "--alpha picks the split path's threshold")
    lines = ["n,size,m,k,run,naive_seconds,split_seconds,alpha,beta"]
    for n in sizes:
        if n < 16:
            raise HypergraphError("bench sizes must be >= 16")
        small = n // 2
        large = args.large_edges
        m = small + large
        big = max(6, n // 2)
        for run in range(args.repeats):
            H = nice_hypergraph(n, m, 5, 3, big, small / m,
                                "%s|%d|%d" % (args.seed, n, run))
            coloring = random_coloring(H, args.k, "%s|bench|%d|%d"
                                       % (args.seed, n, run))
            t0 = time.perf_counter()
            build_counters_naive(H, args.k, coloring)
            t1 = time.perf_counter()
            # split selection is timed as part of the split path
            if args.alpha == "auto":
                split, _ = choose_split_refined(H)
            else:
                split = apply_split(H, args.alpha)
            build_counters(H, split, args.k, coloring)
            t2 = time.perf_counter()
            lines.append("%d,%d,%d,%d,%d,%.6f,%.6f,%d,%d" % (
                n, H.size, H.m, args.k, run, t1 - t0, t2 - t1,
                split.alpha, split.beta))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hypergraphlets",
        description="Approximate counting of connected induced k-vertex "
                    "sub-hypergraphs by color coding.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name, func, help_text, needs_input=True, out_help="output path"):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if needs_input:
            p.add_argument("input", help="edge-list input file")
            p.add_argument("--no-dedupe-edges", action="store_true",
                           help="keep duplicate edges instead of dropping them")
        p.add_argument("-o", "--out", default=None, help=out_help)
        return p

    add("stats", _cmd_stats, "basic hypergraph statistics as JSON")

    p = add("curve", _cmd_curve, "alpha/beta tradeoff curve as CSV")
    p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)

    p = add("split", _cmd_split, "apply or choose an alpha-split",
            out_help="output prefix: writes PREFIX.lower.hg and PREFIX.upper.hg")
    p.add_argument("--alpha", type=_parse_alpha, default="auto")
    p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)

    p = add("build", _cmd_build, "build counter tables, write a .hmt file")
    p.add_argument("-k", type=_positive_int, required=True)
    p.add_argument("--seed", default="0")
    p.add_argument("--alpha", type=_parse_alpha, default="auto")
    p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)
    p.add_argument("--cap", type=_nonnegative_int, default=20, help=CAP_HELP)
    p.add_argument("--threads", type=_positive_int, default=1, help=THREADS_HELP)

    p = add("sample", _cmd_sample, "sample occurrences from a prebuilt table")
    p.add_argument("--table", required=True, help=".hmt file from build")
    p.add_argument("--samples", type=_positive_int, default=10000)
    p.add_argument("--seed", default="0")
    p.add_argument("--uniform", action="store_true")
    p.add_argument("--threads", type=_positive_int, default=1, help=THREADS_HELP)

    p = add("count", _cmd_count, "end-to-end approximate counts as CSV")
    p.add_argument("-k", type=_positive_int, required=True)
    p.add_argument("--samples", type=_positive_int, default=10000)
    p.add_argument("--seed", default="0")
    p.add_argument("--runs", type=_positive_int, default=1)
    p.add_argument("--alpha", type=_parse_alpha, default="auto")
    p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)
    p.add_argument("--uniform", action="store_true")
    p.add_argument("--cap", type=_nonnegative_int, default=20, help=CAP_HELP)
    p.add_argument("--threads", type=_positive_int, default=1, help=THREADS_HELP)

    p = add("exact", _cmd_exact, "exact counts by subset enumeration as CSV")
    p.add_argument("-k", type=_positive_int, required=True)

    p = add("reduce-clique", _cmd_reduce_clique,
            "clique instance to k-sub-hypergraph instance",
            out_help="output prefix: writes PREFIX.hg and PREFIX.json")
    p.add_argument("-k", type=_positive_int, required=True)

    p = add("ksh", _cmd_ksh, "decide connected k-vertex section existence")
    p.add_argument("-k", type=_positive_int, required=True)
    p.add_argument("--reduce", action="store_true",
                   help="input is a graph; reduce from clique first")

    p = add("ov", _cmd_ov, "decide orthogonal vectors via neighborhood counts")
    p.add_argument("--skip-check", action="store_true",
                   help="skip the quadratic pairwise cross-check")

    p = add("gen-synthetic", _cmd_gen_synthetic,
            "write a synthetic hypergraph", needs_input=False)
    p.add_argument("--model", choices=("powerlaw", "nice"), default="powerlaw")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--seed", default="0")
    p.add_argument("--exponent", type=float, default=3.0)
    p.add_argument("--min-size", type=int, default=2)
    p.add_argument("--max-size", type=int, default=0)
    p.add_argument("--alpha", dest="alpha_param", type=int, default=5)
    p.add_argument("--beta", type=int, default=3)
    p.add_argument("--big-size", type=int, default=32)
    p.add_argument("--rho", type=float, default=0.9)

    p = add("bench", _cmd_bench, "time naive vs split builds, CSV output",
            needs_input=False)
    p.add_argument("--sizes", default="125,250,500,1000,2000,4000")
    p.add_argument("-k", type=_positive_int, default=3)
    p.add_argument("--seed", default="0")
    p.add_argument("--repeats", type=_positive_int, default=3)
    p.add_argument("--large-edges", type=_nonnegative_int, default=4)
    p.add_argument("--alpha", type=_parse_alpha, default=5,
                   help="split threshold for the timed split path; the family "
                        "is built (5,3)-nice, 'auto' asks the cost model")

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command in ("build", "gen-synthetic") and args.out is None:
        parser.error("%s requires -o/--out" % args.command)
    try:
        if args.out is not None:
            _check_out(args)
        return args.func(args)
    except FileNotFoundError as exc:
        print("error: no such file: %s" % (exc.filename or exc), file=sys.stderr)
        return 2
    except IsADirectoryError as exc:
        print("error: not a file: %s" % (exc.filename or exc), file=sys.stderr)
        return 2
    except OSError as exc:
        # A failed write or close names no file: it was the output's.
        print("error: %s: %s" % (exc.filename or args.out or "stdout",
                                 exc.strerror or exc), file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print("error: input is not UTF-8 text (%s)" % exc.reason, file=sys.stderr)
        return 1
    except HypergraphError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
