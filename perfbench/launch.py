"""Run one hypergraphlets CLI command in this process, with wrappers around it.

    python3 perfbench/launch.py RECORD [--trace] [--op-id N] -- CLI ARGS...

The package must be importable (``src`` on PYTHONPATH).  Without
``--trace`` only two wrappers go in: a timer around each
``sharded_estimate`` call (for samples per second) and a note of the split
the cost model chose.  With ``--trace`` every layer boundary in ``SPEC``
gets a span or a call counter.  The wrappers come out again before the
record is written to RECORD as JSON; stdout, stderr and the exit code are
the CLI's own.
"""

import json
import os
import sys

from tracer import Tracer


def _note_split(tracer, _args, _kwargs, result):
    split = result[0]
    tracer.notes["alpha"] = split.alpha
    tracer.notes["beta"] = split.beta


def _count_samples(tracer, args, kwargs, _result):
    K = args[1] if len(args) > 1 else kwargs["K"]
    tracer.counts["samples"] = tracer.counts.get("samples", 0) + K


def _count_pairs(tracer, _args, _kwargs, G):
    tracer.counts["gaifman_pairs"] = tracer.counts.get("gaifman_pairs", 0) + G.m


def _table_bytes(tracer, args, _kwargs, _result):
    tracer.counts["table_bytes"] = os.path.getsize(args[1])


def _key_seen(tracer, _args, _kwargs, key):
    tracer.keys_seen.add(key)


CLI = "hypergraphlets.cli"
SAMPLER = "hypergraphlets.sampler"
SPLITTER = "hypergraphlets.splitter"
BUILDUP = "hypergraphlets.buildup"

# Always installed, traced or not: one timer per sharded_estimate call and
# one per split choice, so neither adds work per sample.
BASE_SPEC = [
    (CLI, "sharded_estimate", "sampler.estimate", _count_samples),
    (SAMPLER, "sharded_estimate", "sampler.estimate", _count_samples),
    (CLI, "choose_split_refined", "splitter.choose_split", _note_split),
    (SAMPLER, "choose_split_refined", "splitter.choose_split", _note_split),
]

# Layer boundaries for the traced run: (module, attribute, span or None for
# a call counter, hook run on the result outside the span).
SPEC = BASE_SPEC + [
    (CLI, "parse_hypergraph", "hypercore.parse", None),
    (SPLITTER, "gaifman", "hypercore.gaifman", _count_pairs),
    (BUILDUP, "gaifman", "hypercore.gaifman", _count_pairs),
    (SPLITTER, "AlphaSplit.__init__", "splitter.alpha_split", None),
    (CLI, "build_counters", "buildup.build", None),
    (SAMPLER, "build_counters", "buildup.build", None),
    (BUILDUP, "combined_neighbor_weight", "buildup.nw", None),
    (CLI, "write_table", "buildup.write_table", _table_bytes),
    (CLI, "read_table", "buildup.read_table", None),
    (CLI, "counterset_from_table", "buildup.load_table", None),
    (CLI, "build_generators", "sampler.generators", None),
    (SAMPLER, "build_generators", "sampler.generators", None),
    (SAMPLER, "VoseAlias.__init__", "sampler.alias_build", None),
    (SAMPLER, "VoseAlias.draw", None, None),
    (SAMPLER, "Generators.sample_neigh", None, None),
    (SAMPLER, "Generators.sample_treelet", "sampler.treelet", None),
    (SAMPLER, "spanning_tree_count", "sampler.sigma", None),
    (SAMPLER, "sample_outcome", "sampler.outcome", None),
    (SAMPLER, "extract_hypergraphlet", "sampler.extract", None),
    (SAMPLER, "canonical_key", "canonlab.key", _key_seen),
]


def _peak_rss_kb():
    """This process's peak RSS since exec.

    The kernel's ru_maxrss, which wait4 reports to the parent, also counts
    the parent's memory that the child shared before exec, so a big parent
    would inflate it.  VmHWM belongs to the new image alone.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run(record_path, cli_args, trace=False, op_id=0):
    """Run the CLI under wrappers; return its exit code."""
    from hypergraphlets import canonlab, cli

    tracer = Tracer(op_id)
    tracer.keys_seen = set()
    cache_before = len(canonlab._KEY_CACHE)
    tracer.install(SPEC if trace else BASE_SPEC)
    try:
        code = cli.main(cli_args)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    tracer.counts["key_cache_growth"] = len(canonlab._KEY_CACHE) - cache_before
    tracer.notes["key_cache_entries"] = len(canonlab._KEY_CACHE)
    tracer.notes["shapes"] = len(tracer.keys_seen)
    tracer.notes["peak_rss_kb"] = _peak_rss_kb()
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    return code


def main(argv):
    if "--" not in argv:
        print("usage: launch.py RECORD [--trace] [--op-id N] -- CLI ARGS...",
              file=sys.stderr)
        return 2
    cut = argv.index("--")
    own, cli_args = argv[:cut], argv[cut + 1:]
    record = own[0]
    trace = "--trace" in own
    op_id = int(own[own.index("--op-id") + 1]) if "--op-id" in own else 0
    return run(record, cli_args, trace=trace, op_id=op_id)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
